"""Route-equivalence gate: the compiled engine reproduces pinned routes.

Every case in ``route_digest_cases`` is routed again and its sha256
compared with ``golden/route_digests.json``.  Unlike the legacy
equivalence suite this covers defect routing (wire and switch defects)
and warm-started delta-reroutes, which the legacy router cannot check.  Regenerate
deliberately with ``PYTHONPATH=src python tests/route/regen_route_digests.py``.
"""

import json
import os

import pytest

from route_digest_cases import compute_digests

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "route_digests.json")


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


def test_every_pinned_route_reproduces(digests):
    with open(GOLDEN) as fh:
        expected = json.load(fh)
    assert set(digests) == set(expected)
    changed = sorted(k for k in expected if digests[k] != expected[k])
    assert not changed, f"{len(changed)} routings changed: {changed[:5]}"


def test_suite_covers_defects_and_warm_reroutes(digests):
    assert sum(k.startswith("equiv/") for k in digests) == 6
    assert sum(k.startswith("defects/") for k in digests) == 2 * 5 * 4
    assert sum(k.startswith("warm/") for k in digests) >= 1
