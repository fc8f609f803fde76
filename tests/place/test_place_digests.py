"""Placement-equivalence gate: the placer reproduces pinned placements.

Every case in ``place_digest_cases`` is placed again and its sha256
(cells, pads, cost and the generator's state after the call) compared
with ``golden/place_digests.json``.  A placer rewrite that keeps the
proposal schedule, acceptance test and RNG call sequence passes
unchanged.  Regenerate deliberately with
``PYTHONPATH=src python tests/place/regen_place_digests.py``.
"""

import json
import os

import pytest

from place_digest_cases import EFFORTS, GRIDS, SEEDS, compute_digests

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "place_digests.json")


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


def test_every_pinned_placement_reproduces(digests):
    with open(GOLDEN) as fh:
        expected = json.load(fh)
    assert set(digests) == set(expected)
    changed = sorted(k for k in expected if digests[k] != expected[k])
    assert not changed, f"{len(changed)} placements changed: {changed[:5]}"


def test_suite_covers_the_placer_options(digests):
    assert sum(k.startswith("grid/") for k in digests) == len(GRIDS) * len(SEEDS) * 4
    assert sum(k.startswith("effort/") for k in digests) == len(EFFORTS)
    assert sum(k.startswith("dff/") for k in digests) == 2 * len(SEEDS)
    assert sum(k.startswith("single/") for k in digests) == 2 * len(SEEDS)
    assert sum("share_aware=True" in k for k in digests) >= 2
    assert sum("share_aware=False" in k for k in digests) >= 2
