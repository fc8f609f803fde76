"""Sharing-equivalence gate: ``analyze_sharing`` reproduces pinned reports.

Every case in ``sharing_digest_cases`` is analysed again and its sha256
(groups in order, per-context cell counts, unsignable count) compared
with ``golden/sharing_digests.json``.  A rewrite of the signature
computation that keeps every signature and the group order passes
unchanged.  Regenerate deliberately with
``PYTHONPATH=src python tests/netlist/regen_sharing_digests.py``.
"""

import json
import os

import pytest

from repro.api.workloads import WORKLOADS
from sharing_digest_cases import CONTEXTS, MUTATIONS, SEEDS, compute_digests

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "sharing_digests.json")


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


def test_every_pinned_report_reproduces(digests):
    with open(GOLDEN) as fh:
        expected = json.load(fh)
    assert set(digests) == set(expected)
    changed = sorted(k for k in expected if digests[k] != expected[k])
    assert not changed, f"{len(changed)} sharing reports changed: {changed[:5]}"


def test_suite_covers_every_workload(digests):
    per_workload = len(SEEDS) * len(CONTEXTS) * len(MUTATIONS)
    assert len(digests) == len(WORKLOADS) * per_workload
    for name in WORKLOADS:
        assert sum(k.startswith(f"{name}/") for k in digests) == per_workload
