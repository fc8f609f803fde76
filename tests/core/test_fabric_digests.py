"""Fabric-configuration gate: configured devices reproduce pinned digests.

Every case in ``fabric_digest_cases`` is mapped and configured again
and its digests (logic-block memories, the serialized configuration,
each context's connectivity table and the LUT pattern statistics)
compared with ``golden/fabric_digests.json``.  A rewrite of how the
device is configured or how LUT statistics are gathered that keeps
every stored bit passes unchanged.  Regenerate deliberately with
``PYTHONPATH=src python tests/core/regen_fabric_digests.py``.
"""

import json
import os

import pytest

from fabric_digest_cases import CORPUS, MAP8_REQUESTS, compute_digests
from repro.netlist.frontend.corpus import discover_cases

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "fabric_digests.json")


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


def test_every_pinned_fabric_reproduces(digests):
    with open(GOLDEN) as fh:
        expected = json.load(fh)
    assert set(digests) == set(expected)
    changed = sorted(
        f"{key}:{part}" for key, want in expected.items()
        for part in want if digests[key][part] != want[part]
    )
    assert not changed, f"{len(changed)} fabric digests changed: {changed[:5]}"


def test_suite_covers_map8_and_the_corpus(digests):
    assert sum(k.startswith("map8/") for k in digests) == MAP8_REQUESTS
    assert sum(k.startswith("corpus/") for k in digests) == len(
        discover_cases(CORPUS))
    # an 8-context map8 case pins eight connectivity tables
    assert all(len(d["connectivity"]) == 8
               for k, d in digests.items() if k.startswith("map8/"))
