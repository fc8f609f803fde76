"""Defect-map gate: sampled and explicit maps reproduce pinned digests.

Every case in ``defect_digest_cases`` is built again and its digests
(defect ids, bad tiles, the lowered node mask and edge array, and the
dirty nets and salvaged chains on the golden ``random`` mapping) are
compared with ``golden/defect_digests.json``.  A rewrite of how maps
are stored or read that keeps every value passes unchanged.
Regenerate deliberately with
``PYTHONPATH=src python tests/reliability/regen_defect_digests.py``.
"""

import json
import os

import pytest

from defect_digest_cases import (
    CLUSTERED_RATES,
    SEEDS,
    SUBSTRATES,
    UNIFORM_RATES,
    compute_digests,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "defect_digests.json")


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


def test_every_pinned_defect_map_reproduces(digests):
    with open(GOLDEN) as fh:
        expected = json.load(fh)
    assert set(digests) == set(expected)
    changed = sorted(
        f"{key}:{part}" for key, want in expected.items()
        for part in want if digests[key][part] != want[part]
    )
    assert not changed, f"{len(changed)} defect digests changed: {changed[:5]}"


def test_suite_covers_both_models_and_an_explicit_map(digests):
    per_substrate = len(SEEDS) * (len(UNIFORM_RATES) + len(CLUSTERED_RATES))
    assert len(digests) == len(SUBSTRATES) * per_substrate + 1
    assert sum(k.endswith("/explicit") for k in digests) == 1
