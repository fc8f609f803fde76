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
from collections import defaultdict

import numpy as np
import pytest

from defect_digest_cases import (
    CLUSTERED_RATES,
    SEEDS,
    SUBSTRATES,
    UNIFORM_RATES,
    compute_digests,
    defect_cases,
)
from repro.arch.shared import publish_defect_batch

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


def test_shared_batch_round_trips_every_case():
    batches = defaultdict(list)
    for key, c, dm in defect_cases():
        batches[(c.params, dm.model)].append((c, dm))
    for cases in batches.values():
        maps = [dm for _c, dm in cases]
        shm, handle = publish_defect_batch(maps)
        try:
            view = handle.attach()
            for i, (c, want) in enumerate(cases):
                got = view.map_for(c, i, want.rate, want.seed)
                assert got.model == want.model
                assert got.rate == want.rate and got.seed == want.seed
                assert np.array_equal(got.wire_defects, want.wire_defects)
                assert np.array_equal(got.switch_defects,
                                      want.switch_defects)
                assert got.bad_tiles == want.bad_tiles
                assert np.array_equal(got.node_ok, want.node_ok)
                assert np.array_equal(got.live_edge_dst(c),
                                      want.live_edge_dst(c))
                assert got.n_defects == want.n_defects
                assert got.to_dict() == want.to_dict()
        finally:
            shm.close()
            shm.unlink()
