"""Tests for bitstream serialization."""

import json

import pytest

from repro.analysis.experiments import map_program
from repro.core.fpga import MultiContextFPGA
from repro.core.serialize import (
    dump_configuration,
    load_configuration,
    roundtrip_equal,
)
from repro.errors import ConfigurationError
from repro.netlist.synth import synthesize
from repro.netlist.techmap import tech_map
from repro.workloads.multicontext import mutated_program


@pytest.fixture(scope="module")
def configured():
    base = tech_map(
        synthesize(["a", "b", "c"], {"o1": "a & b | c", "o2": "a ^ c"}), k=4
    )
    prog = mutated_program(base, n_contexts=2, fraction=0.3, seed=4)
    mapped = map_program(prog, seed=1, effort=0.3)
    device = MultiContextFPGA(mapped.params)
    device.configure_program(prog, mapped.placements, mapped.routes)
    return device


class TestRoundtrip:
    def test_dump_and_load(self, configured):
        text = dump_configuration(configured)
        loaded = load_configuration(text)
        assert roundtrip_equal(configured, loaded)

    def test_loaded_planes_evaluate_identically(self, configured):
        text = dump_configuration(configured)
        loaded = load_configuration(text)
        for coord, lb in configured.logic_blocks.items():
            for ctx in range(configured.params.n_contexts):
                for word in (0, 1, 7, 15):
                    assert lb.lut.evaluate(ctx, word) == \
                        loaded.logic_blocks[coord].lut.evaluate(ctx, word)

    def test_json_is_stable(self, configured):
        assert dump_configuration(configured) == dump_configuration(configured)


class TestIntegrity:
    def test_digest_detects_corruption(self, configured):
        text = dump_configuration(configured)
        body = json.loads(text)
        # flip one stored table bit
        ctx = next(iter(body["contexts"].values()))
        key = next(iter(ctx["luts"]))
        entry = ctx["luts"][key]
        raw = bytearray(bytes.fromhex(entry["table_hex"]))
        raw[0] ^= 1
        entry["table_hex"] = raw.hex()
        with pytest.raises(ConfigurationError, match="digest"):
            load_configuration(json.dumps(body))

    def test_version_checked(self, configured):
        body = json.loads(dump_configuration(configured))
        body["format"] = 99
        with pytest.raises(ConfigurationError, match="format"):
            load_configuration(json.dumps(body))

    def test_param_mismatch_rejected(self, configured):
        from repro.arch.params import ArchParams

        text = dump_configuration(configured)
        other = MultiContextFPGA(ArchParams(cols=3, rows=3, n_contexts=2))
        with pytest.raises(ConfigurationError, match="parameters"):
            load_configuration(text, device=other)

    def test_empty_device_rejected(self):
        from repro.arch.params import ArchParams

        device = MultiContextFPGA(ArchParams(cols=3, rows=3))
        with pytest.raises(ConfigurationError):
            dump_configuration(device)
