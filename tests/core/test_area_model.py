"""Tests for the Section-5 area model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.area_model import (
    MAX_CONTEXTS,
    AreaConstants,
    AreaModel,
    PatternMix,
    Technology,
    TileCounts,
    analytic_pattern_mix,
    average_general_decoder_ses,
    expected_distinct_planes,
    static_power_model,
)
from repro.core.patterns import PatternClass
from repro.errors import ArchitectureError


class TestConstants:
    def test_se_area_cmos(self):
        """2 SRAM bits + mux2 + pass gate = 18T."""
        assert AreaConstants().se_area(Technology.CMOS) == 18.0

    def test_fepg_is_half(self):
        """Paper Section 5: FePG SE = 50% of CMOS SE."""
        c = AreaConstants()
        assert c.se_area(Technology.FEPG) == c.se_area(Technology.CMOS) / 2

    def test_conventional_cell_grows_with_contexts(self):
        c = AreaConstants()
        assert c.conventional_cell_area(8) > c.conventional_cell_area(4)

    def test_conventional_rejects_non_pow2(self):
        with pytest.raises(ArchitectureError):
            AreaConstants().conventional_cell_area(3)


class TestPatternMix:
    def test_must_sum_to_one(self):
        with pytest.raises(ArchitectureError):
            PatternMix(0.5, 0.5, 0.5)

    def test_from_census(self):
        census = {
            PatternClass.CONSTANT: 90,
            PatternClass.LITERAL: 5,
            PatternClass.GENERAL: 5,
        }
        mix = PatternMix.from_census(census)
        assert mix.constant == pytest.approx(0.9)

    def test_empty_census_all_constant(self):
        mix = PatternMix.from_census({})
        assert mix.constant == 1.0


class TestAnalyticMix:
    def test_zero_change_rate_all_constant(self):
        mix = analytic_pattern_mix(0.0, 4)
        assert mix.constant == 1.0

    def test_five_percent_point(self):
        """At 5% change: ~86% constant — most bits never change."""
        mix = analytic_pattern_mix(0.05, 4)
        assert mix.constant == pytest.approx((1 - 0.05) ** 3)
        assert mix.general > mix.literal  # single off-middle flips dominate

    @given(st.floats(0.0, 1.0))
    def test_mix_always_normalized(self, p):
        mix = analytic_pattern_mix(p, 4)
        assert mix.constant + mix.literal + mix.general == pytest.approx(1.0)

    def test_monotone_in_change_rate(self):
        prev = 1.1
        for p in (0.0, 0.02, 0.05, 0.1, 0.3):
            c = analytic_pattern_mix(p, 4).constant
            assert c < prev or p == 0.0
            prev = c


class TestContextLimit:
    """The model enumerates masks of the context count, so it stops at
    :data:`MAX_CONTEXTS`; nothing here runs it past that."""

    @pytest.mark.parametrize("evaluate", [
        lambda n: analytic_pattern_mix(0.05, n),
        average_general_decoder_ses,
        lambda n: AreaModel().paper_operating_point(n_contexts=n),
    ], ids=["mix", "decoder", "operating-point"])
    def test_rejects_counts_past_the_limit(self, evaluate):
        with pytest.raises(ArchitectureError, match="at most 16 contexts"):
            evaluate(2 * MAX_CONTEXTS)

    def test_counts_within_the_limit_evaluate(self):
        assert MAX_CONTEXTS == 16
        mix = analytic_pattern_mix(0.05, 8)
        assert mix.constant + mix.literal + mix.general == pytest.approx(1.0)


class TestOneOperatingPoint:
    """``repro area`` and the contexts sweep read one operating point
    the same way: the paper device's tile counts at that context
    count."""

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_area_request_equals_sweep_point(self, n):
        from repro.analysis.sweep import sweep_contexts_points
        from repro.api import AreaRequest, Session

        result = Session().run(AreaRequest(contexts=n))
        (point,) = sweep_contexts_points([n])
        assert result.technologies["cmos"]["ratio"] == point.cmos_ratio
        assert result.technologies["fepg"]["ratio"] == point.fepg_ratio

    def test_counts_follow_the_context_count(self):
        from repro.arch.params import paper_params

        at8 = TileCounts.from_arch(paper_params().with_(n_contexts=8))
        model = AreaModel()
        assert model.paper_operating_point(n_contexts=8) == \
            model.paper_operating_point(n_contexts=8, counts=at8)


class TestDistinctPlanes:
    def test_bounds(self):
        assert expected_distinct_planes(0.0, 4) == 1.0
        assert expected_distinct_planes(1.0, 4) == 4.0

    def test_rejects_bad_prob(self):
        with pytest.raises(ArchitectureError):
            expected_distinct_planes(1.5, 4)


class TestHeadlineNumbers:
    """The paper's Section-5 results at its stated operating point."""

    def test_cmos_ratio_near_45_percent(self):
        model = AreaModel(AreaConstants.paper_calibrated())
        cmp = model.paper_operating_point(tech=Technology.CMOS)
        assert cmp.ratio == pytest.approx(0.45, abs=0.02)

    def test_fepg_ratio_near_37_percent(self):
        model = AreaModel(AreaConstants.paper_calibrated())
        cmp = model.paper_operating_point(tech=Technology.FEPG)
        assert cmp.ratio == pytest.approx(0.37, abs=0.02)

    def test_fepg_always_beats_cmos_proposed(self):
        model = AreaModel()
        cm = model.paper_operating_point(tech=Technology.CMOS)
        fe = model.paper_operating_point(tech=Technology.FEPG)
        assert fe.ratio < cm.ratio

    def test_proposed_always_beats_conventional_at_low_change(self):
        model = AreaModel()
        for p in (0.0, 0.03, 0.05, 0.1):
            cmp = model.paper_operating_point(change_rate=p)
            assert cmp.ratio < 1.0

    def test_textbook_model_same_shape(self):
        """The uncalibrated model must agree on ordering (shape check)."""
        model = AreaModel(AreaConstants.textbook())
        cm = model.paper_operating_point(tech=Technology.CMOS)
        fe = model.paper_operating_point(tech=Technology.FEPG)
        assert fe.ratio < cm.ratio < 1.0


class TestModelProperties:
    def test_ratio_degrades_with_change_rate(self):
        """More changes -> more GENERAL decoders -> smaller advantage."""
        model = AreaModel()
        r = [
            model.paper_operating_point(change_rate=p).ratio
            for p in (0.0, 0.05, 0.2, 0.5)
        ]
        assert r == sorted(r)

    def test_sharing_reduces_area(self):
        model = AreaModel()
        lo = model.paper_operating_point(sharing_factor=1.0)
        hi = model.paper_operating_point(sharing_factor=4.0)
        assert hi.ratio < lo.ratio

    def test_lb_packing_credit(self):
        model = AreaModel()
        base = model.paper_operating_point(lb_packing_factor=1.0)
        packed = model.paper_operating_point(lb_packing_factor=0.67)
        assert packed.ratio < base.ratio

    def test_general_decoder_average_is_four(self):
        assert average_general_decoder_ses(4) == 4.0

    def test_bad_sharing_rejected(self):
        model = AreaModel()
        with pytest.raises(ArchitectureError):
            model.proposed_switch_bit(PatternMix(1, 0, 0), 4, sharing_factor=0.5)


class TestBreakdown:
    def test_components_positive(self):
        model = AreaModel()
        cmp = model.paper_operating_point()
        assert cmp.proposed.switch_area > 0
        assert cmp.proposed.lut_area > 0
        assert cmp.proposed.overhead_area > 0
        assert cmp.conventional.overhead_area == 0

    def test_tile_counts_from_arch(self):
        from repro.arch.params import paper_params

        counts = TileCounts.from_arch(paper_params())
        assert counts.lut_bits == 2 * 64
        assert counts.switch_bits > 0


class TestStaticPower:
    def test_conventional_leaks_most(self):
        counts = TileCounts(switch_bits=100, lut_bits=128)
        conv = static_power_model(counts, 4, Technology.CMOS)
        prop = static_power_model(counts, 4, Technology.CMOS, distinct_planes=1.3)
        fepg = static_power_model(counts, 4, Technology.FEPG, distinct_planes=1.3)
        assert conv > prop > fepg

    def test_fepg_leaks_only_plane_sram(self):
        counts = TileCounts(switch_bits=100, lut_bits=128)
        fepg = static_power_model(counts, 4, Technology.FEPG, distinct_planes=1.0)
        assert fepg == pytest.approx(128 / 4)
