"""JSON contract tests for the request types: round trips, validation,
schema versioning."""

import json

import pytest

from repro.api import (
    SCHEMA_VERSION,
    AreaRequest,
    BatchRequest,
    ExecutionConfig,
    MapRequest,
    ReorderRequest,
    SweepRequest,
    YieldRequest,
    request_from_dict,
)
from repro.errors import RequestError

ALL_REQUESTS = [
    MapRequest(workload="crc", contexts=4, mutation=0.1,
               execution=ExecutionConfig(seed=3)),
    BatchRequest(workloads=("adder", "cmp"), contexts=2,
                 execution=ExecutionConfig(backend="thread", workers=2)),
    SweepRequest(what="channel-width", workload="parity", grid=5,
                 values=(6, 8),
                 execution=ExecutionConfig(backend="process", workers=2,
                                           effort=0.2)),
    SweepRequest(what="change-rate"),
    YieldRequest(workload="adder", grid=5, width=7, rates=(0.0, 0.03),
                 trials=4, model="clustered",
                 execution=ExecutionConfig(seed=1, effort=0.2)),
    YieldRequest(spares=(0, 2), rates=(0.05,)),
    AreaRequest(change_rate=0.1, contexts=8, sharing=1.5,
                constants="textbook"),
    ReorderRequest(workload="random", mutation=0.3),
]


class TestRoundTrip:
    @pytest.mark.parametrize("req", ALL_REQUESTS,
                             ids=lambda r: type(r).__name__ + r.TYPE_TAG)
    def test_json_round_trip(self, req):
        wire = json.loads(json.dumps(req.to_dict()))
        assert type(req).from_dict(wire) == req

    @pytest.mark.parametrize("req", ALL_REQUESTS,
                             ids=lambda r: type(r).__name__ + r.TYPE_TAG)
    def test_generic_dispatch(self, req):
        assert request_from_dict(req.to_dict()) == req

    def test_header_fields(self):
        d = MapRequest().to_dict()
        assert d["schema_version"] == SCHEMA_VERSION
        assert d["type"] == "map_request"


class TestSchemaVersion:
    def test_current_version_is_one(self):
        # bump this test (and the golden fixtures) deliberately when the
        # serialized shapes change
        assert SCHEMA_VERSION == 1

    def test_newer_version_rejected(self):
        d = MapRequest().to_dict()
        d["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(RequestError, match="unsupported schema_version"):
            MapRequest.from_dict(d)

    def test_missing_version_rejected(self):
        d = MapRequest().to_dict()
        del d["schema_version"]
        with pytest.raises(RequestError, match="schema_version"):
            MapRequest.from_dict(d)

    def test_mismatched_type_tag_rejected(self):
        d = MapRequest().to_dict()
        d["type"] = "sweep_request"
        with pytest.raises(RequestError, match="does not match"):
            MapRequest.from_dict(d)

    def test_unknown_type_rejected(self):
        with pytest.raises(RequestError, match="unknown request type"):
            request_from_dict({"schema_version": 1, "type": "bogus"})

    def test_unknown_request_key_rejected(self):
        d = {"schema_version": 1, "type": "map_request", "workloda": "crc"}
        with pytest.raises(RequestError, match="workloda"):
            request_from_dict(d)

    def test_malformed_result_payload_raises_request_error(self):
        from repro.api import result_from_dict

        with pytest.raises(RequestError, match="malformed map_result"):
            result_from_dict({"schema_version": 1, "type": "map_result"})
        with pytest.raises(RequestError, match="malformed sweep_result"):
            result_from_dict({"schema_version": 1, "type": "sweep_result"})


class TestExecutionConfigValidation:
    def test_defaults_valid(self):
        cfg = ExecutionConfig()
        assert cfg.backend == "sequential"
        assert cfg.workers is None
        assert cfg.effort is None

    def test_bad_backend(self):
        with pytest.raises(RequestError, match="backend"):
            ExecutionConfig(backend="cluster")

    @pytest.mark.parametrize("workers", [0, -1, 1.5, "two"])
    def test_bad_workers(self, workers):
        with pytest.raises(RequestError, match="workers"):
            ExecutionConfig(workers=workers)

    @pytest.mark.parametrize("effort", [0.0, -0.1, 1.5])
    def test_bad_effort(self, effort):
        with pytest.raises(RequestError, match="effort"):
            ExecutionConfig(effort=effort)

    def test_bad_seed(self):
        with pytest.raises(RequestError, match="seed"):
            ExecutionConfig(seed="seven")

    def test_unknown_keys_rejected(self):
        with pytest.raises(RequestError, match="unknown execution keys"):
            ExecutionConfig.from_dict({"worker": 4})

    def test_effort_or(self):
        assert ExecutionConfig().effort_or(0.5) == 0.5
        assert ExecutionConfig(effort=0.2).effort_or(0.5) == 0.2


class TestRequestValidation:
    def test_unknown_workload(self):
        with pytest.raises(RequestError, match="unknown workloads"):
            MapRequest(workload="bogus")

    def test_batch_unknown_workloads_all_named(self):
        with pytest.raises(RequestError, match="unknown workloads"):
            BatchRequest(workloads=("adder", "bogus", "nope"))

    def test_batch_empty(self):
        with pytest.raises(RequestError, match="at least one"):
            BatchRequest(workloads=())

    def test_bad_sweep_axis(self):
        with pytest.raises(RequestError, match="what"):
            SweepRequest(what="voltage")

    def test_bad_yield_model(self):
        with pytest.raises(RequestError, match="model"):
            YieldRequest(model="radial")

    def test_negative_rate(self):
        with pytest.raises(RequestError, match="rates"):
            YieldRequest(rates=(-0.1,))

    def test_empty_rates(self):
        with pytest.raises(RequestError, match="at least one"):
            YieldRequest(rates=())

    def test_empty_spares(self):
        with pytest.raises(RequestError, match="spares"):
            YieldRequest(spares=())

    def test_negative_spares(self):
        with pytest.raises(RequestError, match="spare widths"):
            YieldRequest(spares=(-5,))

    def test_bad_constants(self):
        with pytest.raises(RequestError, match="constants"):
            AreaRequest(constants="guesswork")

    def test_bad_mutation(self):
        with pytest.raises(RequestError, match="mutation"):
            MapRequest(mutation=1.5)

    def test_non_numeric_sweep_values(self):
        with pytest.raises(RequestError, match="must be numbers"):
            SweepRequest(what="channel-width", values=("oops",))

    def test_fractional_integer_axis_values(self):
        with pytest.raises(RequestError, match="must be integers"):
            SweepRequest(what="channel-width", values=(2.5,))

    @pytest.mark.parametrize("make", [
        lambda: AreaRequest(contexts=3),
        lambda: SweepRequest(what="change-rate", values=(1.5,)),
        lambda: SweepRequest(what="change-rate", values=(0.05, -0.1)),
        lambda: SweepRequest(what="contexts", values=(0,)),
        lambda: SweepRequest(what="contexts", values=(4, 3)),
        lambda: SweepRequest(what="channel-width", values=(0,)),
        lambda: SweepRequest(what="fc", values=(0.0,)),
        lambda: SweepRequest(what="double-fraction", values=(2.0,)),
        lambda: AreaRequest(contexts=32),
        lambda: SweepRequest(what="contexts", values=(4, 64)),
    ], ids=["area-contexts-3", "change-rate-1.5", "change-rate-neg",
            "contexts-0", "contexts-3", "channel-width-0", "fc-0",
            "double-fraction-2", "area-contexts-32", "contexts-64"])
    def test_values_the_model_rejects(self, make):
        """Values the architecture or area model would reject mid-run
        fail at construction instead."""
        with pytest.raises(RequestError):
            make()


class TestSweepDefaults:
    def test_values_default_per_axis(self):
        assert SweepRequest(what="channel-width").resolved_values() == \
            [4, 6, 8, 10, 12]
        assert SweepRequest(what="contexts").resolved_values() == \
            [2, 4, 8, 16]

    def test_integer_axes_cast(self):
        req = SweepRequest(what="channel-width", values=(6.0, 8.0))
        assert req.resolved_values() == [6, 8]

    def test_analytic_property(self):
        assert SweepRequest(what="change-rate").analytic
        assert not SweepRequest(what="fc").analytic


class TestRouteWorkersConfig:
    @pytest.mark.parametrize("route_workers", [0, -3, 1.5, "two"])
    def test_bad_route_workers(self, route_workers):
        with pytest.raises(RequestError, match="route_workers"):
            ExecutionConfig(route_workers=route_workers)

    def test_round_trip(self):
        cfg = ExecutionConfig(backend="thread", workers=2, route_workers=3)
        assert ExecutionConfig.from_dict(cfg.to_dict()) == cfg

    def test_old_payloads_without_route_workers_still_load(self):
        cfg = ExecutionConfig.from_dict(
            {"backend": "sequential", "workers": None, "seed": 0,
             "effort": None}
        )
        assert cfg.route_workers is None


class TestTelemetryConfig:
    def test_off_by_default_and_omitted_from_payload(self):
        cfg = ExecutionConfig()
        assert cfg.telemetry is False
        # omit-when-off: payloads (and resume keys hashed from them)
        # stay byte-identical to pre-telemetry schemas
        assert "telemetry" not in cfg.to_dict()
        assert ExecutionConfig(telemetry=False).to_dict() == cfg.to_dict()

    def test_round_trip_when_on(self):
        cfg = ExecutionConfig(telemetry=True)
        d = cfg.to_dict()
        assert d["telemetry"] is True
        assert ExecutionConfig.from_dict(d) == cfg

    def test_non_bool_rejected(self):
        with pytest.raises(RequestError, match="telemetry"):
            ExecutionConfig(telemetry=1)


class TestRequestTotalRows:
    def test_single_shot_requests(self):
        from repro.api import request_total_rows

        assert request_total_rows(MapRequest()) == 1
        assert request_total_rows(AreaRequest()) == 1
        assert request_total_rows(ReorderRequest()) == 1

    def test_batch_and_grids(self):
        from repro.api import SWEEP_DEFAULTS, request_total_rows

        assert request_total_rows(
            BatchRequest(workloads=("adder", "crc", "cmp"))) == 3
        assert request_total_rows(
            SweepRequest(what="channel-width", values=(6, 8, 10, 12))) == 4
        assert request_total_rows(SweepRequest(what="fc")) == \
            len(SWEEP_DEFAULTS["fc"])
        assert request_total_rows(YieldRequest(rates=(0.0, 0.01))) == 2
        assert request_total_rows(
            YieldRequest(rates=(0.01,), spares=(0, 1, 2))) == 3

    def test_unsupported_type(self):
        from repro.api import request_total_rows

        with pytest.raises(RequestError):
            request_total_rows(object())
