"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main

#: A BLIF netlist of the pinned corpus.
ADDER_BLIF = (Path(__file__).parents[1] / "regression_tests" / "comb_adder2"
              / "add2.blif")

SPEC_DOC = {
    "schema_version": 1,
    "name": "cli-spec",
    "workload": "adder",
    "arch": {"grid": 5, "width": 7},
    "execution": {"backend": "sequential", "seed": 0, "effort": 0.2},
    "stages": [
        {"stage": "map"},
        {"stage": "sweep", "what": "channel-width", "values": [6, 7]},
        {"stage": "yield", "rates": [0.0, 0.03], "trials": 3},
        {"stage": "report"},
    ],
}


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_DOC))
    return str(path)


class TestPatterns:
    def test_runs(self, capsys):
        assert main(["patterns"]) == 0
        out = capsys.readouterr().out
        assert "S0" in out
        assert "general" in out

    def test_eight_contexts(self, capsys):
        assert main(["patterns", "--contexts", "8"]) == 0
        assert "S2" in capsys.readouterr().out


class TestDecoder:
    def test_fig9(self, capsys):
        assert main(["decoder", "1000"]) == 0
        out = capsys.readouterr().out
        assert "SEs=4" in out

    def test_multiple(self, capsys):
        assert main(["decoder", "1111", "0101"]) == 0
        out = capsys.readouterr().out
        assert "constant" in out and "literal" in out

    def test_bad_pattern(self, capsys):
        assert main(["decoder", "10x0"]) == 2


class TestArea:
    def test_paper_point(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "44.8%" in out
        assert "37.1%" in out

    def test_textbook(self, capsys):
        assert main(["area", "--constants", "textbook"]) == 0
        assert "%" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert main(["area", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["technologies"]["cmos"]["ratio"] == pytest.approx(0.448, abs=0.01)
        assert data["technologies"]["fepg"]["ratio"] == pytest.approx(0.371, abs=0.01)
        breakdown = data["technologies"]["cmos"]["proposed"]
        assert breakdown["total"] == pytest.approx(
            breakdown["switch_area"] + breakdown["lut_area"]
            + breakdown["overhead_area"]
        )


class TestMap:
    def test_crc_workload(self, capsys):
        assert main(["map", "--workload", "crc"]) == 0
        out = capsys.readouterr().out
        assert "verified=True" in out
        assert "constant" in out

    def test_json_output(self, capsys):
        assert main(["map", "--workload", "crc", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["workload"] == "crc"
        assert data["verified"] is True
        assert data["wirelength"] > 0
        assert data["contexts"] == 4
        assert abs(sum(data["class_fractions"].values()) - 1.0) < 1e-9


class TestBatch:
    def test_two_workloads(self, capsys):
        assert main(["batch", "--workloads", "adder,crc"]) == 0
        out = capsys.readouterr().out
        assert "adder:" in out and "crc:" in out
        assert "verified=True" in out

    def test_json_output_with_workers(self, capsys):
        assert main(["batch", "--workloads", "adder,crc",
                     "--workers", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [d["workload"] for d in data] == ["adder", "crc"]
        assert all(d["verified"] for d in data)

    def test_unknown_workload_rejected(self, capsys):
        assert main(["batch", "--workloads", "bogus"]) == 2
        assert "unknown workloads" in capsys.readouterr().err


class TestReorder:
    def test_runs(self, capsys):
        assert main(["reorder", "--workload", "random", "--mutation", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "decoder cost" in out
        assert "schedule" in out


class TestTelemetryFlag:
    """``--telemetry`` on the mapping subcommands: the JSON result
    carries a ``metrics`` block with the route span and the router's
    pop counter."""

    def _assert_metrics(self, doc):
        metrics = doc["metrics"]
        spans = {s[0] for w in metrics["workers"] for s in w["spans"]}
        assert "map.route" in spans
        assert metrics["counters"]["router.pops"] > 0

    def _run(self, capsys, argv):
        assert main([*argv, "--telemetry", "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_map(self, capsys):
        self._assert_metrics(self._run(capsys, ["map", "--contexts", "2"]))

    def test_batch(self, capsys):
        data = self._run(capsys, ["batch", "--workloads", "adder",
                                  "--contexts", "2"])
        self._assert_metrics(data[0])

    def test_reorder(self, capsys):
        doc = self._run(capsys, ["reorder", "--contexts", "2"])
        assert doc["cost_after"] <= doc["cost_before"]
        self._assert_metrics(doc)

    def test_import(self, capsys):
        doc = self._run(capsys, ["import", str(ADDER_BLIF)])
        assert doc["verified"] is True
        self._assert_metrics(doc)

    def test_off_by_default(self, capsys):
        assert main(["map", "--contexts", "2", "--json"]) == 0
        assert "metrics" not in json.loads(capsys.readouterr().out)


class TestSweep:
    def test_change_rate(self, capsys):
        assert main(["sweep", "--what", "change-rate"]) == 0
        assert "change rate" in capsys.readouterr().out

    def test_contexts(self, capsys):
        assert main(["sweep", "--what", "contexts"]) == 0
        assert "contexts" in capsys.readouterr().out

    def test_change_rate_json(self, capsys):
        assert main(["sweep", "--what", "change-rate", "--values",
                     "0.0,0.05", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["sweep"] == "change-rate"
        assert [pt["value"] for pt in data["points"]] == [0.0, 0.05]
        assert all(0 < pt["cmos_ratio"] < 1 for pt in data["points"])

    def test_channel_width_table(self, capsys):
        assert main(["sweep", "--what", "channel-width", "--grid", "5",
                     "--values", "6,8", "--effort", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "channel-width" in out and "wirelength" in out

    def test_channel_width_json(self, capsys):
        assert main(["sweep", "--what", "channel-width", "--grid", "5",
                     "--values", "6,8", "--effort", "0.2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["sweep"] == "channel-width"
        assert data["workload"] == "adder"
        assert [pt["value"] for pt in data["points"]] == [6, 8]
        assert all(pt["routed"] for pt in data["points"])

    def test_fc_process_backend_json(self, capsys):
        # two values so the runner actually spawns pool workers (a
        # single job short-circuits to the sequential path)
        assert main(["sweep", "--what", "fc", "--workload", "cmp",
                     "--grid", "5", "--values", "1.0,0.5",
                     "--effort", "0.2",
                     "--backend", "process", "--workers", "2",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["backend"] == "process"
        assert [pt["value"] for pt in data["points"]] == [1.0, 0.5]
        assert data["points"][0]["routed"] is True

    def test_double_fraction_table(self, capsys):
        assert main(["sweep", "--what", "double-fraction", "--grid", "5",
                     "--values", "0.0,0.5", "--effort", "0.2"]) == 0
        assert "double-fraction" in capsys.readouterr().out


class TestYield:
    def test_defect_rate_table(self, capsys):
        assert main(["yield", "--grid", "5", "--width", "7",
                     "--defect-rate", "0.0,0.05", "--trials", "3",
                     "--effort", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "Monte Carlo yield" in out
        assert "defect rate" in out

    def test_json_output(self, capsys):
        assert main(["yield", "--grid", "5", "--width", "7",
                     "--defect-rate", "0.0,0.05", "--trials", "3",
                     "--effort", "0.2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["campaign"] == "defect-rate"
        assert [pt["defect_rate"] for pt in data["points"]] == [0.0, 0.05]
        assert data["points"][0]["yield_fraction"] == 1.0
        for pt in data["points"]:
            assert sum(pt["repair_histogram"].values()) == 3

    def test_spare_curve_json(self, capsys):
        assert main(["yield", "--grid", "5", "--width", "7",
                     "--defect-rate", "0.05", "--spare", "0,2",
                     "--trials", "3", "--effort", "0.2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["campaign"] == "spare-width"
        assert [pt["spare_tracks"] for pt in data["points"]] == [0, 2]
        assert [pt["channel_width"] for pt in data["points"]] == [7, 9]

    def test_process_backend_matches_sequential(self, capsys):
        args = ["yield", "--grid", "5", "--width", "7",
                "--defect-rate", "0.03", "--trials", "3",
                "--effort", "0.2", "--json"]
        assert main(args) == 0
        seq = json.loads(capsys.readouterr().out)
        assert main(args + ["--backend", "process", "--workers", "2"]) == 0
        proc = json.loads(capsys.readouterr().out)
        assert seq["points"] == proc["points"]

    def test_bad_rate_rejected(self, capsys):
        assert main(["yield", "--defect-rate", "abc"]) == 2

    def test_clustered_model(self, capsys):
        assert main(["yield", "--grid", "5", "--width", "7",
                     "--defect-rate", "0.05", "--trials", "3",
                     "--model", "clustered", "--effort", "0.2",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["model"] == "clustered"


class TestRun:
    def test_summary_output(self, capsys, spec_file):
        assert main(["run", spec_file]) == 0
        out = capsys.readouterr().out
        assert "cli-spec" in out
        assert "map:" in out and "sweep:" in out and "yield:" in out

    def test_json_output(self, capsys, spec_file):
        assert main(["run", spec_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["type"] == "spec_result"
        assert data["name"] == "cli-spec"
        assert [s["type"] for s in data["stages"]] == [
            "map_result", "sweep_result", "yield_result", "report_result",
        ]

    def test_stream_concatenates_to_blocking(self, capsys, spec_file):
        """The CI contract: streamed per-row events, grouped by stage,
        must be bit-identical to the blocking result's rows."""
        assert main(["run", spec_file, "--json"]) == 0
        blocking = json.loads(capsys.readouterr().out)
        assert main(["run", spec_file, "--stream"]) == 0
        events = [json.loads(line) for line in
                  capsys.readouterr().out.splitlines() if line.strip()]
        by_stage: dict = {}
        for ev in events:
            by_stage.setdefault(ev["stage"], []).append(ev["data"])
        stages = {s["type"]: s for s in blocking["stages"]}
        assert by_stage["sweep"] == stages["sweep_result"]["points"]
        assert by_stage["yield"] == stages["yield_result"]["points"]
        assert by_stage["map"] == [stages["map_result"]]
        assert by_stage["report"][0] == stages["report_result"]

    def test_stream_and_json_mutually_exclusive(self, spec_file):
        with pytest.raises(SystemExit):
            main(["run", spec_file, "--stream", "--json"])

    def test_missing_spec_rejected(self, capsys):
        assert main(["run", "/nonexistent/spec.json"]) == 2
        assert "cannot read spec" in capsys.readouterr().err

    def test_bad_spec_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "name": "x",
                                    "stages": [{"stage": "teleport"}]}))
        assert main(["run", str(path)]) == 2
        assert "unknown stage" in capsys.readouterr().err


class TestThinShell:
    def test_cli_has_no_direct_subsystem_calls(self):
        """The acceptance invariant: cli.py routes everything through
        repro.api — no SweepRunner/YieldRunner/map_batch/map_program in
        sight."""
        import inspect

        import repro.cli as cli

        src = inspect.getsource(cli)
        for needle in ("SweepRunner", "YieldRunner", "map_batch",
                       "run_full_flow", "map_program"):
            assert needle not in src, needle


class TestRequestErrors:
    """Invalid request values report uniformly: `error: ...` + exit 2."""

    def test_bad_mutation(self, capsys):
        assert main(["map", "--mutation", "1.5"]) == 2
        assert "mutation" in capsys.readouterr().err

    def test_empty_sweep_values(self, capsys):
        assert main(["sweep", "--what", "channel-width",
                     "--values", ""]) == 2
        assert "values" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, reason", [
        (["area", "--contexts", "3"], "power of two"),
        (["sweep", "--what", "contexts", "--values", "3"], "power of two"),
        (["sweep", "--what", "change-rate", "--values", "1.5"],
         "change_rate must be in [0, 1]"),
        (["area", "--contexts", "32"], "at most 16 contexts"),
        (["sweep", "--what", "contexts", "--values", "4,64"],
         "at most 16 contexts"),
    ])
    def test_values_the_model_rejects(self, capsys, argv, reason):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and reason in err


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestRunManaged:
    """`run --results-dir/--resume` rides the job layer, same rows."""

    def test_resume_requires_results_dir(self, capsys, spec_file):
        assert main(["run", spec_file, "--resume"]) == 2
        assert "--results-dir" in capsys.readouterr().err

    def test_managed_stream_matches_plain_stream(self, capsys, tmp_path,
                                                 spec_file):
        assert main(["run", spec_file, "--stream"]) == 0
        plain = [json.loads(line) for line in
                 capsys.readouterr().out.strip().splitlines()]
        assert main(["run", spec_file, "--stream",
                     "--results-dir", str(tmp_path / "r")]) == 0
        managed = [json.loads(line) for line in
                   capsys.readouterr().out.strip().splitlines()]
        assert managed == plain
        # and a resumed rerun replays the identical stream
        assert main(["run", spec_file, "--stream", "--resume",
                     "--results-dir", str(tmp_path / "r")]) == 0
        resumed = [json.loads(line) for line in
                   capsys.readouterr().out.strip().splitlines()]
        assert resumed == plain

    def test_artifacts_written(self, capsys, tmp_path, spec_file):
        results = tmp_path / "results"
        assert main(["run", spec_file, "--json",
                     "--results-dir", str(results)]) == 0
        json.loads(capsys.readouterr().out)  # valid result payload
        manifest = json.loads(
            (results / "specs" / "cli-spec" / "manifest.json").read_text()
        )
        assert sorted(manifest["stages"]) == ["0", "1", "2", "3"]

    def test_grid_spec_runs_all_children(self, capsys, tmp_path):
        doc = json.loads(json.dumps(SPEC_DOC))
        doc["name"] = "cli-grid"
        doc["stages"] = [{"stage": "map", "contexts": 2}]
        doc["grid"] = {"workloads": ["adder", "cmp"]}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [d["workload"] for d in docs] == ["adder", "cmp"]
        assert [d["name"] for d in docs] == [
            "cli-grid[adder.g5w7]", "cli-grid[cmp.g5w7]",
        ]


class TestServeAndJobs:
    """`repro serve` + `repro jobs`: the full loop over localhost."""

    def test_round_trip(self, capsys, tmp_path, spec_file):
        import threading

        from repro.service import ArtifactStore, JobManager, ReproService

        manager = JobManager(workers=1,
                             store=ArtifactStore(tmp_path / "r"))
        service = ReproService(manager, port=0)
        host, port = service.start()
        url = f"http://{host}:{port}"
        try:
            assert main(["jobs", "submit", spec_file, "--url", url]) == 0
            submitted = json.loads(capsys.readouterr().out)
            job_id = submitted["job"]["job_id"]
            assert main(["jobs", "events", job_id, "--url", url]) == 0
            lines = [json.loads(line) for line in
                     capsys.readouterr().out.strip().splitlines()]
            assert lines[-1]["event"] == "done"
            assert lines[-1]["state"] == "done"
            assert main(["jobs", "status", job_id, "--url", url]) == 0
            status = json.loads(capsys.readouterr().out)
            assert status["job"]["state"] == "done"
            assert main(["jobs", "list", "--url", url]) == 0
            listing = json.loads(capsys.readouterr().out)
            assert [j["job_id"] for j in listing["jobs"]] == [job_id]
        finally:
            service.stop()
            manager.shutdown(wait=False, cancel=True)

    def test_unreachable_server(self, capsys):
        assert main(["jobs", "list", "--url", "http://127.0.0.1:1"]) == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_submit_needs_a_spec(self, capsys):
        assert main(["jobs", "submit"]) == 2
        assert "spec file" in capsys.readouterr().err

    def test_status_needs_a_job_id(self, capsys):
        assert main(["jobs", "status"]) == 2
        assert "job id" in capsys.readouterr().err

    def test_submit_missing_spec_file_blames_the_file(self, capsys):
        assert main(["jobs", "submit", "/nonexistent/spec.json",
                     "--url", "http://127.0.0.1:1"]) == 2
        err = capsys.readouterr().err
        assert "cannot read spec" in err
        assert "cannot reach" not in err
