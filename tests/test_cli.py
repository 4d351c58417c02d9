"""Tests for the experiment CLI."""

import json
from pathlib import Path

import pytest

from repro.data.datasets import DatasetSpec
from repro.harness.cli import _EXPERIMENTS, build_parser, build_serve_parser, main, run_one


class TestParser:
    def test_known_experiments_parse(self):
        parser = build_parser()
        args = parser.parse_args(["fig16", "--quick"])
        assert args.experiment == "fig16"
        assert args.quick

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig99"])

    def test_every_paper_artifact_registered(self):
        expected = {
            "fig1",
            "fig2",
            "table3",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12-13",
            "fig14-15",
            "fig16",
        }
        # Every paper artifact must stay registered; extension studies
        # (e.g. the DESIGN.md §5 fleet layer) may ride alongside.
        assert set(_EXPERIMENTS) >= expected

    def test_fleet_extension_registered(self):
        assert "fleet" in _EXPERIMENTS

    def test_schedule_extension_registered(self):
        assert "schedule" in _EXPERIMENTS

    def test_shared_weights_extension_registered(self):
        assert "shared_weights" in _EXPERIMENTS

    def test_deadline_extension_registered(self):
        assert "deadline" in _EXPERIMENTS

    def test_resilience_extension_registered(self):
        assert "resilience" in _EXPERIMENTS

    def test_cache_extension_registered(self):
        assert "cache" in _EXPERIMENTS

    def test_serve_parser_tiers(self):
        parser = build_serve_parser()
        args = parser.parse_args(["requests.json", "--tier", "fleet"])
        assert args.tier == "fleet"
        with pytest.raises(SystemExit):
            parser.parse_args(["requests.json", "--tier", "warehouse"])


class TestExecution:
    def test_list_mode(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig16" in out and "table3" in out

    def test_quick_run_renders(self):
        text = run_one("fig16", quick=True, out=None)
        assert "ablation" in text
        assert "wall]" in text

    def test_out_dir_written(self, tmp_path):
        run_one("fig2", quick=True, out=tmp_path)
        assert (tmp_path / "fig2.txt").exists()
        assert "cluster_gamma" in (tmp_path / "fig2.txt").read_text()

    def test_main_runs_single_experiment(self, capsys):
        assert main(["fig2", "--quick"]) == 0
        assert "gamma" in capsys.readouterr().out

    def test_cache_run_prints_plane_stats(self, capsys):
        """``cli cache`` renders the DataPlaneStats taxonomy (§12)."""
        assert main(["cache", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "memo hits" in out
        assert "speedup (cached vs uncached)" in out
        assert "memo entries" in out
        assert "selections byte-identical: yes" in out


class TestServe:
    """The ``serve`` subcommand replays a request file through a tier."""

    def _request_file(self, tmp_path, entries):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps(entries))
        return path

    CLEAN = [
        {"id": "fast", "k": 3, "num_candidates": 6, "priority": 0},
        {"id": "slow", "k": 3, "num_candidates": 6, "arrival": 0.05},
    ]
    #: The tight deadline expires behind the queue on the serial
    #: engine tier, so the request is shed.
    WITH_SHED = CLEAN + [
        {"id": "late", "k": 3, "num_candidates": 6, "deadline": 0.0005}
    ]

    @pytest.mark.parametrize("tier", ["engine", "device", "fleet"])
    def test_serve_prints_provenance(self, tier, tmp_path, capsys):
        path = self._request_file(tmp_path, self.CLEAN)
        assert main(["serve", str(path), "--tier", tier]) == 0
        out = capsys.readouterr().out
        assert "SelectionResponse provenance" in out
        for request_id in ("fast", "slow"):
            assert request_id in out
        assert tier in out

    @pytest.mark.parametrize("tier", ["engine", "device", "fleet"])
    def test_serve_clean_run_exits_zero(self, tier, tmp_path, capsys):
        path = self._request_file(tmp_path, self.CLEAN)
        assert main(["serve", str(path), "--tier", tier]) == 0
        assert "did not complete" not in capsys.readouterr().out

    def test_serve_shed_exits_nonzero_with_summary(self, tmp_path, capsys):
        """Satellite: an unclean replay exits non-zero and prints a
        one-line summary count instead of silently exiting 0."""
        path = self._request_file(tmp_path, self.WITH_SHED)
        assert main(["serve", str(path), "--tier", "engine"]) == 1
        out = capsys.readouterr().out
        assert "shed" in out
        assert (
            "serve: 1 of 3 requests did not complete "
            "(shed=1, cancelled=0, failed=0)" in out
        )

    def test_serve_cancelled_exits_nonzero(self, tmp_path, capsys):
        entries = self.CLEAN + [
            {"id": "bail", "k": 3, "num_candidates": 6, "cancel_at": 0.0}
        ]
        path = self._request_file(tmp_path, entries)
        assert main(["serve", str(path), "--tier", "engine"]) == 1
        assert "cancelled=1" in capsys.readouterr().out

    def test_serve_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        with pytest.raises(SystemExit):
            main(["serve", str(path)])

    @pytest.mark.parametrize(
        "tier, flags",
        [
            ("fleet", ["--policy", "fusion"]),
            ("fleet", ["--edf"]),
            ("fleet", ["--concurrency", "2"]),
            ("engine", ["--policy", "fifo"]),
            ("engine", ["--replicas", "3"]),
            ("device", ["--replicas", "3"]),
        ],
        ids=lambda value: value if isinstance(value, str) else value[0].lstrip("-"),
    )
    def test_flag_the_tier_ignores_is_a_usage_error(self, tier, flags, tmp_path, capsys):
        path = self._request_file(tmp_path, self.CLEAN)
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", str(path), "--tier", tier, *flags])
        assert exit_info.value.code == 2
        # The error line names the flag (``--concurrency`` as the
        # spec's ``max_concurrency`` knob).
        error = capsys.readouterr().err.splitlines()[-1]
        assert flags[0].lstrip("-") in error and tier in error

    @pytest.mark.parametrize(
        "flags, named",
        [(["--policy", "warp"], "'warp'"), (["--concurrency", "0"], "max_concurrency")],
        ids=["policy-warp", "concurrency-0"],
    )
    def test_bad_device_flag_value_is_a_usage_error(
        self, flags, named, tmp_path, capsys, monkeypatch
    ):
        """A value the device scheduler rejects fails with the spec,
        before any request is packed, instead of with a traceback."""

        def no_packing(*args, **kwargs):
            raise AssertionError("a request was packed")

        monkeypatch.setattr("repro.data.workloads.build_batches", no_packing)
        path = self._request_file(tmp_path, self.CLEAN)
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", str(path), "--tier", "device", *flags])
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err.splitlines()[-1]


class TestServeRequestList:
    """``serve`` on a JSON request list mixing datasets and candidate counts.

    ``tests/fixtures/serve/<tier>.txt`` is the stdout of ``python -m
    repro.harness.cli serve tests/fixtures/serve/requests.json --tier
    <tier>`` from before request lists were drawn once per group;
    rerun that command to regenerate one after an intended change.
    """

    FIXTURES = Path(__file__).parent / "fixtures" / "serve"

    @pytest.mark.parametrize("tier", ["engine", "device", "fleet"])
    def test_stdout_matches_snapshot(self, tier, capsys):
        # Two entries shed and one cancels, so the run exits 1.
        assert main(["serve", str(self.FIXTURES / "requests.json"), "--tier", tier]) == 1
        assert capsys.readouterr().out == (self.FIXTURES / f"{tier}.txt").read_text()

    @pytest.mark.parametrize("tier, code", [("engine", 0), ("device", 0), ("fleet", 1)])
    def test_traffic_stdout_matches_snapshot(self, tier, code, capsys):
        """A traffic trace through every tier, the fleet with the trace's
        tenancy attached (84 of its 183 requests shed, so it exits 1).

        ``tests/fixtures/serve/poisson_<tier>.txt`` is the stdout of
        ``PYTHONPATH=src python -m repro.harness.cli serve
        tests/fixtures/traffic/poisson.jsonl --tier <tier> >
        tests/fixtures/serve/poisson_<tier>.txt``, run from the
        repository root; rerun it to regenerate one after an intended
        change.
        """
        trace = Path(__file__).parent / "fixtures" / "traffic" / "poisson.jsonl"
        assert main(["serve", str(trace), "--tier", tier]) == code
        assert (
            capsys.readouterr().out
            == (self.FIXTURES / f"poisson_{tier}.txt").read_text()
        )

    def test_each_group_is_drawn_once(self, monkeypatch, capsys):
        queries = DatasetSpec.queries
        draws = []

        def counting(self, num_queries, num_candidates=20):
            draws.append((self.name, num_queries, num_candidates))
            return queries(self, num_queries, num_candidates)

        monkeypatch.setattr(DatasetSpec, "queries", counting)
        main(["serve", str(self.FIXTURES / "requests.json"), "--tier", "engine"])
        # One draw per (dataset, num_candidates), up to its last entry.
        assert sorted(draws) == [
            ("fiqa", 5, 5),
            ("nq", 7, 8),
            ("nq", 9, 4),
            ("wikipedia", 8, 8),
            ("wikipedia", 10, 6),
        ]


class TestTrace:
    """The ``trace`` subcommand: record / replay / tail / summary."""

    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("traces") / "device.jsonl"
        assert (
            main(["trace", "record", str(path), "--scenario", "device", "--quick"])
            == 0
        )
        return path

    def test_record_writes_versioned_jsonl(self, trace_file):
        header = json.loads(trace_file.read_text().splitlines()[0])
        assert header["schema"] == "repro.trace"
        assert header["version"] == 1

    def test_record_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "record", str(tmp_path / "x.jsonl"), "--scenario", "warp"])

    def test_replay_clean_exits_zero(self, trace_file, capsys):
        assert main(["trace", "replay", str(trace_file)]) == 0
        assert "event-identical" in capsys.readouterr().out

    def test_replay_divergence_exits_nonzero(self, trace_file, tmp_path, capsys):
        """A corrupted event line fails the replay with the divergent
        line named — the CI gate the §10 acceptance requires."""
        lines = trace_file.read_text().splitlines()
        payload = json.loads(lines[5])
        payload["at"] += 0.5
        lines[5] = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        assert main(["trace", "replay", str(tampered)]) == 1
        out = capsys.readouterr().out
        assert "DIVERGED at event 4" in out
        assert "recorded:" in out and "replayed:" in out

    def test_tail_prints_events(self, trace_file, capsys):
        assert main(["trace", "tail", str(trace_file), "--last", "5"]) == 0
        out = capsys.readouterr().out
        assert "t=" in out
        assert "(5 of" in out

    def test_tail_filters(self, trace_file, capsys):
        assert main(["trace", "tail", str(trace_file), "--kind", "fetch"]) == 0
        out = capsys.readouterr().out
        assert "fetch" in out
        assert "/complete" not in out

    def test_summary_renders_dashboard(self, trace_file, capsys):
        assert main(["trace", "summary", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        for column in ("tier", "admitted", "completed", "shed", "p99"):
            assert column in out
        assert "faults=" in out and "hedges=" in out
