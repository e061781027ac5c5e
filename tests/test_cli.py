"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestVerifyCommand:
    def test_verify_ok(self, capsys):
        code = main(["verify", "--sessions", "1", "--admin", "1",
                     "--spy", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ALL PROPERTIES HOLD" in out

    def test_verify_with_walks(self, capsys):
        code = main(["verify", "--sessions", "1", "--admin", "1",
                     "--spy", "0", "--walks", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "random walks" in out

    def test_verify_compromised_member(self, capsys):
        code = main(["verify", "--sessions", "1", "--admin", "1",
                     "--spy", "1", "--compromised-member"])
        assert code == 0
        assert "compromised_member=True" in capsys.readouterr().out


class TestAttackMatrixCommand:
    def test_matrix_matches_paper(self, capsys):
        code = main(["attack-matrix"])
        out = capsys.readouterr().out
        assert code == 0
        assert "forged-denial" in out
        assert "all outcomes match" in out


class TestRenderCommand:
    def test_render_all_ascii(self, capsys):
        code = main(["render"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 2" in out and "Figure 3" in out and "Figure 4" in out

    def test_render_single_dot(self, capsys):
        code = main(["render", "4", "--format", "dot"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph")

    def test_render_to_file(self, tmp_path, capsys):
        target = tmp_path / "fig2.dot"
        code = main(["render", "2", "--format", "dot",
                     "--out", str(target)])
        assert code == 0
        assert target.read_text().startswith("digraph")

    def test_render_unknown_figure(self, capsys):
        code = main(["render", "9"])
        assert code == 2


class TestDemoCommand:
    def test_demo_prints_transcript(self, capsys):
        code = main(["demo"])
        out = capsys.readouterr().out
        assert code == 0
        assert "AUTH_INIT_REQ" in out
        assert "final members" in out

    def test_demo_deterministic(self, capsys):
        main(["demo", "--seed", "3"])
        first = capsys.readouterr().out
        main(["demo", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second


class TestChurnCommand:
    def test_churn_runs(self, capsys):
        code = main(["churn", "--users", "4", "--duration", "20",
                     "--policy", "manual"])
        out = capsys.readouterr().out
        assert code == 0
        assert "consistent=True" in out


class TestReportCommand:
    def test_report_all_reproduced(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        code = main(["report", "--out", str(target)])
        assert code == 0
        text = target.read_text()
        assert "ALL ARTIFACTS REPRODUCED" in text
        assert "attack matrix" in text
        assert "counterexample FOUND" in text
        assert "join -> group key" in text


class TestTraceCommand:
    def test_trace_demo_summarizes_events(self, capsys):
        code = main(["trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "telemetry:" in out
        assert "JoinCompleted" in out

    def test_trace_attack_matrix_lists_blocked_frames(
        self, tmp_path, capsys
    ):
        target = tmp_path / "events.jsonl"
        code = main(["trace", "--scenario", "attack-matrix",
                     "--out", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert "blocked frames:" in out
        assert "ReplayRejected" in out
        assert "IntegrityRejected" in out
        assert "schema-valid" in out
        from repro.telemetry import validate_jsonl

        records = validate_jsonl(str(target))
        assert any(r["event"] == "ReplayRejected" for r in records)

    def test_trace_out_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["trace", "--seed", "3", "--out", str(a)]) == 0
        assert main(["trace", "--seed", "3", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_trace_prometheus_dump(self, capsys):
        code = main(["trace", "--prometheus"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# TYPE telemetry_events_total counter" in out

    def test_churn_telemetry_export(self, tmp_path, capsys):
        target = tmp_path / "churn.jsonl"
        code = main(["churn", "--users", "4", "--duration", "30",
                     "--telemetry", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert "telemetry:" in out
        from repro.telemetry import validate_jsonl

        assert validate_jsonl(str(target))


class TestFabricCommand:
    def test_fabric_demo_isolates_groups(self, capsys):
        code = main(["fabric", "demo", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cross-post leaked to 0 members" in out
        assert "rejected by the demux" in out

    def test_fabric_migrate_reports_ok(self, capsys):
        code = main(["fabric", "migrate", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "live migration demo" in out
        assert "OK" in out

    def test_fabric_soak_small_converges(self, capsys):
        code = main(["fabric", "soak", "--seed", "7", "--groups", "3",
                     "--shards", "2", "--duration", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fabric soak" in out
        assert "violations  : 0" in out

    def test_fabric_soak_telemetry_export(self, tmp_path, capsys):
        target = tmp_path / "fabric.jsonl"
        code = main(["fabric", "soak", "--seed", "7", "--groups", "3",
                     "--shards", "2", "--duration", "20",
                     "--telemetry", str(target)])
        assert code == 0
        capsys.readouterr()
        from repro.telemetry import validate_jsonl

        assert validate_jsonl(str(target))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_lists_all_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code != 0
        err = capsys.readouterr().err
        assert "commands:" in err
        for command in ("verify", "attack-matrix", "render", "demo",
                        "churn", "report", "trace", "fabric"):
            assert command in err

    def test_unknown_command_lists_all_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code != 0
        err = capsys.readouterr().err
        assert "frobnicate" in err  # the error names the bad input
        assert "commands:" in err
        assert "fabric" in err


class TestOneExportFlag:
    """``quorum`` and ``data`` export through ``--out`` in every mode;
    the second flag that one mode or the other silently ignored is an
    argparse error now."""

    @pytest.mark.parametrize("argv", [
        ["quorum", "soak", "--telemetry", "x.jsonl"],
        ["quorum", "attack", "--telemetry", "x.jsonl"],
        ["data", "demo", "--telemetry", "x.jsonl"],
    ], ids=["quorum-soak", "quorum-attack", "data-demo"])
    def test_telemetry_flag_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--telemetry" in capsys.readouterr().err

    def test_quorum_attack_exports_through_out(self, tmp_path, capsys):
        target = tmp_path / "attack.jsonl"
        assert main(["quorum", "attack", "--out", str(target)]) == 0
        out = capsys.readouterr().out
        assert "schema-valid" in out
        assert "EquivocationDetected" in target.read_text()


class TestDataCommand:
    def test_demo_recovers_and_locks_out_leaver(self, capsys):
        code = main(["data", "demo"])
        out = capsys.readouterr().out
        assert code == 0
        assert "loss recovery" in out
        assert "0 post-leave decrypts" in out
        assert "OK" in out

    def test_attack_rows_decisive(self, capsys):
        code = main(["data", "attack"])
        out = capsys.readouterr().out
        assert code == 0
        assert "past-member-data" in out
        assert "data-replay" in out
        assert "die on the ratchet" in out

    def test_soak_safe_with_export(self, tmp_path, capsys):
        out_path = tmp_path / "data.jsonl"
        code = main(["data", "soak", "--seed", "3", "--rounds", "20",
                     "--out", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "SAFE" in out
        assert "schema-valid" in out
        assert out_path.read_text().strip()

    def test_soak_export_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            assert main(["data", "soak", "--seed", "5", "--rounds", "16",
                         "--out", str(path)]) == 0
            capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestOverloadCommand:
    def test_soak_protection_holds(self, capsys):
        code = main(["overload", "soak", "--duration", "4",
                     "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "protection holds" in out
        assert "unprotected" in out

    def test_soak_jsonl_export(self, tmp_path, capsys):
        out_path = tmp_path / "overload.jsonl"
        code = main(["overload", "soak", "--duration", "4",
                     "--seed", "3", "--out", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "schema-valid" in out
        assert out_path.read_text().strip()
