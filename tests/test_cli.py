"""Tests for the command-line driver."""

import os

import pytest

from repro.cli import main

SIMPLE = r"""
(\procdecl scale ((a long)) long
  (:= (\res (+ (* a 4) 1))))
"""

MISS = r"""
(\procdecl f ((p (\ref long))) long
  (:= (\res (+ (\miss (\deref p)) 1))))
"""

BAD_SYNTAX = r"(\procdecl f ((a long)) long"

LOOPY = r"""
(\procdecl count ((i long) (n long)) long
  (\semi
    (\do (-> (< i n) (:= (i (+ i 1)))))
    (:= (\res i))))
"""


@pytest.fixture
def source_file(tmp_path):
    def write(text, name="prog.dn"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestCli:
    def test_compiles_simple_program(self, source_file, capsys):
        status = main([source_file(SIMPLE)])
        out = capsys.readouterr().out
        assert status == 0
        assert "s4addq" in out
        assert "verified=True" in out

    def test_quiet_mode(self, source_file, capsys):
        status = main([source_file(SIMPLE), "--quiet"])
        out = capsys.readouterr().out
        assert status == 0
        assert "s4addq" in out
        assert "===" not in out

    def test_test_machines_are_not_targets(self, source_file, capsys):
        # itanium and simple are test fixtures (tests/machines.py), not
        # --target choices.
        for name in ("itanium", "simple"):
            status = main([source_file(SIMPLE), "--target", name])
            assert status == 2, name
            assert "invalid choice: '%s'" % name in capsys.readouterr().err

    def test_loop_program_emits_two_gmas(self, source_file, capsys):
        status = main([source_file(LOOPY), "--strategy", "linear"])
        out = capsys.readouterr().out
        assert status == 0
        assert "count_loop0" in out
        assert "count_tail" in out

    def test_proc_selector(self, source_file, capsys):
        two = SIMPLE + r"(\procdecl other ((b long)) long (:= (\res b)))"
        status = main([source_file(two), "--proc", "scale"])
        out = capsys.readouterr().out
        assert status == 0
        assert "scale_tail" in out
        assert "other" not in out

    def test_translation_error_keeps_other_procedures(
        self, source_file, capsys
    ):
        bad = r"(\procdecl bad ((b long)) long (:= (\res nope)))"
        status = main([source_file(SIMPLE + bad), "--quiet"])
        captured = capsys.readouterr()
        assert status == 1
        assert "s4addq" in captured.out
        assert "translation error in bad" in captured.err

    def test_unknown_proc_errors(self, source_file, capsys):
        status = main([source_file(SIMPLE), "--proc", "nope"])
        assert status == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_errors(self, capsys):
        status = main(["/nonexistent/prog.dn"])
        assert status == 2

    def test_parse_error_reported(self, source_file, capsys):
        status = main([source_file(BAD_SYNTAX)])
        assert status == 2
        assert "parse error" in capsys.readouterr().err

    def test_budget_too_small_reports_floor(self, source_file, capsys):
        status = main([source_file(SIMPLE), "--max-cycles", "1",
                       "--min-cycles", "1", "--max-rounds", "1",
                       "--max-enodes", "50", "--no-verify"])
        # With saturation crippled the one-instruction form may be missed,
        # but whatever happens the driver must not crash.
        assert status in (0, 1)

    def test_unproved_min_cycles_is_not_optimal(self, capsys):
        # fig2's optimum is 1 cycle; a window starting at 3 finds a
        # 3-cycle schedule but proves nothing about 2 cycles.
        fig2 = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks", "workloads", "fig2.dn",
        )
        status = main([fig2, "--min-cycles", "3"])
        out = capsys.readouterr().out
        assert status == 0
        assert "1 instructions in 3 cycles" in out
        assert "(optimal)" not in out

    def test_miss_annotation_respected(self, source_file, capsys):
        status = main(
            [source_file(MISS), "--miss-latency", "9", "--max-cycles", "12"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "10 cycles" in out  # ld (9) + add (1)

    def test_dimacs_dump(self, source_file, tmp_path, capsys):
        out_dir = str(tmp_path / "cnf")
        status = main([source_file(SIMPLE), "--dimacs", out_dir])
        assert status == 0
        files = os.listdir(out_dir)
        assert files
        text = open(os.path.join(out_dir, files[0])).read()
        assert text.startswith("c Denali probe")
        assert "p cnf" in text

    def test_dimacs_roundtrips_through_solver(self, source_file, tmp_path, capsys):
        """The dumped CNF is solvable by any DIMACS solver — demonstrated
        with our own, as the paper swapped CHAFF in and out."""
        from repro.sat import CdclSolver, from_dimacs

        out_dir = str(tmp_path / "cnf")
        main([source_file(SIMPLE), "--dimacs", out_dir])
        for name in os.listdir(out_dir):
            cnf = from_dimacs(open(os.path.join(out_dir, name)).read())
            result = CdclSolver().solve(cnf)
            assert result.satisfiable is not None

    def test_dimacs_dumps_the_solved_formula(
        self, source_file, tmp_path, capsys
    ):
        """Each dump is the formula its probe solved — latency overrides
        included — not a re-encoding with the architectural latencies."""
        from repro.axioms import default_axiom_corpus
        from repro.core.pipeline import Denali, DenaliConfig
        from repro.isa import get_target
        from repro.lang import parse_program, translate_procedure
        from repro.sat import CdclSolver, from_dimacs

        out_dir = str(tmp_path / "cnf")
        status = main([source_file(MISS), "--miss-latency", "9",
                       "--dimacs", out_dir])
        assert status == 0
        program = parse_program(MISS)
        den = Denali(
            get_target("ev6").spec(),
            axioms=default_axiom_corpus(program.registry, "ev6"),
            registry=program.registry,
            config=DenaliConfig(miss_latency=9),
        )
        [(label, gma)] = translate_procedure(
            program.procedures[0], program.registry
        )
        result = den.compile_gma(gma, label=label)
        probes = {p.cycles: p for p in result.search.probes}
        assert sorted(os.listdir(out_dir)) == sorted(
            "%s.K%d.cnf" % (label, k) for k in probes
        )
        for k, probe in probes.items():
            with open(os.path.join(out_dir, "%s.K%d.cnf" % (label, k))) as f:
                cnf = from_dimacs(f.read())
            # The probe's clauses plus the selector it was solved under.
            assert len(cnf.clauses) == probe.clauses + 1
            assert CdclSolver().solve(cnf).satisfiable == probe.satisfiable
            reference = den.reference_encoding(result, k).cnf
            assert len(cnf.clauses) == len(reference.clauses)
        # Under the 9-cycle miss, ld + add cannot finish in 9 cycles.
        below = den.reference_encoding(result, 9).cnf
        assert CdclSolver().solve(below).satisfiable is False


class TestWholeProcedure:
    def test_whole_flag_emits_stitched_program(self, source_file, capsys):
        status = main([source_file(LOOPY), "--whole"])
        out = capsys.readouterr().out
        assert status == 0
        assert "count_loop0:" in out
        assert "beq" in out
        assert "br count_loop0" in out
        assert ".end count" in out
        assert "all GMAs verified: True" in out

    def test_whole_straight_line(self, source_file, capsys):
        status = main([source_file(SIMPLE), "--whole", "--quiet"])
        out = capsys.readouterr().out
        assert status == 0
        assert "s4addq" in out
        assert "ret" in out


class TestListAxioms:
    def test_lists_corpus(self, capsys):
        status = main(["--list-axioms"])
        out = capsys.readouterr().out
        assert status == 0
        assert "mathematical axioms" in out
        assert "Alpha architectural axioms" in out
        assert "(forall" in out

    def test_source_required_otherwise(self, capsys):
        status = main([])
        assert status == 2
        assert "source file is required" in capsys.readouterr().err


class TestExitCodes:
    def test_version_flag(self, capsys):
        from repro import __version__

        status = main(["--version"])
        assert status == 0
        assert "repro %s" % __version__ in capsys.readouterr().out

    def test_version_flag_on_verbs(self, capsys):
        assert main(["serve", "--version"]) == 0
        assert main(["batch", "--version"]) == 0

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "superoptimizing" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, capsys):
        status = main(["--no-such-flag"])
        assert status == 2

    @pytest.mark.parametrize(
        "window",
        [["--min-cycles", "5", "--max-cycles", "3"], ["--min-cycles", "0"]],
    )
    @pytest.mark.parametrize("verb", [[], ["batch"]])
    def test_empty_cycle_window_is_usage_error(
        self, source_file, capsys, verb, window
    ):
        status = main(verb + [source_file(SIMPLE)] + window)
        err = capsys.readouterr().err
        assert status == 2
        assert "--min-cycles" in err
        assert "Traceback" not in err

    def test_negative_job_timeout_is_usage_error(self, source_file, capsys):
        # The batch flags go through JobSpec's validator, like a service
        # request body does.
        status = main(["batch", source_file(SIMPLE), "--job-timeout", "-1"])
        err = capsys.readouterr().err
        assert status == 2
        assert "--job-timeout" in err

    def test_keyboard_interrupt_exits_130(self, source_file, capsys,
                                          monkeypatch):
        import repro.cli as cli

        def boom(_source):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "parse_program", boom)
        status = main([source_file(SIMPLE)])
        assert status == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "Traceback" not in err


class TestStatsJson:
    def test_report_schema(self, source_file, tmp_path, capsys):
        import json

        path = str(tmp_path / "stats.json")
        status = main([source_file(SIMPLE), "--quiet", "--stats-json", path])
        assert status == 0
        report = json.load(open(path))
        assert report["arch"] == "ev6"
        assert report["strategy"] == "binary"
        assert report["gmas"], "one record per compiled GMA"
        gma = report["gmas"][0]
        assert {"label", "timings", "probes", "cache"} <= set(gma)
        totals = report["totals"]
        assert totals["sessions"] == len(report["gmas"])
        assert totals["probes"] >= 1
        assert "saturation" in totals["timings"]
        assert set(totals["solver"]) == {
            "propagations", "conflicts", "learned", "learned_reused",
        }
        assert totals["solver"]["propagations"] == sum(
            p["propagations"] for g in report["gmas"] for p in g["probes"]
        )
        assert {"saturation", "axiom_corpus"} <= set(report["global_caches"])

    def test_saturation_block_reports_matcher_counters(
        self, source_file, tmp_path, capsys
    ):
        import json

        from repro.core.cache import global_saturation_cache

        # The totals count matcher runs only: start cold so this one runs.
        global_saturation_cache().clear()
        path = str(tmp_path / "stats.json")
        status = main([source_file(SIMPLE), "--quiet", "--stats-json", path])
        assert status == 0
        report = json.load(open(path))
        sat = report["gmas"][0]["saturation"]
        assert "incremental" not in sat
        assert {"matches_attempted", "matches_found", "matches_pruned",
                "budget_hits", "per_axiom", "phase_seconds"} <= set(sat)
        totals = report["totals"]["saturation"]
        assert totals["sessions"] == len(report["gmas"])
        assert totals["sessions"] == report["totals"]["cache"]["saturation_misses"]
        assert "budget_hits" in totals

    def test_removed_path_options_are_usage_errors(
        self, source_file, capsys
    ):
        # One ladder, one solver, one matcher, one stats report: the
        # options that selected the portfolio scheduler, the per-probe
        # scratch solver and the full-rescan matcher are gone, as are
        # the --arch spelling of --target and --profile-json, the tiered
        # saturation schedule and the second MCMC seed.
        for argv in (
            ["--strategy", "portfolio"],
            ["--no-incremental"],
            ["--no-incremental-match"],
            ["--arch", "ev6"],
            ["--profile-json", "profile.json"],
            ["--axiom-tiers"],
            ["--mcmc-seed", "3"],
        ):
            assert main([source_file(SIMPLE)] + argv) == 2, argv
        # One front end: `repro serve` is always a fabric node.
        for argv in (["--fabric"], ["--vnodes", "64"]):
            assert main(["serve", "--port", "0"] + argv) == 2, argv

    def test_cycle_floor_schema(self, source_file, tmp_path, capsys):
        """The report carries the ladder's floor and optimality proof."""
        import json

        stats_path = str(tmp_path / "stats.json")
        status = main([source_file(SIMPLE), "--quiet", "--stats-json",
                       stats_path])
        assert status == 0
        floor_totals = {"sessions": 1, "sum": 1, "at_optimum": 1}
        optimal_by = {"floor": 1, "unsat": 0}
        stats = json.load(open(stats_path))
        gma = stats["gmas"][0]
        assert gma["cycle_floor"] == 1
        assert gma["optimal_by"] == "floor"
        assert [p["cycles"] for p in gma["probes"]] == [1]
        assert stats["totals"]["cycle_floor"] == floor_totals
        assert stats["totals"]["optimal_by"] == optimal_by

    def test_extraction_floor_schema(self, source_file, tmp_path, capsys):
        """The report counts the exact refinement's floors and proofs."""
        import json

        stats_path = str(tmp_path / "stats.json")
        status = main([source_file(SIMPLE), "--quiet", "--extraction",
                       "exact", "--stats-json", stats_path])
        assert status == 0
        stats = json.load(open(stats_path))
        record = stats["gmas"][0]["extraction"]
        assert record["floor_by"] == "dag"
        assert record["optimal_by"] == "floor"
        totals = stats["totals"]["extraction"]
        assert totals["floor_by"] == {"dag": 1, "selection": 0}
        assert totals["optimal_by"] == {"floor": 1, "unsat": 0}

    def test_unwritable_path_fails(self, source_file, capsys):
        status = main([source_file(SIMPLE), "--quiet",
                       "--stats-json", "/nonexistent/dir/stats.json"])
        assert status == 1
        assert "error writing" in capsys.readouterr().err


class TestServiceVerbs:
    def test_batch_local_round_trip(self, source_file, capsys):
        status = main(["batch", source_file(SIMPLE), "--workers", "1",
                       "--strategy", "linear", "--max-cycles", "10"])
        captured = capsys.readouterr()
        assert status == 0
        assert "s4addq" in captured.out
        assert "batch:" in captured.err  # throughput summary line

    def test_batch_repeat_coalesces(self, source_file, capsys, tmp_path):
        import json

        metrics_path = str(tmp_path / "metrics.json")
        status = main(["batch", source_file(SIMPLE), "--workers", "1",
                       "--strategy", "linear", "--max-cycles", "10",
                       "--repeat", "3", "--quiet",
                       "--metrics-json", metrics_path])
        assert status == 0
        metrics = json.load(open(metrics_path))
        assert metrics["jobs"]["coalesced"] == 2
        assert metrics["throughput"]["done"] == 1

    def test_batch_past_the_settled_bound_prints_every_result(
        self, source_file, capsys, tmp_path, monkeypatch
    ):
        """Store hits settle during submit; a batch longer than the
        engine keeps settled records must still print every result."""
        from repro.service import jobs

        path = source_file(SIMPLE)
        flags = ["--workers", "1", "--strategy", "linear",
                 "--max-cycles", "10", "--store", str(tmp_path / "warm.db")]
        assert main(["batch", path] + flags) == 0
        capsys.readouterr()
        monkeypatch.setattr(jobs, "SETTLED_JOBS_KEPT", 2)
        status = main(["batch", path, "--repeat", "5"] + flags)
        out = capsys.readouterr().out
        assert status == 0
        assert out.count("; === %s" % path) == 5
        assert out.count("s4addq") == 5

    def test_batch_missing_file_is_usage_error(self, capsys):
        status = main(["batch", "/nonexistent/prog.dn"])
        assert status == 2
        assert "error" in capsys.readouterr().err

    def test_batch_parse_error_fails(self, source_file, capsys):
        status = main(["batch", source_file(BAD_SYNTAX), "--workers", "1"])
        assert status == 1

    def test_batch_against_running_server(self, source_file, capsys):
        from repro.fabric import FabricNode

        node = FabricNode(port=0, workers=1)
        node.start()
        try:
            status = main(["batch", source_file(SIMPLE), "--quiet",
                           "--strategy", "linear", "--max-cycles", "10",
                           "--url", node.url])
            out = capsys.readouterr().out
            assert status == 0
            assert "s4addq" in out
        finally:
            node.stop(drain=False)

    def test_compile_and_batch_print_the_same_bytes(
        self, source_file, capsys
    ):
        """One compile request, one report: the one-shot compiler, a
        local batch and a batch sent to a fabric node print each GMA's
        block identically."""
        from repro.fabric import FabricNode

        path = source_file(LOOPY)
        flags = ["--quiet", "--strategy", "linear", "--max-cycles", "10"]
        assert main([path] + flags) == 0
        one_shot = capsys.readouterr().out
        assert main(["batch", path, "--workers", "1"] + flags) == 0
        local = capsys.readouterr().out
        node = FabricNode(port=0, workers=1)
        node.start()
        try:
            assert main(["batch", path, "--url", node.url] + flags) == 0
            remote = capsys.readouterr().out
        finally:
            node.stop(drain=False)
        assert "count_loop0" in one_shot
        assert one_shot == local == remote

    def test_batch_unreachable_server_fails(self, source_file, capsys):
        status = main(["batch", source_file(SIMPLE),
                       "--url", "http://127.0.0.1:9"])
        assert status == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_serve_subprocess_round_trip(self, source_file, tmp_path):
        """`repro serve` on an ephemeral port answers a compile and shuts
        down cleanly on /v1/shutdown."""
        import re
        import subprocess
        import sys

        from repro.service import JobSpec, ServiceClient

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1",
             "--store", str(tmp_path / "store.sqlite")],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = proc.stderr.readline()
            match = re.search(r"http://[\d.]+:\d+", banner)
            assert match, banner
            client = ServiceClient(match.group(0), timeout=30.0)
            assert client.health() is True
            source = open(source_file(SIMPLE)).read()
            ids = client.submit([JobSpec(
                kind="compile", source=source, name="prog.dn",
                strategy="linear", max_cycles=10,
            )])
            wrapper = client.result(ids[0], timeout=60)
            assert "s4addq" in wrapper["result"]["units"][0]["assembly"]
            client.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
