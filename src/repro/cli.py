"""Command-line driver: compile Denali source files to assembly.

Usage::

    python -m repro program.dn                  # compile every procedure
    python -m repro program.dn --proc checksum  # one procedure
    python -m repro program.dn --target rv64    # retarget
    python -m repro targets                     # list known targets
    python -m repro program.dn --max-cycles 12 --strategy linear
    python -m repro program.dn --dimacs out/    # also dump the CNF probes

    python -m repro serve --port 8642 --workers 4 --store denali.sqlite
    python -m repro batch a.dn b.dn --workers 4 --store denali.sqlite
    python -m repro batch a.dn --url http://127.0.0.1:8642

    python -m repro fuzz --seed 0 --iterations 500      # differential fuzzing
    python -m repro fuzz --time-budget 60 --json
    python -m repro fuzz --replay                       # re-run tests/corpus

The input is the paper's Figure 6 syntax (``\\opdecl`` / ``\\axiom`` /
``\\procdecl``).  Each procedure is translated to its GMAs; each GMA is
superoptimized and printed with its statistics.  The ``serve`` and
``batch`` verbs run the same pipeline through the long-lived compilation
service (:mod:`repro.service`): a worker pool with a persistent result
store, amortizing axiom compilation and saturation across requests.

Exit codes: 0 success, 1 compilation/verification failure, 2 usage or
input error, 130 interrupted.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from typing import List, Optional

from repro import __version__
from repro.axioms import (
    alpha_axioms,
    constant_synthesis_axioms,
    math_axioms,
    riscv_axioms,
)
from repro.core.probes import SearchStrategy
from repro.isa import available_targets, canonical_target, target_names
from repro.lang import parse_program
from repro.service.jobs import CompileReport, JobError, JobSpec, compile_job

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130


def _worker_count(text: str) -> int:
    """A ``--workers`` value: an int of at least 1."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % count)
    return count


def _add_pipeline_arguments(parser: argparse.ArgumentParser) -> None:
    """Options shared by the one-shot compiler and the batch verb.

    Each sets the :class:`JobSpec` field of its ``dest`` (see
    :func:`_job_spec`), and takes that field's default.
    """
    defaults = JobSpec()
    parser.add_argument(
        "--proc", help="compile only this procedure", default=defaults.proc
    )
    parser.add_argument(
        "--target",
        dest="arch",
        type=canonical_target,
        choices=sorted(target_names()),
        default=defaults.arch,
        help="target ISA, resolved through the repro.isa.targets registry "
        "(default: ev6; `repro targets` lists them)",
    )
    parser.add_argument(
        "--max-cycles",
        type=int,
        default=defaults.max_cycles,
        help="largest budget to try",
    )
    parser.add_argument(
        "--min-cycles",
        type=int,
        default=defaults.min_cycles,
        help="smallest budget to try",
    )
    parser.add_argument(
        "--strategy",
        choices=[s.value for s in SearchStrategy],
        default=defaults.strategy,
        help="cycle-budget search strategy: gallop up from the proved "
        "floor and bisect, or step up one budget at a time",
    )
    parser.add_argument(
        "--backend",
        choices=["sat", "stochastic"],
        default=defaults.backend,
        help="compilation engine: the exact SAT ladder or the stochastic "
        "MCMC sampler",
    )
    parser.add_argument(
        "--extraction",
        choices=["greedy", "exact"],
        default=defaults.extraction,
        help="schedule selection at the proved cycle count: the ladder's "
        "canonical greedy decode, or an exact selected-term cost "
        "minimisation on the incremental solver",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=defaults.seed,
        help="session seed: fixes the stochastic chains and the "
        "verifier's trials, so a run is byte-reproducible (default: 0)",
    )
    parser.add_argument(
        "--mcmc-chains",
        type=int,
        default=defaults.mcmc_chains,
        help="independent MCMC chains per stochastic campaign",
    )
    parser.add_argument(
        "--mcmc-moves",
        type=int,
        default=defaults.mcmc_moves,
        help="proposals per MCMC chain",
    )
    parser.add_argument(
        "--load-latency",
        type=int,
        default=defaults.load_latency,
        help="assumed cache-hit load latency (targets that model a "
        "D-cache: ev6, rv64)",
    )
    parser.add_argument(
        "--miss-latency",
        type=int,
        default=defaults.miss_latency,
        help="latency for \\miss-annotated loads",
    )
    parser.add_argument(
        "--max-enodes",
        type=int,
        default=defaults.max_enodes,
        help="saturation enode budget",
    )
    parser.add_argument(
        "--max-rounds",
        type=int,
        default=defaults.max_rounds,
        help="saturation round budget",
    )
    parser.add_argument(
        "--no-verify",
        dest="verify",
        action="store_false",
        default=defaults.verify,
        help="skip the differential correctness check",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print assembly only"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Denali-style superoptimizing code generator",
    )
    parser.add_argument(
        "--version", action="version", version="repro %s" % __version__
    )
    parser.add_argument(
        "source",
        nargs="?",
        default=None,
        help="Denali source file (Figure 6 syntax)",
    )
    parser.add_argument(
        "--list-axioms",
        action="store_true",
        help="print the built-in axiom corpus and exit",
    )
    _add_pipeline_arguments(parser)
    parser.add_argument(
        "--dimacs",
        metavar="DIR",
        default=None,
        help="dump each probe's CNF in DIMACS format into DIR",
    )
    parser.add_argument(
        "--stats-json",
        metavar="FILE",
        default=None,
        help="write a per-stage JSON report (timings, CNF sizes, solver "
        "and cache counters for every probe, run totals) to FILE",
    )
    parser.add_argument(
        "--whole",
        action="store_true",
        help="emit complete procedures (loop labels, branches, late moves) "
        "instead of per-GMA blocks",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="run the compilation service: a fabric node serving "
        "JSON over HTTP (one node unless --peers names others)",
    )
    parser.add_argument(
        "--version", action="version", version="repro %s" % __version__
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help="listen port (0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--workers",
        type=_worker_count,
        default=2,
        help="worker process count",
    )
    parser.add_argument(
        "--store",
        metavar="FILE",
        default=None,
        help="sqlite result store (default: in-memory, lost on exit)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries for crashed/timed-out jobs",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="default per-job wall-clock bound in seconds",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    parser.add_argument(
        "--peers",
        default=None,
        metavar="URLS",
        help="comma-separated URLs of other fabric nodes to join "
        "(default: none, a one-node fabric)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=512,
        help="admission bound: jobs admitted but unfinished beyond this "
        "are shed with HTTP 429 (default: 512)",
    )
    return parser


# The flags whose spelling is not their JobSpec field's name.
_FLAGS = {"arch": "--target", "verify": "--no-verify",
          "timeout_seconds": "--job-timeout"}


def _job_spec(parser: argparse.ArgumentParser, args) -> JobSpec:
    """The compile request the pipeline flags in ``args`` describe.

    Every parsed option whose ``dest`` names a :class:`JobSpec` field
    sets it; ``source`` and ``name`` stay empty for the caller to fill
    (the compile verb's positional ``source`` is a path, not the text).
    The spec's own validator rejects a bad combination, as a usage error.
    """
    names = {f.name for f in fields(JobSpec)} - {"source"}
    try:
        return JobSpec(**{k: v for k, v in vars(args).items() if k in names})
    except JobError as exc:
        flag = _FLAGS.get(exc.field, "--" + exc.field.replace("_", "-"))
        parser.error("argument %s: %s" % (flag, exc))


def build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro batch",
        description="compile a batch of source files through the service",
    )
    parser.add_argument(
        "--version", action="version", version="repro %s" % __version__
    )
    parser.add_argument(
        "sources", nargs="+", help="Denali source files (Figure 6 syntax)"
    )
    _add_pipeline_arguments(parser)
    parser.add_argument(
        "--workers",
        type=_worker_count,
        default=2,
        help="worker process count (local engine mode)",
    )
    parser.add_argument(
        "--store",
        metavar="FILE",
        default=None,
        help="sqlite result store (local engine mode; default in-memory)",
    )
    parser.add_argument(
        "--url",
        default=None,
        help="send the batch to a running `repro serve` instead of "
        "spawning a local engine",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="submit the file list N times (duplicates coalesce onto one "
        "compilation)",
    )
    parser.add_argument(
        "--job-timeout",
        dest="timeout_seconds",
        type=float,
        default=JobSpec().timeout_seconds,
        help="per-job wall-clock bound in seconds",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="FILE",
        default=None,
        help="write the service metrics (throughput, latency, store hit "
        "rate, per-worker stages) to FILE",
    )
    return parser


def build_fuzz_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="differential fuzzing: random programs down every "
        "path through the system, demanding all answers agree",
    )
    parser.add_argument(
        "--version", action="version", version="repro %s" % __version__
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default: 0)"
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=100,
        help="number of random programs to generate (default: 100)",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop after this much wall-clock time even if iterations remain",
    )
    parser.add_argument(
        "--oracles",
        default=None,
        metavar="LIST",
        help="comma-separated oracle subset (default: all): "
        "asm-vs-eval,solver-paths,extraction,strategies,matching,"
        "bruteforce,stochastic,floor,cross-target",
    )
    parser.add_argument(
        "--target",
        default="ev6",
        metavar="NAME",
        help="target the single-target oracles compile for (default: "
        "ev6); the cross-target oracle always sweeps ev6 and rv64",
    )
    parser.add_argument(
        "--max-cycles",
        type=int,
        default=12,
        help="largest cycle budget the oracle compilations try",
    )
    parser.add_argument(
        "--max-failures",
        type=int,
        default=10,
        help="stop the campaign after this many failing cases",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failing cases unminimised",
    )
    parser.add_argument(
        "--save",
        metavar="DIR",
        default=None,
        help="write minimised failures into this corpus directory",
    )
    parser.add_argument(
        "--replay",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="replay the regression corpus (default: tests/corpus) "
        "instead of generating new programs",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="no per-iteration heartbeat, summary only",
    )
    return parser


# -- entry point ---------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch to the one-shot compiler or a service verb.

    Always returns an exit status (argparse's own ``SystemExit`` — help,
    version, usage errors — is converted), so in-process callers never
    have to catch.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] == "serve":
            return _serve_main(argv[1:])
        if argv and argv[0] == "batch":
            return _batch_main(argv[1:])
        if argv and argv[0] == "fuzz":
            return _fuzz_main(argv[1:])
        if argv and argv[0] == "targets":
            return _targets_main(argv[1:])
        return _compile_main(argv)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early: not our error.
        # Point stdout at devnull so the interpreter's exit flush doesn't
        # raise a second time.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except SystemExit as exc:  # argparse --help/--version/usage errors
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE


def _targets_main(argv: List[str]) -> int:
    """The ``repro targets`` verb: list the registered target ISAs."""
    parser = argparse.ArgumentParser(
        prog="repro targets",
        description="list the target ISAs the pipeline can compile for",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the listing as JSON"
    )
    args = parser.parse_args(argv)
    targets = available_targets()
    if args.json:
        import json

        print(
            json.dumps(
                [
                    {
                        "name": t.name,
                        "aliases": list(t.aliases),
                        "description": t.description,
                    }
                    for t in targets
                ],
                indent=2,
            )
        )
        return EXIT_OK
    width = max(len(t.name) for t in targets)
    for t in targets:
        aliases = " (aliases: %s)" % ", ".join(t.aliases) if t.aliases else ""
        print("%-*s  %s%s" % (width, t.name, t.description, aliases))
    return EXIT_OK


def _compile_main(argv: List[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    spec = _job_spec(parser, args)

    if args.list_axioms:
        from repro.terms.ops import default_registry

        registry = default_registry()
        for title, axset in (
            ("mathematical axioms", math_axioms(registry)),
            ("constant-synthesis companions", constant_synthesis_axioms(registry)),
            ("Alpha architectural axioms", alpha_axioms(registry)),
            ("RISC-V rv64 sublayer", riscv_axioms(registry)),
        ):
            print("; ===== %s (%d) =====" % (title, len(axset)))
            for axiom in axset:
                print(axiom.pretty())
            print()
        return EXIT_OK

    if args.source is None:
        print("error: a source file is required (or --list-axioms)",
              file=sys.stderr)
        return EXIT_USAGE

    try:
        with open(args.source) as handle:
            spec = replace(spec, source=handle.read(), name=args.source)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE

    try:
        program = parse_program(spec.source)
    except Exception as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE

    try:
        report = compile_job(spec, program=program, whole=args.whole)
    except JobError as exc:  # no procedures, or no such --proc
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE

    status = EXIT_OK if report.ok else EXIT_FAILURE
    if args.whole:
        for proc in report.procedures:
            print(proc.assembly)
            if not args.quiet:
                print("; all GMAs verified: %s" % proc.all_verified())
            print()
    else:
        _print_gmas(args, spec, report)
    for error in report.errors:
        print(error, file=sys.stderr)

    if args.stats_json:
        try:
            _write_stats_json(args.stats_json, spec, report)
        except OSError as exc:
            print("error writing %s: %s" % (args.stats_json, exc),
                  file=sys.stderr)
            status = EXIT_FAILURE
    return status


def _print_gmas(args, spec: JobSpec, report: CompileReport) -> None:
    """Print each GMA's block from the report's unit records."""
    for (label, result), unit in zip(report.results, report.units):
        if not args.quiet:
            print("; === %s: %s" % (label, result.gma.pretty()))
        if unit["assembly"] is None:
            sampler = result.stats.stochastic
            if sampler is not None and sampler.get("unsupported"):
                reason = "the stochastic backend cannot take it (%s)" % (
                    sampler["unsupported"]
                )
            elif sampler is not None:
                reason = "the stochastic sampler found no verified schedule"
            else:
                reason = "no schedule within %d cycles (floor proved: %d)" % (
                    spec.max_cycles,
                    unit["floor"],
                )
            print("; %s: %s" % (label, reason), file=sys.stderr)
            continue
        if args.dimacs:
            _dump_dimacs(args.dimacs, label, report.denali, result)
        print(unit["assembly"])
        if not args.quiet:
            print(
                "; %s%s"
                % (
                    unit["summary"],
                    ""
                    if unit["verified"] is None
                    else ", verified=%s" % unit["verified"],
                )
            )
        print()


# -- service verbs -------------------------------------------------------------


def _serve_main(argv: List[str]) -> int:
    """Boot a fabric node; with no ``--peers`` it is a one-node fabric."""
    args = build_serve_parser().parse_args(argv)
    from repro.fabric import FabricNode

    peers = [
        url.strip()
        for url in (args.peers or "").split(",")
        if url.strip()
    ]
    node = FabricNode(
        host=args.host,
        port=args.port,
        peers=peers,
        workers=args.workers,
        store_path=args.store,
        max_queue=args.max_queue,
        max_retries=args.max_retries,
        default_timeout=args.job_timeout,
        verbose=args.verbose,
    )
    url = node.start()
    print(
        "repro fabric node %s listening on %s (%d workers, store=%s, "
        "max-queue=%d, %d peer(s))"
        % (
            node.node_id,
            url,
            args.workers,
            args.store or "memory",
            args.max_queue,
            len(peers),
        ),
        file=sys.stderr,
    )
    try:
        node.wait_for_shutdown()
    except KeyboardInterrupt:
        print("draining...", file=sys.stderr)
        node.stop(drain=True)
        return EXIT_INTERRUPTED
    node.stop(drain=True)
    return EXIT_OK


def _print_batch_result(name: str, payload: Optional[dict], quiet: bool) -> int:
    """Render one job's units; returns the job's exit contribution."""
    status = EXIT_OK
    if payload is None or not payload.get("ok"):
        status = EXIT_FAILURE
    if not quiet:
        print("; === %s" % name)
    for unit in (payload or {}).get("units", []):
        if unit.get("assembly") is None:
            print(
                "; %s: no schedule (%s)"
                % (unit.get("label"), unit.get("summary")),
                file=sys.stderr,
            )
            continue
        print(unit["assembly"])
        if not quiet:
            print("; %s" % unit.get("summary"))
        print()
    return status


def _batch_main(argv: List[str]) -> int:
    parser = build_batch_parser()
    args = parser.parse_args(argv)
    template = _job_spec(parser, args)
    specs = []
    try:
        for path in args.sources:
            with open(path) as handle:
                specs.append(replace(template, source=handle.read(), name=path))
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    specs *= max(1, args.repeat)

    if args.url is not None:
        return _batch_remote(args, specs)
    return _batch_local(args, specs)


def _batch_remote(args, specs) -> int:
    from repro.fabric import FabricClient
    from repro.service import ServiceError

    client = FabricClient(args.url, shed_retries=3)
    status = EXIT_OK
    try:
        ids = client.submit(specs)
        for spec, job_id in zip(specs, ids):
            try:
                wrapper = client.result(
                    job_id, timeout=args.timeout_seconds or 300.0
                )
            except ServiceError as exc:
                print("error: %s" % exc, file=sys.stderr)
                status = EXIT_FAILURE
                continue
            status = max(
                status,
                _print_batch_result(
                    spec.name, wrapper.get("result"), args.quiet
                ),
            )
        metrics = client.metrics()
    except ServiceError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FAILURE
    _report_metrics(args, metrics)
    return status


def _batch_local(args, specs) -> int:
    from repro.service import CompilationEngine, ResultStore, jobs

    engine = CompilationEngine(
        workers=args.workers,
        store=ResultStore(args.store),
        default_timeout=args.timeout_seconds,
    )
    status = EXIT_OK
    try:
        # The engine keeps SETTLED_JOBS_KEPT settled records, so read each
        # run of that many results before submitting the next.
        for start in range(0, len(specs), jobs.SETTLED_JOBS_KEPT):
            run = specs[start : start + jobs.SETTLED_JOBS_KEPT]
            ids = engine.submit_batch(run)
            engine.drain()
            for spec, job_id in zip(run, ids):
                status = max(
                    status,
                    _print_batch_result(
                        spec.name,
                        engine.result(job_id, wait=False),
                        args.quiet,
                    ),
                )
        metrics = engine.metrics()
    finally:
        engine.shutdown(drain=False)
    _report_metrics(args, metrics)
    return status


def _report_metrics(args, metrics: dict) -> None:
    if not args.quiet:
        store = metrics.get("store", {})
        throughput = metrics.get("throughput", {})
        print(
            "; batch: %d done, %.2f jobs/s, %d coalesced, "
            "store hit rate %.0f%%"
            % (
                throughput.get("done", 0),
                throughput.get("jobs_per_second", 0.0),
                metrics.get("jobs", {}).get("coalesced", 0),
                100.0 * store.get("hit_rate", 0.0),
            ),
            file=sys.stderr,
        )
    if args.metrics_json:
        import json

        with open(args.metrics_json, "w") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
            handle.write("\n")


# -- the fuzz verb -------------------------------------------------------------


def _fuzz_oracle_options(args):
    from repro.fuzz import ALL_ORACLES, OracleOptions
    from repro.isa import get_target

    try:
        target = get_target(getattr(args, "target", "ev6")).name
    except KeyError as exc:
        raise ValueError(str(exc).strip('"'))
    options = OracleOptions(max_cycles=args.max_cycles, target=target)
    if args.oracles:
        chosen = tuple(
            name.strip() for name in args.oracles.split(",") if name.strip()
        )
        unknown = [name for name in chosen if name not in ALL_ORACLES]
        if unknown:
            raise ValueError(
                "unknown oracle(s) %s; choose from %s"
                % (", ".join(unknown), ", ".join(ALL_ORACLES))
            )
        options.oracles = chosen
    return options


def _fuzz_replay(args) -> int:
    import json as _json

    from repro.fuzz import corpus_dir, replay_corpus

    directory = args.replay if args.replay else corpus_dir()
    report = replay_corpus(directory, _fuzz_oracle_options(args))
    if args.json:
        print(
            _json.dumps(
                {
                    "directory": directory,
                    "entries": report.entries,
                    "passed": report.passed,
                    "ok": report.ok,
                    "failures": report.failures,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for failure in report.failures:
            print("FAIL %s" % failure, file=sys.stderr)
        print(
            "corpus replay: %d/%d passed (%s)"
            % (report.passed, report.entries, directory),
            file=sys.stderr,
        )
    return EXIT_OK if report.ok else EXIT_FAILURE


def _fuzz_main(argv: List[str]) -> int:
    args = build_fuzz_parser().parse_args(argv)
    import json as _json

    from repro.fuzz import FuzzConfig, run_fuzz

    try:
        oracle = _fuzz_oracle_options(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    if args.replay is not None:
        return _fuzz_replay(args)
    if args.iterations <= 0:
        print("error: --iterations must be positive", file=sys.stderr)
        return EXIT_USAGE
    if args.max_cycles < 1:
        print("error: --max-cycles must be positive", file=sys.stderr)
        return EXIT_USAGE

    from repro.fuzz import GeneratorConfig

    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        time_budget_seconds=args.time_budget,
        generator=GeneratorConfig(target=oracle.target),
        oracle=oracle,
        shrink=not args.no_shrink,
        save_failures_to=args.save,
        max_failures=args.max_failures,
    )

    def heartbeat(iteration: int, partial) -> None:
        if args.quiet or args.json:
            return
        if (iteration + 1) % 50 == 0 or partial.failures:
            print(
                "; %d/%d cases, %d gmas, %d failures"
                % (
                    iteration + 1,
                    args.iterations,
                    partial.gmas,
                    len(partial.failures),
                ),
                file=sys.stderr,
            )

    report = run_fuzz(config, progress=heartbeat)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for failure in report.failures:
            print(
                "FAIL seed=%d oracles=%s\n%s"
                % (
                    failure.case_seed,
                    ",".join(failure.oracles),
                    failure.minimized_source,
                ),
                file=sys.stderr,
            )
            for divergence in failure.divergences[:3]:
                print(
                    "  %s[%s]: %s"
                    % (
                        divergence.oracle,
                        divergence.label,
                        divergence.detail,
                    ),
                    file=sys.stderr,
                )
        checks = ", ".join(
            "%s=%d" % (k, v) for k, v in sorted(report.checks.items())
        )
        print(
            "fuzz: %d cases, %d gmas (%d compiled), %d failures, "
            "%.1fs [%s]%s"
            % (
                report.iterations,
                report.gmas,
                report.compiled,
                len(report.failures),
                report.elapsed_seconds,
                checks,
                " (stopped: %s)" % report.stopped_early
                if report.stopped_early
                else "",
            ),
            file=sys.stderr,
        )
    return EXIT_OK if report.ok else EXIT_FAILURE


# -- reports -------------------------------------------------------------------


def _write_stats_json(
    path: str, spec: JobSpec, report: CompileReport
) -> None:
    """Write the report's per-GMA stage stats, and their totals, as JSON."""
    import json

    from repro.core.cache import global_axiom_cache, global_saturation_cache
    from repro.core.session import aggregate_stats

    collected = [result.stats for _label, result in report.results]
    payload = {
        "source": spec.name,
        "arch": spec.arch,
        "target": spec.arch,
        "strategy": spec.strategy,
        "backend": spec.backend,
        "seed": spec.seed,
        "gmas": [stats.to_dict() for stats in collected],
        "totals": aggregate_stats(collected),
        "global_caches": {
            "saturation": global_saturation_cache().stats.to_dict(),
            "axiom_corpus": global_axiom_cache().stats.to_dict(),
        },
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _dump_dimacs(directory: str, label: str, den, result) -> None:
    """Write each probed budget's formula, as the ladder solved it, to DIMACS.

    The formulas are rebuilt on the result's own E-graph by
    :meth:`Denali.reference_encoding`, so latency overrides, guard
    safety and the encoding options are the ones the probes used.
    """
    import os

    from repro.sat import to_dimacs

    os.makedirs(directory, exist_ok=True)
    for probe in result.search.probes:
        if probe.solver == "stochastic":  # no CNF behind a sampler probe
            continue
        enc = den.reference_encoding(result, probe.cycles)
        path = os.path.join(
            directory, "%s.K%d.cnf" % (label.replace("/", "_"), probe.cycles)
        )
        with open(path, "w") as handle:
            handle.write(
                to_dimacs(
                    enc.cnf,
                    comments=[
                        "Denali probe %s K=%d (sat=%s)"
                        % (label, probe.cycles, probe.satisfiable)
                    ],
                )
            )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
