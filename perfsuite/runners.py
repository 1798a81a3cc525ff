"""Workload execution inside one fresh benchmark process.

A *compile* workload times cold passes of ``Denali.compile_gma`` over
its programs, one GMA (guarded multi-assignment) at a time, the way the
``repro`` CLI compiles a file.  The *service* workload starts a one-node
fabric in a spawned child and drives it from two closed-loop clients.
Both check every output and return a plain dict for the parent process
to report; units and bounds live in ``BENCHMARK.json``.

Cold means what a CLI call pays: a fresh ``Denali`` per program per pass
(its exact-extraction memo starts empty) and an empty saturation cache
before every ``compile_gma``.  The compiled axiom corpus stays warm; it
is built once during set-up, which ``setup_s`` measures.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import os
import random
import resource
import threading
import time
from typing import Dict, List, Optional, Tuple

import suite
from tracing import Tracer

# Independent re-check of every distinct schedule, on trial inputs drawn
# from the run's seed (the pipeline's own check uses a fixed seed).
RECHECK_TRIALS = 32


def _rss_mb(kilobytes: int) -> float:
    return kilobytes / 1024.0  # Linux reports ru_maxrss in KiB


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- programs -------------------------------------------------------------------


@dataclasses.dataclass
class Unit:
    """One source program, parsed and translated into its GMAs."""

    name: str
    target: str
    program: object
    gmas: list
    axioms: object


def workload_sources(spec: dict, seed: int) -> List[Tuple[str, str]]:
    """``(name, source)`` per program, in the order the seed picks."""
    if "programs" in spec:
        sources = [
            (name, suite.read_workload_source(name))
            for name in spec["programs"]
        ]
    else:
        from repro.fuzz.generator import generate_case

        first, count = spec["generated"]["first"], spec["generated"]["count"]
        sources = [
            ("case%d" % index, generate_case(index).source)
            for index in range(first, first + count)
        ]
    random.Random(seed).shuffle(sources)
    return sources


def parse_units(repro, sources, target: str) -> List[Unit]:
    """Parse and translate each program; build its axiom corpus.

    ``repro.lang`` is looked up at call time so the tracer's wrappers
    (installed on that module) see the calls.
    """
    from repro.axioms import AxiomSet
    from repro.core import cache

    units = []
    for name, source in sources:
        program = repro.lang.parse_program(source)
        gmas = []
        for procedure in program.procedures:
            gmas.extend(
                repro.lang.translate_procedure(procedure, program.registry)
            )
        corpus = cache.global_axiom_cache().default_corpus(
            program.registry, target
        )
        axioms = corpus + AxiomSet(program.axioms, "program")
        units.append(Unit(name, target, program, gmas, axioms))
    return units


def make_denali(unit: Unit, config: dict, extraction: str, seed: int):
    """A fresh ``Denali`` with the shared compile config (the CLI's)."""
    from repro.core.pipeline import Denali, DenaliConfig
    from repro.core.probes import SearchStrategy
    from repro.isa.targets import get_target
    from repro.matching import SaturationConfig

    denali_config = DenaliConfig(
        target=unit.target,
        min_cycles=config["min_cycles"],
        max_cycles=config["max_cycles"],
        strategy=SearchStrategy(config["strategy"]),
        verify=True,
        verify_trials=config["verify_trials"],
        backend=config["backend"],
        extraction=extraction,
        seed=seed,
        saturation=SaturationConfig(
            max_rounds=config["max_rounds"],
            max_enodes=config["max_enodes"],
        ),
    )
    spec = get_target(unit.target).spec(load_latency=config["load_latency"])
    return Denali(
        spec,
        axioms=unit.axioms,
        registry=unit.program.registry,
        config=denali_config,
    )


# -- output checks ----------------------------------------------------------------


class Checks:
    """Checks every compile of a workload and keeps its first results.

    A GMA counts as failed when compiling raised, found no schedule, the
    checker rejected the schedule, its proved-optimal cycle count
    disagrees with ``expected.json``, or its assembly differs from the
    first pass.
    """

    def __init__(self, expected: Optional[dict]) -> None:
        # target -> program -> GMA label -> cycles; None for generated
        # programs, which have no expected counts.
        self.expected = expected
        # (target, program, GMA label) -> (assembly, result, gma, unit)
        self.first: Dict[Tuple[str, str, str], tuple] = {}
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def check(self, unit: Unit, label: str, gma, result, error) -> None:
        self.attempted += 1
        problem = self._problem(unit, label, gma, result, error)
        if problem is not None:
            self.fail("%s %s/%s: %s" % (unit.target, unit.name, label, problem))

    def _problem(self, unit, label, gma, result, error) -> Optional[str]:
        if error is not None:
            return "raised %s" % error
        if result.schedule is None:
            return "no schedule"
        if result.verified is not True:
            return "checker rejected the schedule"
        if self.expected is not None:
            want = self.expected[unit.target].get(unit.name, {}).get(label)
            if want is None:
                return "no expected cycle count"
            if not result.optimal or result.cycles != want:
                return "%s cycles (optimal=%s), expected %d" % (
                    result.cycles, result.optimal, want,
                )
        # Rendered as the CLI and the service render a GMA.
        assembly = result.schedule.render(label=label.replace(".", "_"))
        seen = self.first.setdefault(
            (unit.target, unit.name, label), (assembly, result, gma, unit)
        )
        if seen[0] != assembly:
            return "assembly differs from the first pass"
        return None

    def recheck(self, seed: int) -> None:
        """Re-verify each distinct schedule on seed-drawn trial inputs."""
        from repro.verify.checker import check_schedule

        for key, (_asm, result, gma, unit) in self.first.items():
            trials = random.Random("%d:%s:%s:%s" % ((seed,) + key))
            self.attempted += 1
            report = check_schedule(
                gma,
                result.schedule,
                unit.program.registry,
                trials=RECHECK_TRIALS,
                seed=trials.getrandbits(32),
                definitions=unit.axioms.definitions(),
            )
            if not report.passed:
                self.fail(
                    "%s %s/%s: seeded re-check failed: %s"
                    % (key + ("; ".join(report.failures[:2]),))
                )

    def quality(self) -> Dict[str, dict]:
        """Code-quality sums over the distinct GMAs' schedules."""
        results = [entry[1] for entry in self.first.values()]
        n = len(results)
        return {
            "cycles_sum": suite.metric(sum(r.cycles for r in results), n=n),
            "insns_sum": suite.metric(
                sum(r.schedule.instruction_count() for r in results), n=n
            ),
            "term_cost_sum": suite.metric(
                sum(r.stats.extraction["cost"] for r in results), n=n
            ),
            "optimal_share": suite.metric(
                _ratio(sum(1 for r in results if r.optimal), n), n=n
            ),
        }


def compile_pass(units, config, extraction, seed, checks) -> List[float]:
    """One cold pass: every GMA of every program once.

    Returns each GMA's ``compile_gma`` wall time (ms), in a fixed order.
    """
    from repro.core.cache import global_saturation_cache

    saturation_cache = global_saturation_cache()
    gma_ms = []
    for unit in units:
        denali = make_denali(unit, config, extraction, seed)
        for label, gma in unit.gmas:
            saturation_cache.clear()
            result = error = None
            t0 = time.perf_counter()
            try:
                result = denali.compile_gma(gma, label=label)
            except Exception as exc:  # a failed GMA, counted and reported
                error = repr(exc)
            gma_ms.append(1000.0 * (time.perf_counter() - t0))
            checks.check(unit, label, gma, result, error)
    return gma_ms


def least_ms(passes: List[List[float]]) -> List[float]:
    """Each job's least time over repeated passes, in pass order.

    A cold compile does the same work on every pass, and interference
    from other work on the machine only ever adds time, so the least of
    a job's repeated times is its least disturbed measurement.  A slow
    spell that covers half the passes moves a median; it leaves the
    least alone as long as one pass ran quietly.
    """
    return [min(column) for column in zip(*passes)]


# Compile times are reported at the machine speed at which the speed
# probe takes this long (about its time on an idle 2-CPU x86-64 VM).
REFERENCE_PROBE_S = 0.0035


def speed_probe(repeats: int = 5) -> float:
    """Least time (s) of a fixed piece of interpreter work.

    Dictionary and tuple traffic, then a list-indexed loop: the two
    shapes of work the compiler spends its time on.  The collector is
    off, so the size of the compiler's heap cannot change the cost.
    """
    best = float("inf")
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            table: Dict[tuple, list] = {}
            for i in range(6000):
                key = (i & 255, (i * 7919) & 4095)
                entry = table.get(key)
                if entry is None:
                    entry = table[key] = [0, key]
                entry[0] += i
            values = [entry[0] & 1023 for entry in table.values()]
            acc = 0
            for i in range(20000):
                acc += values[(i * 31) % len(values)] ^ i
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def compile_metrics(passes: List[List[float]], probe_s: float) -> Dict[str, dict]:
    """``compile_s``, the job percentiles and ``jobs_per_s`` of a workload.

    ``compile_s`` is one cold pass built from each job's least time;
    the percentiles run over those per-job times; ``jobs_per_s`` is the
    jobs of one such pass per second.  Sample counts and interquartile
    ranges are those of the whole-pass times and of the per-job times.

    The shared machine's speed drifts by tens of percent over minutes,
    and a whole run can fall inside a slow spell.  ``probe_s`` is the
    speed probe's least time over the same run, so each value is scaled
    by ``REFERENCE_PROBE_S / probe_s`` to the reference speed; every
    record keeps the value as measured under ``raw``.
    """
    scale = REFERENCE_PROBE_S / probe_s
    jobs = least_ms(passes)
    cold_s = sum(jobs) / 1000.0
    pass_s = [sum(row) / 1000.0 for row in passes]

    def scaled(value: float, samples: List[float], factor: float) -> dict:
        record = suite.metric(value * factor, [x * factor for x in samples])
        record["raw"] = value
        return record

    return {
        "compile_s": scaled(cold_s, pass_s, scale),
        "job_ms_p50": scaled(suite.percentile(jobs, 50), jobs, scale),
        "job_ms_p90": scaled(suite.percentile(jobs, 90), jobs, scale),
        "jobs_per_s": scaled(
            len(jobs) / cold_s, [len(jobs) / s for s in pass_s], 1.0 / scale
        ),
    }


# -- per-layer metrics ----------------------------------------------------------


def layer_metrics(
    tracer: Tracer, passes: int, overhead: float, client: Optional[dict] = None
) -> Dict[str, dict]:
    """The ``per_layer`` metrics of ``BENCHMARK.json`` from one traced run.

    Times and counts are per traced pass (``lang`` is per run: parsing
    happens once, during set-up).  ``client`` carries the service loop's
    request totals and the change in ``/v1/metrics`` over the loop; the
    compile workloads have no client, so those metrics read 0.
    """
    selfs = tracer.layer_self_seconds()
    counts = tracer.counts
    per = 1.0 / passes
    values = {
        "core.self_s": selfs["core"] * per,
        "matching.self_s": selfs["matching"] * per,
        "matching.rounds": counts["matching.rounds"] * per,
        "matching.matches_attempted": counts["matching.matches_attempted"] * per,
        "matching.match_yield": _ratio(
            counts["matching.matches_found"],
            counts["matching.matches_attempted"],
        ),
        "matching.instances": counts["matching.instances"] * per,
        "matching.budget_hits": counts["matching.budget_hits"] * per,
        "egraph.enodes": counts["egraph.enodes"] * per,
        "egraph.classes": counts["egraph.classes"] * per,
        "encode.self_s": selfs["encode"] * per,
        "encode.vars_max": counts["encode.vars_max"],
        "encode.clauses_max": counts["encode.clauses_max"],
        "sat.solve_s": selfs["sat.solve"] * per,
        "sat.feed_s": selfs["sat.feed"] * per,
        "sat.retire_s": selfs["sat.retire"] * per,
        "sat.solves": counts["sat.solves"] * per,
        "sat.conflicts": counts["sat.conflicts"] * per,
        "sat.propagations": counts["sat.propagations"] * per,
        "sat.props_per_s": _ratio(
            counts["sat.propagations"], selfs["sat.solve"]
        ),
        "sat.unsat_share": _ratio(counts["sat.unsat"], counts["sat.solves"]),
        "sat.undecided": counts["sat.undecided"] * per,
        "probes.self_s": selfs["probes"] * per,
        "probes.per_gma": _ratio(
            counts["probes.probes"], counts["probes.searches"]
        ),
        "emit.self_s": selfs["emit"] * per,
        "extraction.self_s": selfs["extraction"] * per,
        "extraction.solves": counts["extraction.solves"] * per,
        "extraction.improved_share": _ratio(
            counts["extraction.improved"], counts["extraction.refines"]
        ),
        "verify.self_s": selfs["verify"] * per,
        "lang.self_s": selfs["lang"],
        "trace.overhead_share": overhead,
    }
    client = client or {}
    request_s = client.get("request_seconds", 0.0)
    requests = client.get("requests", 0)
    delta = client.get("delta", {})
    lookups = delta.get("store_hits", 0) + delta.get("store_misses", 0)
    values.update(
        {
            "fabric.submit_share": _ratio(selfs["fabric.submit"], request_s),
            "fabric.poll_share": _ratio(selfs["fabric.poll"], request_s),
            "fabric.wait_share": _ratio(selfs["fabric.wait"], request_s),
            "fabric.result_polls_per_job": _ratio(
                counts["fabric.polls"], requests
            ),
            "fabric.shed": delta.get("shed", 0),
            "service.store_hit_share": _ratio(
                delta.get("store_hits", 0), lookups
            ),
            "service.store_write_share": _ratio(
                delta.get("store_writes", 0), requests
            ),
            "service.coalesced": delta.get("coalesced", 0),
        }
    )
    return {name: suite.metric(value) for name, value in values.items()}


def trace_report(tracer: Tracer, passes: int, path: str) -> dict:
    """Write the Chrome trace; summarise self time per layer."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tracer.write_chrome_trace(path)
    selfs = tracer.layer_self_seconds()
    calls = tracer.layer_calls()
    return {
        "trace_file": os.path.relpath(path, suite.ROOT),
        "traced_passes": passes,
        "layers": {
            layer: {"self_s": seconds, "calls": calls[layer]}
            for layer, seconds in selfs.items()
        },
        "root_s": tracer.root_seconds(),
        "self_sum_s": sum(selfs.values()),
    }


def _trace_path(workload: str, seed: int) -> str:
    return os.path.join(suite.OUT, "trace", "%s-seed%d.json" % (workload, seed))


# -- compile workloads ----------------------------------------------------------


def run_compile(
    workload: str,
    spec: dict,
    config: dict,
    seed: int,
    seconds: float,
    trace: bool,
    started: float,
    setup_only: bool = False,
) -> dict:
    """Set up, then time cold passes until ``seconds`` have passed.

    There is no separate warm-up pass: each GMA's least time over the
    passes (:func:`least_ms`) already drops the first pass's one-time
    lazy initialisation.  A traced run alternates plain and traced
    passes, so the tracing overhead is measured inside the run on the
    same programs.
    """
    repro = suite.import_repro()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        drawn = time.perf_counter()
        sources = workload_sources(spec, seed)
        drawing_s = time.perf_counter() - drawn
        units = parse_units(repro, sources, spec["target"])
        for unit in units:
            make_denali(unit, config, spec["extraction"], seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # Drawing the inputs is the benchmark's work, not the program's.
    setup_s = time.perf_counter() - started - drawing_s
    if setup_only:
        return {"setup_samples": [setup_s]}

    checks = Checks(suite.load_expected() if "programs" in spec else None)
    plain: List[List[float]] = []
    traced: List[List[float]] = []
    probes: List[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        tracing = tracer is not None and len(plain) > len(traced)
        gc.collect()
        probes.append(speed_probe())
        if tracing:
            tracer.install()
        try:
            timed = compile_pass(units, config, spec["extraction"], seed, checks)
        finally:
            if tracing:
                tracer.uninstall()
        (traced if tracing else plain).append(timed)
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break
    checks.recheck(seed)

    out = {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures[:20],
        "setup_samples": [setup_s],
    }
    if tracer is not None:
        overhead = sum(least_ms(traced)) / sum(least_ms(plain)) - 1.0
        out["per_layer"] = layer_metrics(tracer, len(traced), overhead)
        out["trace"] = trace_report(
            tracer, len(traced), _trace_path(workload, seed)
        )
        return out
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = compile_metrics(plain, min(probes))
    metrics["peak_rss_mb"] = suite.metric(_rss_mb(rss))
    metrics.update(checks.quality())
    out["metrics"] = metrics
    return out


# -- the service workload -------------------------------------------------------


def serve_node(conn, workers: int) -> None:
    """Child-process body: one fabric node until told to stop.

    Sends the node URL once started, then blocks on the pipe; a "stop"
    message or the parent's end closing (EOF) shuts the node down.  The
    reply is the peak RSS (KiB) of this process plus its reaped worker.
    """
    from repro.fabric import FabricNode

    node = FabricNode(workers=workers)
    try:
        node.start()
        conn.send(node.url)
        try:
            conn.recv()
        except EOFError:
            pass
    finally:
        node.stop(drain=False)
    usage = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    try:
        conn.send(usage)
    except OSError:
        pass
    conn.close()


class NodeProcess:
    """A one-node fabric in a spawned child, with a bounded lifetime."""

    START_TIMEOUT = 60.0

    def __init__(self, workers: int) -> None:
        ctx = multiprocessing.get_context("spawn")
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=serve_node, args=(child_conn, workers), name="bench-node"
        )
        self._child_conn = child_conn
        self.url: Optional[str] = None

    def start(self) -> float:
        """Spawn; return seconds until the node answers ``/v1/metrics``."""
        from repro.service import ServiceClient, ServiceError

        start = time.perf_counter()
        self.process.start()
        self._child_conn.close()
        if not self.conn.poll(self.START_TIMEOUT):
            raise RuntimeError("fabric node did not start")
        self.url = self.conn.recv()
        client = ServiceClient(self.url, timeout=5.0, retries=0)
        try:
            while True:
                try:
                    client.metrics()
                    break
                except ServiceError:
                    if time.perf_counter() - start > self.START_TIMEOUT:
                        raise
                    time.sleep(0.005)
        finally:
            client.close()
        return time.perf_counter() - start

    def stop(self) -> Optional[float]:
        """Shut the node down; its peak RSS (MB) when it reported one."""
        usage = None
        if self.process.pid is None:  # never started
            self.conn.close()
            return None
        try:
            self.conn.send("stop")
            if self.conn.poll(30.0):
                usage = self.conn.recv()
        except (OSError, EOFError):
            pass
        self.conn.close()
        self.process.join(30.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(10.0)
        return None if usage is None else _rss_mb(usage)


def _service_counters(url: str) -> Dict[str, int]:
    from repro.service import ServiceClient

    client = ServiceClient(url, timeout=10.0)
    try:
        payload = client.metrics()
    finally:
        client.close()
    admission = payload["fabric"]["admission"]
    return {
        "store_hits": payload["store"]["hits"],
        "store_misses": payload["store"]["misses"],
        "store_writes": payload["store"]["writes"],
        "coalesced": payload["jobs"]["coalesced"],
        "shed": admission["shed_queue_full"] + admission["shed_backlog"],
    }


def _units(payload: dict) -> Dict[str, str]:
    return {
        unit["label"]: unit["assembly"]
        for unit in payload.get("result", {}).get("units", [])
    }


def _cold_pass(url: str, hot, hot_specs, reference, failures) -> tuple:
    """Each hot job submitted alone to a fresh node and awaited.

    Returns each job's time (ms) and the speed probe's times, taken
    while the node is idle between jobs.
    """
    from repro.fabric import FabricClient

    times, probes = [], []
    client = FabricClient(url, timeout=30.0)
    try:
        for key, job_spec in zip(hot, hot_specs):
            t0 = time.perf_counter()
            (job_id,) = client.submit([job_spec])
            payload = client.result(job_id, poll=0.001, timeout=120.0)
            times.append(1000.0 * (time.perf_counter() - t0))
            probes.append(speed_probe())
            if _units(payload) != reference[key]:
                failures.append("%s %s: service assembly differs" % key)
    finally:
        client.close()
    return times, probes


# Each node's share of the closed loop runs at least this long.
MIN_LOOP_S = 1.0


def _closed_loop(url: str, request, reference, clients: int, seconds: float,
                 cap: int, state: dict) -> tuple:
    """``clients`` threads, each sending its next request after a reply.

    ``request(index)`` gives the spec and reference key of request
    ``index``; ``state["next"]`` is the next index, so a later loop
    carries on where this one stopped.  Returns ``(index, ms)`` for each
    successful request, the failures and the loop's wall time.
    """
    from repro.fabric import FabricClient

    lock = threading.Lock()
    timed: List[Tuple[int, float]] = []
    errors: List[str] = []
    deadline = time.perf_counter() + seconds

    def client_loop() -> None:
        client = FabricClient(url, timeout=30.0)
        mine, bad = [], []
        try:
            while True:
                with lock:
                    index = state["next"]
                    if index >= cap or time.perf_counter() >= deadline:
                        break
                    state["next"] = index + 1
                job_spec, key = request(index)
                t0 = time.perf_counter()
                try:
                    (job_id,) = client.submit([job_spec])
                    payload = client.result(job_id, timeout=60.0)
                except Exception as exc:  # counted as a failed request
                    bad.append("request %d: %r" % (index, exc))
                    continue
                elapsed = time.perf_counter() - t0
                if _units(payload) != reference[key]:
                    bad.append("request %d: assembly differs" % index)
                    continue
                mine.append((index, 1000.0 * elapsed))
        finally:
            client.close()
            with lock:
                timed.extend(mine)
                errors.extend(bad)

    start = time.perf_counter()
    threads = [
        threading.Thread(target=client_loop, name="bench-client-%d" % i)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return timed, errors, time.perf_counter() - start


def run_service(
    workload: str,
    spec: dict,
    config: dict,
    workloads: dict,
    seed: int,
    seconds: float,
    trace: bool,
) -> dict:
    """Cold hot-set compiles on fresh nodes, then the closed loop.

    Each node spawn gives one ``setup_s`` sample (spawn until the node
    answers ``/v1/metrics``) and one cold pass over the hot set, and then
    serves an equal share of the closed loop, which fills what the cold
    passes leave of ``seconds``: every ``miss_every``-th
    request is a new fig2 job (a store miss, compiled by the worker), the
    rest are hot jobs (store hits) in a seeded order.  Every reply is
    checked against an in-process compile of the same spec.
    """
    repro = suite.import_repro()
    from repro.service import JobSpec

    hot: List[Tuple[str, str]] = []
    for name in spec["hot"]:
        hot += [(workloads[name]["target"], p) for p in workloads[name]["programs"]]
    sources = {p: suite.read_workload_source(p) for _t, p in hot}
    hot_specs = [
        JobSpec(
            kind="compile",
            source=sources[program],
            name=program,
            arch=target,
            min_cycles=config["min_cycles"],
            max_cycles=config["max_cycles"],
            strategy=config["strategy"],
            max_rounds=config["max_rounds"],
            max_enodes=config["max_enodes"],
            verify=True,
            load_latency=config["load_latency"],
            backend=config["backend"],
            extraction="greedy",
            seed=seed,
        )
        for target, program in hot
    ]

    # The in-process reference every reply must match byte for byte.  A
    # traced run compiles it four times more, traced and plain in turn,
    # which gives the compile layers' per-layer numbers and the overhead.
    tracer = Tracer() if trace else None
    units = []
    if tracer is not None:
        tracer.install()
    try:
        for target in dict.fromkeys(t for t, _p in hot):
            units += parse_units(
                repro, [(p, sources[p]) for t, p in hot if t == target], target
            )
    finally:
        if tracer is not None:
            tracer.uninstall()
    checks = Checks(suite.load_expected())
    plain = [compile_pass(units, config, "greedy", seed, checks)]
    traced: List[List[float]] = []
    if tracer is not None:
        for _ in range(2):
            tracer.install()
            try:
                traced.append(compile_pass(units, config, "greedy", seed, checks))
            finally:
                tracer.uninstall()
            plain.append(compile_pass(units, config, "greedy", seed, checks))
    checks.recheck(seed)
    failures: List[str] = list(checks.failures)
    attempted = checks.attempted
    reference = {
        (unit.target, unit.name): {
            label: checks.first[(unit.target, unit.name, label)][0]
            for label, _gma in unit.gmas
            if (unit.target, unit.name, label) in checks.first
        }
        for unit in units
    }

    # The loop's inputs, drawn up front from the seed: which hot job each
    # request repeats, and a fresh job seed (so a fresh fingerprint) for
    # each miss.
    cap = max(1000, 500 * int(seconds + 1))
    every = spec["miss_every"]
    rng = random.Random(seed)
    order = [rng.randrange(len(hot)) for _ in range(cap)]
    miss_seeds = rng.sample(range(1 << 40, 1 << 41), cap // every + 1)
    miss_key = tuple(spec["miss_program"])
    miss_base = hot_specs[hot.index(miss_key)]

    def request(index: int):
        if index % every == every - 1:
            miss = dataclasses.replace(miss_base, seed=miss_seeds[index // every])
            return miss, miss_key
        return hot_specs[order[index]], hot[order[index]]

    spawns = 1 if trace else spec["node_spawns"]
    setups: List[float] = []
    cold_passes: List[List[float]] = []
    probes: List[float] = []
    timed: List[Tuple[int, float]] = []
    delta: Dict[str, int] = {}
    rss: List[Optional[float]] = []
    loop_s = 0.0
    state = {"next": 0}
    # The cold passes count in the run's measured time; each node serves
    # an equal share of what is left of it.
    deadline = time.perf_counter() + seconds
    for spawn in range(spawns):
        node = NodeProcess(spec["workers"])
        try:
            setups.append(node.start())
            times, probed = _cold_pass(
                node.url, hot, hot_specs, reference, failures
            )
            cold_passes.append(times)
            probes += probed
            attempted += len(hot)
            share = (deadline - time.perf_counter()) / (spawns - spawn)
            before = _service_counters(node.url)
            if tracer is not None:
                tracer.install()
            try:
                part, errors, part_s = _closed_loop(
                    node.url, request, reference, spec["clients"],
                    max(MIN_LOOP_S, share), cap, state,
                )
            finally:
                if tracer is not None:
                    tracer.uninstall()
            after = _service_counters(node.url)
            probes.append(speed_probe())
        finally:
            rss.append(node.stop())
        timed += part
        failures += errors
        loop_s += part_s
        for key in after:
            delta[key] = delta.get(key, 0) + after[key] - before[key]

    requests = state["next"]
    latencies = [ms for _index, ms in timed]
    attempted += requests
    out = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "setup_samples": setups,
    }
    if None in rss:
        out["failed"] += 1
        out["failures"].append("fabric node did not report its memory")
    rss_mb = max((mb for mb in rss if mb is not None), default=0.0)
    if tracer is not None:
        overhead = sum(least_ms(traced)) / sum(least_ms(plain)) - 1.0
        out["per_layer"] = layer_metrics(
            tracer,
            len(traced),
            overhead,
            {
                "request_seconds": sum(latencies) / 1000.0,
                "requests": requests,
                "delta": delta,
            },
        )
        out["trace"] = trace_report(
            tracer, len(traced), _trace_path(workload, seed)
        )
        return out
    # A store hit (front-end parse, admission, store get) repeats the same
    # work each time a hot job is requested, so, as on the compile
    # workloads, each hot job's least hit latency over the nodes' loops is
    # its least disturbed measurement; job_ms_p50 is their median at the
    # reference speed.  The 90th percentile is a miss, set by the
    # client's 0.1 s poll, and stays as measured over every request.
    least: Dict[int, float] = {}
    hits = 0
    for index, ms in timed:
        if index % every != every - 1:
            hits += 1
            least[order[index]] = min(ms, least.get(order[index], ms))
    at_reference = [ms * REFERENCE_PROBE_S / min(probes) for ms in least.values()]
    hit_ms = suite.metric(suite.percentile(at_reference, 50), at_reference, n=hits)
    hit_ms["raw"] = suite.percentile(list(least.values()), 50)
    metrics = {
        "compile_s": compile_metrics(cold_passes, min(probes))["compile_s"],
        "job_ms_p50": hit_ms,
        "job_ms_p90": suite.metric(suite.percentile(latencies, 90), latencies),
        "jobs_per_s": suite.metric(len(latencies) / loop_s, n=len(latencies)),
        "peak_rss_mb": suite.metric(rss_mb),
    }
    metrics.update(checks.quality())
    out["metrics"] = metrics
    return out
