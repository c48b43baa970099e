#!/usr/bin/env python3
"""perfbench: verdict latency of the repro decision procedure.

Run from the repository root::

    python3 perfbench/run.py --workload suite-t700 --seed 1 --seconds 30 --trace 0

Workloads and their settings are in ``perfbench/workloads.json``; metric
names and units are in ``BENCHMARK.json``.

* ``--trace 0`` runs the workload untraced and prints every end-to-end
  metric.
* ``--trace 1`` runs one pass untraced and the same pass again with the
  timing wrappers of ``perfbench/tracing.py`` installed, and prints
  every per-layer metric, the tracing overhead among them.

The suites solve each request in a forked child of the benchmark
process, so every request starts from the same state, as a ``repro
check`` process does; in one long-lived process a formula solved after
its valid twin or a related formula reuses their hash-consed nodes and
runs up to a quarter faster, which would make a request's time depend
on the seeded order.

Every VALID/INVALID verdict is checked against the generator's
``expected_valid`` and every INVALID countermodel is evaluated against
the formula that was sent.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status: 0 when every verdict is right, 1 on a wrong
verdict or countermodel or a failed stage cross-check, 2 when the
repository sources are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DECIDED, UNDECIDED, FAILED = "decided", "undecided", "failed"

#: What a suite set-up probe does: interpreter start, import, suite
#: generation.
SUITE_SETUP = (
    "from repro.benchgen import suite\n"
    "from repro.engine import registry\n"
    "registry.get('hybrid')\n"
    "suite(True)\n"
    "suite(False)\n"
)
SETUP_PROBES = 3


class WrongAnswer(Exception):
    """A wrong verdict, a bad countermodel or a failed cross-check."""


@dataclass
class Sample:
    """One request: seconds to its outcome and what the outcome was."""

    latency: float
    kind: str
    error: str = ""


@dataclass
class RunResult:
    samples: List[Sample]
    makespan: float
    late_max: float = 0.0
    repeats: int = 0
    peak_rss_mb: float = 0.0
    #: Per pipeline stage of a suite run: summed StageRecord seconds,
    #: record count, summed ``dag_sep`` counter.
    stages: Dict[str, List[float]] = field(default_factory=dict)
    trace: Optional[Dict[str, Any]] = None


def load_json(path: str) -> Any:
    with open(path) as handle:
        return json.load(handle)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return env


def time_limit_of(spec: Dict[str, Any]) -> float:
    """The per-request limit a failed request's penalty is based on."""
    if spec["kind"] == "suite":
        return spec["sat_time_limit_s"]
    return spec["timeout_s"]


def summarize(samples: List[Sample], time_limit: float) -> Dict[str, float]:
    """Percentiles and shares over every sample of a run.

    A failed request counts as its observed time plus twice the time
    limit (PAR-2), above every request that got an outcome.
    """
    latencies = [
        s.latency + (2 * time_limit if s.kind == FAILED else 0.0)
        for s in samples
    ]
    count = len(samples)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": p90,
        "beyond_p90": sum(latency > p90 for latency in latencies),
        "no_verdict_share": sum(s.kind != DECIDED for s in samples) / count,
        "failed_share": sum(s.kind == FAILED for s in samples) / count,
        "undecided_share": sum(s.kind == UNDECIDED for s in samples) / count,
    }


def check_countermodel(formula: Any, interp: Any, what: str) -> None:
    from repro.logic.semantics import evaluate

    if interp is None:
        raise WrongAnswer("%s: INVALID without a countermodel" % what)
    if evaluate(formula, interp):
        raise WrongAnswer("%s: countermodel does not falsify it" % what)


def check_verdict(valid: Optional[bool], expected: bool, what: str) -> str:
    if valid is None:
        return UNDECIDED
    if valid != expected:
        raise WrongAnswer(
            "%s: answered %s, expected %s"
            % (what, "VALID" if valid else "INVALID",
               "VALID" if expected else "INVALID")
        )
    return DECIDED


# ---------------------------------------------------------------------------
# Suite workloads: closed loop, one caller, a forked child per request
# ---------------------------------------------------------------------------


def time_suite_setup() -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SUITE_SETUP],
        env=child_env(),
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )
    return time.perf_counter() - start


def permutations(items: List[Any], seed: int) -> Iterator[Any]:
    """Seeded permutations of ``items``, one after another, forever."""
    rng = random.Random(seed)
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def solve_forked(
    engine: Any, request: Any, tracer: Any
) -> Tuple[Any, float, float]:
    """Solve one request in a forked child of this process.

    Each request starts from the same parent state, as a ``repro check``
    process does: nothing a solve interns or allocates carries over to
    the next one, so a request's time does not depend on the order.
    Returns the outcome (or the exception's text when the child raised
    or died), the solve's seconds measured in the child, and the child's
    peak RSS in MB.  With a ``tracer`` installed the child's wrapper
    totals are merged into it.

    The parent's objects are frozen out of the collector first, so a
    collection in the child scans only what the solve allocated, as in
    a process that holds one formula, and does not copy the parent's
    pages by touching them.
    """
    gc.freeze()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: solve, report, and leave without cleanup
        os.close(read_end)
        code = 0
        try:
            if tracer is not None:
                tracer.reset()
            began = time.perf_counter()
            try:
                outcome = engine.solve(request)
            except Exception as exc:  # reported as a failed request
                outcome = "%s: %s" % (type(exc).__name__, exc)
            latency = time.perf_counter() - began
            totals = dict(tracer.totals) if tracer is not None else None
            with os.fdopen(write_end, "wb") as out:
                pickle.dump((outcome, latency, totals), out)
        except BaseException:
            code = 1
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as inp:
        try:
            outcome, latency, totals = pickle.load(inp)
        except (EOFError, ValueError, pickle.UnpicklingError):
            outcome, latency, totals = "worker died", 0.0, None
    _, _, usage = os.wait4(pid, 0)
    if tracer is not None and totals:
        tracer.add(totals)
    return outcome, latency, usage.ru_maxrss / 1024.0


def run_suite(
    spec: Dict[str, Any],
    benches: List[Any],
    seed: int,
    seconds: float = 0.0,
    min_requests: int = 0,
    tracer: Any = None,
) -> RunResult:
    """Solve the suite closed-loop, one forked child per request.

    The first ``len(benches)`` requests are one full pass; its wall time
    is the makespan.  The caller then keeps going with further
    permutations until ``min_requests`` are done and ``seconds`` have
    elapsed.
    """
    from repro.core.status import Status
    from repro.engine import registry
    from repro.engine.contract import SolveRequest

    engine = registry.get("hybrid")
    per_pass = len(benches)
    result = RunResult(samples=[], makespan=0.0)
    gc.collect()
    start = time.perf_counter()
    for index, bench in enumerate(permutations(benches, seed)):
        if (
            index >= max(per_pass, min_requests)
            and time.perf_counter() - start >= seconds
        ):
            break
        request = SolveRequest(
            formula=bench.formula,
            sep_thold=spec["sep_thold"],
            trans_budget=spec["trans_budget"],
            time_limit=spec["sat_time_limit_s"],
        )
        outcome, latency, rss = solve_forked(engine, request, tracer)
        if index == per_pass - 1:
            result.makespan = time.perf_counter() - start
        result.peak_rss_mb = max(result.peak_rss_mb, rss)
        if isinstance(outcome, str):
            result.samples.append(Sample(latency, FAILED, outcome))
            continue
        if outcome.status is Status.ERROR:
            result.samples.append(Sample(latency, FAILED, "error"))
            continue
        kind = check_verdict(outcome.valid, bench.expected_valid, bench.name)
        if outcome.valid is False:
            check_countermodel(
                bench.formula, outcome.counterexample, bench.name
            )
        result.samples.append(Sample(latency, kind))
        for record in outcome.stages:
            total = result.stages.setdefault(record.name, [0.0, 0, 0])
            total[0] += record.seconds
            total[1] += 1
            total[2] += record.counters.get("dag_sep", 0)
    gc.unfreeze()
    return result


def suite_benches() -> List[Any]:
    from repro.benchgen import suite

    return suite(valid=True) + suite(valid=False)


# ---------------------------------------------------------------------------
# serve-replay: `python -m repro serve` as a subprocess, open loop
# ---------------------------------------------------------------------------


@dataclass
class ServeRequest:
    bench: Any
    formula: Any
    line: str
    repeat: str = ""


def serve_requests(
    spec: Dict[str, Any], benches: List[Any], seed: int, seconds: float
) -> List[ServeRequest]:
    """Every formula once, in a seeded order, plus seeded repeats.

    A repeat re-sends an earlier formula, as exact text or alpha-renamed
    with ``rename_vars``; it always comes after its original.
    """
    from repro.fuzz.metamorphic import rename_vars
    from repro.logic.printer import to_sexpr

    rng = random.Random(seed)
    order = list(benches)
    rng.shuffle(order)
    total = max(len(order), round(spec["rate_per_s"] * seconds))
    repeat_slots = set(rng.sample(range(1, total), total - len(order)))
    fresh = iter(order)
    sent: List[Any] = []
    items = []
    for index in range(total):
        if index in repeat_slots:
            bench = rng.choice(sent)
            formula, repeat = bench.formula, "exact"
            if rng.random() < spec["renamed_repeat_fraction"]:
                formula, repeat = rename_vars(bench.formula, rng), "renamed"
        else:
            bench = next(fresh)
            sent.append(bench)
            formula, repeat = bench.formula, ""
        line = json.dumps(
            {"id": index, "formula": to_sexpr(formula),
             "timeout": spec["timeout_s"]}
        )
        items.append(ServeRequest(bench, formula, line + "\n", repeat))
    return items


def serve_command(traced: bool) -> List[str]:
    if traced:
        return [sys.executable, os.path.join(HERE, "serve_traced.py")]
    return [sys.executable, "-m", "repro", "serve"]


def start_server(traced: bool) -> Tuple[subprocess.Popen, float]:
    """Start a server; return it and the seconds until its ready event."""
    began = time.perf_counter()
    proc = subprocess.Popen(
        serve_command(traced),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        ready = json.loads(proc.stdout.readline() or "{}")
    except ValueError:
        ready = {}
    if ready.get("event") != "ready":
        stop_server(proc)
        close_pipes(proc)
        raise RuntimeError("repro serve did not report ready")
    return proc, time.perf_counter() - began


def stop_server(proc: subprocess.Popen, grace: float = 0.0) -> None:
    """Wait up to ``grace`` seconds, then kill the server's process group
    (the server and any portfolio child it left behind)."""
    try:
        proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def close_pipes(proc: subprocess.Popen) -> None:
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        try:
            stream.close()
        except (OSError, ValueError):
            pass


def time_serve_setup() -> float:
    proc, seconds = start_server(traced=False)
    proc.stdin.close()
    stop_server(proc, grace=30.0)
    close_pipes(proc)
    return seconds


def replay(
    spec: Dict[str, Any], items: List[ServeRequest], traced: bool
) -> Tuple[RunResult, float]:
    """Send ``items`` at the workload rate; return the run and set-up s."""
    from repro.service.cache import interp_from_jsonable

    proc, setup = start_server(traced)
    responses: Dict[int, Tuple[float, Dict[str, Any]]] = {}
    all_in = threading.Event()
    stderr_lines: List[str] = []

    def read_stdout() -> None:
        for line in proc.stdout:
            message = json.loads(line)
            if "id" in message:
                responses[message["id"]] = (time.monotonic(), message)
                if len(responses) == len(items):
                    all_in.set()

    def read_stderr() -> None:
        stderr_lines.extend(proc.stderr)

    readers = [
        threading.Thread(target=read_stdout, daemon=True),
        threading.Thread(target=read_stderr, daemon=True),
    ]
    for thread in readers:
        thread.start()
    interval = 1.0 / spec["rate_per_s"]
    late_max = 0.0
    start = time.monotonic()
    try:
        for index, item in enumerate(items):
            due = start + index * interval
            pause = due - time.monotonic()
            if pause > 0:
                time.sleep(pause)
            late_max = max(late_max, time.monotonic() - due)
            proc.stdin.write(item.line)
            proc.stdin.flush()
        # stdin stays open until every response is in: a client that
        # closes early lets the server's reader thread finish, which
        # changes how the server forks.
        all_in.wait(timeout=spec["drain_s"])
        proc.stdin.close()
        stop_server(proc, grace=30.0)
    except BrokenPipeError:
        pass  # the server died; what it did not answer counts as lost
    finally:
        stop_server(proc)
        for thread in readers:
            thread.join(timeout=10)
        close_pipes(proc)
    ended = time.monotonic()

    samples = []
    last = start
    for index, item in enumerate(items):
        due = start + index * interval
        if index not in responses:
            samples.append(Sample(ended - due, FAILED, "lost"))
            last = ended
            continue
        received, message = responses[index]
        last = max(last, received)
        what = "%s (request %d)" % (item.bench.name, index)
        if not message.get("ok"):
            kind = message.get("error", {}).get("kind", "error")
            samples.append(Sample(received - due, FAILED, kind))
            continue
        valid = {"VALID": True, "INVALID": False}.get(message.get("status"))
        sample_kind = check_verdict(valid, item.bench.expected_valid, what)
        if valid is False:
            model = message.get("countermodel")
            check_countermodel(
                item.formula,
                interp_from_jsonable(model) if model is not None else None,
                what,
            )
        samples.append(Sample(received - due, sample_kind))

    result = RunResult(
        samples=samples,
        makespan=last - start,
        late_max=late_max,
        repeats=sum(1 for item in items if item.repeat),
    )
    if traced:
        from serve_traced import TRACE_MARKER

        for line in stderr_lines:
            if line.startswith(TRACE_MARKER):
                result.trace = json.loads(line[len(TRACE_MARKER):])
        if result.trace is None:
            raise RuntimeError("traced server wrote no trace summary")
    return result, setup


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def layer_metrics(
    traced: RunResult, reference: float, time_limit: float,
    crosscheck_worst: float,
) -> Dict[str, float]:
    """Per-layer numbers of a traced run; ``reference`` is the untraced
    makespan of the same requests."""
    trace = traced.trace
    t = trace["totals"]

    def get(key: str) -> float:
        return float(t.get(key, 0.0))

    def ratio(part: float, base: float) -> float:
        return part / base if base else 0.0

    encodes = get("encodings.hybrid.calls")
    exhausted = get("encodings.hybrid.budget_exhausted")
    before = get("sat.preprocess.clauses_before")
    lookups = get("service.cache.hits") + get("service.cache.misses")
    errors: Dict[str, int] = {}
    for sample in traced.samples:
        if sample.kind == FAILED:
            errors[sample.error] = errors.get(sample.error, 0) + 1
    shares = summarize(traced.samples, time_limit)
    encodings_s = get("encodings.hybrid")
    return {
        "encodings.hybrid.self_s": encodings_s - get("encodings.transitivity"),
        "encodings.hybrid.calls": encodes,
        "encodings.hybrid.budget_exhausted": exhausted,
        "encodings.hybrid.exhausted_s": get("encodings.hybrid.exhausted_s"),
        "encodings.hybrid.useful_ratio": ratio(encodes - exhausted, encodes),
        "encodings.hybrid.sep_vars": get("encodings.hybrid.sep_vars"),
        "encodings.hybrid.eij_classes": get("encodings.hybrid.eij_classes"),
        "encodings.hybrid.sd_classes": get("encodings.hybrid.sd_classes"),
        "encodings.transitivity.self_s": get("encodings.transitivity"),
        "encodings.transitivity.calls": get("encodings.transitivity.calls"),
        "encodings.transitivity.clauses": get(
            "encodings.transitivity.clauses"
        ),
        "sat.tseitin.self_s": get("sat.tseitin"),
        "sat.tseitin.cnf_vars": get("sat.tseitin.cnf_vars"),
        "sat.tseitin.cnf_clauses": get("sat.tseitin.cnf_clauses"),
        "sat.preprocess.self_s": get("sat.preprocess"),
        "sat.preprocess.clauses_before": before,
        "sat.preprocess.removed_ratio": ratio(
            before - get("sat.preprocess.clauses_after"), before
        ),
        "sat.preprocess.closed": get("sat.preprocess.closed"),
        "sat.solver.self_s": get("sat.solver"),
        "sat.solver.init_s": get("sat.solver.init"),
        "sat.solver.conflicts": get("sat.solver.conflicts"),
        "sat.solver.decisions": get("sat.solver.decisions"),
        "sat.solver.propagations": get("sat.solver.propagations"),
        "sat.solver.props_per_s": ratio(
            get("sat.solver.propagations"), get("sat.solver")
        ),
        "transform.func_elim.self_s": get("transform.func_elim"),
        "transform.func_elim.dag_sep_nodes": get(
            "transform.func_elim.dag_sep_nodes"
        ),
        "core.decision.self_s": get("core.decision"),
        "core.decision.calls": get("core.decision.calls"),
        "logic.parser.self_s": get("logic.parser"),
        "logic.canonical.self_s": get("logic.canonical"),
        "service.cache.lookup_s": get("service.cache.lookup"),
        "service.cache.store_s": get("service.cache.store"),
        "service.cache.hits": get("service.cache.hits"),
        "service.cache.misses": get("service.cache.misses"),
        "service.cache.lookups": lookups,
        "service.cache.hit_ratio": ratio(get("service.cache.hits"), lookups),
        "engine.portfolio.self_s": get("engine.portfolio"),
        "engine.portfolio.calls": get("engine.portfolio.calls"),
        "engine.portfolio.hop_s": get("engine.portfolio")
        - get("engine.portfolio.member_s"),
        "service.server.queue_wait_p50_s": trace["queue_wait_p50_s"],
        "service.server.overloaded": errors.pop("overloaded", 0),
        "service.server.deadline": errors.pop("deadline", 0),
        "service.server.errors": sum(errors.values()),
        "bench.requests": len(traced.samples),
        "bench.failed_share": shares["failed_share"],
        "bench.undecided_share": shares["undecided_share"],
        "bench.repeat_share": traced.repeats / len(traced.samples),
        "bench.generator_late_max_s": traced.late_max,
        "bench.makespan_untraced_s": reference,
        "bench.makespan_traced_s": traced.makespan,
        "bench.tracing_overhead_ratio": ratio(
            traced.makespan - reference, reference
        ),
        "bench.encodings_share": ratio(encodings_s, traced.makespan),
        "bench.solver_share": ratio(get("sat.solver"), traced.makespan),
        "bench.crosscheck_worst_ratio": crosscheck_worst,
    }


def crosscheck(run: RunResult, config: Dict[str, Any]) -> float:
    """Worst |wrapper − StageRecord| over the allowed difference.

    Raises :class:`WrongAnswer` when some stage is outside its
    tolerance; returns the worst ratio (at most 1) otherwise.
    """
    totals = run.trace["totals"]
    worst = 0.0
    for stage, layers in config["stages"].items():
        if stage not in run.stages:
            continue
        reported, records, _ = run.stages[stage]
        wrapped = sum(totals.get(layer, 0.0) for layer in layers)
        allowed = (
            config["rel_tol"] * reported
            + config["abs_tol_per_solve_s"] * records
        )
        gap = abs(wrapped - reported) / allowed
        print(
            "crosscheck %-10s stage records %9.4fs  wrappers %9.4fs  "
            "gap/allowed %.2f" % (stage, reported, wrapped, gap)
        )
        worst = max(worst, gap)
    if worst > 1.0:
        raise WrongAnswer(
            "stage cross-check failed: wrapper and StageRecord times differ "
            "by %.2fx the stated tolerance" % worst
        )
    return worst


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def measure(
    workload: str, seed: int, seconds: float, trace: bool,
    config: Dict[str, Any],
) -> Tuple[RunResult, Dict[str, float]]:
    import tracing

    spec = config["workloads"][workload]
    benches = suite_benches()
    time_limit = time_limit_of(spec)
    if spec["kind"] == "suite":
        if not trace:
            setup = statistics.median(
                [time_suite_setup() for _ in range(SETUP_PROBES + 1)][1:]
            )
            run = run_suite(
                spec, benches, seed, seconds, spec["min_requests"]
            )
            return run, dict(
                summarize(run.samples, time_limit),
                setup_s=setup,
                makespan_s=run.makespan,
                peak_rss_mb=run.peak_rss_mb,
            )
        # Every request runs in a fresh child, so the traced pass sees
        # the same cold state as the untraced one before it.
        reference = run_suite(spec, benches, seed).makespan
        tracer = tracing.Tracer()
        tracing.install_pipeline(tracer)
        try:
            traced = run_suite(spec, benches, seed, tracer=tracer)
        finally:
            tracer.uninstall()
        traced.trace = tracer.snapshot()
        # The SEP DAG size is the program's own func-elim counter.
        traced.trace["totals"]["transform.func_elim.dag_sep_nodes"] = (
            traced.stages.get("func-elim", [0, 0, 0])[2]
        )
        worst = crosscheck(traced, config["crosscheck"])
        return traced, layer_metrics(traced, reference, time_limit, worst)

    items = serve_requests(spec, benches, seed, seconds)
    if not trace:
        time_serve_setup()  # warm-up: byte-compiles, fills the page cache
        probes = [time_serve_setup() for _ in range(SETUP_PROBES - 1)]
        run, setup = replay(spec, items, traced=False)
        return run, dict(
            summarize(run.samples, time_limit),
            setup_s=statistics.median(probes + [setup]),
            makespan_s=run.makespan,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            / 1024.0,
        )
    reference = replay(spec, items, traced=False)[0].makespan
    traced, _ = replay(spec, items, traced=True)
    return traced, layer_metrics(traced, reference, time_limit, 0.0)


def describe(name: str, run: RunResult, time_limit: float) -> None:
    """Human-readable lines ahead of the JSON result."""
    count = len(run.samples)
    kinds: Dict[str, int] = {}
    for sample in run.samples:
        key = sample.kind
        if sample.kind == FAILED:
            key += ":" + sample.error
        kinds[key] = kinds.get(key, 0) + 1
    shares = summarize(run.samples, time_limit)
    print("workload %s: %d requests, %d repeats, %d samples beyond p90"
          % (name, count, run.repeats, shares["beyond_p90"]))
    print("outcomes: %s" % ", ".join(
        "%s=%d" % item for item in sorted(kinds.items())))
    print("failed_share %.4f  undecided_share %.4f  (base: %d requests)"
          % (shares["failed_share"], shares["undecided_share"], count))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no repro sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    config = load_json(os.path.join(HERE, "workloads.json"))
    declared = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = config["workloads"].get(args.workload)
    if spec is None:
        print("perfbench: unknown workload %r; known: %s"
              % (args.workload, ", ".join(config["workloads"])),
              file=sys.stderr)
        return 2

    trace = bool(args.trace)
    try:
        run, values = measure(
            args.workload, args.seed, args.seconds, trace, config
        )
    except WrongAnswer as exc:
        print("perfbench: WRONG: %s" % exc, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1

    describe(args.workload, run, time_limit_of(spec))
    wanted = declared["per_layer" if trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print("%-40s %14.6f %s" % (metric["name"], value, metric["unit"]))
    print(json.dumps({
        "correct": True,
        "attempted": len(run.samples),
        "failed": sum(1 for s in run.samples if s.kind == FAILED),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
