"""Timing wrappers around the public calls of each repro layer.

The benchmark does not change the program: :func:`install_pipeline`
and :func:`install_service` replace module attributes with wrappers
that time each call and count what it returns, and
:meth:`Tracer.uninstall` puts the originals back.  Names
are patched where the caller looks them up (``repro.engine.stages``
imports ``encode_hybrid`` by name, so that is the attribute replaced).

Spans are kept as running totals in memory, keyed by layer:
``<layer>`` holds inclusive seconds, ``<layer>.calls`` the call count,
other ``<layer>.<counter>`` keys what the calls returned.  The lock
makes the totals safe under the serve worker threads.
"""

from __future__ import annotations

import collections
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Tuple


class Tracer:
    """Running per-layer totals plus the patches that feed them."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = collections.defaultdict(float)
        self.queue_waits: List[float] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Drop the totals (a forked child reports only its own)."""
        self.totals = collections.defaultdict(float)
        self.queue_waits = []

    def add(self, amounts: Dict[str, float]) -> None:
        with self._lock:
            for key, value in amounts.items():
                self.totals[key] += value

    def note_queue_wait(self, seconds: float) -> None:
        with self._lock:
            self.queue_waits.append(seconds)

    def span(self, layer: str, seconds: float) -> None:
        with self._lock:
            self.totals[layer] += seconds
            self.totals[layer + ".calls"] += 1

    def patch(self, owner: Any, name: str, wrap: Callable[[Any], Any]) -> None:
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, wrap(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            waits = list(self.queue_waits)
            return {
                "totals": dict(self.totals),
                "queue_wait_p50_s": statistics.median(waits) if waits else 0.0,
            }


def _timed(tracer: Tracer, layer: str, after=None):
    """Wrap a function: time every call under ``layer``.

    ``after(result, args, kwargs)`` returns extra counters to add; it
    runs outside the timed region.
    """

    def wrap(original):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.span(layer, time.perf_counter() - start)
            if after is not None:
                tracer.add(after(result, args, kwargs))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    return wrap


def install_pipeline(tracer: Tracer) -> None:
    """Wrap the eager pipeline's stage calls (in-process solves)."""
    from repro.encodings import hybrid
    from repro.encodings.transitivity import TransitivityBudgetExceeded
    from repro.engine import stages
    from repro.sat.solver import CdclSolver

    tracer.patch(
        stages,
        "eliminate_applications",
        _timed(tracer, "transform.func_elim"),
    )

    def wrap_encode(original):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                encoding = original(*args, **kwargs)
            except TransitivityBudgetExceeded:
                seconds = time.perf_counter() - start
                tracer.span("encodings.hybrid", seconds)
                tracer.add(
                    {
                        "encodings.hybrid.budget_exhausted": 1,
                        "encodings.hybrid.exhausted_s": seconds,
                    }
                )
                raise
            tracer.span("encodings.hybrid", time.perf_counter() - start)
            stats = encoding.stats
            tracer.add(
                {
                    "encodings.hybrid.sep_vars": stats.sep_vars,
                    "encodings.hybrid.eij_classes": stats.eij_classes,
                    "encodings.hybrid.sd_classes": stats.sd_classes,
                }
            )
            return encoding

        return wrapper

    tracer.patch(stages, "encode_hybrid", wrap_encode)

    def wrap_transitivity(original):
        def wrapper(registry, class_vars, budget=None, stats=None):
            before = stats.clauses if stats is not None else 0
            start = time.perf_counter()
            try:
                clauses = original(registry, class_vars, budget, stats)
            finally:
                tracer.span(
                    "encodings.transitivity", time.perf_counter() - start
                )
                if stats is not None:
                    tracer.add(
                        {
                            "encodings.transitivity.clauses": stats.clauses
                            - before
                        }
                    )
            return clauses

        return wrapper

    tracer.patch(hybrid, "generate_transitivity", wrap_transitivity)
    tracer.patch(hybrid, "generate_equality_transitivity", wrap_transitivity)

    tracer.patch(
        stages,
        "to_cnf",
        _timed(
            tracer,
            "sat.tseitin",
            lambda cnf, a, k: {
                "sat.tseitin.cnf_vars": cnf.num_vars,
                "sat.tseitin.cnf_clauses": len(cnf),
            },
        ),
    )
    tracer.patch(
        stages,
        "preprocess_cnf",
        _timed(
            tracer,
            "sat.preprocess",
            lambda pre, a, k: {
                "sat.preprocess.clauses_before": pre.stats.clauses_before,
                "sat.preprocess.clauses_after": pre.stats.clauses_after,
                "sat.preprocess.closed": 1 if pre.status == "UNSAT" else 0,
            },
        ),
    )
    tracer.patch(CdclSolver, "__init__", _timed(tracer, "sat.solver.init"))
    tracer.patch(
        CdclSolver,
        "solve",
        _timed(
            tracer,
            "sat.solver",
            lambda result, a, k: {
                "sat.solver.conflicts": result.stats.conflicts,
                "sat.solver.decisions": result.stats.decisions,
                "sat.solver.propagations": result.stats.propagations,
            },
        ),
    )
    tracer.patch(
        stages, "decode_countermodel", _timed(tracer, "core.decision")
    )
    tracer.patch(stages, "lift_countermodel", _timed(tracer, "core.decision"))


def install_service(tracer: Tracer) -> None:
    """Wrap the serve loop's calls in the server process.

    Calls made inside a forked portfolio child are recorded in the
    child's copy of the tracer and lost with it.
    """
    from repro.service import cache, server

    tracer.patch(server, "parse_formula", _timed(tracer, "logic.parser"))
    tracer.patch(cache, "canonicalize", _timed(tracer, "logic.canonical"))
    tracer.patch(
        cache.ResultCache,
        "lookup",
        _timed(
            tracer,
            "service.cache.lookup",
            lambda found, a, k: {
                "service.cache.hits": 1 if found[0] is not None else 0,
                "service.cache.misses": 1 if found[0] is None else 0,
            },
        ),
    )
    tracer.patch(
        cache.ResultCache, "store", _timed(tracer, "service.cache.store")
    )

    def member_seconds(outcome, args, kwargs):
        # The member's own pipeline stages, as it reported them; the
        # race record is the portfolio's span, not the member's work.
        return {
            "engine.portfolio.member_s": sum(
                rec.seconds for rec in outcome.stages if rec.name != "race"
            )
        }

    tracer.patch(
        server,
        "solve_portfolio",
        _timed(tracer, "engine.portfolio", member_seconds),
    )

    def wrap_solve_one(original):
        def wrapper(state, payload, received):
            waited = time.monotonic() - received
            tracer.note_queue_wait(waited)
            return original(state, payload, received)

        return wrapper

    tracer.patch(server, "_solve_one", wrap_solve_one)
