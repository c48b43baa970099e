"""Result and statistics types for the decision procedures.

:class:`SolveOutcome` is what every procedure returns, and
:class:`DecisionStats` its telemetry.  Stage records are the one place
timings and sizes are written; the paper's encode/search split and the
DAG and CNF sizes are derived from them here.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..encodings.hybrid import EncodingStats
from ..logic.semantics import Interpretation
from ..sat.preprocess import PreprocessStats
from ..sat.solver import SatStats
from .status import Status

__all__ = [
    "StageRecord",
    "StageClock",
    "CacheStats",
    "DecisionStats",
    "SolveOutcome",
    "ENCODE_STAGES",
    "SEARCH_STAGES",
    "Status",
]

#: The paper reports a method's time as translation to a Boolean formula
#: plus SAT search (Figs. 2-6).  These name the stages of each part, for
#: every engine: the eager pipeline, lazy's ``encode``/``refine``, SVC's
#: ``flatten``/``split`` and brute's ``enumerate``.  Other stages count in
#: neither: the portfolio's ``race`` and the ``cache`` lookup wrap another
#: engine's stages, and ``decode`` runs after the verdict.
ENCODE_STAGES = ("func-elim", "encode", "cnf", "preprocess", "flatten")
SEARCH_STAGES = ("sat", "refine", "split", "enumerate")


@dataclass
class CacheStats:
    """Result-cache counters for one solve (or an aggregation of many).

    Attached to :class:`DecisionStats` by the ``cached`` engine wrapper
    and the batch dedupe path (:func:`repro.engine.portfolio.solve_batch`)
    so cache behaviour shows up in the same telemetry stream as every
    other stage.
    """

    hits_memory: int = 0
    hits_disk: int = 0
    misses: int = 0
    stores: int = 0
    dedupes: int = 0

    @property
    def hits(self) -> int:
        return self.hits_memory + self.hits_disk

    def merge(self, other: "CacheStats") -> None:
        self.hits_memory += other.hits_memory
        self.hits_disk += other.hits_disk
        self.misses += other.misses
        self.stores += other.stores
        self.dedupes += other.dedupes


@dataclass
class StageRecord:
    """One pipeline stage's wall time and counters.

    Every engine reports the same record shape (the counters differ), so
    telemetry can be aggregated uniformly across procedures — this is the
    per-stage breakdown behind ``repro check --stats``.
    """

    name: str
    seconds: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    #: Non-numeric stage outputs threaded to later consumers (e.g. the
    #: ``cnf`` stage's EIJ→CNF-var map for cube-and-conquer splitting).
    #: Excluded from :meth:`describe` — counters are the human surface.
    artifacts: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> str:
        parts = "%-10s %8.3fs" % (self.name, self.seconds)
        if self.counters:
            parts += "  " + " ".join(
                "%s=%s" % (key, value)
                for key, value in sorted(self.counters.items())
            )
        return parts


class StageClock:
    """Collects :class:`StageRecord` entries with wall-clock timing.

    Use as ``with clock.stage("encode") as rec: ...``; counters added to
    ``rec.counters`` inside the block are kept, the elapsed time is
    stamped on exit (also on exceptions, so failed stages still report
    how long they ran).
    """

    def __init__(self) -> None:
        self.records: List[StageRecord] = []

    @contextmanager
    def stage(self, name: str) -> Iterator[StageRecord]:
        record = StageRecord(name=name)
        self.records.append(record)
        start = time.perf_counter()
        try:
            yield record
        finally:
            record.seconds = time.perf_counter() - start


@dataclass
class DecisionStats:
    """Telemetry for one validity check.

    ``stages`` is the per-stage record every engine writes (func-elim →
    encode → CNF → SAT → decode for the eager pipeline, with the opt-in
    preprocess stage between CNF and SAT).
    The paper's numbers are read from it: ``encode_seconds`` sums the
    :data:`ENCODE_STAGES`, ``sat_seconds`` the :data:`SEARCH_STAGES`,
    and their sum is the paper's "total time"; the DAG and CNF sizes are
    stage counters.  The other fields are the full statistics objects of
    the encoder, preprocessor (``None`` unless it ran), SAT search and
    result cache.
    """

    method: str = ""
    encoding: Optional[EncodingStats] = None
    preprocess: Optional[PreprocessStats] = None
    sat: Optional[SatStats] = None
    cache: Optional[CacheStats] = None
    stages: List[StageRecord] = field(default_factory=list)

    def seconds(self, *names: str) -> float:
        """Summed wall time of the stages called ``names``."""
        return sum(r.seconds for r in self.stages if r.name in names)

    def counter(self, key: str) -> int:
        """The first stage counter called ``key``; 0 if none records it."""
        for record in self.stages:
            if key in record.counters:
                return record.counters[key]
        return 0

    @property
    def encode_seconds(self) -> float:
        """Translation to CNF (the paper's "time to translate")."""
        return self.seconds(*ENCODE_STAGES)

    @property
    def sat_seconds(self) -> float:
        return self.seconds(*SEARCH_STAGES)

    @property
    def total_seconds(self) -> float:
        return self.encode_seconds + self.sat_seconds

    @property
    def dag_size_suf(self) -> int:
        return self.counter("dag_suf")

    @property
    def dag_size_sep(self) -> int:
        return self.counter("dag_sep")

    @property
    def cnf_vars(self) -> int:
        return self.counter("vars")

    @property
    def cnf_clauses(self) -> int:
        return self.counter("clauses")

    @property
    def conflict_clauses(self) -> int:
        """The paper's Figure-2 metric: conflict clauses added by the SAT
        solver."""
        return self.sat.learned_clauses if self.sat else 0

    @property
    def sep_predicates(self) -> int:
        """SepCnt summed over classes — the paper's Figure-3 x-axis."""
        return self.encoding.total_sep_count if self.encoding else 0


@dataclass
class SolveOutcome:
    """What every engine returns.

    ``engine`` is the registry name that produced the outcome; for the
    portfolio it is ``"portfolio"`` and ``winner`` names the member whose
    verdict was adopted.  ``stats.stages`` holds the per-stage telemetry
    (procedure-specific counters included); ``wall_seconds`` is the
    request's own wall time, which also covers work outside any stage.
    """

    engine: str
    status: Status
    stats: DecisionStats = field(default_factory=DecisionStats)
    counterexample: Optional[Interpretation] = None
    detail: str = ""
    wall_seconds: float = 0.0
    winner: Optional[str] = None

    @property
    def valid(self) -> Optional[bool]:
        """True / False when decided, ``None`` otherwise."""
        return self.status.as_valid

    @property
    def decided(self) -> bool:
        return self.status.decided

    @property
    def stages(self) -> List[StageRecord]:
        return self.stats.stages
