"""The shared request/outcome contract every engine speaks.

One :class:`SolveRequest` in, one :class:`SolveOutcome` out — regardless
of whether the engine is the eager pipeline, a baseline, the brute-force
oracle, or the parallel portfolio.  The outcome carries the status, the
countermodel, and the statistics with their uniform per-stage telemetry
(procedure-specific counters ride on the stage records).
:class:`SolveOutcome` is defined in :mod:`repro.core.result`, so the
solvers can build it without importing the engine layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from ..core.result import SolveOutcome
from ..encodings.hybrid import DEFAULT_SEP_THOLD
from ..logic.terms import Formula

__all__ = ["SolveRequest", "SolveOutcome"]


@dataclass
class SolveRequest:
    """One validity query plus every knob an engine may honour.

    Engines ignore knobs they have no use for (the brute-force oracle has
    no ``sep_thold``); engine-specific extras travel in ``options`` (the
    lazy engine's ``max_iterations``, SVC's ``max_splits``, brute's
    enumeration ``limit``, the portfolio's ``engines`` subset).
    """

    formula: Formula
    want_countermodel: bool = True
    time_limit: Optional[float] = None
    conflict_limit: Optional[int] = None
    sep_thold: int = DEFAULT_SEP_THOLD
    trans_budget: Optional[int] = None
    sd_ranges: str = "uniform"
    #: Run the SatELite-style CNF simplifier between CNF generation and
    #: the SAT search (eager engines only; ``repro check --preprocess``).
    #: Off by default: on the suite it costs more than it saves.
    preprocess: bool = False
    options: Dict[str, Any] = field(default_factory=dict)

    def replace_formula(self, formula: Formula) -> "SolveRequest":
        return replace(self, formula=formula, options=dict(self.options))
