"""The evaluation-backend interface: pluggable engines behind one seam.

Kolchinsky & Schuster (arXiv 1801.09413) argue that CEP query *semantics*
should be independent of the evaluation *mechanism*, so mechanisms can be
swapped and compared under one cost model.  This module is that separation
for the reproduction: an :class:`EvalBackend` is any engine that can play
the ``f_Q`` role in the dispatch loop — consume one input event, advance the
virtual clock by the declared costs, and produce
:class:`~repro.engine.interface.MatchRecord` objects.  The registry table
that maps backend names to implementations lives in :mod:`repro.backends`.

Backends differ in *capability*: the tree engine implements only the greedy
selection policy and exposes no shedding surface.  Those limits are declared
as :class:`BackendCapabilities` flags, and the builder checks them
generically through :meth:`BackendCapabilities.require` — one error-message
format for every policy/shedding/obligation mismatch, instead of scattered
``ValueError``\\ s.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from repro.engine.engine import GREEDY
from repro.engine.interface import CostModel, MatchRecord, StrategyProtocol

if TYPE_CHECKING:
    from repro.events.event import Event
    from repro.nfa.automaton import Automaton
    from repro.sim.clock import VirtualClock

__all__ = [
    "BackendCapabilities",
    "BackendCapabilityError",
    "EvalBackend",
]


class BackendCapabilityError(ValueError):
    """The configuration asks a backend for something it does not support."""


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do; the builder checks these declaratively.

    ``policies``
        The selection policies (§2.1) the backend implements.
    ``shedding``
        Whether the backend exposes the load-shedding surface —
        ``extendable_runs`` / ``shed_lowest`` / ``iter_runs`` — required by
        any shedding policy and by the ``max_partial_matches`` run cap.
    ``obligations``
        Whether the backend keeps per-run :class:`~repro.nfa.run.Obligation`
        records; the run-shedding utility score reads them.
    """

    policies: tuple[str, ...]
    shedding: bool
    obligations: bool

    def require(
        self,
        backend: str,
        *,
        policy: str | None = None,
        shedding: bool = False,
        obligations: bool = False,
    ) -> None:
        """Raise :class:`BackendCapabilityError` unless every need is met.

        All mismatches are reported in one message so a config asking for
        several unsupported things fails with the complete list.
        """
        missing: list[str] = []
        if policy is not None and policy not in self.policies:
            supported = ", ".join(self.policies)
            missing.append(f"selection policy {policy!r} (supported: {supported})")
        if shedding and not self.shedding:
            missing.append(
                "load shedding (no extendable_runs/shed_lowest surface)"
            )
        if obligations and not self.obligations:
            missing.append("run obligations (no per-run obligation records)")
        if missing:
            raise BackendCapabilityError(
                f"backend {backend!r} does not support " + "; nor ".join(missing)
            )


class EvalBackend(abc.ABC):
    """The narrow interface every evaluation backend implements.

    The dispatch loop (:func:`repro.runtime.dispatch.dispatch`) drives a
    backend exclusively through this surface:

    * :meth:`process_event` — one ``f_Q`` step, charging the cost model
      against the shared virtual clock and returning finished matches;
    * :meth:`flush` — drop remaining partial state at end of stream;
    * :attr:`stats` — an :class:`~repro.engine.interface.EngineStats`;
    * :attr:`active_runs` / :meth:`runs_per_state` — the live-partial-match
      surface the strategies' utility ticks read.

    Backends declaring ``capabilities.shedding`` additionally provide
    ``extendable_runs(event)``, ``shed_lowest(count, score, strategy,
    reason)``, and ``iter_runs()`` (see :class:`~repro.engine.engine.Engine`
    for the reference signatures) — the builder refuses shedding configs on
    backends without the flag, so the dispatch loop never probes for them.

    Concrete backends subclass an engine implementation *first* and this
    interface second (``class TreeBackend(TreeEngine, EvalBackend)``) so the
    engine's concrete methods win the MRO, declare :attr:`capabilities` and
    :attr:`description`, and get a row in the registry table.
    """

    #: Declared capability flags the builder checks.
    capabilities: ClassVar[BackendCapabilities]
    #: One-line description shown by ``list_backends()``.
    description: ClassVar[str] = ""

    @classmethod
    @abc.abstractmethod
    def build(
        cls,
        automaton: "Automaton",
        clock: "VirtualClock",
        *,
        cost_model: CostModel | None = None,
        policy: str = GREEDY,
        max_partial_matches: int | None = None,
    ) -> "EvalBackend":
        """Construct an instance from the uniform factory signature.

        Backends ignore arguments their capabilities exclude (the tree
        backend takes no policy), but the builder has already refused any
        config that *relies* on an ignored argument via
        :meth:`BackendCapabilities.require`.
        """

    @abc.abstractmethod
    def process_event(self, event: "Event", strategy: StrategyProtocol) -> list[MatchRecord]:
        """Advance the evaluation by one input event (the ``f_Q`` step)."""

    @abc.abstractmethod
    def flush(self, strategy: StrategyProtocol) -> None:
        """Drop all remaining partial matches (end of stream)."""

    @property
    @abc.abstractmethod
    def active_runs(self) -> int:
        """Current number of live partial matches."""

    @abc.abstractmethod
    def runs_per_state(self) -> dict[int, int]:
        """Live partial matches per class (for #P_j monitoring)."""
