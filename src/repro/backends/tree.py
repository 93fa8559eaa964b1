"""The ``tree`` backend: the left-deep buffer engine, capability-limited.

:class:`~repro.engine.tree.TreeEngine` trades generality for a different
evaluation shape (per-step event buffers joined left-to-right, as in
tree-based CEP evaluation).  Its limits used to live as ad-hoc
``ValueError``\\ s inside the builder; here they are *declared* — greedy
selection only, no shedding surface, no per-run obligation records — and
the builder refuses unsupported configurations generically through
:meth:`EvalBackend.require`.

The tree engine produces the same *match set* as the reference backend on
the queries it supports, but its virtual cost accounting and stats counters
follow its own evaluation order, so the conformance suite compares match
signatures only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.backends.base import BackendCapabilities, EvalBackend
from repro.engine.engine import GREEDY
from repro.engine.interface import CostModel
from repro.engine.tree import TreeEngine

if TYPE_CHECKING:
    from repro.nfa.automaton import Automaton
    from repro.sim.clock import VirtualClock

__all__ = ["TreeBackend"]


class TreeBackend(TreeEngine, EvalBackend):
    """The :class:`TreeEngine` published through the backend registry."""

    capabilities = BackendCapabilities(
        policies=(GREEDY,),
        shedding=False,
        obligations=False,
    )
    description = "left-deep buffer engine for linear SEQ queries (greedy only)"

    @classmethod
    def build(
        cls,
        automaton: "Automaton",
        clock: "VirtualClock",
        *,
        cost_model: CostModel | None = None,
        policy: str = GREEDY,
        max_partial_matches: int | None = None,
    ) -> "TreeBackend":
        # ``policy`` and ``max_partial_matches`` are capability-gated: the
        # builder has already refused any configuration that relies on them.
        return cls(automaton, clock, cost_model=cost_model)
