"""The ``reference`` backend: today's automaton :class:`Engine`, unchanged.

Every result in the repository — the committed bench baselines, the golden
byte-identity regressions, the paper figures — was produced by this engine,
so it is the semantics the conformance suite holds every other backend
against.  The class adds nothing but the uniform :meth:`build` factory and
the registry metadata; the evaluation path is the
:class:`~repro.engine.engine.Engine` hot path byte-for-byte.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.backends.base import BackendCapabilities, EvalBackend
from repro.engine.engine import GREEDY, NON_GREEDY, Engine
from repro.engine.interface import CostModel

if TYPE_CHECKING:
    from repro.nfa.automaton import Automaton
    from repro.sim.clock import VirtualClock

__all__ = ["ReferenceBackend"]


class ReferenceBackend(Engine, EvalBackend):
    """The :class:`Engine` published through the backend registry."""

    capabilities = BackendCapabilities(
        policies=(GREEDY, NON_GREEDY),
        shedding=True,
        obligations=True,
    )
    description = "the NFA run engine (the reproduction's reference semantics)"

    @classmethod
    def build(
        cls,
        automaton: "Automaton",
        clock: "VirtualClock",
        *,
        cost_model: CostModel | None = None,
        policy: str = GREEDY,
        max_partial_matches: int | None = None,
    ) -> "ReferenceBackend":
        return cls(
            automaton,
            clock,
            cost_model=cost_model,
            policy=policy,
            max_partial_matches=max_partial_matches,
        )
