"""Cross-backend conformance: every backend honours the reference semantics.

The ``tree`` backend must produce the same *match set* as ``reference`` on
the configurations its declared capabilities admit.  Its virtual cost
accounting follows its own evaluation order, so only match signatures are
compared.

Scenarios are deliberately small (hundreds of events) so the matrix stays
tier-1 fast.
"""

from __future__ import annotations

import pytest

from repro.backends import get_backend
from repro.bench.harness import run_strategy
from repro.core.config import EiresConfig
from repro.workloads.synthetic import SyntheticConfig, q1_workload

Q1_SMALL = SyntheticConfig(n_events=700, id_domain=20, window_events=200)


class TestTreeBackendConformance:
    """The tree backend matches the reference match set where its declared
    capabilities apply (greedy, no shedding)."""

    @pytest.mark.parametrize("strategy", ["BL1", "Hybrid"])
    def test_q1_match_set(self, strategy):
        workload = q1_workload(Q1_SMALL)
        config = EiresConfig()
        reference = run_strategy(workload, strategy, config, backend="reference")
        tree = run_strategy(workload, strategy, config, backend="tree")
        assert sorted(m.signature() for m in tree.matches) == sorted(
            m.signature() for m in reference.matches
        )

    def test_capabilities_declare_the_gaps(self):
        capabilities = get_backend("tree").capabilities
        assert capabilities.policies == ("greedy",)
        assert not capabilities.shedding
        assert not capabilities.obligations
