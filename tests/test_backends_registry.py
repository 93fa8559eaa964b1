"""Unit tests for the evaluation-backend registry (``repro.backends``).

Covers the registry table (names, aliases, unknown-name errors), the
declarative capability checks the builder relies on, the public exports,
and the import footprint of the package.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.backends import (
    BACKENDS,
    BackendCapabilityError,
    EvalBackend,
    ReferenceBackend,
    TreeBackend,
    get_backend,
    list_backends,
    resolve_backend,
)
from repro.cli import main
from repro.core.config import EiresConfig
from repro.core.framework import EIRES
from repro.runtime.session import QuerySpec
from repro.workloads.synthetic import SyntheticConfig, q1_workload

REPO_ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = "registered backends: reference, tree"


class TestRegistry:
    def test_unknown_backend_lists_registered_names(self, capsys):
        with pytest.raises(ValueError, match="unknown backend 'nope'"):
            resolve_backend("nope")
        with pytest.raises(ValueError, match="reference"):
            get_backend("nope")
        # A backend this package used to ship is just another unknown name,
        # through the spec and through the CLI flag alike.
        query = q1_workload(SyntheticConfig(n_events=10)).query
        with pytest.raises(ValueError, match=f"unknown backend 'vectorized'; {CATALOGUE}"):
            QuerySpec(query, backend="vectorized")
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--workload", "q1", "--events", "50",
                  "--strategies", "BL1", "--engine-backend", "vectorized"])
        assert excinfo.value.code == 2
        assert CATALOGUE in capsys.readouterr().err

    def test_alias_resolves_to_canonical_name(self):
        assert resolve_backend("automaton") == "reference"
        assert get_backend("automaton") is ReferenceBackend

    def test_known_backends_are_registered(self):
        assert BACKENDS == {"reference": ReferenceBackend, "tree": TreeBackend}

    def test_list_backends_rows(self):
        rows = {listing.name: listing for listing in list_backends()}
        assert sorted(rows) == ["reference", "tree"]
        assert rows["reference"].aliases == ("automaton",)
        assert rows["reference"].capabilities.shedding
        assert rows["tree"].aliases == ()
        assert not rows["tree"].capabilities.shedding
        assert all(row.description for row in rows.values())


class TestCapabilities:
    def test_refusal_collects_every_mismatch(self):
        tree = get_backend("tree")
        with pytest.raises(BackendCapabilityError) as excinfo:
            tree.capabilities.require(
                "tree", policy="non_greedy", shedding=True, obligations=True
            )
        message = str(excinfo.value)
        assert "backend 'tree'" in message
        assert "selection policy 'non_greedy'" in message
        assert "load shedding" in message
        assert "run obligations" in message

    def test_supported_configuration_passes(self):
        get_backend("tree").capabilities.require("tree", policy="greedy")
        get_backend("reference").capabilities.require(
            "reference", policy="non_greedy", shedding=True, obligations=True
        )

    def test_builder_refuses_through_the_registry(self):
        workload = q1_workload(SyntheticConfig(n_events=10))
        with pytest.raises(BackendCapabilityError, match="does not support"):
            EIRES(
                workload.query,
                workload.store,
                workload.latency_model,
                config=EiresConfig(policy="non_greedy"),
                backend="tree",
            )

    def test_registry_class_builds_a_working_engine(self):
        from repro.nfa.compiler import compile_query
        from repro.sim.clock import VirtualClock

        workload = q1_workload(SyntheticConfig(n_events=10))
        engine = get_backend("reference").build(
            compile_query(workload.query), VirtualClock()
        )
        assert isinstance(engine, EvalBackend)
        assert engine.active_runs == 0


class TestExports:
    def test_package_exports(self):
        assert repro.EvalBackend is EvalBackend
        assert callable(repro.list_backends)
        assert "EvalBackend" in repro.__all__
        assert "list_backends" in repro.__all__


class TestImportFootprint:
    def test_import_loads_only_stdlib_and_repro(self):
        """``import repro`` and a reference run load nothing third-party."""
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "def foreign():\n"
            "    return sorted(\n"
            "        name for name in set(sys.modules) - before\n"
            "        if name.split('.')[0] not in sys.stdlib_module_names\n"
            "        and name.split('.')[0] != 'repro'\n"
            "    )\n"
            "import repro\n"
            "assert not foreign(), foreign()\n"
            "from repro.bench.harness import run_strategy\n"
            "from repro.workloads.synthetic import SyntheticConfig, q1_workload\n"
            "wl = q1_workload(SyntheticConfig(n_events=200))\n"
            "result = run_strategy(wl, 'Hybrid', repro.EiresConfig())\n"
            "assert not foreign(), foreign()\n"
            "print('ok', result.match_count)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("ok")
