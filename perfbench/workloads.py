"""The benchmark's three workloads, built only from the public ``repro`` surface.

Each workload turns a seed into ``segments`` independent input streams of
``segment_events`` events (sub-seed ``seed * 1000 + k`` for segment ``k``).
One segment is one complete replay: a freshly generated stream and remote
store, a freshly built runtime (or fleet), and one ``run``/``dispatch``.
Splitting a run's input into independent segments is what keeps the
figures of a run close to those of the next seed: greedy Q1's match count
is heavy-tailed per stream, so one long stream reads very differently from
seed to seed, while the pooled segments average that out.

The load model is open-loop in virtual time: every event arrives at its
generator-stamped time whether or not the engine keeps up, so engine
backlog shows up as queueing inside detection latency.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable

from repro import (
    CACHE_COST,
    CACHE_LRU,
    EIRES,
    GREEDY,
    NON_GREEDY,
    EiresConfig,
    FleetBuilder,
    TenantSpec,
)
from repro.workloads import (
    BurstyConfig,
    SyntheticConfig,
    Workload,
    bursty_workload,
    q1_workload,
    q2_workload,
)

STRATEGY = "Hybrid"


@dataclass
class Tenant:
    """One query's view of a replay: what it detected and counted."""

    name: str
    #: The query this tenant runs; tenants sharing it share one oracle.
    query_key: str
    result: Any  # repro.RunResult


@dataclass
class Outcome:
    """Everything one segment replay produced."""

    tenants: list[Tenant]
    #: The fleet-level result (``repro.FleetResult``), or None for a plain run.
    fleet: Any
    events: int


class Replay:
    """A built, not yet run, runtime or fleet over one generated segment."""

    def __init__(self, runner, sessions, run: Callable[[], Outcome]):
        #: The object whose ``run``/``dispatch`` replays the stream.
        self.runner = runner
        #: ``(tenant name, query key, session)`` for every query session.
        self.sessions = sessions
        self.run = run


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    segments: int
    segment_events: int
    policy: str
    #: ``(sub_seed, n_events) -> Workload``: the input generation.
    generate: Callable[[int, int], Workload]
    #: ``(workload, tracer) -> Replay``: the runtime / fleet construction.
    build: Callable[[Workload, Any], Replay]
    #: True when shedding may drop matches (checked as a subset of the oracle).
    sheds: bool = False

    def sub_seed(self, seed: int, segment: int) -> int:
        return seed * 1000 + segment


# -- q1-greedy-cost / q2-nongreedy-lru: one EIRES instance per segment -------


def _single(config: EiresConfig) -> Callable[[Workload, Any], Replay]:
    def build(workload: Workload, tracer) -> Replay:
        eires = EIRES(
            workload.query,
            workload.store,
            workload.latency_model,
            strategy=STRATEGY,
            config=config,
            tracer=tracer,
        )
        name = workload.query.name
        session = eires.runtime.sessions[0]

        def run() -> Outcome:
            result = eires.run(workload.stream)
            return Outcome([Tenant(name, name, result)], None, len(workload.stream))

        return Replay(eires.runtime, [(name, name, session)], run)

    return build


def _q1(sub_seed: int, n_events: int) -> Workload:
    return q1_workload(
        SyntheticConfig(n_events=n_events, id_domain=20, window_events=400, seed=sub_seed)
    )


def _q2(sub_seed: int, n_events: int) -> Workload:
    return q2_workload(
        SyntheticConfig(n_events=n_events, id_domain=20, window_events=400, seed=sub_seed)
    )


# -- fleet-burst-shed: four tenants on two shards over one shared plane ------

FLEET_TENANTS = 4
FLEET_SHARDS = 2


def _bursty(sub_seed: int, n_events: int) -> Workload:
    return bursty_workload(BurstyConfig(n_events=n_events, seed=sub_seed))


def _fleet_config(capacity: int) -> EiresConfig:
    return EiresConfig(
        policy=GREEDY,
        cache_policy=CACHE_COST,
        cache_capacity=capacity,
        batch_window=50,
        batch_max_keys=8,
        fault_profile="lossy",
        retry_max_attempts=8,
        retry_attempt_timeout=200,
        retry_deadline=1e9,
        breaker_failure_threshold=0.9,
        shed_policy="runs",
        latency_bound=1000,
    )


def _build_fleet(workload: Workload, tracer) -> Replay:
    # Q2 over the bursty stream's window; its remote tables (rq1/rq2) are
    # registered by the same synthetic store the bursty workload carries.
    q2 = q2_workload(SyntheticConfig(n_events=0, window_events=250)).query
    builder = FleetBuilder(
        workload.store,
        workload.latency_model,
        n_shards=FLEET_SHARDS,
        config=_fleet_config(workload.notes["cache_capacity"]),
        tracer=tracer,
    )
    key_of = {}
    for index in range(FLEET_TENANTS):
        base = workload.query if index % 2 == 0 else q2
        query = copy.copy(base)
        query.name = f"{base.name}_t{index}"
        key_of[query.name] = base.name
        builder.add_tenant(TenantSpec(f"tenant{index}", query, strategy=STRATEGY))
    fleet = builder.build()
    sessions = [
        (fleet.tenant_of[session.name], key_of[session.name], session)
        for runtime in fleet.runtimes
        for session in runtime.sessions
    ]

    def run() -> Outcome:
        result = fleet.dispatch(workload.stream)
        tenants = []
        for tenant in sorted(result.results):
            for query_name, run_result in sorted(result.results[tenant].items()):
                tenants.append(Tenant(tenant, key_of[query_name], run_result))
        return Outcome(tenants, result, len(workload.stream))

    return Replay(fleet, sessions, run)


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="q1-greedy-cost",
            why=(
                "Q1 greedy with a cost-based cache: many live partial matches, "
                "and eviction scores candidates through the utility model"
            ),
            segments=8,
            segment_events=2000,
            policy=GREEDY,
            generate=_q1,
            build=_single(
                EiresConfig(policy=GREEDY, cache_policy=CACHE_COST, cache_capacity=100)
            ),
        ),
        WorkloadSpec(
            name="q2-nongreedy-lru",
            why=(
                "Q2 non-greedy with an LRU cache: few partial matches, per-event "
                "engine and predicate overhead plus cache churn, utility barely used"
            ),
            segments=12,
            segment_events=4000,
            policy=NON_GREEDY,
            generate=_q2,
            build=_single(
                EiresConfig(policy=NON_GREEDY, cache_policy=CACHE_LRU, cache_capacity=100)
            ),
        ),
        WorkloadSpec(
            name="fleet-burst-shed",
            why=(
                "four Q1/Q2 tenants on two shards over bursty overload: serving, "
                "run shedding, batched and retried lossy fetches, a shared cache"
            ),
            segments=6,
            segment_events=1600,
            policy=GREEDY,
            generate=_bursty,
            build=_build_fleet,
            sheds=True,
        ),
    )
}
