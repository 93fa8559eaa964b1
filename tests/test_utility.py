"""Unit tests for the utility model, rate estimation, and noise (§4)."""

import pytest

from repro.nfa.compiler import compile_query
from repro.nfa.run import Run
from repro.query.parser import parse_query
from repro.remote.monitor import LatencyMonitor
from repro.remote.store import RemoteStore
from repro.utility.model import UtilityModel, required_keys
from repro.utility.noise import NoiseModel
from repro.utility.rates import RateEstimator
from repro.events.event import Event


def build_automaton():
    return compile_query(
        parse_query("SEQ(A a, B b, C c) WHERE c.v IN REMOTE<r>[a.v] WITHIN 100", name="t")
    )


def run_at(automaton, state_index, attrs, created_at=0.0):
    state = automaton.states[state_index]
    env = {}
    event = None
    for depth, binding in enumerate(state.path_bindings):
        event = Event(float(depth), dict(attrs, type="X"), seq=depth)
        env[binding] = event
    return Run(
        state=state,
        env=env,
        first_t=0.0,
        first_seq=0,
        last_seq=len(env) - 1,
        obligations=(),
        created_at=created_at,
    )


class TestRequiredKeys:
    def test_key_derivable_from_bound_event(self):
        automaton = build_automaton()
        run = run_at(automaton, 2, {"v": 7})  # at state (a, b): next needs r[a.v]
        assert required_keys(run) == (("r", 7),)

    def test_key_not_yet_bound(self):
        automaton = build_automaton()
        run = run_at(automaton, 1, {"v": 7})  # at state (a): site is 1 hop away
        assert required_keys(run) == ()

    def test_include_future_states_walks_deeper(self):
        automaton = build_automaton()
        run = run_at(automaton, 1, {"v": 7})
        assert required_keys(run, include_future_states=True) == (("r", 7),)

    def test_site_keyed_by_input_event_is_excluded(self):
        automaton = compile_query(
            parse_query("SEQ(A a, B b) WHERE a.v IN REMOTE<r>[b.v] WITHIN 10", name="t")
        )
        run = run_at(automaton, 1, {"v": 3})
        assert required_keys(run) == ()


class TestUtilityModel:
    def _model(self, automaton=None, noise=None):
        automaton = automaton or build_automaton()
        store = RemoteStore()
        monitor = LatencyMonitor(prior=10.0)
        return UtilityModel(automaton, store, monitor, horizon_events=100.0, noise=noise), store

    def test_urgent_utility_counts_live_runs(self):
        model, _ = self._model()
        automaton = build_automaton()
        run = run_at(automaton, 2, {"v": 7})
        model.on_run_created(run)
        assert model.urgent_utility(("r", 7)) == pytest.approx(10.0)  # 1 run x prior latency
        model.on_run_dropped(run)
        assert model.urgent_utility(("r", 7)) == 0.0

    def test_urgent_utility_propagates_to_containers(self):
        automaton = build_automaton()
        store = RemoteStore()
        parent = store.put("r", "all", "container", size=0)
        store.put("r", 7, "part", size=1, parent=parent)
        model = UtilityModel(automaton, store, LatencyMonitor(prior=10.0), horizon_events=10.0)
        run = run_at(automaton, 2, {"v": 7})
        model.on_run_created(run)
        assert model.urgent_utility(("r", "all")) > 0.0

    def test_future_utility_builds_from_class_statistics(self):
        model, _ = self._model()
        automaton = build_automaton()
        for i in range(10):
            model.on_run_created(run_at(automaton, 2, {"v": 7}))
            model.tick(float(i), {2: i + 1}, i + 1)
        assert model.future_utility(("r", 7)) > 0.0
        # A key never required by any run has no future utility.
        assert model.future_utility(("r", 999)) == 0.0

    def test_combined_value_weighting(self):
        model, _ = self._model()
        automaton = build_automaton()
        run = run_at(automaton, 2, {"v": 7})
        model.on_run_created(run)
        urgent_only = model.value(("r", 7), omega=1.0)
        future_only = model.value(("r", 7), omega=0.0)
        mixed = model.value(("r", 7), omega=0.5)
        assert urgent_only == pytest.approx(model.urgent_utility(("r", 7)))
        assert mixed == pytest.approx(0.5 * urgent_only + 0.5 * future_only)

    def test_omega_out_of_range(self):
        model, _ = self._model()
        with pytest.raises(ValueError):
            model.value(("r", 7), omega=1.5)

    def test_noise_zeroes_future_utility(self):
        noisy = NoiseModel(1.0)
        model, _ = self._model(noise=noisy)
        automaton = build_automaton()
        model.on_run_created(run_at(automaton, 2, {"v": 7}))
        model.tick(0.0, {2: 5}, 1)
        assert model.future_utility(("r", 7)) == 0.0

    def test_decay_forgets_old_counters(self):
        model, _ = self._model()
        automaton = build_automaton()
        model.on_run_created(run_at(automaton, 2, {"v": 7}))
        model.tick(0.0, {2: 5}, 1)
        before = model.future_utility(("r", 7))
        assert before > 0.0
        for i in range(1, 4096):
            model.tick(float(i), {2: 5}, i + 1)  # class still busy, key never needed
        after = model.future_utility(("r", 7))
        assert after < before


class TestRateEstimator:
    def test_event_rate_from_gaps(self):
        rates = RateEstimator()
        for i in range(200):
            rates.observe_event("A", i * 10.0)
        assert rates.event_rate() == pytest.approx(0.1, rel=0.05)

    def test_type_rate_splits_by_share(self):
        rates = RateEstimator()
        for i in range(300):
            rates.observe_event("A" if i % 3 else "B", i * 10.0)
        assert rates.type_rate("A") > rates.type_rate("B")

    def test_extension_rate_scaled_by_pass_fraction(self):
        rates = RateEstimator()
        for i in range(100):
            rates.observe_event("A", i * 10.0)
        for _ in range(80):
            rates.observe_guard(5, passed=False)
        for _ in range(20):
            rates.observe_guard(5, passed=True)
        assert rates.extension_rate(5, "A") == pytest.approx(0.2 * rates.type_rate("A"), rel=0.01)

    def test_unseen_transition_falls_back_to_type_rate(self):
        rates = RateEstimator()
        for i in range(10):
            rates.observe_event("A", i * 10.0)
        assert rates.extension_rate(99, "A") == pytest.approx(rates.type_rate("A"))

    def test_rates_never_zero(self):
        rates = RateEstimator()
        assert rates.event_rate() > 0
        assert rates.type_rate("Z") > 0
        assert rates.expected_gap(1, "Z") < float("inf")

    def test_invalid_decay_interval(self):
        with pytest.raises(ValueError):
            RateEstimator(decay_interval_events=0)


class TestNoiseModel:
    def test_inactive_at_zero_ratio(self):
        noise = NoiseModel(0.0)
        assert not noise.active
        assert not noise.flip(("x",), now=0.0)

    def test_always_corrupts_at_ratio_one(self):
        noise = NoiseModel(1.0)
        assert all(noise.flip(("t", i), now=0.0) for i in range(20))

    def test_ratio_roughly_respected(self):
        noise = NoiseModel(0.3)
        hits = sum(noise.flip(("t", i), now=0.0) for i in range(4000))
        assert 0.25 < hits / 4000 < 0.35

    def test_decisions_stable_within_epoch(self):
        noise = NoiseModel(0.5, epoch_length=100.0)
        first = noise.flip(("k",), now=10.0)
        assert noise.flip(("k",), now=50.0) == first

    def test_decisions_refresh_across_epochs(self):
        noise = NoiseModel(0.5, epoch_length=10.0)
        outcomes = {noise.flip(("k",), now=10.0 * i) for i in range(64)}
        assert outcomes == {True, False}

    def test_decoy_key_same_source_different_key(self):
        noise = NoiseModel(0.5)
        decoy = noise.decoy_key(("src", 5))
        assert decoy[0] == "src"
        assert decoy != ("src", 5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NoiseModel(1.5)
        with pytest.raises(ValueError):
            NoiseModel(0.5, epoch_length=0.0)


# -- the three-call Eq. 5/6 scoring, the reference for the fused ``value`` ----
# urgent_utility + future_utility + _residual_life_events in their plain
# form, reading the model's state.  The replays below tick every event, where
# the residual clock (``_position``) equals the tick count this form used.


def reference_urgent_utility(model, key):
    runs = model._uu_runs.get(key)
    if not runs:
        return 0.0
    return len(runs) * model._monitor.estimate(key)


def reference_residual_life_events(model, key):
    runs = model._uu_runs.get(key)
    if not runs:
        return 0.0
    window = model._automaton.window
    window_events = window.value if window.kind == "count" else model._horizon
    total = 0.0
    for first_t, first_seq in runs.values():
        if window.kind == "count":
            elapsed = (model._position - first_seq) / window.value
        else:
            elapsed = (model._now - first_t) / window.value
        total += max(0.0, 1.0 - elapsed) * window_events
    return total


def reference_future_utility(model, key):
    if model._noise.active and model._noise.flip(("fu", key), model._now):
        return 0.0
    stochastic = 0.0
    for class_index, per_class in model._tran_key.items():
        weight = per_class.get(key)
        if not weight:
            continue
        class_total = model._tran_class.get(class_index, 0.0)
        if class_total <= 0:
            continue
        probability = min(weight / class_total, 1.0)
        stochastic += model._class_counts.get(class_index, 0.0) * probability
    residual = reference_residual_life_events(model, key)
    if not stochastic and not residual:
        return 0.0
    return (model._horizon * stochastic + residual) * model._monitor.estimate(key)


def reference_value(model, key, omega):
    return omega * reference_urgent_utility(model, key) + (1.0 - omega) * (
        reference_future_utility(model, key)
    )


def _hierarchy_store():
    """Per-id elements of source ``v`` under two containers, under one root."""
    store = RemoteStore()
    root = store.put("v", "root", frozenset(), size=0)
    groups = [store.put("v", ("group", g), frozenset(), size=0, parent=root) for g in range(2)]
    for key in range(10):
        store.put("v", key, frozenset({1, 2, 3, 4}), size=1, parent=groups[key % 2])
    return store


def _scoring_scenario(window, containers):
    from repro.query.parser import parse_query
    from tests.helpers import random_stream

    query = parse_query(
        f"SEQ(A a, B b, C c) WHERE SAME[id] AND b.v IN REMOTE[a.v] {window}", name="abc"
    )
    if containers:
        store = _hierarchy_store()
    else:
        store = RemoteStore()
        store.register_source("v", lambda key: frozenset({1, 2, 3, 4}))
    return query, store, random_stream(500, seed=21)


class TestFusedScoringMatchesReference:
    """``value`` (one fused pass) is bit-identical to the two-call original."""

    @pytest.mark.parametrize("window", ["WITHIN 80 EVENTS", "WITHIN 800us"])
    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("containers", [False, True])
    def test_value_matches_reference_after_every_event(self, window, noise, containers):
        from repro.core.config import EiresConfig
        from repro.core.framework import EIRES
        from repro.remote.transport import FixedLatency

        query, store, stream = _scoring_scenario(window, containers)
        eires = EIRES(query, store, FixedLatency(50.0), strategy="Hybrid",
                      config=EiresConfig(cache_capacity=6, noise_ratio=noise))
        model = eires.utility
        end_event = eires.strategy.on_event_end
        scored = []

        def check(event, matches):
            end_event(event, matches)
            # Scoring draws on the noise model; leave its counter as the
            # replay left it.
            corruptions = model._noise.corruptions
            keys = sorted(model._uu_runs, key=repr)[:12]
            keys += sorted({k for per in model._tran_key.values() for k in per}, key=repr)[:4]
            keys.append(("v", "missing"))
            for key in keys:
                for omega in (0.0, 0.3, 0.5, 1.0):
                    assert model.value(key, omega).hex() == reference_value(model, key, omega).hex()
                assert model.future_utility(key).hex() == (
                    reference_future_utility(model, key).hex()
                )
                assert model._residual_life_events(key).hex() == (
                    reference_residual_life_events(model, key).hex()
                )
                scored.append(key)
            model._noise.corruptions = corruptions

        eires.strategy.on_event_end = check
        eires.run(stream)
        assert len({key for key in scored if key[1] != "missing"}) > 3
        if containers:
            assert ("v", "root") in scored and ("v", ("group", 0)) in scored
        if noise:
            assert model._noise.corruptions > 0


class TestResidualClock:
    """The count-window residual reads the stream position, not a tick count."""

    @pytest.mark.parametrize("interval", [1, 4])
    def test_no_run_outlives_its_window(self, interval):
        from repro.core.config import EiresConfig
        from repro.core.framework import EIRES
        from repro.workloads.synthetic import SyntheticConfig, q1_workload

        workload = q1_workload(
            SyntheticConfig(n_events=1200, id_domain=20, window_events=400, seed=3)
        )
        eires = EIRES(workload.query, workload.store, workload.latency_model,
                      strategy="Hybrid",
                      config=EiresConfig(cache_capacity=100, utility_tick_interval=interval))
        model = eires.utility
        tick = model.tick
        worst = []

        def checked_tick(*args):
            tick(*args)
            for key, runs in model._uu_runs.items():
                worst.append(model._residual_life_events(key) / len(runs))

        model.tick = checked_tick
        eires.run(workload.stream)
        # A run at most has its whole 400-event window ahead of it.
        assert worst and max(worst) <= 400.0


class TestHierarchyMemo:
    """Memoised ancestor keys and total sizes follow every ``add_child``."""

    def test_caches_refresh_when_the_hierarchy_grows(self):
        from repro.remote.element import DataElement

        leaf = DataElement(("r", 1), None, size=2)
        parent = DataElement(("r", "p"), None, size=1)
        parent.add_child(leaf)
        assert leaf.ancestor_keys() == (("r", 1), ("r", "p"))
        assert parent.total_size() == 3
        # A grandparent above an already-read chain.
        grandparent = DataElement(("r", "g"), None, size=5)
        grandparent.add_child(parent)
        assert leaf.ancestor_keys() == (("r", 1), ("r", "p"), ("r", "g"))
        assert parent.ancestor_keys() == (("r", "p"), ("r", "g"))
        assert grandparent.total_size() == 8
        # New parts under the grandparent, directly and one level down.
        grandparent.add_child(DataElement(("r", 2), None, size=4))
        parent.add_child(DataElement(("r", 3), None, size=7))
        assert grandparent.total_size() == 19
        assert parent.total_size() == 10
        assert leaf.total_size() == 2

    def test_model_credits_a_container_added_after_first_use(self):
        automaton = build_automaton()
        store = RemoteStore()
        child = store.put("r", 7, "part", size=1)
        model = UtilityModel(automaton, store, LatencyMonitor(prior=10.0), horizon_events=10.0)
        first = run_at(automaton, 2, {"v": 7})
        model.on_run_created(first)
        assert model.urgent_utility(("r", "all")) == 0.0
        container = store.put("r", "all", "container", size=0)
        grandparent = store.put("r", "top", "container", size=0)
        container.add_child(child)
        grandparent.add_child(container)
        second = run_at(automaton, 2, {"v": 7})
        model.on_run_created(second)
        assert model.urgent_utility(("r", "top")) == 10.0
        assert store.lookup(("r", "top")).total_size() == 1
        model.on_run_dropped(first)
        model.on_run_dropped(second)
        assert model._uu_runs == {}
