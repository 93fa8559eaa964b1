"""The utility model for remote data elements (§4, Alg. 2).

Utility combines two measures per data element ``d``:

* **urgent utility** ``UU(d,k)`` (Eq. 3): the number of current partial
  matches that require ``d`` — or an element contained in ``d`` — to process
  the next event, weighted by the monitored transmission latency.  It is
  maintained incrementally from run creation/drop notifications.
* **future utility** ``FU(d,k,k')`` (Eq. 4): the sum of the element's
  urgent utilities over the future horizon.  Two components realise it:

  - a *residual-lifetime* term computed exactly from the **live** partial
    matches: a run requiring ``d`` keeps contributing to ``UU(d,i)`` for
    every future ``i`` until its window expires, so its future contribution
    is its remaining window lifetime;
  - the stochastic term of Eq. 6 for partial matches that do not exist yet:
    ``horizon * sum_j #P_j(k) * Pr(j,d,k)``, where ``#P_j`` is the recent
    average number of class-``j`` partial matches and ``Pr(j,d,k)`` the
    probability that one requires ``d`` — both from decayed counters (the
    O(1)-amortised stand-in for Alg. 2's sliding-window counts).

  Since Eq. 4 sums *urgent* utilities, which are latency-weighted, both
  components are weighted by the same monitored latency.

The combined utility ``U = omega*UU + (1-omega)*FU`` (Eq. 5) is evaluated
with different weights by the fetch strategies (``omega_fetch``) and the
cost-based cache (``omega_cache``) — Fig. 9's sensitivity experiment sweeps
both.

Requirement counts propagate along the part-of hierarchy: a run requiring a
child element also credits every container, implementing the ``rho*`` terms
of Eq. 3 and Eq. 6.

Cost.  Scoring an element (``value``) is one pass over the key's live runs:
one ``_uu_runs`` lookup, one latency estimate, the noise draw, and a fold of
per-run residual lifetimes.  Two measured facts keep that fold as it is
rather than an O(1) aggregate.  First, an integer aggregate over Σ
``first_seq`` is not bit-identical to the per-run float fold: at a 400-event
window, ``(1.0 - x/W) * W != W - x`` for 145 of the 401 run ages, and the
fold feeds eviction tie-breaks, so the committed baselines would move.
Second, the fold is short: on Q1 greedy a scored key has 11.9 live runs on
average (618 at most), so the per-call overhead along the scoring chain, not
the fold, is what costs.  Run registration memoises what does not change
with the run: each state's site walk (in :func:`required_keys` order) and
each element's ancestor keys (on the element, see
:meth:`repro.remote.element.DataElement.ancestor_keys`).
"""

from __future__ import annotations

from repro.nfa.automaton import Automaton, State
from repro.nfa.run import Run
from repro.query.predicates import RemoteRef
from repro.remote.element import DataKey
from repro.remote.monitor import LatencyMonitor
from repro.remote.store import RemoteStore
from repro.utility.noise import NoiseModel

__all__ = ["UtilityModel", "required_keys"]

_DECAY = 0.5


def required_keys(run: Run, include_future_states: bool = False) -> tuple[DataKey, ...]:
    """The remote keys ``D(p, k+1)`` a run may need for its next event.

    For every remote site on the run state's outgoing transitions whose
    lookup key is already derivable from the run's bound events, the
    concrete ``(source, key)`` is produced.  Sites keyed by the upcoming
    input event are unknowable and therefore excluded (they surface through
    lazy evaluation instead).  With ``include_future_states`` the walk
    descends into deeper states as well, covering sites whose key is bound
    now but whose need materialises several transitions later.
    """
    env = run.env
    return tuple(
        [ref.concrete_key(env) for binding, ref in _site_walk(run.state, include_future_states)
         if binding in env]
    )


def _site_walk(state: State, include_future_states: bool) -> list[tuple[str, RemoteRef]]:
    """``(key binding, reference)`` of every site :func:`required_keys` visits,
    in its visiting order."""
    refs: list[tuple[str, RemoteRef]] = []
    pending = list(state.transitions)
    while pending:
        transition = pending.pop()
        for site in transition.sites:
            refs.append((site.ref.key_binding, site.ref))
        if include_future_states:
            pending.extend(transition.target.transitions)
    return refs


class UtilityModel:
    """Incrementally maintained utility estimates for data elements."""

    def __init__(
        self,
        automaton: Automaton,
        store: RemoteStore,
        latency_monitor: LatencyMonitor,
        horizon_events: float | None = None,
        noise: NoiseModel | None = None,
        decay_interval_events: int = 64,
    ) -> None:
        self._automaton = automaton
        self._store = store
        self._monitor = latency_monitor
        self._noise = noise if noise is not None else NoiseModel(0.0)
        self._decay_interval = decay_interval_events
        if horizon_events is None:
            # Eq. 6's (k'-k) horizon: estimate utility up to one window ahead.
            window = automaton.window
            horizon_events = float(window.value) if window.kind == "count" else 256.0
        self._horizon = horizon_events
        # UU: live partial matches requiring each key (Eq. 3 counts), with
        # the run's window anchor kept for residual-lifetime estimation.
        self._uu_runs: dict[DataKey, dict[int, tuple[float, int]]] = {}
        # Alg. 2 state: tranKey(d, j) and tranClass(j) as decayed counters.
        self._tran_key: dict[int, dict[DataKey, float]] = {}
        self._tran_class: dict[int, float] = {}
        # #P_j(k): EWMA of the per-class live-run counts.
        self._class_counts: dict[int, float] = {}
        # Per state index: the include_future_states site walk of
        # required_keys, which depends on the state alone.
        self._future_sites: dict[int, list[tuple[str, RemoteRef]]] = {}
        # Ticks drive the decay cadence; the stream position (events up to
        # and including the current one) is the count-window residual clock,
        # in the same frame as a run's first_seq.
        self._ticks = 0
        self._position = 0
        self._now = 0.0

    # -- run lifecycle (driven by the strategy's engine callbacks) ------------
    def on_run_created(self, run: Run) -> None:
        # Count every remote key the run can already name, including needs
        # that materialise several transitions ahead: a partial match at a
        # lookahead class *will* require the element once it reaches the
        # evaluating class, and an element prefetched on its behalf must not
        # look worthless to the cache in the meantime.  (The strict
        # next-event D(p, k+1) would assign zero utility to every fresh
        # prefetch and make the cost-based policy evict them first.)
        class_index = run.state.index
        refs = self._future_sites.get(class_index)
        if refs is None:
            refs = self._future_sites[class_index] = _site_walk(run.state, True)
        env = run.env
        found = []
        for binding, ref in refs:
            if binding in env:
                found.append(ref.concrete_key(env))
        run.required_keys = keys = tuple(found)
        self._tran_class[class_index] = self._tran_class.get(class_index, 0.0) + 1.0
        if not keys:
            return
        per_class = self._tran_key.setdefault(class_index, {})
        anchor = (run.first_t, run.first_seq)
        run_id = run.run_id
        uu_runs = self._uu_runs
        lookup = self._store.lookup
        for key in keys:
            per_class[key] = per_class.get(key, 0.0) + 1.0
            element = lookup(key)
            for ancestor_key in (key,) if element.parent is None else element.ancestor_keys():
                runs = uu_runs.get(ancestor_key)
                if runs is None:
                    uu_runs[ancestor_key] = {run_id: anchor}
                else:
                    runs[run_id] = anchor

    def on_run_dropped(self, run: Run) -> None:
        run_id = run.run_id
        uu_runs = self._uu_runs
        lookup = self._store.lookup
        for key in run.required_keys:
            element = lookup(key)
            for ancestor_key in (key,) if element.parent is None else element.ancestor_keys():
                runs = uu_runs.get(ancestor_key)
                if runs is None:
                    continue
                runs.pop(run_id, None)
                if not runs:
                    del uu_runs[ancestor_key]

    def tick(self, now: float, runs_per_state: dict[int, int], position: int) -> None:
        """Periodic refresh: advance time, update #P_j, decay counters.

        ``position`` is the number of stream events up to and including the
        current one; count-window residual lifetimes read it against each
        run's ``first_seq``, whatever the tick interval.
        """
        self._now = now
        self._position = position
        self._ticks += 1
        class_counts = self._class_counts
        for state_index in range(self._automaton.n_states):
            current = float(runs_per_state.get(state_index, 0))
            previous = class_counts.get(state_index, current)
            class_counts[state_index] = 0.9 * previous + 0.1 * current
        if self._ticks % self._decay_interval == 0:
            for per_class in self._tran_key.values():
                stale = []
                for key in per_class:
                    per_class[key] *= _DECAY
                    if per_class[key] < 0.05:
                        stale.append(key)
                for key in stale:
                    del per_class[key]
            for class_index in self._tran_class:
                self._tran_class[class_index] *= _DECAY

    # -- measures ----------------------------------------------------------------
    def urgent_utility(self, key: DataKey) -> float:
        """``UU(d,k)``: latency-weighted count of runs requiring ``d``."""
        runs = self._uu_runs.get(key)
        if not runs:
            return 0.0
        return len(runs) * self._monitor.estimate(key)

    def _residual_life_events(self, key: DataKey) -> float:
        """Expected remaining relevance, in events, of the key's live runs.

        A run anchored at (t0, k0) stays able to require the element until
        its window closes; the remaining fraction of the window, scaled to
        events, is its exact contribution to the future urgent utilities of
        Eq. 4.
        """
        runs = self._uu_runs.get(key)
        return self._residual(runs) if runs else 0.0

    def _residual(self, runs: dict[int, tuple[float, int]]) -> float:
        # Per run: max(0, 1 - elapsed/W) times the window length in events
        # (count windows carry it directly, time windows are scaled through
        # the event-denominated horizon), summed in run-registration order.
        # A non-positive remainder adds exactly nothing, so it is skipped.
        window = self._automaton.window
        span = window.value
        total = 0.0
        if window.kind == window.COUNT:
            position = self._position
            for _, first_seq in runs.values():
                remaining = 1.0 - (position - first_seq) / span
                if remaining > 0.0:
                    total += remaining * span
        else:
            now = self._now
            horizon = self._horizon
            for first_t, _ in runs.values():
                remaining = 1.0 - (now - first_t) / span
                if remaining > 0.0:
                    total += remaining * horizon
        return total

    def future_utility(self, key: DataKey) -> float:
        """``FU-hat(d,k,k+horizon)`` per Eq. 6 (latency-weighted, see above)."""
        return self._future(key, self._uu_runs.get(key), None)

    def _future(
        self, key: DataKey, runs: dict[int, tuple[float, int]] | None, estimate: float | None
    ) -> float:
        # future_utility given the key's live runs and, when already looked
        # up, its latency estimate.
        if self._noise.active and self._noise.flip(("fu", key), self._now):
            return 0.0
        stochastic = 0.0
        tran_class = self._tran_class
        class_counts = self._class_counts
        for class_index, per_class in self._tran_key.items():
            weight = per_class.get(key)
            if not weight:
                continue
            class_total = tran_class.get(class_index, 0.0)
            if class_total <= 0:
                continue
            # min(p, 1.0), including its NaN behaviour.
            probability = weight / class_total
            if probability > 1.0:
                probability = 1.0
            stochastic += class_counts.get(class_index, 0.0) * probability
        residual = self._residual(runs) if runs else 0.0
        if not stochastic and not residual:
            return 0.0
        if estimate is None:
            estimate = self._monitor.estimate(key)
        return (self._horizon * stochastic + residual) * estimate

    def value(self, key: DataKey, omega: float) -> float:
        """Combined utility ``U(d) = omega*UU + (1-omega)*FU`` (Eq. 5).

        One pass: the same terms as ``urgent_utility`` and
        ``future_utility``, sharing the run lookup and latency estimate.
        """
        if not 0.0 <= omega <= 1.0:
            raise ValueError(f"omega must be in [0, 1]: {omega}")
        runs = self._uu_runs.get(key)
        if runs:
            estimate = self._monitor.estimate(key)
            urgent = len(runs) * estimate
        else:
            estimate = None
            urgent = 0.0
        return omega * urgent + (1.0 - omega) * self._future(key, runs, estimate)

    def class_count(self, state_index: int) -> float:
        """``#P_j(k)``: smoothed number of live partial matches of a class."""
        return self._class_counts.get(state_index, 0.0)

    def __repr__(self) -> str:
        return (
            f"UtilityModel({len(self._uu_runs)} urgent keys, "
            f"{sum(len(v) for v in self._tran_key.values())} tran-key counters)"
        )
