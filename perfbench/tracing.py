"""Wall-clock spans around each layer's public boundaries.

A :class:`LayerTracer` wraps, for the duration of a traced replay, the
public methods through which the runtime drives each ``repro`` layer.  The
classes are found on the built objects themselves (the runtime, its
sessions, their engine, strategy, cache, transport and shedder), so no
internal module is imported to reach them.  Every call becomes a span:
its name, start and end, the span that was open when it began (its
parent), and the index of the input event being processed, which all
spans of one event share.

A layer's self time is its spans' duration minus the part covered by
their child spans.  Totals and call counts are kept for every span; the
span records themselves are kept in memory up to :data:`SPAN_CAP` and
written out once the run is over.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Iterable

#: Layer -> the public methods wrapped on the objects of that layer.
ENGINE_METHODS = ("process_event", "flush", "shed_lowest")
UTILITY_METHODS = (
    "tick", "urgent_utility", "future_utility", "value",
    "on_run_created", "on_run_dropped",
)
# The strategy protocol the engine calls, the per-event hooks the dispatch
# loops call, and the two Eq. 7 / Eq. 8 decisions.
STRATEGY_METHODS = (
    "on_event_start", "on_event_end", "end_of_stream",
    "on_run_created", "on_run_dropped", "observe_guard",
    "resolve_predicate", "resolve_obligation_predicate",
    "should_block_obligations", "prepare_blocking", "finish_blocking",
    "decide_postpone", "issue_prefetch",
)
CACHE_METHODS = ("get", "peek", "put", "min_utility")
TRANSPORT_METHODS = ("submit", "deliver_due", "flush_batches")
SHEDDER_METHODS = ("before_event", "after_event")

LAYERS = (
    "runtime", "serving", "engine", "query", "utility",
    "strategies", "cache", "remote", "shedding",
)

#: Span records kept per run; later spans still count towards the totals.
SPAN_CAP = 100_000

#: The event index spans carry before the first event and at end of stream.
NO_EVENT = -1
#: The parent of a span that no other span encloses.
NO_SPAN = -1


def _predicate_classes(automaton) -> set[type]:
    classes = set()
    for state in automaton.states:
        for transition in state.transitions:
            for predicate in transition.local_predicates + transition.remote_predicates:
                classes.add(type(predicate))
    return classes


def boundaries(replay) -> list[tuple[type, str, str]]:
    """``(class, method, layer)`` for every public boundary of a built replay."""
    targets: list[tuple[type, Iterable[str], str]] = []
    runner = type(replay.runner)
    if hasattr(runner, "dispatch"):
        targets.append((runner, ("dispatch",), "serving"))
    else:
        targets.append((runner, ("run",), "runtime"))
    for _, _, session in replay.sessions:
        strategy = session.strategy
        targets.append((type(session.engine), ENGINE_METHODS, "engine"))
        targets.append((type(session.utility), UTILITY_METHODS, "utility"))
        targets.append((type(strategy), STRATEGY_METHODS, "strategies"))
        planner = getattr(strategy, "planner", None)
        if planner is not None:
            targets.append((type(planner), ("refresh",), "strategies"))
        if strategy.ctx.cache is not None:
            targets.append((type(strategy.ctx.cache), CACHE_METHODS, "cache"))
        targets.append((type(strategy.ctx.transport), TRANSPORT_METHODS, "remote"))
        if session.shedder is not None:
            targets.append((type(session.shedder), SHEDDER_METHODS, "shedding"))
        for cls in _predicate_classes(session.automaton):
            targets.append((cls, ("evaluate",), "query"))
    seen = set()
    result = []
    for cls, methods, layer in targets:
        for method in methods:
            if (cls, method) in seen or not hasattr(cls, method):
                continue
            seen.add((cls, method))
            result.append((cls, method, layer))
    return result


class LayerTracer:
    """Per-layer self time, call counts and span records for traced replays."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.event_index = NO_EVENT
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._patched: list[tuple[type, str, object, bool]] = []

    def reset_totals(self) -> None:
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)

    def install(self, targets: list[tuple[type, str, str]]) -> None:
        for cls, method, layer in targets:
            own = method in vars(cls)
            original = getattr(cls, method)
            setattr(cls, method, self._wrap(original, layer, f"{layer}.{cls.__name__}.{method}"))
            self._patched.append((cls, method, original, own))

    def uninstall(self) -> None:
        for cls, method, original, own in reversed(self._patched):
            if own:
                setattr(cls, method, original)
            else:
                delattr(cls, method)
        self._patched.clear()
        self._stack.clear()
        self.event_index = NO_EVENT

    def _wrap(self, fn, layer: str, name: str):
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns  # eires: allow[D1] the benchmark times layer calls in wall-clock time
        marks_event = name.endswith(".on_event_start")
        ends_stream = name.endswith(".end_of_stream")

        def span(*args, **kwargs):
            if marks_event:
                tracer.event_index = args[2] if len(args) > 2 else kwargs["index"]
            elif ends_stream:
                tracer.event_index = NO_EVENT
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][1] if stack else NO_SPAN
            # Keep the first spans to *start*, so every kept span's parent is kept.
            spans = tracer.spans
            slot = len(spans) if len(spans) < SPAN_CAP else -1
            if slot >= 0:
                spans.append(None)
            event = tracer.event_index
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.self_ns[layer] += duration - frame[0]
                tracer.calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
                if slot >= 0:
                    spans[slot] = (span_id, parent, event, name, start, end)

        return span

    def write_spans(self, path: str) -> None:
        """Write the kept span records as JSON lines (one span per line)."""
        with open(path, "w") as handle:
            for span_id, parent, event, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "event": event,
                    "name": name, "start_ns": start, "end_ns": end,
                }))
                handle.write("\n")
