"""One benchmark run: replay a workload's segments, check them, report metrics.

A run has three phases:

1. **Replays**, for at least ``seconds`` of wall time.  Each pass
   generates every segment from its sub-seed, builds its runtime or fleet
   (together: set-up) and replays it (the timed run).  With tracing on,
   passes alternate between untraced and traced, and traced passes run
   with a :class:`~tracing.LayerTracer` on every layer boundary plus the
   program's own span attribution.  Every replay must equal the first
   pass's replay of its segment, traced or not.
2. **Peak memory** is read once the replays are over, before the oracle
   runs, so it is the memory of the replays alone.
3. **The oracle** (§2.1 reference matcher) runs once per segment and
   distinct query, outside every timed region.  The first pass's matches
   must equal it (a subset under shedding), which by phase 1 holds for
   every replay.

Wall metrics are medians over passes per segment, summed over segments;
virtual metrics pool every match of the first pass.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field

from repro.bench.harness import wall_time
from repro.engine.reference import reference_match_signatures  # eires: allow[R3] the §2.1 oracle is not re-exported by the public surface
from repro.obs.spans import SPAN_COMPONENTS  # eires: allow[R3] span component names for the span.* per-layer metrics
from repro.obs.trace import CAT_SPAN, MemorySink, Tracer  # eires: allow[R3] a tracer turns on the program's span attribution; it has no public export

from tracing import LAYERS, LayerTracer, boundaries


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str


END_TO_END = (
    Metric("events_per_s", "events/s", "higher"),
    Metric("setup_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("sim_events_per_s", "events/s", "higher"),
)

#: The paper's measures.  Deterministic for a seed, but they vary across
#: seeds by more than any end-to-end bound allows (greedy Q1's matches are
#: heavy-tailed; most Q2 matches complete at the same 0.38 us), so they are
#: reported with the per-layer metrics instead of being gated.
VIRTUAL = (
    Metric("detect_p50_us", "us", "lower"),
    Metric("detect_p99_us", "us", "lower"),
    Metric("recall", "ratio", "higher"),
)

#: Per layer; perfbench/README.md says which end-to-end metric each should
#: move, and on which workload.
PER_LAYER = VIRTUAL + (
    Metric("runtime.self_s", "s", "lower"),
    Metric("runtime.build_s", "s", "lower"),
    Metric("span.queueing_us", "us", "lower"),
    Metric("serving.self_s", "s", "lower"),
    Metric("serving.amortization", "ratio", "higher"),
    Metric("serving.skew", "count", "lower"),
    Metric("engine.self_s", "s", "lower"),
    Metric("engine.calls", "count", "lower"),
    Metric("engine.runs_created", "count", "lower"),
    Metric("engine.peak_active_runs", "count", "lower"),
    Metric("engine.guard_evaluations", "count", "lower"),
    Metric("engine.useful_run_ratio", "ratio", "higher"),
    Metric("span.eval_us", "us", "lower"),
    Metric("query.self_s", "s", "lower"),
    Metric("query.predicate_evaluations", "count", "lower"),
    Metric("utility.self_s", "s", "lower"),
    Metric("utility.calls", "count", "lower"),
    Metric("strategies.self_s", "s", "lower"),
    Metric("strategies.prefetches_issued", "count", "lower"),
    Metric("strategies.prefetch_hit_ratio", "ratio", "higher"),
    Metric("strategies.lazy_postponements", "count", "lower"),
    Metric("strategies.blocking_stalls", "count", "lower"),
    Metric("strategies.stall_us", "us", "lower"),
    Metric("cache.self_s", "s", "lower"),
    Metric("cache.calls", "count", "lower"),
    Metric("cache.hit_rate", "ratio", "higher"),
    Metric("cache.insertions", "count", "lower"),
    Metric("cache.evictions", "count", "lower"),
    Metric("remote.self_s", "s", "lower"),
    Metric("remote.calls", "count", "lower"),
    Metric("remote.wire_requests", "count", "lower"),
    Metric("remote.keys_per_wire", "ratio", "higher"),
    Metric("remote.retries", "count", "lower"),
    Metric("remote.failed_ratio", "ratio", "lower"),
    Metric("span.batch_wait_us", "us", "lower"),
    Metric("span.wire_us", "us", "lower"),
    Metric("span.retry_backoff_us", "us", "lower"),
    Metric("shedding.self_s", "s", "lower"),
    Metric("shedding.overloads", "count", "lower"),
    Metric("shedding.runs_shed", "count", "lower"),
    Metric("span.shed_stall_us", "us", "lower"),
    Metric("workloads.gen_s", "s", "lower"),
    Metric("obs.trace_overhead", "ratio", "lower"),
)


@dataclass
class Record:
    """What the checks and metrics need from one replay, without the replay."""

    #: Tenant name -> (query key, fingerprints of its match signatures).
    signatures: dict[str, tuple[str, frozenset]]
    latencies: list[float]
    #: Counters summed over tenants; a fleet's shared cache and transport once.
    counters: dict[str, float]
    fleet: bool
    events: int
    #: Virtual throughput of the replay (events per virtual second).
    sim_eps: float
    #: Hash of matches, latencies and every counter, compared across replays.
    digest: str
    ledger_ok: bool


@dataclass
class Segment:
    """What the passes measured on one segment."""

    attempts: int = 0
    failures: int = 0
    gen_s: list[float] = field(default_factory=list)
    build_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    run_s: list[float] = field(default_factory=list)
    traced_run_s: list[float] = field(default_factory=list)
    #: The first (untraced) replay, which every later replay must repeat.
    record: Record | None = None
    #: Summed span components and the match count of the first traced pass.
    spans: dict[str, float] | None = None
    span_matches: int = 0


@dataclass
class Report:
    correct: bool
    attempted: int
    failed: int
    #: The mode's metrics: end-to-end untraced, per-layer traced.
    metrics: dict[str, tuple[float, str]]
    #: Measured too, but printed only: the paper's measures on an untraced run.
    shown: dict[str, tuple[float, str]]
    checks: list[str]


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


_TENANT_COUNTERS = ("engine.", "fetch.", "shed.")


def _fingerprint(signature: tuple) -> int:
    """A 64-bit digest of one match signature.

    Sets of these stand in for the signature sets, so a run does not keep
    every match of every segment in memory while its peak memory is read.
    """
    digest = hashlib.blake2b(repr(signature).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _record(outcome) -> Record:
    signatures = {}
    latencies = []
    counters: dict[str, float] = {}
    canonical = []
    ledger_ok = True
    for tenant in outcome.tenants:
        result = tenant.result
        summary = result.summary()
        matched = frozenset(map(_fingerprint, result.match_signatures()))
        signatures[tenant.name] = (tenant.query_key, matched)
        tenant_latencies = [match.latency for match in result.matches]
        latencies.extend(tenant_latencies)
        canonical.append((tenant.name, sorted(matched), tenant_latencies, sorted(summary.items())))
        for key, value in summary.items():
            if key.startswith(_TENANT_COUNTERS) and isinstance(value, (int, float)):
                counters[key] = counters.get(key, 0) + value
        counters["engine.peak_active_runs"] = max(
            counters.get("engine.peak_active_runs", 0), summary["engine.peak_active_runs"]
        )
        # Every created run must leave the engine for exactly one recorded reason.
        dropped = sum(v for k, v in summary.items() if k.startswith("engine.dropped."))
        if dropped != summary["engine.runs_created"]:
            _log(f"ledger: {tenant.name} dropped {dropped} runs of {summary['engine.runs_created']}")
            ledger_ok = False
    # A fleet's tenants share one cache and one transport: count them once.
    shared = outcome.fleet if outcome.fleet is not None else outcome.tenants[0].result
    for prefix, stats in (("cache.", shared.cache_stats), ("transport.", shared.transport_stats)):
        for key, value in (stats or {}).items():
            counters[prefix + key] = value
    if outcome.fleet is not None:
        counters["serving.skew"] = outcome.fleet.skew
        canonical.append(sorted(outcome.fleet.summary().items()))
    return Record(
        signatures=signatures,
        latencies=latencies,
        counters=counters,
        fleet=outcome.fleet is not None,
        events=outcome.events,
        # Every tenant of one replay shares the replay's throughput meter.
        sim_eps=outcome.tenants[0].result.throughput.events_per_second(),
        digest=hashlib.sha256(repr(canonical).encode()).hexdigest(),
        ledger_ok=ledger_ok,
    )


def _span_sums(outcome) -> tuple[dict[str, float], int]:
    sums = dict.fromkeys(SPAN_COMPONENTS, 0.0)
    matches = 0
    for tenant in outcome.tenants:
        for match in tenant.result.matches:
            matches += 1
            for component in SPAN_COMPONENTS:
                sums[component] += match.span[component]
    return sums, matches


def _replay(spec, seed: int, index: int, segment: Segment, layers: LayerTracer | None) -> bool:
    sub_seed = spec.sub_seed(seed, index)
    # Start every replay from the same collector state; otherwise where the
    # previous replay's garbage gets collected depends on the seed, and a
    # whole run's set-up time shifts by a third.
    gc.collect()
    workload, gen_s = wall_time(lambda: spec.generate(sub_seed, spec.segment_events))
    tracer = Tracer(MemorySink(), categories=(CAT_SPAN,)) if layers is not None else None
    replay, build_s = wall_time(lambda: spec.build(workload, tracer))
    if layers is None:
        outcome, run_s = wall_time(replay.run)
        segment.setup_s.append(gen_s + build_s)
        segment.run_s.append(run_s)
    else:
        layers.install(boundaries(replay))
        try:
            outcome, run_s = wall_time(replay.run)
        finally:
            layers.uninstall()
        segment.traced_run_s.append(run_s)
        if segment.spans is None:
            segment.spans, segment.span_matches = _span_sums(outcome)
    segment.gen_s.append(gen_s)
    segment.build_s.append(build_s)

    record = _record(outcome)
    if segment.record is None:
        segment.record = record
    elif record.digest != segment.record.digest:
        kind = "traced" if layers is not None else "untraced"
        _log(f"segment {index}: {kind} replay differs from the first replay")
        return False
    return record.ledger_ok


def _oracle_check(spec, seed: int, index: int, segment: Segment) -> tuple[bool, int]:
    """Compare the segment's matches with the oracle; return the oracle's match count."""
    workload = spec.generate(spec.sub_seed(seed, index), spec.segment_events)
    replay = spec.build(workload, None)
    automata = {key: session.automaton for _, key, session in replay.sessions}
    expected = {
        key: set(map(_fingerprint, reference_match_signatures(
            automaton, workload.stream, workload.store, spec.policy
        )))
        for key, automaton in automata.items()
    }
    ok = True
    total = 0
    for tenant, (key, got) in segment.record.signatures.items():
        want = expected[key]
        total += len(want)
        if not (got <= want if spec.sheds else got == want):
            ok = False
            _log(
                f"segment {index}: {tenant} detected {len(got)} matches, "
                f"{len(got - want)} not among the oracle's {len(want)}"
            )
    return ok, total


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _sum_median(segments: list[Segment], attr: str) -> float:
    return sum(statistics.median(getattr(s, attr)) for s in segments)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _counters(records: list[Record]) -> dict[str, float]:
    """Counters summed over segments; peaks and skews are maxima."""
    total: dict[str, float] = {}
    for record in records:
        for key, value in record.counters.items():
            if key in ("engine.peak_active_runs", "serving.skew"):
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _end_to_end(segments, peak_rss, oracle_counts) -> dict[str, float]:
    records = [segment.record for segment in segments]
    latencies = [latency for record in records for latency in record.latencies]
    detected = sum(len(got) for record in records for _, got in record.signatures.values())
    events = sum(record.events for record in records)
    virtual_s = sum(record.events / record.sim_eps for record in records)
    return {
        "events_per_s": events / _sum_median(segments, "run_s"),
        "setup_s": _sum_median(segments, "setup_s"),
        "peak_rss_mb": peak_rss,
        "detect_p50_us": _quantile(latencies, 50),
        "detect_p99_us": _quantile(latencies, 99),
        "recall": _ratio(detected, sum(oracle_counts)),
        "sim_events_per_s": events / virtual_s,
    }


def _per_layer(segments, traced_passes) -> dict[str, float]:
    records = [segment.record for segment in segments]
    counters = _counters(records)
    self_s = {
        layer: statistics.median(totals.get(layer, 0) for totals, _ in traced_passes) / 1e9
        for layer in LAYERS
    }
    _, calls = traced_passes[0]
    span_sums = dict.fromkeys(SPAN_COMPONENTS, 0.0)
    span_matches = 0
    for segment in segments:
        span_matches += segment.span_matches
        for component, value in segment.spans.items():
            span_sums[component] += value
    span = {c: _ratio(v, span_matches) for c, v in span_sums.items()}
    c = counters.get
    history = c("fetch.history_hits", 0) + c("fetch.history_misses", 0)
    wire = c("transport.wire_requests", 0)
    # Keys carried on the wire: every key of a batch, one per unbatched request.
    wire_keys = c("transport.batched_keys", 0) + wire - c("transport.batches", 0)
    cache_lookups = c("cache.hits", 0) + c("cache.misses", 0)
    # Fetch demand per wire request across the fleet's shared transport.
    demand = c("transport.blocking_fetches", 0) + c("transport.async_fetches", 0)
    amortization = _ratio(demand, wire) if records[0].fleet else 0.0
    values = {
        "runtime.self_s": self_s["runtime"],
        "runtime.build_s": _sum_median(segments, "build_s"),
        "span.queueing_us": span["queueing"],
        "serving.self_s": self_s["serving"],
        "serving.amortization": amortization,
        "serving.skew": c("serving.skew", 0),
        "engine.self_s": self_s["engine"],
        "engine.calls": calls.get("engine", 0),
        "engine.runs_created": c("engine.runs_created"),
        "engine.peak_active_runs": c("engine.peak_active_runs"),
        "engine.guard_evaluations": c("engine.guard_evaluations"),
        "engine.useful_run_ratio": _ratio(c("engine.runs_consumed"), c("engine.runs_created")),
        "span.eval_us": span["eval"],
        "query.self_s": self_s["query"],
        "query.predicate_evaluations": c("engine.predicate_evaluations"),
        "utility.self_s": self_s["utility"],
        "utility.calls": calls.get("utility", 0),
        "strategies.self_s": self_s["strategies"],
        "strategies.prefetches_issued": c("fetch.prefetches_issued", 0),
        "strategies.prefetch_hit_ratio": _ratio(c("fetch.history_hits", 0), history),
        "strategies.lazy_postponements": c("fetch.lazy_postponements", 0),
        "strategies.blocking_stalls": c("fetch.blocking_stalls", 0),
        "strategies.stall_us": c("fetch.total_stall_time", 0.0),
        "cache.self_s": self_s["cache"],
        "cache.calls": calls.get("cache", 0),
        "cache.hit_rate": _ratio(c("cache.hits", 0), cache_lookups),
        "cache.insertions": c("cache.insertions", 0),
        "cache.evictions": c("cache.evictions", 0),
        "remote.self_s": self_s["remote"],
        "remote.calls": calls.get("remote", 0),
        "remote.wire_requests": wire,
        "remote.keys_per_wire": _ratio(wire_keys, wire),
        "remote.retries": c("transport.retries", 0),
        "remote.failed_ratio": _ratio(c("transport.failed_fetches", 0), wire),
        "span.batch_wait_us": span["batch_wait"],
        "span.wire_us": span["wire"],
        "span.retry_backoff_us": span["retry_backoff"],
        "shedding.self_s": self_s["shedding"],
        "shedding.overloads": c("shed.overloads", 0),
        "shedding.runs_shed": c("shed.runs_shed", 0),
        "span.shed_stall_us": span["shed_stall"],
        "workloads.gen_s": _sum_median(segments, "gen_s"),
        "obs.trace_overhead": _sum_median(segments, "traced_run_s") / _sum_median(segments, "run_s"),
    }
    return values


def measure(spec, seed: int, seconds: float, trace: bool, span_dir: str | None = None) -> Report:
    """Run one workload for at least ``seconds`` and return its metrics."""
    segments = [Segment() for _ in range(spec.segments)]
    layers = LayerTracer() if trace else None
    traced_passes: list[tuple[dict, dict]] = []
    elapsed = 0.0
    passes = 0
    # Tracing alternates untraced and traced passes, starting untraced.
    while passes < (2 if trace else 1) or elapsed < seconds:
        traced = trace and passes % 2 == 1
        if traced:
            layers.reset_totals()

        def one_pass() -> None:
            for index, segment in enumerate(segments):
                segment.attempts += 1
                try:
                    ok = _replay(spec, seed, index, segment, layers if traced else None)
                except Exception:  # a failed replay is counted, not fatal
                    traceback.print_exc()
                    ok = False
                segment.failures += not ok

        _, pass_s = wall_time(one_pass)
        elapsed += pass_s
        if traced:
            traced_passes.append((dict(layers.self_ns), dict(layers.calls)))
        passes += 1
    peak_rss = _peak_rss_mb()
    _log(f"{spec.name}: {passes} passes over {spec.segments} segments in {elapsed:.1f} s")

    checks = []
    oracle_counts = []
    for index, segment in enumerate(segments):
        if segment.record is None:
            continue
        ok, count = _oracle_check(spec, seed, index, segment)
        oracle_counts.append(count)
        if not ok:
            # Every replay of the segment repeated the first: all are wrong.
            segment.failures = segment.attempts
    relation = "a subset of" if spec.sheds else "equal to"
    checks.append(f"matches {relation} the oracle on every segment; run ledger balanced")
    attempted = sum(s.attempts for s in segments)
    failed = sum(s.failures for s in segments)
    correct = failed == 0

    metrics: dict[str, tuple[float, str]] = {}
    shown: dict[str, tuple[float, str]] = {}
    if correct:
        values = _end_to_end(segments, peak_rss, oracle_counts)
        if trace:
            values.update(_per_layer(segments, traced_passes))
            table, extra = PER_LAYER, ()
            checks.append("traced replays identical to untraced ones")
            if span_dir is not None and layers.spans:
                os.makedirs(span_dir, exist_ok=True)
                layers.write_spans(os.path.join(span_dir, f"spans-{spec.name}-{seed}.jsonl"))
        else:
            table, extra = END_TO_END, VIRTUAL
        metrics = {m.name: (float(values[m.name]), m.unit) for m in table}
        shown = {m.name: (float(values[m.name]), m.unit) for m in extra}
    return Report(correct, attempted, failed, metrics, shown, checks)
