"""Traced run (``--trace 1``): per-layer numbers, measured from outside.

Two phases, both on the workload's own inputs:

1. **Production phase.** The workload's own configuration (process
   executor, shared plane, streaming shuffle; the service for
   ``service_burst``) with hooks in the main process only: plane lease, pool
   prewarm, sketch build and probe, ``prepare``, ``WorkerPool.run`` and the
   service's queue. Kernel calls happen in the workers, out of sight.
2. **Serial phase.** The same search on the serial executor, where every
   BLAST kernel, the aggregation and the sort run in this process. Each
   round runs the traced query untraced, then traced, then through a
   traced ``BlastEngine.search``; times are medians over rounds.

Counts come from query 0 of the workload and repeat exactly for a seed.
Spans are written to ``perfbench/out/`` when the run ends.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.blast import engine as blast_engine
from repro.blast import lookup
from repro.blast.engine import BlastEngine
from repro.core import orion as core_orion
from repro.core.orion import OrionSearch
from repro.core.results import OrionResult
from repro.mapreduce.runtime import WorkerPool
from repro.mapreduce.shm import PlaneRegistry
from repro.mapreduce.types import JobResult, TaskKind
from repro.service.service import OrionService
from repro.sketch import ShardSketchIndex

from perfbench.endtoend import Load, Report, send
from perfbench.harness import (
    BenchmarkError,
    OutputCheck,
    alignment_key,
    metric,
    open_search,
    open_service,
    quantile,
    run_timed,
)
from perfbench.tracer import Hook, Span, Tracer, instrument
from perfbench.workloads import WORKERS, Inputs, Workload

#: Minimum serial rounds, whatever ``--seconds`` allows.
MIN_ROUNDS = 2
#: Share of ``--seconds`` the service's traced open loop runs for.
TRACED_OPEN_LOOP_SHARE = 0.5


#: Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER: List[str] = [
    "blast.index_build_s", "blast.index_builds",
    "blast.seed_join_s", "blast.seed_join_calls", "blast.seeds",
    "blast.ungapped_s", "blast.ungapped_extensions", "blast.hsp_yield",
    "blast.gapped_s", "blast.gapped_extensions", "blast.speculative_extensions",
    "blast.gapped_yield", "blast.subject_index_s",
    "core.prepare_s", "core.aggregate_s", "core.merged_pairs", "core.dropped_partials",
    "core.sort_s", "core.map_tasks", "core.map_task_cv", "core.overhead_ratio",
    "sketch.build_s", "sketch.probe_s", "sketch.prune_frac",
    "mapreduce.job_wall_s", "mapreduce.pool_busy_frac", "mapreduce.shuffle_bytes",
    "mapreduce.retries", "mapreduce.plane_s", "mapreduce.prewarm_s",
    "service.queue_wait_p50_s", "service.queue_wait_p90_s", "service.run_p50_s",
    "service.rejected", "service.open_loop_p50_s", "service.open_loop_p90_s",
    "bench.generator_lag_s", "trace.overhead_frac",
]


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio", "_yield", "_cv")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


UNITS: Dict[str, str] = {name: _unit(name) for name in PER_LAYER}


def _query_arg(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> str:
    return (args[1] if len(args) > 1 else kwargs["query"]).seq_id


def _counters(span: Span, args: Any, kwargs: Any, result: Any) -> None:
    c = result.counters
    span.attrs.update(
        seeds=c.seeds,
        ungapped_extensions=c.ungapped_extensions,
        hsps=c.hsps_passing_threshold,
        gapped_extensions=c.gapped_extensions,
        speculative_extensions=c.speculative_extensions,
        reported=c.alignments_reported,
    )


def _job(span: Span, args: Any, kwargs: Any, result: JobResult) -> None:
    records = result.records
    span.attrs.update(
        job=args[1].name,
        busy_s=sum(r.duration for r in records),
        map_durations=[r.duration for r in records if r.kind is TaskKind.MAP],
        shuffle_bytes=sum(r.shuffle_bytes_out for r in records if r.kind is TaskKind.MAP),
        retries=sum(r.attempts - 1 for r in records),
    )


RUN_HOOK = Hook(OrionSearch, "run", "core.run", query_of=_query_arg)

#: Calls made in this process under the production configuration.
MAIN_HOOKS = [
    RUN_HOOK,
    Hook(OrionSearch, "prepare", "core.prepare"),
    Hook(WorkerPool, "run", "mapreduce.job", annotate=_job),
    Hook(WorkerPool, "prewarm", "mapreduce.prewarm"),
    Hook(PlaneRegistry, "attach_or_create", "mapreduce.plane"),
    Hook(lookup, "sorted_kmers", "blast.subject_index"),
    Hook(ShardSketchIndex, "build", "sketch.build"),
    Hook(ShardSketchIndex, "probe", "sketch.probe"),
    Hook(OrionService, "submit", "service.submit", query_of=_query_arg),
]

#: Kernel calls, visible when the search runs on the serial executor.
KERNEL_HOOKS = [
    RUN_HOOK,
    Hook(BlastEngine, "search", "blast.search", annotate=_counters),
    Hook(blast_engine, "QueryIndex", "blast.index_build"),
    Hook(blast_engine, "find_seeds", "blast.seed_join"),
    Hook(blast_engine, "extend_seeds_ungapped", "blast.ungapped"),
    Hook(blast_engine, "extend_gapped", "blast.gapped"),
    Hook(core_orion, "aggregate_subject_alignments", "core.aggregate"),
    Hook(core_orion, "parallel_sort_alignments", "core.sort"),
]


def _total(tracer: Tracer, name: str) -> float:
    return sum(s.duration for s in tracer.named(name))


def _attr_sum(tracer: Tracer, name: str, key: str) -> int:
    return sum(s.attrs[key] for s in tracer.named(name))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------- #
# production phase
# ---------------------------------------------------------------------- #


def _production_search(workload: Workload, inputs: Inputs,
                       tracer: Tracer) -> List[OrionResult]:
    with instrument(tracer, MAIN_HOOKS):
        search, _ = open_search(workload, inputs)
        try:
            return [search.run(inputs.query(i)) for i in range(workload.min_queries)]
        finally:
            search.close()


async def open_loop(service, inputs: Inputs, duration: float, load: Load) -> None:
    """Send on the seeded Poisson schedule regardless of completions,
    timing each query from its scheduled send time."""
    start = time.perf_counter()
    tasks = []
    for i, offset in enumerate(inputs.arrivals(duration)):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        load.lags.append(time.perf_counter() - due)
        tasks.append(asyncio.create_task(send(service, inputs.query(i), due, load)))
    await asyncio.gather(*tasks)


async def _serve_traced(workload: Workload, inputs: Inputs, seconds: float,
                        tracer: Tracer) -> Tuple[List[OrionResult], Dict[str, float], Load]:
    load = Load()
    with instrument(tracer, MAIN_HOOKS):
        service, _ = await open_service(workload, inputs)
        try:
            await open_loop(service, inputs, seconds * TRACED_OPEN_LOOP_SHARE, load)
            rejected = service.stats.rejected
        finally:
            await service.aclose()
    warmup_id = inputs.warmup_query().seq_id
    submits = {s.query: s for s in tracer.named("service.submit") if s.query != warmup_id}
    waits, runs = [], []
    for run in tracer.named("core.run"):
        if run.query in submits:
            waits.append(run.start - submits[run.query].start)
            runs.append(run.duration)
    service_metrics = {
        "service.queue_wait_p50_s": quantile(waits, 0.5),
        "service.queue_wait_p90_s": quantile(waits, 0.9),
        "service.run_p50_s": quantile(runs, 0.5),
        "service.rejected": float(rejected),
        "service.open_loop_p50_s": quantile(load.latencies, 0.5),
        "service.open_loop_p90_s": quantile(load.latencies, 0.9),
        "bench.generator_lag_s": quantile(load.lags, 0.9),
    }
    results = sorted((r for _, r in load.served), key=lambda r: r.query_id)
    return results, service_metrics, load


def _main_process_metrics(tracer: Tracer, results: List[OrionResult],
                          warmup_id: str) -> Dict[str, float]:
    """Set-up spans are totals; per-query spans are medians over the
    measured queries, leaving out the warm-up query that ends set-up."""
    first = results[0]
    jobs = [s for s in tracer.named("mapreduce.job")
            if s.attrs["job"].startswith("orion/") and s.query != warmup_id]
    first_job = next(s for s in jobs if s.attrs["job"] == f"orion/{first.query_id}")
    probes: Dict[str, float] = {}
    for s in tracer.named("sketch.probe"):
        if s.query == warmup_id:
            continue
        probes[s.query] = probes.get(s.query, 0.0) + s.duration
    cvs = []
    for s in jobs:
        d = np.asarray(s.attrs["map_durations"])
        cvs.append(float(d.std() / d.mean()) if len(d) and d.mean() > 0 else 0.0)
    pairs = first.num_fragments * first.num_shards
    return {
        "core.prepare_s": _median(
            [s.duration for s in tracer.named("core.prepare") if s.query != warmup_id]
        ),
        "core.map_tasks": float(first.num_work_units),
        "core.map_task_cv": _median(cvs),
        "sketch.build_s": _total(tracer, "sketch.build"),
        "sketch.probe_s": _median(list(probes.values())),
        "sketch.prune_frac": _ratio(first.pruned_map_tasks, pairs),
        "mapreduce.job_wall_s": _median([s.duration for s in jobs]),
        "mapreduce.pool_busy_frac": _median(
            [s.attrs["busy_s"] / (WORKERS * s.duration) for s in jobs]
        ),
        "mapreduce.shuffle_bytes": float(first_job.attrs["shuffle_bytes"]),
        "mapreduce.retries": float(
            sum(s.attrs["retries"] for s in tracer.named("mapreduce.job"))
        ),
        "mapreduce.plane_s": _total(tracer, "mapreduce.plane"),
        "mapreduce.prewarm_s": _total(tracer, "mapreduce.prewarm"),
        "blast.subject_index_s": _total(tracer, "blast.subject_index"),
    }


# ---------------------------------------------------------------------- #
# serial phase
# ---------------------------------------------------------------------- #


def _kernel_round(tracer: Tracer) -> Dict[str, float]:
    ungapped = _attr_sum(tracer, "blast.search", "ungapped_extensions")
    gapped = _attr_sum(tracer, "blast.search", "gapped_extensions")
    # Aggregation re-runs the engine on merge windows; its self time leaves
    # those nested blast.search spans out.
    aggregate_self = sum(tracer.self_time(s) for s in tracer.named("core.aggregate"))
    return {
        "blast.index_build_s": _total(tracer, "blast.index_build"),
        "blast.index_builds": float(len(tracer.named("blast.index_build"))),
        "blast.seed_join_s": _total(tracer, "blast.seed_join"),
        "blast.seed_join_calls": float(len(tracer.named("blast.seed_join"))),
        "blast.seeds": float(_attr_sum(tracer, "blast.search", "seeds")),
        "blast.ungapped_s": _total(tracer, "blast.ungapped"),
        "blast.ungapped_extensions": float(ungapped),
        "blast.hsp_yield": _ratio(_attr_sum(tracer, "blast.search", "hsps"), ungapped),
        "blast.gapped_s": _total(tracer, "blast.gapped"),
        "blast.gapped_extensions": float(gapped),
        "blast.speculative_extensions": float(
            _attr_sum(tracer, "blast.search", "speculative_extensions")
        ),
        "blast.gapped_yield": _ratio(_attr_sum(tracer, "blast.search", "reported"), gapped),
        "core.aggregate_s": aggregate_self,
        "core.sort_s": _total(tracer, "core.sort"),
    }


def _serial_phase(workload: Workload, inputs: Inputs, deadline: float, check: OutputCheck,
                  spans: List[Span]) -> Tuple[Dict[str, float], OrionResult]:
    query = inputs.query(0)
    search = OrionSearch(inputs.database, **workload.serial_kwargs())
    engine = BlastEngine(workload.params())
    search.run(query)  # fills this process's subject k-mer store
    rounds: List[Dict[str, float]] = []
    overheads: List[float] = []
    traced_result: OrionResult
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        untraced, untraced_s = run_timed(search.run, query)
        orion_tracer, blast_tracer = Tracer(), Tracer()
        with instrument(orion_tracer, KERNEL_HOOKS):
            traced_result, traced_s = run_timed(search.run, query)
        with instrument(blast_tracer, KERNEL_HOOKS):
            reference = engine.search(query, inputs.database, strands=workload.strands)
        keys = [alignment_key(a) for a in traced_result.alignments]
        if keys != [alignment_key(a) for a in untraced.alignments]:
            check.problems.append(f"{query.seq_id}: traced output differs from untraced")
        check.add(query.seq_id, traced_result.alignments, reference.alignments,
                  count_recall=not rounds)
        layer = _kernel_round(orion_tracer)
        layer["core.overhead_ratio"] = _ratio(
            _total(orion_tracer, "core.run"), _total(blast_tracer, "blast.search")
        )
        rounds.append(layer)
        overheads.append(traced_s / untraced_s - 1.0)
        if len(rounds) == 1:
            spans.extend(orion_tracer.spans)
    counts = {
        "core.merged_pairs": float(traced_result.merged_pairs),
        "core.dropped_partials": float(traced_result.dropped_partials),
        "trace.overhead_frac": _median(overheads),
    }
    # Counts are identical in every round; times are medians over rounds.
    merged = {name: _median([r[name] for r in rounds]) for name in rounds[0]}
    merged.update(counts)
    return merged, traced_result


# ---------------------------------------------------------------------- #


def run_traced(workload: Workload, inputs: Inputs, seconds: float,
               out_dir: Path) -> Report:
    start = time.perf_counter()
    production = Tracer()
    errors: List[str] = []
    if workload.kind == "service":
        results, service_metrics, load = asyncio.run(
            _serve_traced(workload, inputs, seconds, production)
        )
        errors = load.errors
    else:
        results = _production_search(workload, inputs, production)
        service_metrics = dict.fromkeys(
            [name for name in PER_LAYER if name.startswith(("service.", "bench."))], 0.0
        )
    first = inputs.query(0).seq_id
    if not results or results[0].query_id != first:
        raise BenchmarkError(f"the production phase returned no result for {first}")
    check = OutputCheck(exact=workload.exact, problems=list(errors))
    serial_spans: List[Span] = []
    layer, serial = _serial_phase(workload, inputs, start + seconds, check, serial_spans)
    if [alignment_key(a) for a in results[0].alignments] != [
        alignment_key(a) for a in serial.alignments
    ]:
        check.problems.append(f"{first}: process-backed output differs from serial")
    layer.update(_main_process_metrics(production, results, inputs.warmup_query().seq_id))
    layer.update(service_metrics)
    _write_spans(out_dir, workload, inputs.seed, production.spans + serial_spans)
    metrics = {name: metric(layer[name], UNITS[name]) for name in PER_LAYER}
    attempted = len(results) + len(errors)
    return Report(check.correct, attempted, len(errors), metrics, check.problems)


def _write_spans(out_dir: Path, workload: Workload, seed: int, spans: List[Span]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"spans-{workload.name}-seed{seed}.json"
    rows = [s.as_json() for s in spans]
    for row in rows:  # job records are summarised, not dumped
        row.get("attrs", {}).pop("map_durations", None)
    path.write_text(json.dumps(rows))
