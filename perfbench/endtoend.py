"""End-to-end run (``--trace 0``): what a user of the system sees.

Search workloads send one query at a time (a closed loop with one client)
and run plain ``BlastEngine.search`` on every query too: it is both the
single-threaded baseline (``blast_s``) and the reference every output is
checked against. Which of the two goes first alternates per query.

The service workload alternates two closed loops in short cycles: one
client (``query_s``, one query in flight) and two clients that pause
0–80 ms between a reply and their next query (the latencies and
``capacity_qps``). Between the two, each cycle times a share of the
reference searches (``blast_s``). Its outputs are
checked against the reference after the load phases. The
Poisson open loop runs in the traced run only: on a shared 2-core host its
percentiles swing by 30–50% from run to run, more than any bound allows.

Tracing is off throughout.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.blast.engine import BlastEngine
from repro.blast.lookup import sorted_kmers
from repro.core.results import OrionResult
from repro.sequence.records import SequenceRecord

from perfbench.harness import (
    OutputCheck,
    metric,
    open_search,
    open_service,
    peak_rss_mib,
    quantile,
    require_warm,
    run_timed,
)
from perfbench.workloads import WORKERS, Inputs, Workload


@dataclass
class Report:
    """One run's outcome, printed as the benchmark's result line."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, dict]
    notes: List[str] = field(default_factory=list)

    def as_json(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


#: The end-to-end metrics and their units, as BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "query_s": "s",
    "blast_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "capacity_qps": "1/s",
    "recall": "ratio",
    "peak_rss_mib": "MiB",
    "success_rate": "ratio",
}


def _report(check: OutputCheck, attempted: int, failed: int, setups: List[float],
            query_times: List[float], blast_times: List[float],
            latencies: List[float], capacity: float, notes: List[str]) -> Report:
    values = {
        "setup_s": statistics.median(setups),
        "query_s": statistics.median(query_times),
        "blast_s": statistics.median(blast_times),
        "latency_p50_s": quantile(latencies, 0.5),
        "latency_p90_s": quantile(latencies, 0.9),
        "capacity_qps": capacity,
        "recall": check.recall,
        "peak_rss_mib": peak_rss_mib(),
        "success_rate": (attempted - failed) / attempted,
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    return Report(check.correct, attempted, failed, metrics, notes + check.problems)


# ---------------------------------------------------------------------- #
# one query at a time
# ---------------------------------------------------------------------- #


def run_search(workload: Workload, inputs: Inputs, seconds: float) -> Report:
    setups: List[float] = []
    for i in range(workload.setups):
        search, elapsed = open_search(workload, inputs)
        setups.append(elapsed)
        if i < workload.setups - 1:
            search.close()
    engine = BlastEngine(workload.params())
    blast = functools.partial(engine.search, database=inputs.database,
                              strands=workload.strands)
    check = OutputCheck(exact=workload.exact)
    times: Dict[str, List[float]] = {"orion": [], "blast": []}
    failed = 0
    try:
        require_warm()
        loop_start = time.perf_counter()
        i = 0
        while i < workload.min_queries or time.perf_counter() < loop_start + seconds:
            query = inputs.query(i)
            # Alternate which side goes first, so neither always runs second.
            order = ("orion", "blast") if i % 2 == 0 else ("blast", "orion")
            outputs: Dict[str, object] = {}
            for name in order:
                fn = search.run if name == "orion" else blast
                try:
                    outputs[name], elapsed = run_timed(fn, query)
                except Exception as exc:
                    if name == "blast":  # no reference, nothing to check against
                        raise
                    failed += 1  # a failed query is counted, not fatal
                    check.problems.append(f"{query.seq_id}: {type(exc).__name__}: {exc}")
                    continue
                times[name].append(elapsed)
            if "orion" in outputs:
                check.add(query.seq_id, outputs["orion"].alignments,  # type: ignore[attr-defined]
                          outputs["blast"].alignments,  # type: ignore[attr-defined]
                          count_recall=i < workload.min_queries)
            i += 1
        loop_wall = time.perf_counter() - loop_start
    finally:
        search.close()
    orion_busy = sum(times["orion"])
    notes = [
        f"{i} queries in {loop_wall:.1f} s (Orion busy {orion_busy:.1f} s, "
        f"BLAST the rest); recall over the first {workload.min_queries}"
    ]
    # One client: latency is the per-query wall time, and capacity is the
    # rate the client sees while Orion is busy.
    capacity = len(times["orion"]) / orion_busy if orion_busy else 0.0
    return _report(check, i, failed, setups, times["orion"], times["blast"],
                   times["orion"], capacity, notes)


# ---------------------------------------------------------------------- #
# the service
# ---------------------------------------------------------------------- #


@dataclass
class Load:
    """What the load phases sent and got back."""

    latencies: List[float] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    served: List[Tuple[SequenceRecord, OrionResult]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    sent: int = 0


async def send(service, query: SequenceRecord, due: float, load: Load) -> None:
    load.sent += 1
    try:
        result = await service.submit(query)
    except Exception as exc:  # rejected or failed: counted against success
        load.errors.append(f"{query.seq_id}: {type(exc).__name__}: {exc}")
        return
    load.latencies.append(time.perf_counter() - due)
    load.served.append((query, result))


class Reference:
    """``BlastEngine.search`` per distinct query sequence: the correctness
    reference and the ``blast_s`` baseline of the service workload.

    It searches a prebuilt subject k-mer index, as a served BLAST would;
    without it one reference costs more than two served queries.
    """

    def __init__(self, workload: Workload, inputs: Inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.engine = BlastEngine(workload.params())
        k = workload.params().k
        self.subject_index = {rec.seq_id: sorted_kmers(rec.codes, k)
                              for rec in inputs.database}
        self.alignments: Dict[str, list] = {}
        self.times: List[float] = []

    def search(self, query: SequenceRecord) -> list:
        """Search ``query``'s distinct sequence and time it."""
        base = self.inputs.distinct(query)
        result, elapsed = run_timed(
            self.engine.search, base, self.inputs.database,
            strands=self.workload.strands, subject_kmer_cache=self.subject_index,
        )
        self.times.append(elapsed)
        self.alignments[base.seq_id] = result.alignments
        return result.alignments

    def of(self, query: SequenceRecord) -> list:
        """The reference alignments of ``query``, searched if not yet."""
        known = self.alignments.get(self.inputs.distinct(query).seq_id)
        return self.search(query) if known is None else known


async def closed_loop(service, inputs: Inputs, duration: float,
                      pauses: List[Iterator[float]], counter: Iterator[int],
                      load: Load) -> None:
    """One client per entry of ``pauses``, each sending its next query
    after the last reply and a pause drawn from its entry (see
    :meth:`Inputs.think_times`)."""
    deadline = time.perf_counter() + duration

    async def client(pause: Iterator[float]) -> None:
        while time.perf_counter() < deadline:
            await send(service, inputs.query(next(counter)), time.perf_counter(), load)
            await asyncio.sleep(next(pause))

    await asyncio.gather(*(client(pause) for pause in pauses))


async def _serve(workload: Workload, inputs: Inputs, seconds: float,
                 reference: Reference):
    setups: List[float] = []
    for i in range(workload.setups):
        service, elapsed = await open_service(workload, inputs)
        setups.append(elapsed)
        if i < workload.setups - 1:
            await service.aclose()
    solo, pair = Load(), Load()
    counter = itertools.count()
    back_to_back = [itertools.repeat(0.0)]
    pauses = [inputs.think_times(c) for c in range(WORKERS)]
    # The phases alternate in short cycles, so that each metric is taken
    # over the whole run and not over one stretch of a host whose speed
    # drifts over tens of seconds. The reference searches, a share per
    # cycle, run between the load phases: beside each one-client query
    # they would leave the workers idle, so that every query woke them.
    solo_seconds = seconds * workload.solo_share / workload.cycles
    pair_seconds = seconds / workload.cycles - solo_seconds
    per_cycle = -(-workload.distinct_queries // workload.cycles)
    pair_wall = 0.0
    try:
        require_warm()
        for cycle in range(workload.cycles):
            await closed_loop(service, inputs, solo_seconds, back_to_back, counter, solo)
            for i in range(cycle * per_cycle,
                           min((cycle + 1) * per_cycle, workload.distinct_queries)):
                reference.search(inputs.query(i))
            start = time.perf_counter()
            await closed_loop(service, inputs, pair_seconds, pauses, counter, pair)
            pair_wall += time.perf_counter() - start
    finally:
        await service.aclose()
    return setups, solo, pair, len(pair.served) / pair_wall


def run_service(workload: Workload, inputs: Inputs, seconds: float) -> Report:
    reference = Reference(workload, inputs)
    setups, solo, pair, capacity = asyncio.run(_serve(workload, inputs, seconds, reference))
    check = OutputCheck(exact=workload.exact)
    for load in (solo, pair):
        for query, result in load.served:
            check.add(query.seq_id, result.alignments, reference.of(query))
    check.problems.extend(solo.errors + pair.errors)
    attempted = solo.sent + pair.sent
    failed = len(solo.errors) + len(pair.errors)
    notes = [
        f"{solo.sent} queries from 1 client and {pair.sent} from {WORKERS} clients; "
        f"{len(reference.alignments)} distinct sequences checked"
    ]
    return _report(check, attempted, failed, setups, solo.latencies,
                   reference.times, pair.latencies, capacity, notes)
