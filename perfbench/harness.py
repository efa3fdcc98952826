"""Shared pieces of the benchmark: set-up, warm checks, output checks, memory.

Set-up is what a user pays before the first answer: constructing the search
(or starting the service), ``warmup()``, and one untimed warm-up query that
attaches every worker to the shared plane and fills its subject k-mer
store. It is timed as a whole, ``Workload.setups`` times per run, and the
measured loop only starts once :func:`require_warm` has passed.
"""

from __future__ import annotations

import multiprocessing
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.blast.hsp import Alignment
from repro.core.orion import OrionSearch
from repro.core.results import OrionResult
from repro.service.service import OrionService, ServiceConfig

from perfbench.workloads import WORKERS, Inputs, Workload

class BenchmarkError(RuntimeError):
    """The run cannot produce a valid measurement."""


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile; 0.0 for no values."""
    return float(np.quantile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def alignment_key(aln: Alignment) -> Tuple[Any, ...]:
    """Everything the exactness check compares: coordinates, score,
    E-value and path bytes. The query id is checked on its own, since the
    reference may have searched the same sequence under another id."""
    path = b"" if aln.path is None else aln.path.tobytes()
    return (aln.subject_id, aln.strand, aln.q_start, aln.q_end,
            aln.s_start, aln.s_end, aln.score, aln.evalue, path)


def _recall_key(aln: Alignment) -> Tuple[Any, ...]:
    return (aln.subject_id, aln.strand, aln.q_start, aln.q_end,
            aln.s_start, aln.s_end, aln.score)


@dataclass
class OutputCheck:
    """Orion's outputs against the ``BlastEngine.search`` reference.

    With ``exact`` every output must equal the reference alignment for
    alignment. Without it (a pruned search, which may lose alignments) an
    output must still overlap a reference alignment on the same subject
    and strand: lost or truncated alignments lower ``recall``, invented
    ones fail the run.
    """

    exact: bool
    reference_alignments: int = 0
    reproduced: int = 0
    problems: List[str] = field(default_factory=list)

    def add(self, query_id: str, orion: Sequence[Alignment],
            reference: Sequence[Alignment], count_recall: bool = True) -> None:
        if any(a.query_id != query_id for a in orion):
            self.problems.append(f"{query_id}: output carries another query id")
        if self.exact:
            if [alignment_key(a) for a in orion] != [alignment_key(a) for a in reference]:
                self.problems.append(f"{query_id}: output differs from BlastEngine.search")
        else:
            for a in orion:
                if not any(
                    r.subject_id == a.subject_id and r.strand == a.strand
                    and r.q_start < a.q_end and a.q_start < r.q_end
                    for r in reference
                ):
                    self.problems.append(
                        f"{query_id}: {a.subject_id} {a.q_start}-{a.q_end} "
                        f"matches no reference alignment"
                    )
        if count_recall:
            found = Counter(_recall_key(a) for a in orion)
            for r in reference:
                key = _recall_key(r)
                if found[key] > 0:
                    found[key] -= 1
                    self.reproduced += 1
            self.reference_alignments += len(reference)

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def recall(self) -> float:
        if self.reference_alignments == 0:
            return 1.0
        return self.reproduced / self.reference_alignments


# ---------------------------------------------------------------------- #
# set-up
# ---------------------------------------------------------------------- #


def _check_plane(result: OrionResult) -> None:
    if result.plane_fallback:
        raise BenchmarkError(
            f"shared plane fell back ({result.plane_fallback_reason}); "
            f"the production path is not under test"
        )


def open_search(workload: Workload, inputs: Inputs) -> Tuple[OrionSearch, float]:
    """A production search, warmed; returns it with its set-up seconds."""
    start = time.perf_counter()
    search = OrionSearch(inputs.database, **workload.search_kwargs())
    try:
        search.warmup()
        warm = search.run(inputs.warmup_query())
        elapsed = time.perf_counter() - start
        _check_plane(warm)
    except BaseException:
        search.close()
        raise
    return search, elapsed


async def open_service(workload: Workload, inputs: Inputs) -> Tuple[OrionService, float]:
    """A started production service, warmed; returns it with its set-up seconds."""
    start = time.perf_counter()
    search = OrionSearch(inputs.database, **workload.search_kwargs())
    # A deep queue: the open loop runs at about half capacity, so no
    # admission should be shed for lack of room.
    service = OrionService(
        search, ServiceConfig(max_inflight=WORKERS, queue_depth=64)
    )
    try:
        await service.start()
        warm = await service.submit(inputs.warmup_query())
        elapsed = time.perf_counter() - start
        _check_plane(warm)
    except BaseException:
        await service.aclose()
        raise
    return service, elapsed


def require_warm() -> None:
    """Fail unless every pool worker is alive before the measured loop.

    The warm-up query ran on these workers, so their plane views and k-mer
    stores are filled; a missing worker would be started, cold, inside the
    measured loop.
    """
    alive = [p for p in multiprocessing.active_children() if p.is_alive()]
    if len(alive) != WORKERS:
        raise BenchmarkError(
            f"measured loop would start cold: {len(alive)} live pool "
            f"workers, expected {WORKERS}"
        )


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest reaped child, MiB.

    Call after the pools are shut down: a child's peak is only reported
    once it has been waited for.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def stop_helper_processes() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    Shared memory starts it on first use and nothing stops it before the
    interpreter exits, so the benchmark ends it itself.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_timed(fn: Any, *args: Any, **kwargs: Any) -> Tuple[Any, float]:
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
