"""The benchmark's workloads and the inputs each one generates from a seed.

A workload is a database shape, a query shape, and the production
configuration the queries run under. Everything random comes from the
``--seed`` argument: the program under test receives only the generated
database and query records plus a configuration that is the same for every
seed (see :meth:`Workload.search_kwargs`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.blast.params import BlastParams
from repro.sequence.generator import (
    HomologySpec,
    make_database,
    make_query_with_homologies,
)
from repro.sequence.records import Database, SequenceRecord

#: Process workers, in-flight service queries and closed-loop clients: the
#: box this benchmark is calibrated on has two cores.
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``"search"`` (one query at a time through
    :class:`~repro.core.orion.OrionSearch`) or ``"service"`` (queries
    admitted by :class:`~repro.service.OrionService`).
    """

    name: str
    kind: str
    preset: str  # "blastn" or "megablast"
    strands: str
    db_sequences: int
    db_mean_length: int
    query_length: int
    homologies: int
    homology_length: int
    num_shards: Optional[int]  # None: OrionSearch's default
    fragment_length: Optional[int]  # None: the calibrated default
    prune_threshold: Optional[float]
    #: Whether Orion must reproduce BlastEngine.search byte for byte.
    exact: bool
    #: Queries every run measures at least once, whatever ``--seconds`` is;
    #: ``recall`` is taken over these, so it is fixed by the seed.
    min_queries: int
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int
    #: Service only: distinct query sequences cycled through the load
    #: phases, how many times the run alternates its one-client and
    #: two-client phases, the share of the measured time with one client,
    #: the longest pause a client of the two-client phase takes between a
    #: reply and its next query, and the traced open loop's arrival rate.
    distinct_queries: int = 0
    cycles: int = 1
    solo_share: float = 0.0
    max_think_s: float = 0.0
    open_loop_qps: float = 0.0

    # ------------------------------------------------------------------ #

    def params(self) -> BlastParams:
        return BlastParams.megablast() if self.preset == "megablast" else BlastParams.blastn()

    def search_kwargs(self) -> Dict[str, object]:
        """``OrionSearch`` keyword arguments of the production path.

        Identical for every seed: the seed reaches the program only
        through the generated records.
        """
        kwargs: Dict[str, object] = dict(
            params=self.params(),
            fragment_length=self.fragment_length,
            strands=self.strands,
            executor="processes",
            num_workers=WORKERS,
            shuffle="streaming",
            shared_db=True,
            prune_threshold=self.prune_threshold,
        )
        if self.num_shards is not None:
            kwargs["num_shards"] = self.num_shards
        return kwargs

    def serial_kwargs(self) -> Dict[str, object]:
        """The same search on the in-process serial executor (traced run)."""
        kwargs = self.search_kwargs()
        kwargs.update(executor="serial", num_workers=None, shared_db=None)
        return kwargs

    def scaled(self, factor: float) -> "Workload":
        """A smaller copy with the same shape, for the benchmark's self-tests."""

        def shrink(n: Optional[int]) -> Optional[int]:
            return None if n is None else max(1, int(n * factor))

        return replace(
            self,
            db_sequences=shrink(self.db_sequences),
            query_length=shrink(self.query_length),
            homologies=shrink(self.homologies),
            fragment_length=shrink(self.fragment_length),
            min_queries=1,
            setups=1,
            distinct_queries=min(self.distinct_queries, 3),
        )

    # ------------------------------------------------------------------ #

    def inputs(self, seed: int) -> "Inputs":
        # A mild length skew: the default (cv 0.5) lets the database size,
        # and with it every timing, swing by ±15% from seed to seed.
        db = make_database(
            seed, self.db_sequences, self.db_mean_length, name="benchdb",
            length_cv=0.25,
        )
        return Inputs(self, seed, db)


class Inputs:
    """The seeded inputs of one workload run.

    Queries are generated on demand, so a run can draw as many distinct
    queries as its time allows; query ``i`` is the same for a given seed
    whatever else the run does.
    """

    def __init__(self, workload: Workload, seed: int, database: Database) -> None:
        self.workload = workload
        self.seed = seed
        self.database = database
        self._queries: Dict[str, SequenceRecord] = {}

    def _make(self, seq_id: str) -> SequenceRecord:
        if seq_id not in self._queries:
            w = self.workload
            record, _planted = make_query_with_homologies(
                self.seed,
                w.query_length,
                self.database,
                [HomologySpec(w.homology_length)] * w.homologies,
                seq_id=seq_id,
            )
            self._queries[seq_id] = record
        return self._queries[seq_id]

    def warmup_query(self) -> SequenceRecord:
        """The untimed query that ends set-up (never measured)."""
        return self._make("warmup")

    def query(self, index: int) -> SequenceRecord:
        """The ``index``-th measured query.

        A service workload cycles ``distinct_queries`` sequences; every
        submission still gets its own ``seq_id``.
        """
        w = self.workload
        if w.kind != "service":
            return self._make(f"q{index:04d}")
        base = self._make(f"q{index % w.distinct_queries:04d}")
        return SequenceRecord(seq_id=f"{base.seq_id}.{index:05d}", codes=base.codes)

    def distinct(self, record: SequenceRecord) -> SequenceRecord:
        """The distinct sequence a (possibly renamed) query was cut from."""
        return self._make(record.seq_id.split(".")[0])

    def think_times(self, client: int) -> Iterator[float]:
        """Client ``client``'s pauses between a reply and its next query,
        uniform in ``[0, max_think_s)``.

        Two clients that send back to back fall into lock-step: they send
        at the same instant, one of the pair waits out the other's whole
        job, and 3–8% of latencies land near 0.4 s against a body near
        0.27 s. The 90th percentile then sits in the sparse gap between the
        two and swings with the share of lock-step pairs. A random pause
        keeps the clients out of step.
        """
        rng = np.random.default_rng([self.seed, 0x7417, client])
        while True:
            yield float(rng.uniform(0.0, self.workload.max_think_s))

    def arrivals(self, duration: float) -> List[float]:
        """Poisson open-loop send times in ``[0, duration)`` seconds.

        The count is fixed at rate × duration (at least ``min_queries``) and
        the times are uniform: a Poisson process given its count. A free
        count would swing the offered load by ±10% from seed to seed, and
        queueing magnifies that into the latencies.
        """
        rng = np.random.default_rng([self.seed, 0x0A11])
        count = max(self.workload.min_queries, round(self.workload.open_loop_qps * duration))
        return sorted(float(t) for t in rng.uniform(0.0, duration, count))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="service_burst",
            kind="service",
            preset="blastn",
            strands="plus",
            db_sequences=50,
            db_mean_length=20_000,
            query_length=10_000,
            homologies=1,
            homology_length=600,
            num_shards=None,
            fragment_length=None,
            prune_threshold=None,
            exact=True,
            min_queries=2,
            setups=5,
            distinct_queries=32,
            cycles=5,
            solo_share=0.35,
            max_think_s=0.08,
            open_loop_qps=4.0,
        ),
        Workload(
            name="megablast_dense",
            kind="search",
            preset="megablast",
            strands="both",
            db_sequences=200,
            db_mean_length=5_000,
            query_length=100_000,
            homologies=20,
            homology_length=3_000,
            num_shards=8,
            fragment_length=8_000,
            prune_threshold=0.02,
            exact=False,
            min_queries=4,
            setups=3,
        ),
    )
}
