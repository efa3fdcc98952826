"""Microbenchmarks: the engine's vectorized kernels.

Not a paper artifact — these track the hot paths the HPC guide says to
profile (lookup join, ungapped scan, gapped DP row, Smith–Waterman) so
performance regressions in the kernels are visible independently of the
experiment harness. These run with real pytest-benchmark statistics
(multiple rounds), unlike the one-shot experiment benches.
"""

import numpy as np
import pytest

from repro.blast.gapped import extend_gapped
from repro.blast.lookup import QueryIndex, kmer_codes, sorted_kmers
from repro.blast.seeds import find_seeds, thin_seeds, two_hit_filter
from repro.blast.smith_waterman import smith_waterman_score
from repro.blast.ungapped import cull_contained, extend_seeds_ungapped
from repro.sequence.alphabet import random_bases
from repro.sketch import KmerSketch, containment
from repro.sketch.minhash import probe_hashes


@pytest.fixture(scope="module")
def seqs():
    rng = np.random.default_rng(42)
    query = random_bases(rng, 100_000)
    subject = np.concatenate([random_bases(rng, 50_000), query[20_000:40_000],
                              random_bases(rng, 50_000)])
    return query, subject


def test_kmer_packing(benchmark, seqs):
    query, _ = seqs
    packed, valid = benchmark(kmer_codes, query, 11)
    assert packed.size == query.size - 10


def test_query_index_build(benchmark, seqs):
    query, _ = seqs
    idx = benchmark(QueryIndex, query, 11)
    assert idx.num_words > 0


def test_seed_lookup(benchmark, seqs):
    query, subject = seqs
    idx = QueryIndex(query, 11)
    hits = benchmark(find_seeds, idx, subject)
    assert len(hits) > 0


def test_seed_lookup_flipped_join(benchmark, seqs):
    """The Orion fast path: small fragment probing a subject index."""
    query, subject = seqs
    fragment = query[20_000:21_600]
    sindex = sorted_kmers(subject, 11)
    idx = QueryIndex(fragment, 11)
    hits = benchmark(find_seeds, idx, subject, subject_index=sindex)
    assert len(hits) > 0


def test_ungapped_extension(benchmark, seqs):
    query, subject = seqs
    idx = QueryIndex(query, 11)
    hits = find_seeds(idx, subject)
    batch = benchmark(extend_seeds_ungapped, query, subject, hits, 1, -3, 20)
    assert len(batch) > 0


def test_thin_seeds(benchmark, seqs):
    """Phase-i diagonal thinning over the raw (unthinned) seed set."""
    query, subject = seqs
    idx = QueryIndex(query, 11)
    raw = find_seeds(idx, subject, thin=False)
    thinned = benchmark(thin_seeds, raw)
    assert 0 < len(thinned) <= len(raw)


def test_two_hit_filter(benchmark, seqs):
    """Two-hit seeding filter (window 40) over the raw seed set."""
    query, subject = seqs
    idx = QueryIndex(query, 11)
    raw = find_seeds(idx, subject, thin=False)
    kept = benchmark(two_hit_filter, raw, 40)
    assert len(kept) <= len(raw)


def test_cull_contained(benchmark, seqs):
    """Containment culling over the ungapped extension batch."""
    query, subject = seqs
    idx = QueryIndex(query, 11)
    hits = find_seeds(idx, subject)
    batch = extend_seeds_ungapped(query, subject, hits, 1, -3, 20)
    culled = benchmark(cull_contained, batch)
    assert 0 < len(culled) <= len(batch)


def test_sketch_build(benchmark, seqs):
    """Bottom-k sketch construction from a sequence's 2-bit codes."""
    _, subject = seqs
    sketch = benchmark(KmerSketch.from_codes, subject, 11, 256)
    assert sketch.num_hashes == 256


def test_sketch_probe(benchmark, seqs):
    """Fragment-vs-sketch containment: hash the probe + one searchsorted."""
    query, subject = seqs
    fragment = query[20_000:25_000]
    sketch = KmerSketch.from_codes(subject, 11, 256)

    def probe():
        return containment(probe_hashes(fragment, 11), sketch)

    est = benchmark(probe)
    assert 0.0 <= est <= 1.0


def test_gapped_extension(benchmark, seqs):
    """Reference workload, production (band) kernel."""
    query, subject = seqs
    ext = benchmark(
        extend_gapped, query, subject, 30_000, 60_000, 1, -3, 5, 2, 15
    )
    assert ext.score > 1000  # inside the planted 20 kbp identity


def test_gapped_extension_rowloop_oracle(benchmark, seqs):
    """Same workload on the row-loop reference oracle, for comparison."""
    query, subject = seqs
    ext = benchmark(
        extend_gapped, query, subject, 30_000, 60_000, 1, -3, 5, 2, 15,
        kernel="rowloop",
    )
    assert ext.score > 1000


def test_gapped_band_speedup_ratio(seqs):
    """Gate: the band kernel must be ≥3× the row-loop oracle.

    Uses best-of-N wall times (not pytest-benchmark) so the assert is robust
    to scheduler noise, and checks byte-identical results along the way.
    """
    import time

    query, subject = seqs
    anchor = (30_000, 60_000)

    def best_of(kernel, rounds=3):
        best = float("inf")
        result = None
        for _ in range(rounds):
            t0 = time.perf_counter()
            result = extend_gapped(
                query, subject, *anchor, 1, -3, 5, 2, 15, kernel=kernel
            )
            best = min(best, time.perf_counter() - t0)
        return best, result

    t_band, r_band = best_of("band")
    t_row, r_row = best_of("rowloop")
    assert r_band.score == r_row.score
    assert np.array_equal(r_band.path, r_row.path)
    ratio = t_row / t_band
    print(f"\ngapped extension: rowloop {t_row*1e3:.0f}ms / "
          f"band {t_band*1e3:.0f}ms = {ratio:.2f}x")
    assert ratio >= 3.0, f"band speedup {ratio:.2f}x below the 3x floor"


def test_smith_waterman(benchmark):
    rng = np.random.default_rng(7)
    a = random_bases(rng, 600)
    b = np.concatenate([a[100:400], random_bases(rng, 300)])
    score = benchmark(smith_waterman_score, a, b, 1, -3, 5, 2)
    assert score >= 300
