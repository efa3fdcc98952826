"""Differential suite: band kernel vs the row-loop reference oracle.

The scalar narrow-band kernel (``kernel="band"``) must be
*byte-identical* to the retained row-loop implementation — same scores, same
endpoints, same op paths — under both drop rules, across random scoring
schemes, x-drop values, anchor positions (including the sequence edges, which
make a half empty), and adversarial sequence shapes. Every test here runs
both kernels on the same input and asserts full equality of the result.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast.gapped import extend_gapped
from repro.sequence.alphabet import encode, random_bases

dna = st.text(alphabet="ACGTN", min_size=0, max_size=80)
seeds = st.integers(min_value=0, max_value=2**31)


def assert_kernels_identical(q, s, aq, as_, reward, penalty, go, ge, xd, absolute_drop):
    a = extend_gapped(
        q, s, aq, as_, reward, penalty, go, ge, xd,
        absolute_drop=absolute_drop, kernel="rowloop",
    )
    b = extend_gapped(
        q, s, aq, as_, reward, penalty, go, ge, xd,
        absolute_drop=absolute_drop, kernel="band",
    )
    assert a.score == b.score
    assert (a.q_start, a.q_end, a.s_start, a.s_end) == (
        b.q_start, b.q_end, b.s_start, b.s_end,
    )
    assert a.path is not None and b.path is not None
    assert np.array_equal(a.path, b.path)
    return a


class TestDifferentialHypothesis:
    @given(dna, dna, seeds, st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_random_sequences_all_parameters(self, q, s, seed, absolute_drop):
        """Random sequences × random scoring scheme × random anchor."""
        rng = np.random.default_rng(seed)
        qc, sc = encode(q), encode(s)
        aq = int(rng.integers(0, len(q) + 1))
        as_ = int(rng.integers(0, len(s) + 1))
        reward = int(rng.integers(1, 5))
        penalty = -int(rng.integers(1, 6))
        go = int(rng.integers(0, 8))
        ge = int(rng.integers(1, 4))
        xd = int(rng.integers(0, 40))
        assert_kernels_identical(qc, sc, aq, as_, reward, penalty, go, ge, xd, absolute_drop)

    @given(seeds, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_planted_homology(self, seed, absolute_drop):
        """Pairs sharing a planted homologous block — long live bands."""
        rng = np.random.default_rng(seed)
        mq = int(rng.integers(20, 90))
        q = random_bases(rng, mq)
        block_lo = int(rng.integers(0, mq // 2))
        block_hi = int(rng.integers(block_lo + 5, mq))
        s = np.concatenate([
            random_bases(rng, int(rng.integers(0, 20))),
            q[block_lo:block_hi],
            random_bases(rng, int(rng.integers(0, 20))),
        ])
        # Mutate a couple of bases so the DP sees mismatches/gaps too.
        if s.shape[0] > 4:
            k = int(rng.integers(0, s.shape[0]))
            s[k] = (s[k] + 1) % 4
        aq = int(rng.integers(0, mq + 1))
        as_ = int(rng.integers(0, s.shape[0] + 1))
        xd = int(rng.integers(0, 30))
        assert_kernels_identical(q, s, aq, as_, 1, -3, 5, 2, xd, absolute_drop)

    @given(seeds, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_homolog_with_indels(self, seed, absolute_drop):
        """Short homologs with random indels and substitutions: the band's
        edges meet gaps and cutoff-level cells under many scoring schemes."""
        rng = np.random.default_rng(seed)
        length = int(rng.integers(10, 120))
        q = random_bases(rng, length)
        s = q.copy()
        for _ in range(int(rng.integers(0, 4))):
            pos = int(rng.integers(0, max(1, s.shape[0])))
            size = int(rng.integers(1, 8))
            if rng.random() < 0.5:
                s = np.concatenate([s[:pos], random_bases(rng, size), s[pos:]])
            else:
                s = np.concatenate([s[:pos], s[pos + size:]])
        flips = rng.random(s.shape[0]) < rng.random() * 0.1
        s[flips] = (s[flips] + 1) % 4
        reward, penalty = int(rng.integers(1, 3)), -int(rng.integers(1, 4))
        go, ge, xd = int(rng.integers(0, 6)), int(rng.integers(1, 3)), int(rng.integers(5, 25))
        aq = int(rng.integers(0, length + 1))
        as_ = min(aq, s.shape[0])
        assert_kernels_identical(q, s, aq, as_, reward, penalty, go, ge, xd, absolute_drop)


class TestDifferentialEdgeCases:
    @pytest.mark.parametrize("absolute_drop", [False, True])
    def test_empty_halves(self, absolute_drop):
        """Anchors at sequence edges leave one half empty."""
        q = encode("ACGTACGTAC")
        s = encode("ACGTTCGTAC")
        for aq, as_ in [(0, 0), (10, 10), (0, 10), (10, 0), (0, 5), (10, 5)]:
            assert_kernels_identical(q, s, aq, as_, 1, -3, 5, 2, 15, absolute_drop)

    @pytest.mark.parametrize("absolute_drop", [False, True])
    def test_both_sequences_empty(self, absolute_drop):
        empty = np.zeros(0, dtype=np.uint8)
        ext = assert_kernels_identical(empty, empty, 0, 0, 1, -3, 5, 2, 15, absolute_drop)
        assert ext.score == 0
        assert ext.path.shape[0] == 0

    @pytest.mark.parametrize("absolute_drop", [False, True])
    def test_xdrop_zero(self, absolute_drop):
        """x_drop=0 prunes everything but exact continuation."""
        q = encode("ACGTACGT")
        s = encode("ACGTTCGT")
        assert_kernels_identical(q, s, 4, 4, 1, -3, 5, 2, 0, absolute_drop)

    @pytest.mark.parametrize("absolute_drop", [False, True])
    def test_ambiguous_codes_mismatch(self, absolute_drop):
        """N (code 4) never matches, not even against itself."""
        q = encode("ACGTNNNNACGT")
        s = encode("ACGTNNNNACGT")
        assert_kernels_identical(q, s, 6, 6, 1, -3, 5, 2, 15, absolute_drop)

    @pytest.mark.parametrize("absolute_drop", [False, True])
    def test_gap_open_zero(self, absolute_drop):
        """Linear gap costs (gap_open=0) change which branch ties win."""
        rng = np.random.default_rng(21)
        base = random_bases(rng, 50)
        q = base.copy()
        s = np.concatenate([base[:25], base[28:]])  # deletion
        assert_kernels_identical(q, s, 10, 10, 1, -2, 0, 1, 20, absolute_drop)

    def test_pad_cell_at_the_cutoff(self):
        """A right-pad cell scoring exactly the cutoff stays in the band."""
        q, s = encode("ATCATGTGA"), encode("GTGATGAACATGTGA")
        assert_kernels_identical(q, s, 0, 0, 1, -3, 1, 1, 6, True)

    def test_gap_predecessor_near_the_best_score(self):
        """The cell before a gap scores within gap_extend of the best, so
        the traceback's gap-length bound is tight."""
        rng = np.random.default_rng(5)
        base = random_bases(rng, 115)
        s = np.concatenate([base[:100], base[103:]])  # 3 bp deletion near the end
        ext = assert_kernels_identical(base, s, 0, 0, 1, -3, 5, 2, 15, False)
        assert ext.score == 101
        ext = assert_kernels_identical(s, base, 0, 0, 1, -3, 5, 2, 15, False)
        assert ext.score == 101
        q, s = (
            encode("GGTTGCCGTCGGGGTATTACAGCGGTGTTTTTCTTCGAATGTTGTCGTAATAACAT"),
            encode("GGTTGCCGTCGGGGGCGGTGTAAGTTTCTTCGAATGTTGTCGTAATAACATGCAGG"),
        )
        assert_kernels_identical(q, s, 56, 56, 1, -1, 1, 2, 22, False)

    def test_deep_dip_absolute_vs_relative(self):
        """The drop-rule divergence case: both kernels agree under each rule."""
        rng = np.random.default_rng(4)
        left = random_bases(rng, 30)
        right = random_bases(rng, 30)
        dip = random_bases(rng, 7)
        q = np.concatenate([left, dip, right])
        s = np.concatenate([left, (dip + 1) % 4, right])
        rel = assert_kernels_identical(q, s, 0, 0, 1, -3, 5, 2, 15, False)
        abs_ = assert_kernels_identical(q, s, 0, 0, 1, -3, 5, 2, 40, True)
        assert abs_.q_end > rel.q_end  # sanity: absolute mode crossed the dip

    def test_long_reference_workload_prefix(self):
        """A sliced-down version of the benchmark workload (long live band)."""
        rng = np.random.default_rng(42)
        query = random_bases(rng, 5_000)
        subject = np.concatenate([
            random_bases(rng, 2_000), query[1_000:3_000], random_bases(rng, 2_000)
        ])
        ext = assert_kernels_identical(query, subject, 2_000, 3_000, 1, -3, 5, 2, 15, False)
        assert ext.score >= 1_900  # found the planted 2 kb homology


#: (reward, penalty, gap_open, gap_extend) of the two shipped presets.
SCHEMES = {"blastn": (1, -3, 5, 2), "megablast": (1, -2, 2, 2)}


def planted_homolog(rng, length, left_flank, right_flank):
    """A query/subject pair sharing one mutated ``length``-bp homolog.

    The subject copy carries ~1.5% substitutions, a few 1–6 bp insertions and
    deletions, and runs of N in both copies. Returns ``(q, s, pairs)`` where
    ``pairs`` lists aligned (query, subject) positions inside the homolog.
    """
    block = random_bases(rng, length)
    q_block = block.copy()
    for start in rng.integers(0, length - 10, size=2):
        q_block[start : start + int(rng.integers(1, 4))] = 4
    s_parts, pairs, s_pos = [], [], left_flank
    indel_at = set(int(x) for x in rng.integers(20, length - 20, size=6))
    for qi in range(length):
        if qi in indel_at:
            size = int(rng.integers(1, 7))
            if rng.random() < 0.5:
                s_parts.append(random_bases(rng, size))  # insertion in the subject
                s_pos += size
            else:
                indel_at.update(range(qi + 1, qi + size))  # deletion from it
                continue
        base = block[qi]
        if rng.random() < 0.015:
            base = (base + int(rng.integers(1, 4))) % 4
        s_parts.append(np.array([base], dtype=np.uint8))
        pairs.append((left_flank + qi, s_pos))
        s_pos += 1
    s_block = np.concatenate(s_parts)
    for start in rng.integers(0, s_block.shape[0] - 10, size=2):
        s_block[start : start + int(rng.integers(1, 4))] = 4
    q = np.concatenate([random_bases(rng, left_flank), q_block, random_bases(rng, right_flank)])
    s = np.concatenate([random_bases(rng, left_flank), s_block, random_bases(rng, right_flank)])
    return q, s, pairs


class TestDifferentialLongBands:
    """kbp-scale bands with gaps: planted 1–3 kbp homologs, both presets.

    Anchors sit at the sequence edges (one half empty, the other spanning
    the whole homolog) and mid-homology (both halves long).
    """

    @pytest.mark.parametrize("absolute_drop", [False, True])
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_planted_kbp_homologs(self, scheme, absolute_drop):
        reward, penalty, go, ge = SCHEMES[scheme]
        rng = np.random.default_rng([7, sorted(SCHEMES).index(scheme), absolute_drop])
        # Homolog flush with the sequence start: the anchor (0, 0) extends
        # right across all of it.
        q, s, _ = planted_homolog(rng, int(rng.integers(1_000, 3_001)), 0, 40)
        ext = assert_kernels_identical(q, s, 0, 0, reward, penalty, go, ge, 15, absolute_drop)
        assert ext.q_end > 100
        # Flush with the end: the anchor at (m, n) extends left.
        q, s, _ = planted_homolog(rng, int(rng.integers(1_000, 3_001)), 40, 0)
        ext = assert_kernels_identical(
            q, s, q.shape[0], s.shape[0], reward, penalty, go, ge, 15, absolute_drop,
        )
        assert ext.q_start < q.shape[0] - 100
        # Mid-homology anchor between random flanks.
        q, s, pairs = planted_homolog(rng, int(rng.integers(1_000, 3_001)), 30, 30)
        aq, as_ = pairs[len(pairs) // 2]
        ext = assert_kernels_identical(q, s, aq, as_, reward, penalty, go, ge, 15, absolute_drop)
        assert ext.q_end - ext.q_start > 100
