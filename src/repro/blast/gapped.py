"""Gapped x-drop extension (BLAST phase iii): banded affine DP + traceback.

The extension is anchored at a position pair inside an ungapped HSP and grows
in both directions. Each half is a dynamic program over rows (query) ×
columns (subject) where only the *band* of columns scoring within ``x_drop``
of the best score stays alive — exactly the pruning the paper describes.

Two interchangeable kernels compute each half:

* ``kernel="band"`` (default) — the production kernel: a scalar loop on
  plain Python ints over the live cells of each row. At the shipped x-drop
  (15) the band is ~11 cells wide, so a row costs less as a dozen scalar
  cell updates than as a dozen NumPy calls (DESIGN §4.1.1). It reads each
  half's bases in place — the left half by walking the sequences backwards
  from the anchor — and converts only the stretch the band reaches.
* ``kernel="rowloop"`` — the reference implementation: one interpreter
  iteration per query row, each row vectorized with NumPy. It serves as the
  differential-testing oracle (``tests/blast/test_gapped_diff.py`` proves
  the two byte-identical: same scores, endpoints, and op paths, under both
  drop rules).

Both kernels compute the same within-row horizontal affine dependency. A
gap opened from a cell that itself ends in a horizontal gap is dominated by
one longer gap (one ``gap_open`` instead of two), so

    E[j] = max_{k<j} (base[k] − gap_open − gap_extend·(j−k))
         = cummax(base + gap_extend·k) − gap_open − gap_extend·j

with ``base = max(diagonal term, vertical term)``. The oracle evaluates the
right-hand side as one ``np.maximum.accumulate`` pass; the band kernel
carries the left-hand side's running maximum from cell to cell. Property
tests check this row against a naive scalar DP.

Speculative mode (paper Section III-B1): Orion extends boundary partials with
the *absolute* drop rule — scoring starts at 0 and extension continues until
the score falls below ``−x_drop`` — instead of the usual peak-relative rule.
Pass ``absolute_drop=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.blast.hsp import OP_DIAG, OP_QGAP, OP_SGAP

#: "Minus infinity" for integer DP cells (large enough headroom that adding
#: substitution scores can never wrap).
NEG_INF = np.int64(-(2**40))

#: Selectable DP kernels (see module docstring); the first is the default.
KERNELS = ("band", "rowloop")


def check_kernel(kernel: str) -> None:
    """Raise ``ValueError`` unless ``kernel`` names a DP kernel."""
    if kernel == "wavefront":
        raise ValueError("DP kernel 'wavefront' was removed; use 'band'")
    if kernel not in KERNELS:
        raise ValueError(f"unknown DP kernel {kernel!r}; expected one of {KERNELS}")


@dataclass(frozen=True)
class GappedExtension:
    """Result of one gapped extension around an anchor.

    Coordinates are in the same frame as the input sequences; the path (when
    kept) runs from ``(q_start, s_start)`` to ``(q_end, s_end)``.
    """

    score: int
    q_start: int
    q_end: int
    s_start: int
    s_end: int
    path: Optional[np.ndarray] = None

    @property
    def q_span(self) -> int:
        return self.q_end - self.q_start

    @property
    def s_span(self) -> int:
        return self.s_end - self.s_start


@dataclass
class _HalfResult:
    score: int
    qi: int  # rows consumed (query bases)
    sj: int  # cols consumed (subject bases)
    path: Optional[np.ndarray]


#: Placeholder at index 0 of the 1-based base lists; equals no base code.
_NO_BASE = -2
#: Bases converted per refill of a half's base list (then doubling).
_CHUNK = 1024


def _refill(
    buf: List[int],
    codes: np.ndarray,
    origin: int,
    step: int,
    size: int,
    need: int,
    mask_ambiguous: bool,
) -> None:
    """Extend the 1-based base list ``buf`` of one half to cover base ``need``.

    Base ``t`` of the half is ``codes[origin + t - 1]`` walking right
    (``step=1``) or ``codes[origin - t]`` walking left (``step=-1``); at most
    ``size`` bases exist. Refills double, so a half converts O(bases
    reached), never the whole sequence. With ``mask_ambiguous`` codes >= 4
    become -1, so one equality test decides a match on both sides.
    """
    have = len(buf) - 1
    upto = min(size, max(need, 2 * have, _CHUNK))
    if step > 0:
        seg = codes[origin + have : origin + upto]
    else:
        seg = codes[origin - upto : origin - have][::-1]
    if mask_ambiguous:
        seg = np.where(seg < 4, seg.astype(np.int64), -1)
    buf.extend(seg.tolist())


def _band_half(
    q_codes: np.ndarray,
    s_codes: np.ndarray,
    q0: int,
    s0: int,
    step: int,
    reward: int,
    penalty: int,
    gap_open: int,
    gap_extend: int,
    x_drop: int,
    absolute_drop: bool,
    keep_traceback: bool,
) -> _HalfResult:
    """One-direction gapped x-drop DP on plain ints over each row's band.

    Row ``i`` aligns the ``i``-th query base walking away from the anchor
    ``(q0, s0)`` in direction ``step`` (column ``j`` likewise for the
    subject). The recurrence, the band bookkeeping, the first-maximum
    tie-break and the traceback's predecessor order are the row-loop
    oracle's (:func:`_half_extension`), so results are byte-identical.
    """
    if step > 0:
        m = int(q_codes.shape[0]) - q0
        n = int(s_codes.shape[0]) - s0
    else:
        m, n = q0, s0
    go, ge, x_drop = int(gap_open), int(gap_extend), int(x_drop)
    goe = go + ge
    rw, pn = int(reward), int(penalty)
    neg = int(NEG_INF)
    ql = [_NO_BASE]
    sl = [_NO_BASE]
    best = bi = bj = 0
    cutoff = -x_drop

    # Row 0: H[0][j] = -(gap_open + gap_extend*j) for the columns a single gap
    # keeps above the cutoff; the origin (score 0) always survives.
    budget = x_drop - go
    reach0 = min(n, budget // ge) if budget >= 0 else 0
    hp = [0] + [-(go + ge * j) for j in range(1, reach0 + 1)]
    fp = [neg] * len(hp)
    lo = 0
    rows: List[Tuple[int, List[int]]] = [(0, hp)]

    for i in range(1, m + 1):
        if not absolute_drop:
            cutoff = best - x_drop
        hi_p = lo + len(hp)  # previous row's band is [lo, hi_p)
        if i >= len(ql):
            _refill(ql, q_codes, q0, step, m, i, True)
        last_col = hi_p if hi_p <= n else n
        if last_col >= len(sl):
            _refill(sl, s_codes, s0, step, n, last_col, False)
        qc = ql[i]
        hrow: List[int] = []
        frow: List[int] = []
        h_push = hrow.append
        f_push = frow.append

        # Columns [lo, hi_p): diagonal, vertical and horizontal predecessors.
        hd = neg  # H[i-1][j-1]; the column left of the band is dead
        g = neg  # max(E, H - gap_open) of the column to the left
        for hu, fu, sc in zip(hp, fp, sl[lo:hi_p]):
            d = hd + (rw if sc == qc else pn)
            f = fu - ge
            t = hu - goe
            if t > f:
                f = t
            if f > d:
                d = f
            g -= ge  # E of this column
            if g > d:
                d = g
            h_push(d)
            f_push(f)
            t = d - go
            if t > g:
                g = t
            hd = hu
        if hi_p <= n:
            # Column hi_p has only a diagonal predecessor (and E); the columns
            # after it only E. Pad right while one horizontal gap stays above
            # the cutoff: those are the only pad cells the trim below keeps.
            d = hd + (rw if sl[hi_p] == qc else pn)
            g -= ge
            if g > d:
                d = g
            h_push(d)
            f_push(neg)
            t = d - go
            if t > g:
                g = t
            for _ in range(n - hi_p):
                g -= ge
                if g < cutoff:
                    break
                h_push(g)
                f_push(neg)

        row_best = max(hrow)
        if row_best > best:
            best, bi, bj = row_best, i, lo + hrow.index(row_best)
            if not absolute_drop:
                cutoff = best - x_drop
        if row_best < cutoff:
            break
        # Trim the dead edges; interior sub-cutoff cells stay (they can revive).
        a, b = 0, len(hrow)
        while hrow[a] < cutoff:
            a += 1
        while hrow[b - 1] < cutoff:
            b -= 1
        if a or b < len(hrow):
            hrow, frow = hrow[a:b], frow[a:b]
            lo += a
        hp, fp = hrow, frow
        if keep_traceback:
            rows.append((lo, hp))

    path = None
    if keep_traceback:
        path = _band_traceback(rows, bi, bj, best, ql, sl, rw, pn, go, ge)
    return _HalfResult(score=best, qi=bi, sj=bj, path=path)


def _band_traceback(
    rows: List[Tuple[int, List[int]]],
    bi: int,
    bj: int,
    best: int,
    ql: List[int],
    sl: List[int],
    reward: int,
    penalty: int,
    gap_open: int,
    gap_extend: int,
) -> np.ndarray:
    """Op path from (0, 0) to the best cell, in the oracle's predecessor order.

    Diagonal first, then vertical gaps by increasing length, then horizontal
    ones. No stored cell scores above ``best``, so a gap of length ``g`` is
    only possible while ``H + gap_open + gap_extend·g <= best``: each scan
    stops there (or at the row's band edge) instead of at the matrix edge.
    """
    ops: List[int] = []
    i, j = bi, bj
    lo, hr = rows[i]
    h = hr[j - lo]
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            plo, ph = rows[i - 1]
            k = j - 1 - plo
            if 0 <= k < len(ph) and h == ph[k] + (reward if ql[i] == sl[j] else penalty):
                ops.append(OP_DIAG)
                i -= 1
                j -= 1
                h = ph[k]
                continue
        reach = (best - h - gap_open) // gap_extend
        target = h + gap_open
        moved = False
        for g in range(1, min(i, reach) + 1):  # vertical: consumes query
            plo, ph = rows[i - g]
            k = j - plo
            if 0 <= k < len(ph) and ph[k] == target + gap_extend * g:
                ops.extend([OP_SGAP] * g)
                i -= g
                h = ph[k]
                moved = True
                break
        if moved:
            continue
        lo, hr = rows[i]
        for g in range(1, min(j - lo, reach) + 1):  # horizontal: consumes subject
            if hr[j - lo - g] == target + gap_extend * g:
                ops.extend([OP_QGAP] * g)
                j -= g
                h = hr[j - lo]
                moved = True
                break
        if not moved:  # pragma: no cover - would indicate a DP bug
            raise RuntimeError(f"no predecessor found for cell ({i}, {j})")
    return np.array(ops[::-1], dtype=np.uint8)


def _window(arr: np.ndarray, arr_lo: int, lo: int, hi: int) -> np.ndarray:
    """Values of a banded array over [lo, hi), padded with NEG_INF outside."""
    out = np.full(hi - lo, NEG_INF, dtype=np.int64)
    src_lo = max(lo, arr_lo)
    src_hi = min(hi, arr_lo + arr.shape[0])
    if src_hi > src_lo:
        out[src_lo - lo : src_hi - lo] = arr[src_lo - arr_lo : src_hi - arr_lo]
    return out


def _half_extension(
    q: np.ndarray,
    s: np.ndarray,
    reward: int,
    penalty: int,
    gap_open: int,
    gap_extend: int,
    x_drop: int,
    absolute_drop: bool,
    keep_traceback: bool,
) -> _HalfResult:
    """One-direction gapped x-drop DP from the implicit origin (0, 0)."""
    m = int(q.shape[0])
    n = int(s.shape[0])
    best_score = 0
    best_cell = (0, 0)

    # Maximum columns a single gap can stretch from a score-0 cell while the
    # row stays above the (initial) cutoff; bounds row widths.
    def gap_reach(from_score: int, cutoff: int) -> int:
        budget = from_score - cutoff - gap_open
        return max(0, budget // gap_extend) if budget >= 0 else -1

    cutoff = -x_drop
    # Row 0: H[0][j] = -(gap_open + gap_extend*j) for j >= 1. Column 0 (the
    # origin, score 0) always survives, even when x_drop is smaller than a
    # single gap open (reach0 < 0).
    reach0 = gap_reach(0, cutoff)
    hi = min(n, max(reach0, 0)) + 1  # columns [0, hi)
    lo = 0
    j0 = np.arange(hi, dtype=np.int64)
    h_prev = np.where(j0 == 0, np.int64(0), -(gap_open + gap_extend * j0))
    f_prev = np.full(hi, NEG_INF, dtype=np.int64)
    rows: List[Tuple[int, np.ndarray]] = [(lo, h_prev.copy())] if keep_traceback else []
    lo_prev, hi_prev = lo, hi

    for i in range(1, m + 1):
        if not absolute_drop:
            cutoff = best_score - x_drop
        # base (diag + vertical) is defined on columns [lo_prev, hi_prev + 1);
        # horizontal gaps can then push the row edge further right.
        base_hi = min(n + 1, hi_prev + 1)
        lo_i = lo_prev
        width = base_hi - lo_i
        if width <= 0:
            break

        h_up = _window(h_prev, lo_prev, lo_i, base_hi)  # H[i-1][j]
        f_up = _window(f_prev, lo_prev, lo_i, base_hi)  # F[i-1][j]
        h_diag = _window(h_prev, lo_prev, lo_i - 1, base_hi - 1)  # H[i-1][j-1]

        qc = q[i - 1]
        js = np.arange(lo_i, base_hi, dtype=np.int64)
        # Substitution scores for columns j >= 1 (s[j-1] aligned to q[i-1]).
        sub = np.full(width, NEG_INF, dtype=np.int64)
        valid_j = js >= 1
        if valid_j.any():
            s_idx = js[valid_j] - 1
            is_match = (s[s_idx] == qc) & (qc < 4) & (s[s_idx] < 4)
            sub[valid_j] = np.where(is_match, np.int64(reward), np.int64(penalty))

        diag = h_diag + sub
        f_cur = np.maximum(f_up - gap_extend, h_up - gap_open - gap_extend)
        base = np.maximum(diag, f_cur)

        # Extend the row to the right as far as a horizontal gap could stay
        # above the cutoff, then compute E by the telescoped cummax.
        base_max = int(base.max()) if width else NEG_INF
        extra = gap_reach(base_max, cutoff) if base_max > NEG_INF // 2 else -1
        hi_i = min(n + 1, max(base_hi, lo_i + width + max(extra, 0)))
        if hi_i > base_hi:
            pad = hi_i - base_hi
            base = np.concatenate([base, np.full(pad, NEG_INF, dtype=np.int64)])
            f_cur = np.concatenate([f_cur, np.full(pad, NEG_INF, dtype=np.int64)])
            js = np.arange(lo_i, hi_i, dtype=np.int64)
        # A[k] = base[k] + extend*k ; E[j] = cummax(A)[j-1] - open - extend*j
        a = base + gap_extend * js
        cummax_a = np.maximum.accumulate(a)
        e_cur = np.full(js.shape[0], NEG_INF, dtype=np.int64)
        if js.shape[0] > 1:
            e_cur[1:] = cummax_a[:-1] - gap_open - gap_extend * js[1:]
        h_cur = np.maximum(base, e_cur)

        row_best = int(h_cur.max())
        if row_best > best_score:
            best_score = row_best
            best_cell = (i, lo_i + int(h_cur.argmax()))
            if not absolute_drop:
                cutoff = best_score - x_drop

        alive = h_cur >= cutoff
        if not alive.any():
            if keep_traceback:
                rows.append((lo_i, h_cur))
            break
        first = int(np.argmax(alive))
        last = js.shape[0] - 1 - int(np.argmax(alive[::-1]))
        new_lo = lo_i + first
        new_hi = lo_i + last + 1
        h_prev = h_cur[first : last + 1]
        f_prev = f_cur[first : last + 1]
        if keep_traceback:
            rows.append((new_lo, h_prev.copy()))
        lo_prev, hi_prev = new_lo, new_hi

    bi, bj = best_cell
    path = None
    if keep_traceback:
        path = _traceback(rows, bi, bj, q, s, reward, penalty, gap_open, gap_extend)
    return _HalfResult(score=best_score, qi=bi, sj=bj, path=path)


def _cell(rows: List[Tuple[int, np.ndarray]], i: int, j: int) -> int:
    """Stored H[i][j], or NEG_INF when outside the surviving band."""
    if i < 0 or i >= len(rows) or j < 0:
        return int(NEG_INF)
    lo, arr = rows[i]
    if j < lo or j >= lo + arr.shape[0]:
        return int(NEG_INF)
    return int(arr[j - lo])


def _traceback(
    rows: List[Tuple[int, np.ndarray]],
    bi: int,
    bj: int,
    q: np.ndarray,
    s: np.ndarray,
    reward: int,
    penalty: int,
    gap_open: int,
    gap_extend: int,
) -> np.ndarray:
    """Reconstruct the op path from (0,0) to the best cell.

    Works from stored H rows alone: at each cell the predecessor is found by
    testing the three recurrence branches for exact equality (integer DP, so
    equality is exact). Vertical and horizontal gaps are located by scanning
    the telescoped chain — O(gap length), negligible against the forward DP.
    """
    ops: List[int] = []
    i, j = bi, bj
    while i > 0 or j > 0:
        h_ij = _cell(rows, i, j)
        if h_ij <= int(NEG_INF) // 2:  # pragma: no cover - defensive
            raise RuntimeError(f"traceback entered a dead cell at ({i}, {j})")
        if i > 0 and j > 0:
            qc, sc = q[i - 1], s[j - 1]
            sub = reward if (qc == sc and qc < 4 and sc < 4) else penalty
            if h_ij == _cell(rows, i - 1, j - 1) + sub:
                ops.append(OP_DIAG)
                i -= 1
                j -= 1
                continue
        moved = False
        for g in range(1, i + 1):  # vertical: gap in subject, consumes query
            prev = _cell(rows, i - g, j)
            if prev <= int(NEG_INF) // 2:
                continue
            if h_ij == prev - gap_open - gap_extend * g:
                ops.extend([OP_SGAP] * g)
                i -= g
                moved = True
                break
        if moved:
            continue
        for g in range(1, j + 1):  # horizontal: gap in query, consumes subject
            prev = _cell(rows, i, j - g)
            if prev <= int(NEG_INF) // 2:
                continue
            if h_ij == prev - gap_open - gap_extend * g:
                ops.extend([OP_QGAP] * g)
                j -= g
                moved = True
                break
        if not moved:  # pragma: no cover - would indicate a DP bug
            raise RuntimeError(f"no predecessor found for cell ({i}, {j})")
    return np.array(ops[::-1], dtype=np.uint8)


def _validate_affine(gap_open: int, gap_extend: int, x_drop: int) -> None:
    """Reject degenerate affine parameters with a typed error.

    ``gap_extend == 0`` used to reach ``gap_reach``'s ``budget // gap_extend``
    and die with a ``ZeroDivisionError`` deep inside the DP; negative costs
    would silently *reward* gaps. Both kernels assume a strictly positive
    extension cost, so fail fast at the API boundary instead.
    """
    if gap_extend <= 0:
        raise ValueError(f"gap_extend must be positive, got {gap_extend}")
    if gap_open < 0:
        raise ValueError(f"gap_open must be non-negative, got {gap_open}")
    if x_drop < 0:
        raise ValueError(f"x_drop must be non-negative, got {x_drop}")


def extend_gapped(
    q_codes: np.ndarray,
    s_codes: np.ndarray,
    anchor_q: int,
    anchor_s: int,
    reward: int,
    penalty: int,
    gap_open: int,
    gap_extend: int,
    x_drop: int,
    absolute_drop: bool = False,
    keep_traceback: bool = True,
    kernel: str = KERNELS[0],
) -> GappedExtension:
    """Gapped x-drop extension around the anchor pair (both directions).

    The right half aligns ``q[anchor_q:]`` with ``s[anchor_s:]``; the left
    half aligns the reversed prefixes; results are stitched at the anchor.
    The returned score is the sum of both halves (the anchor itself is a DP
    origin, not an aligned column, so nothing is double-counted).

    ``kernel`` selects the DP implementation (see module docstring):
    ``"band"`` (scalar narrow band, default) or ``"rowloop"`` (reference
    oracle). Both produce byte-identical results.
    """
    if not (0 <= anchor_q <= q_codes.shape[0] and 0 <= anchor_s <= s_codes.shape[0]):
        raise ValueError(
            f"anchor ({anchor_q}, {anchor_s}) outside sequences "
            f"({q_codes.shape[0]}, {s_codes.shape[0]})"
        )
    check_kernel(kernel)
    _validate_affine(gap_open, gap_extend, x_drop)
    scoring = (reward, penalty, gap_open, gap_extend, x_drop, absolute_drop, keep_traceback)
    if kernel == "band":
        # The band kernel walks the left half backwards in place.
        right = _band_half(q_codes, s_codes, anchor_q, anchor_s, 1, *scoring)
        left = _band_half(q_codes, s_codes, anchor_q, anchor_s, -1, *scoring)
    else:
        right = _half_extension(q_codes[anchor_q:], s_codes[anchor_s:], *scoring)
        # Materialize the reversed prefixes once: a negative-stride view would
        # force a hidden copy inside every windowing operation of the oracle.
        left = _half_extension(
            np.ascontiguousarray(q_codes[:anchor_q][::-1]),
            np.ascontiguousarray(s_codes[:anchor_s][::-1]),
            *scoring,
        )
    path = None
    if keep_traceback:
        assert left.path is not None and right.path is not None
        path = np.concatenate([left.path[::-1], right.path])
    return GappedExtension(
        score=left.score + right.score,
        q_start=anchor_q - left.qi,
        q_end=anchor_q + right.qi,
        s_start=anchor_s - left.sj,
        s_end=anchor_s + right.sj,
        path=path,
    )
