"""Inverse lookups: which coordinates produce a given value.

``rank_of`` inverts one sequence (fixed dimension and difference) by binary
search, relying on strict monotonicity in the rank.

``representations`` finds every coordinate triple in a box whose value
equals a target.  For a fixed dimension v and rank n the value is affine in
the difference, ``base(n) + d * slope(n)`` with base(n) = C(v+n-2, v-1) and
slope(n) = C(v+n-2, v), so each (v, n) cell is decided by one exact
division rather than a scan over d.  For v >= 2 neither base nor slope ever
decreases in n, so the rank walk stops at the first n where even the
smallest allowed d >= 1 overshoots: O(t^(1/2)) ranks at v = 2 and O(t^(1/v))
in general.  Past that rank only a d = 0 hit (base(n) == target) is still
possible, and base is strictly increasing there, so one binary search finds
it.  By default the box is clipped to the coordinate domain: ranks and
differences below ``COORD_LIMIT``.
"""

from __future__ import annotations

from typing import NamedTuple

from .kernel import COORD_LIMIT, IndexTriple, RangeError, _check, _closed, _exact_int, binomial


class RepresentationHit(NamedTuple):
    triple: IndexTriple
    value: int


def rank_of(value: int, v: int, d: int) -> int | None:
    """Rank n >= 1 with hypersolid(v, d, n) == value, or None if value is skipped.

    Defined only where the sequence is strictly increasing in the rank:
    v >= 2, or v == 1 with d >= 1.  ``value`` must be an int >= 1 (not bool).
    """
    v = _check("v", v)
    d = _check("d", d)
    if not (v >= 2 or (v == 1 and d >= 1)):
        raise RangeError(
            "rank lookup needs a strictly increasing sequence: v >= 2, or v == 1 with d >= 1"
        )
    value = _exact_int("value", value)
    if value < 1:
        raise RangeError(f"value must be >= 1, got {value}")
    lo, hi = 1, 2
    while _closed(v, d, hi) < value:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if _closed(v, d, mid) < value:
            lo = mid + 1
        else:
            hi = mid
    return lo if _closed(v, d, lo) == value else None


def representations(
    target: int,
    v_range: tuple[int, int] = (2, 8),
    d_range: tuple[int, int] | None = None,
    n_min: int = 3,
    n_max: int | None = None,
) -> list[RepresentationHit]:
    """Every triple in the box whose value equals ``target``, in (v, d, n) order.

    The box is v in ``v_range``, d in ``d_range`` (default
    [0, min(target, COORD_LIMIT - 1)]) and n from ``n_min`` (default 3, past
    the trivial rank-1/rank-2 hits) up to ``n_max`` (default
    COORD_LIMIT - 1).  Complete relative to the box: a triple is returned
    iff it lies inside and its value is exactly ``target``, which must be an
    int >= 1 (not bool).

    For v >= 2 the ranks are walked only while ``base + max(d_lo, 1) * slope``
    still fits under the target, where d_lo is the low end of the
    difference range; any later rank can only hit at d = 0, and a binary
    search over the remaining ranks finds the single rank with
    ``base == target``, if any.  So the work is about sqrt(2 * target) ranks
    at v = 2 and fewer in higher dimensions, not one per unit of the target.

    For v <= 1 the d = 0 value stops growing with the rank, so those
    dimensions admit arbitrarily large ranks and require an explicit
    ``n_max``; their ranks are walked one by one up to it.
    """
    target = _exact_int("target", target)
    if target < 1:
        raise RangeError(f"target must be >= 1, got {target}")
    v_lo, v_hi = v_range
    v_lo = _check("v_range low", v_lo)
    v_hi = _check("v_range high", v_hi)
    if v_lo > v_hi:
        raise RangeError(f"empty dimension range: {v_range}")
    if d_range is None:
        d_lo, d_hi = 0, min(target, COORD_LIMIT - 1)
    else:
        d_lo, d_hi = d_range
        d_lo = _check("d_range low", d_lo)
        d_hi = _check("d_range high", d_hi)
        if d_lo > d_hi:
            raise RangeError(f"bad difference range: ({d_lo}, {d_hi})")
    n_min = _check("n_min", n_min)
    if n_max is not None:
        n_max = _check("n_max", n_max)
    elif v_lo < 2:
        raise RangeError("v < 2 admits arbitrarily large ranks; pass an explicit n_max")
    else:
        n_max = COORD_LIMIT - 1
    d_step = max(d_lo, 1)  # smallest nonzero difference in the box

    hits: list[RepresentationHit] = []
    for v in range(v_lo, v_hi + 1):
        n = n_min
        while n <= n_max:
            base = binomial(v + n - 2, v - 1)  # value at d = 0
            slope = binomial(v + n - 2, v)  # increment per unit of d
            if v >= 2 and base + d_step * slope > target:
                break  # base and slope never shrink: no d >= 1 hit from here on
            if slope == 0:
                # rank 0 or 1: value is constant in d
                if base == target:
                    hits.extend(
                        RepresentationHit(IndexTriple(v, d, n), target)
                        for d in range(d_lo, d_hi + 1)
                    )
            else:
                d, leftover = divmod(target - base, slope)
                if leftover == 0 and d_lo <= d <= d_hi:
                    hits.append(RepresentationHit(IndexTriple(v, d, n), target))
            n += 1
        if v >= 2 and d_lo == 0 and n <= n_max:
            n = _first_rank_reaching(target, v, n, n_max)
            if n <= n_max and binomial(v + n - 2, v - 1) == target:
                hits.append(RepresentationHit(IndexTriple(v, 0, n), target))
    hits.sort(key=lambda hit: hit.triple)
    return hits


def _first_rank_reaching(target: int, v: int, lo: int, hi: int) -> int:
    """Least n in [lo, hi] with C(v+n-2, v-1) >= target, or hi + 1 if none.

    Needs v >= 2, where that d = 0 value never decreases in n.  The search
    window grows by doubling from ``lo``, so the probes stay near the answer
    instead of starting from the top of the rank range.
    """
    left, step = lo, 1
    while lo <= hi and binomial(v + lo - 2, v - 1) < target:
        left, lo, step = lo + 1, lo + step, 2 * step
    right = min(lo, hi + 1)  # the answer lies in [left, right]
    while left < right:
        mid = (left + right) // 2
        if binomial(v + mid - 2, v - 1) < target:
            left = mid + 1
        else:
            right = mid
    return left


def sequence_slice(v: int, d: int, n_from: int, n_to: int) -> list[int]:
    """Values at ranks n_from..n_to (inclusive) of one sequence."""
    v = _check("v", v)
    d = _check("d", d)
    n_from = _check("n_from", n_from)
    n_to = _check("n_to", n_to)
    if n_from > n_to:
        raise RangeError(f"empty rank range: [{n_from}, {n_to}]")
    return [_closed(v, d, n) for n in range(n_from, n_to + 1)]
