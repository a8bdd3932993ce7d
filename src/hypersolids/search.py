"""Inverse lookups: which coordinates produce a given value.

``rank_of`` inverts one sequence (fixed dimension and difference) by the one
rank search here, ``_least_rank``: fixed probe ranks, then bisection below
the first that reaches the value.

``representations`` finds every coordinate triple in a box whose value
equals a target.  For a fixed dimension v and rank n the value is affine in
the difference, ``base(n) + d * slope(n)`` with base(n) = C(v+n-2, v-1) and
slope(n) = C(v+n-2, v), so each (v, n) cell is decided by one exact
division rather than a scan over d.  For v >= 2 neither base nor slope ever
decreases in n, so the rank walk ends at the first n where even the
smallest allowed d >= 1 overshoots, which the rank search finds before the
walk starts: O(t^(1/2)) ranks at v = 2 and O(t^(1/v)) in general.  From
there only a d = 0 hit (base(n) == target) is possible, and base is strictly
increasing, so the same search finds its one candidate rank.  The
dimension loop ends at the first v where S(v, d_lo, min(max(n_min, 2), 3)),
a lower bound on every cell of rank >= 2 in the box, exceeds the target.
By default the box is clipped to the coordinate domain: ranks and
differences below ``COORD_LIMIT``.
"""

from __future__ import annotations

from typing import NamedTuple

from .kernel import (
    COORD_LIMIT, IndexTriple, RangeError, _check, _closed, _exact_int, _sequence, binomial,
)


class RepresentationHit(NamedTuple):
    triple: IndexTriple
    value: int


#: Upper ends tried by ``_least_rank`` before it bisects: doubling from 2, then
#: the last rank of the coordinate domain.
_RANK_PROBES = (*(2**k for k in range(1, 32)), COORD_LIMIT - 1)


def rank_of(value: int, v: int, d: int) -> int | None:
    """Rank n >= 1 with hypersolid(v, d, n) == value, or None if value is skipped.

    Defined only where the sequence is strictly increasing in the rank:
    v >= 2, or v == 1 with d >= 1.  ``value`` must be an int >= 1 (not bool).
    Ranks stay inside the coordinate domain: when even rank
    ``COORD_LIMIT - 1`` falls short of ``value``, the answer is None.
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
    n = _least_rank(v, d, value)
    return n if n < COORD_LIMIT and _closed(v, d, n) == value else None


def _least_rank(v: int, d: int, value: int) -> int:
    """Least rank n >= 1 with S(v, d, n) >= value, or COORD_LIMIT if none.

    Needs v >= 1, where S(v, d, n) never decreases from rank 1 on.
    """
    for hi in _RANK_PROBES:
        if _closed(v, d, hi) >= value:
            break
    else:
        return COORD_LIMIT
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _closed(v, d, mid) < value:
            lo = mid + 1
        else:
            hi = mid
    return lo


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
    difference range; any later rank can only hit at d = 0.  The rank search
    behind ``rank_of`` finds the end of the walk and the single rank with
    ``base == target``, if any.  So the work is about sqrt(2 * target) ranks
    at v = 2 and fewer in higher dimensions, not one per unit of the target.

    For v <= 1 the d = 0 value stops growing with the rank, so those
    dimensions admit arbitrarily large ranks and require an explicit
    ``n_max``; their ranks are walked one by one up to it.

    The dimension loop stops at the first v where S(v, d_lo, n_low)
    exceeds the target, with n_low = min(max(n_min, 2), 3): S never
    decreases in v, d or n from rank 1 on, ranks 0 and 1 hold only 0 and
    1, and every other rank of the box is at least n_low.  Rank 3 caps the
    test so that it costs one small binomial however large n_min is.  So
    a wide dimension range costs only the dimensions that can still hit:
    about sqrt(2 * target) of them at the default ``n_min`` of 3.  Only a
    target of 1 with rank 1 in the box walks every dimension, and it has a
    hit in each.
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
    # ranks 0 and 1 hold only 0 and 1; every other cell of the box is at
    # least S(v, d_lo, n_low), which never decreases in v.  Any rank from 2
    # to max(n_min, 2) bounds it; rank 3 keeps the binomial small.
    n_low = min(max(n_min, 2), 3)
    bounded = target > 1 or n_min >= 2

    hits: list[RepresentationHit] = []
    for v in range(v_lo, v_hi + 1):
        if bounded and _closed(v, d_lo, n_low) > target:
            break  # this and every later dimension overshoot
        stop = n_max + 1
        if v >= 2:
            # base and slope never shrink: from the first rank where even
            # base + d_step * slope overshoots, only a d = 0 hit is left
            stop = min(max(_least_rank(v, d_step, target + 1), n_min), stop)
            if d_lo == 0:
                n = _least_rank(v, 0, target)
                if stop <= n <= n_max and _closed(v, 0, n) == target:
                    hits.append(RepresentationHit(IndexTriple(v, 0, n), target))
        for n in range(n_min, stop):
            base = binomial(v + n - 2, v - 1)  # value at d = 0
            slope = binomial(v + n - 2, v)  # increment per unit of d
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
    hits.sort(key=lambda hit: hit.triple)
    return hits


def sequence_slice(v: int, d: int, n_from: int, n_to: int) -> list[int]:
    """Values at ranks n_from..n_to (inclusive) of one sequence.

    The slice is one Pascal column times an arithmetic progression, built
    by ``kernel._sequence`` as ``math.comb`` maps with no Python call per
    rank.  That helper decides the binomial route once for the whole slice:
    only v > ``_PRIME_ROUTE_SIDE`` evaluates rank by rank, so that big
    balanced cells still take the prime-power binomial.
    """
    v = _check("v", v)
    d = _check("d", d)
    n_from = _check("n_from", n_from)
    n_to = _check("n_to", n_to)
    if n_from > n_to:
        raise RangeError(f"empty rank range: [{n_from}, {n_to}]")
    return _sequence(v, d, n_from, n_to)
