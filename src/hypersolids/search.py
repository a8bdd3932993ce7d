"""Inverse lookups: which coordinates produce a given value.

``rank_of`` inverts one sequence (fixed dimension and difference) by the one
rank search here, ``_least_rank``: a floating-point guess from the closed
form, then galloping and bisection over exact values.

``representations`` finds every coordinate triple in a box whose value
equals a target t, and splits its work by rank.  The hits of rank <= 2 or
of dimension 0, the only ones whose number can be as large as the box,
come in closed form from ``_box_hits``; the rank checks find the rest, all
of them with v >= 1 and rank >= 3.  For a fixed dimension v >= 1 and rank
n the value is affine in the difference, ``base(n) + d * slope(n)`` with
base(n) = C(v+n-2, v-1) and slope(n) = C(v+n-2, v), so each (v, n) cell is
decided by one exact division rather than a scan over d.  The value never
decreases in n or d, so each dimension has one range of ranks that can
hit.  For v >= 2 it ends at the least rank where S(v, d_lo, n) reaches t,
which the rank search finds.  Up to it, the closed form
S = C(v+n-2, v-1) * (v + d(n-1)) / v gives

    v! * S(v, d, n) = n (n+1) ... (n+v-2) * (v + d(n-1)),

so the rank of every hit divides v! * t; at v = 2 this is the polygonal
test n(2 + (n-1)d) = 2t.  At v = 1, S(1, d, n) = 1 + d(n - 1) has base 1
and slope n - 1, so a target t > 1 hits exactly where n - 1 divides t - 1,
and the difference range bounds the ranks from both sides.  These checks
cover d >= 1; S(v, 0, n) strictly increases in n for v >= 2, so a d = 0
hit can sit only at the least rank where it reaches t, which is checked
on its own.  A dimension with few ranks checks each of them, and one with
more only those the divisors of v! * t (or of t - 1) allow;
``_primes.factor`` factors each such number at most once per call.  The
work is the factoring plus a few divisors per dimension, where a walk over
the ranks takes about sqrt(2t) of them at v = 2.  Factoring has one work
budget, ``_primes.FACTOR_BUDGET``; past it a dimension walks its ranks if
they fit the same budget, and otherwise ``RangeError`` is raised.  The
dimension loop ends at the first v where S(v, d_lo, 3), a lower bound on
every cell of rank >= 3 in the box, exceeds the target, so it visits about
sqrt(2t) dimensions whatever the box's ranks; it is skipped when the box
holds no rank >= 3.  At t = 10 a dimension range up to COORD_LIMIT - 1
stops at v = 5; at t = 10**12 it still visits about 1.4 * 10**6
dimensions.  With rank 2 in the box, t = 10**5 has 100,008 hits, those of
rank 2 in closed form, and its rank checks still visit about sqrt(2t)
dimensions.
By default the box is clipped to the coordinate domain: ranks and
differences below ``COORD_LIMIT``.
"""

from __future__ import annotations

import math
from math import comb
from typing import Iterable, Iterator, NamedTuple

from .kernel import COORD_LIMIT, IndexTriple, RangeError, _check, _closed, _exact_int


class RepresentationHit(NamedTuple):
    triple: IndexTriple
    value: int


#: A dimension with at most this many ranks to search checks each of them
#: (its checks stop well before the last); one with more checks only the
#: divisors of v! * t among them (at v = 1, one past each divisor of t - 1).
#: On targets from 1e4 to 1e9, 128 to 512 cost the same within noise; 32
#: cost about 13 % more, and 1024 about 10 % more on the targets past 1e6.
_DIRECT_RANKS = 256


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

    Needs v >= 1, where S(v, d, n) never decreases from rank 1 on (and
    S(v, d, 0) = 0), and value >= 1.  The search gallops from
    ``_rank_guess`` to a bracket and bisects it, so a guess k ranks off
    costs about 2 log2(k) evaluations, and no guess costs more than
    bisecting the whole domain twice.
    """
    top = COORD_LIMIT - 1
    n = _rank_guess(v, d, value)
    step = 1
    if _closed(v, d, n) >= value:  # S(lo) < value <= S(hi) from here on
        hi = n
        while True:
            lo = max(hi - step, 0)
            if lo == 0 or _closed(v, d, lo) < value:
                break
            hi, step = lo, 2 * step
    else:
        lo = n
        while True:
            if lo == top:
                return COORD_LIMIT
            hi = min(lo + step, top)
            if _closed(v, d, hi) >= value:
                break
            lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _closed(v, d, mid) < value:
            lo = mid
        else:
            hi = mid
    return hi


def _rank_guess(v: int, d: int, value: int) -> int:
    """A rank in [1, COORD_LIMIT - 1] near the least n with S(v, d, n) >= value.

    S(v, d, n) = C(n+v-2, v-1) * (v + d(n-1)) / v is at least each of its
    two terms, C(n+v-2, v-1) and about d * C(n+v-2, v), and C(n+v-2, k)
    is about (n + (v-2)/2)**k / k!.  Setting either term to the value gives
    a rank at or past the answer, up to that approximation; the guess is
    the smaller of the two.
    """
    log_value, shift = math.log(value), (v - 2) / 2
    guess = COORD_LIMIT - 1.0
    if v > 1:  # C(n+v-2, v-1) = value
        guess = min(guess, math.exp(min((log_value + math.lgamma(v)) / (v - 1), 23.0)) - shift)
    if d:  # d * C(n+v-2, v) = value
        log_rank = (log_value + math.lgamma(v + 1) - math.log(d)) / v
        guess = min(guess, math.exp(min(log_rank, 23.0)) - shift)
    return max(int(guess), 1)


def _rank_hits(
    v: int, ranks: Iterable[int], target: int, d_lo: int, d_hi: int
) -> Iterator[RepresentationHit]:
    """The hits (v, d, n) with n in ``ranks`` (ascending, each >= 3) and d >= 1.

    Needs v >= 1, and checks d in [max(d_lo, 1), d_hi]: at most one hit per
    rank, found by one exact division.  From the first rank where even
    d = max(d_lo, 1) overshoots, no later rank can hit, so the checks stop
    there.  The caller checks d = 0 itself: at v >= 2 S(v, 0, n) strictly
    increases in n, so only one rank can hold a d = 0 hit.
    """
    d_step = max(d_lo, 1)
    for n in ranks:
        base = comb(v + n - 2, v - 1)  # value at d = 0
        slope = base * (n - 1) // v  # C(v+n-2, v), the increment per unit of d
        d, leftover = divmod(target - base, slope)
        if d < d_step:
            return
        if leftover == 0 and d <= d_hi:
            yield RepresentationHit(IndexTriple(v, d, n), target)


def _candidate_ranks(
    v: int, target: int, d_lo: int, lo: int, top: int,
    factored: dict[int, dict[int, int] | None],
) -> Iterable[int]:
    """The ranks of lo..top that dimension v >= 1 checks for hits, ascending.

    A range of at most ``_DIRECT_RANKS`` ranks is checked whole.  A longer
    one keeps only the ranks the divisor test allows: the divisors of
    v! * t for v >= 2, and one past the divisors of t - 1 at v = 1.  Each
    number is factored once per search: ``factored`` maps it to its primes,
    or to None when factoring costs more than ``_primes.FACTOR_BUDGET``.
    Then the whole range is walked if the walk fits the same budget, and
    otherwise ``RangeError`` is raised.  The walk ends at the first rank
    where even d = max(d_lo, 1) overshoots (see ``_rank_hits``), about
    sqrt(2 * target) ranks at v = 2.
    """
    ranks = range(lo, top + 1)
    if len(ranks) <= _DIRECT_RANKS:
        return ranks
    from ._primes import FACTOR_BUDGET, factor, factorial_divisors

    shift = 1 if v == 1 else 0  # at v = 1, n - 1 divides t - 1
    number = target - shift
    if number not in factored:
        factored[number] = factor(number)
    primes = factored[number]
    if primes is not None:
        divisors = factorial_divisors(v, primes, lo - shift, top - shift)
        return [q + 1 for q in divisors] if shift else divisors
    stop = min(_least_rank(v, max(d_lo, 1), target + 1), top + 1)
    if stop - lo > FACTOR_BUDGET:
        raise RangeError(
            f"the target ({target.bit_length()} bits) does not factor within "
            f"{FACTOR_BUDGET} steps, and walking dimension {v} instead would take "
            f"{stop - lo} ranks"
        )
    return ranks


def _box_hits(
    v_lo: int, v_hi: int, n_min: int, n_max: int, target: int, d_lo: int, d_hi: int
) -> Iterator[RepresentationHit]:
    """The hits of rank <= 2 and of dimension 0, in closed form.

    S(0, d, n) = d for n >= 2 and 0 below, so at v = 0 the target hits every
    rank >= 2 when it lies in [d_lo, d_hi], and nothing otherwise.  At rank
    2, S(v, d, 2) = v + d for v >= 1, so the target hits (v, t - v, 2) for
    every v with t - v inside the difference range.  Rank 1 holds 1 in
    every dimension v >= 1, and S(1, 0, n) = 1 at every rank n >= 1; no
    other cell with v >= 1 holds 1, since rank 0 holds 0 and
    S(v, d, n) >= v + d from rank 2 on.  So a target of 1 also hits rank 1
    of every dimension v >= 1 with every difference, and d = 0 of
    dimension 1 at every rank >= 3.  The number of these hits can be as
    large as the box; every other hit is found by the rank checks.
    """
    ranks = range(max(n_min, 2), n_max + 1)
    if v_lo == 0 and d_lo <= target <= d_hi:
        yield from (RepresentationHit(IndexTriple(0, target, n), target) for n in ranks)
    if n_min <= 2 <= n_max:
        yield from (RepresentationHit(IndexTriple(v, target - v, 2), target)
                    for v in range(max(v_lo, 1, target - d_hi), min(v_hi, target - d_lo) + 1))
    if target > 1:
        return
    if n_min <= 1 <= n_max:
        yield from (RepresentationHit(IndexTriple(v, d, 1), 1)
                    for v in range(max(v_lo, 1), v_hi + 1) for d in range(d_lo, d_hi + 1))
    if v_lo <= 1 <= v_hi and d_lo == 0:
        yield from (RepresentationHit(IndexTriple(1, 0, n), 1)
                    for n in range(max(n_min, 3), n_max + 1))


def _range_of(name: str, pair: object) -> tuple[int, int]:
    """``pair`` as (low, high) coordinates, else RangeError."""
    try:
        lo, hi = pair  # type: ignore[misc]
    except (TypeError, ValueError):
        raise RangeError(f"{name} must be a (low, high) pair, got {pair!r}") from None
    return _check(f"{name} low", lo), _check(f"{name} high", hi)


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
    int >= 1 (not bool).  An empty range, of dimensions, differences or
    ranks, raises ``RangeError``.

    Below dimension 2 the d = 0 value stops growing with the rank, so a box
    with v <= 1 admits arbitrarily large ranks and needs an explicit
    ``n_max``.  The target is factored within ``_primes.FACTOR_BUDGET``;
    past it a dimension walks its ranks if the walk fits the same budget,
    and otherwise ``RangeError`` is raised.  The module docstring says how
    the hits are found.
    """
    target = _exact_int("target", target)
    if target < 1:
        raise RangeError(f"target must be >= 1, got {target}")
    v_lo, v_hi = _range_of("v_range", v_range)
    if v_lo > v_hi:
        raise RangeError(f"empty dimension range: {v_range}")
    if d_range is None:
        d_lo, d_hi = 0, min(target, COORD_LIMIT - 1)
    else:
        d_lo, d_hi = _range_of("d_range", d_range)
        if d_lo > d_hi:
            raise RangeError(f"bad difference range: ({d_lo}, {d_hi})")
    n_min = _check("n_min", n_min)
    if n_max is not None:
        n_max = _check("n_max", n_max)
    elif v_lo < 2:
        raise RangeError("v < 2 admits arbitrarily large ranks; pass an explicit n_max")
    else:
        n_max = COORD_LIMIT - 1
    if n_min > n_max:
        raise RangeError(f"empty rank range: ({n_min}, {n_max})")
    hits = list(_box_hits(v_lo, v_hi, n_min, n_max, target, d_lo, d_hi))
    # every hit of rank <= 2 is box-sized; from rank 3 on every cell of
    # dimension v >= 1 is at least S(v, d_lo, 3), which never decreases in v
    factored: dict[int, dict[int, int] | None] = {}  # see _candidate_ranks
    for v in range(max(v_lo, 1), v_hi + 1) if n_max >= 3 else ():
        if _closed(v, d_lo, 3) > target:
            break  # this and every later dimension overshoot
        if v >= 2:
            # S never decreases in n or d: past the least rank where
            # S(v, d_lo, n) reaches the target, every cell overshoots
            lo, top = max(n_min, 3), min(_least_rank(v, d_lo, target), n_max)
            # S(v, 0, n) strictly increases in n, so d = 0 can hit only at top
            if d_lo == 0 and lo <= top and _closed(v, 0, top) == target:
                hits.append(RepresentationHit(IndexTriple(v, 0, top), target))
        elif d_hi:
            # 1 + d(n - 1) = target needs d_lo <= (target - 1) / (n - 1) <= d_hi
            lo = max(n_min, 3, 1 - (1 - target) // d_hi)
            top = min(n_max, 1 + (target - 1) // max(d_lo, 1))
        else:
            continue  # every cell of the box is 1
        ranks = _candidate_ranks(v, target, d_lo, lo, top, factored)
        hits += _rank_hits(v, ranks, target, d_lo, d_hi)
    hits.sort(key=lambda hit: hit.triple)
    return hits
