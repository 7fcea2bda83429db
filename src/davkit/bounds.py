"""Closed-form bounds and exact formulas for Davenport constants, and the
structural bound ``length_bound`` that sizes the search depth.

Every report carries machine-readable provenance tags naming the result
that licensed each bound, so downstream output can state *why* a number
is true without re-deriving it.  All arithmetic is exact: the box bound's
floor of 2 (d + 1/d - 1) m is taken in integers, and the logarithm in the
group bound is bracketed between rationals until its floor is certain.
``fractions`` is imported only on that path.
"""

from __future__ import annotations

import math
from collections import Counter
from math import gcd

from .core import (
    DEFAULT_BITS_CAP,
    Box,
    Element,
    Explicit,
    GroundSet,
    GroupProduct,
    GroupSpec,
    GuardExceededError,
    Interval,
    ValidationError,
    record,
    resolve_guard,
)


@record(frozen=True)
class BoundReport:
    """A proven bracket [lower, upper], exact when lower == upper.
    GuardExceededError when upper has more bits than the bits guard
    allows, so that every bracket within the default guard prints (see
    ``core.DEFAULT_BITS_CAP``)."""

    lower: int
    upper: int
    provenance: tuple[str, ...]

    def __init__(self, lower: int, upper: int, provenance: tuple[str, ...]):
        bits, cap = upper.bit_length(), resolve_guard(DEFAULT_BITS_CAP)
        if bits > cap:
            raise GuardExceededError(f"a bound of {bits} bits is above the guard of {cap}")
        if lower > upper:
            raise ValidationError(f"lower {lower} exceeds upper {upper}")
        if not provenance:
            raise ValidationError("provenance must be nonempty")
        self.__dict__.update(lower=lower, upper=upper, provenance=provenance)

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> int | None:
        return self.lower if self.exact else None


def _delta(m: int) -> int:
    """1 for m == 1 else 0; bumps the hypercube lower bound because the
    smallest symmetric interval already admits the length-2 atom."""
    return 1 if m == 1 else 0


def chi(values) -> int:
    """Largest (|x|+|y|)/gcd(x,y) over opposite-sign pairs of a 1-d set.

    This is the length of the longest two-support atom inside the set,
    hence a lower bound for its Davenport constant.
    """
    vals = sorted(set(int(v) for v in values))
    pos = [v for v in vals if v > 0]
    neg = [v for v in vals if v < 0]
    if not pos or not neg:
        raise ValidationError("chi needs both positive and negative elements")
    best = 0
    for x in neg:
        for y in pos:
            best = max(best, (-x + y) // gcd(x, y))
    return best


def diam(values) -> int:
    vals = [int(v) for v in values]
    if not vals:
        raise ValidationError("diameter of an empty set")
    return max(vals) - min(vals)


def interval_davenport(m: int, M: int) -> BoundReport:
    """Davenport constant of [-m, M] (m, M >= 1): exact for coprime pairs
    (m + M) and symmetric intervals (2m - 1, or 2 at m = 1); otherwise the
    bracket [chi, m + M - 1] - length m + M is impossible for non-coprime
    pairs, so the trivial upper bound improves by one.
    """
    if m < 1 or M < 1:
        raise ValidationError("interval parameters must be >= 1")
    if gcd(m, M) == 1:
        return BoundReport(m + M, m + M, ("interval-coprime-exact",))
    if m == M:
        value = 2 * m - 1 if m >= 2 else 2
        return BoundReport(value, value, ("symmetric-interval-exact",))
    lower = chi(range(-m, M + 1))
    upper = m + M - 1
    return BoundReport(lower, upper, ("chi-pair-lower", "max-length-noncoprime-excluded"))


def box_upper(ms) -> int:
    """Rearrangement bound for a symmetric box with half-widths ms:
    the product over axes of (floor(2 (d + 1/d - 1) m_i) + 1), i.e. the
    lattice-point count of the dilated box every prefix sum can be steered
    into.  GuardExceededError when the factors have more bits together
    than the guard allows: the bound grows like (2d)^d."""
    ms = Counter(int(m) for m in ms)
    d = ms.total()
    if d < 1 or min(ms) < 1:
        raise ValidationError("box half-widths must be >= 1")
    # floor(2 (d + 1/d - 1) m) = floor(2 m (d^2 - d + 1) / d)
    factors = {m: 2 * m * (d * d - d + 1) // d + 1 for m in ms}
    bits = sum(factors[m].bit_length() * c for m, c in ms.items())
    cap = resolve_guard(DEFAULT_BITS_CAP)
    if bits > cap:
        raise GuardExceededError(
            f"the bound of a {d}-axis box needs up to {bits} bits, above the guard of {cap}"
        )
    return math.prod(factors[m] ** c for m, c in ms.items())


def square_upper(m1: int, m2: int) -> int:
    """Two-dimensional refinement: prefix sums of a zero-sum family in the
    unit sup-norm ball can be kept inside a 1 x 2 rectangle, giving
    (2a+1)(4b+1) lattice points; take the better axis assignment."""
    if m1 < 1 or m2 < 1:
        raise ValidationError("box half-widths must be >= 1")
    return min((2 * m1 + 1) * (4 * m2 + 1), (2 * m2 + 1) * (4 * m1 + 1))


def hypercube_bounds(m: int, d: int) -> BoundReport:
    """Bracket for the symmetric hypercube [-m, m]^d."""
    if m < 1 or d < 1:
        raise ValidationError("hypercube parameters must be >= 1")
    if d == 1:
        return interval_davenport(m, m)
    if d == 2 and m == 1:
        return BoundReport(4, 4, ("unit-square-exact",))
    if d == 2:
        upper = square_upper(m, m)
        tags = ("hypercube-construction-lower", "rectangle-reorder-upper")
    else:
        # first: its guard also covers the smaller lower bound
        upper = box_upper([m] * d)
        tags = ("hypercube-construction-lower", "steinitz-box-upper")
    lower = (2 * m - 1 + _delta(m)) ** d
    return BoundReport(lower, upper, tags)


def _ln_bracket(x: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= ln x <= hi for rational x >= 1.

    Writes x = 2^k r with 1 <= r < 2 and sums ``terms`` terms of
    ln y = 2 atanh((y-1)/(y+1)) = 2 sum t^(2i+1)/(2i+1) for y = 2 and
    y = r.  The terms are positive, so a partial sum is a lower bound,
    and the tail is at most 2 t^(2n+1) / ((2n+1)(1 - t^2)).
    """
    from fractions import Fraction

    k = 0
    while x >= 2:
        x /= 2
        k += 1

    def ln(y: Fraction) -> tuple[Fraction, Fraction]:
        t = (y - 1) / (y + 1)
        lo = 2 * sum(t ** (2 * i + 1) / (2 * i + 1) for i in range(terms))
        tail = 2 * t ** (2 * terms + 1) / ((2 * terms + 1) * (1 - t * t))
        return lo, lo + tail

    lo2, hi2 = ln(Fraction(2))
    lor, hir = ln(x)
    return k * lo2 + lor, k * hi2 + hir


def log_upper(order: int, exponent: int) -> int:
    """floor((1 + ln(order / exponent)) exponent) for order > exponent, in
    exact arithmetic.

    The bracket on the logarithm is refined until the floors of its two
    ends agree.  This ends because the logarithm of a rational q > 1 is
    irrational, so exponent * ln q is not an integer.
    """
    from fractions import Fraction  # here only: no other bound needs it

    q = Fraction(order, exponent)
    terms = 4
    while True:
        lo, hi = _ln_bracket(q, terms)
        floor_lo = math.floor(exponent * lo)
        if floor_lo == math.floor(exponent * hi):
            return exponent + floor_lo
        terms *= 2


def group_davenport(G: GroupSpec) -> BoundReport:
    """Davenport constant of a finite abelian group from its invariant
    factors: exact for cyclic groups (the order), for rank <= 2 and for
    p-groups (1 + sum of (n_i - 1)); otherwise bracketed by that sum and
    the logarithmic bound (1 + ln(|G|/exp G)) exp G."""
    lower = 1 + sum(n - 1 for n in G.factors)
    if G.is_cyclic:
        return BoundReport(G.order, G.order, ("group-cyclic-exact",))
    if G.rank <= 2:
        return BoundReport(lower, lower, ("group-rank-two-exact",))
    if G.is_p_group:
        return BoundReport(lower, lower, ("group-p-group-exact",))
    upper = log_upper(G.order, G.exponent)
    return BoundReport(lower, upper, ("group-factor-sum-lower", "group-log-upper"))


# {0}, the set that a slice down to the zero element leaves: its one atom is 0
_ZERO = Interval(0, 0)


def _symmetric_cube_shape(ground: GroundSet) -> tuple[int, int] | None:
    """(m, d) when the set is [-m, m]^d, else None."""
    if isinstance(ground, Box):
        ivs = ground.intervals
        m = ivs[0][1]
        if all(iv == (-m, m) for iv in ivs) and m >= 1:
            return m, len(ivs)
    return None


def zero_slice(ground: GroundSet) -> GroundSet | None:
    """The part of ``ground`` that atoms can use, with its single-signed
    axes dropped; None when no atom exists.

    On an axis where no coordinate is negative, or none is positive, a
    zero sum uses only elements that are 0 there, so every atom lies in
    that slice; an identically zero axis is the case where the slice is
    the whole set.  Dropping the axis then maps atoms to atoms of the same
    length, one to one, so the result shares every Davenport bound with
    ``ground``.  A box needs one pass.  An explicit set is sliced again
    until no axis has a single sign, because a slice can leave a new axis
    single-signed.  A slice down to the zero element is {0}, returned as
    the interval [0,0]; G x X slices its base.
    """
    if isinstance(ground, GroupProduct):
        base = zero_slice(ground.base)
        return None if base is None else GroupProduct(ground.group, base)
    if isinstance(ground, Box):
        if any(lo > 0 or hi < 0 for lo, hi in ground.intervals):
            return None
        keep = tuple((lo, hi) for lo, hi in ground.intervals if lo < 0 < hi)
        return Box(keep) if keep else _ZERO
    if isinstance(ground, Explicit):
        points = [e.coords for e in ground.elements]
        while points[0]:
            axis = next((c for c in range(len(points[0]))
                         if min(p[c] for p in points) >= 0 or max(p[c] for p in points) <= 0), None)
            if axis is None:
                return Explicit(tuple(Element(p) for p in points))
            points = [p[:axis] + p[axis + 1:] for p in points if p[axis] == 0]
            if not points:
                return None
        return _ZERO
    return ground


def _half_widths(ground: Box | Explicit) -> list[int]:
    """Per-axis max |coordinate|: the tightest enclosing symmetric box."""
    if isinstance(ground, Box):
        return [max(abs(lo), abs(hi)) for lo, hi in ground.intervals]
    return [max(abs(e.coords[c]) for e in ground.elements) for c in range(ground.dim)]


def _line_values(ground: Box | Explicit):
    """The values of a one-dimensional set, in increasing order, else None."""
    if ground.dim != 1:
        return None
    if isinstance(ground, Box):
        lo, hi = ground.intervals[0]
        return range(lo, hi + 1)
    return [e.coords[0] for e in ground.elements]


def length_bound(ground: GroundSet) -> int:
    """A proven upper bound on the length of any atom over ``ground``: the
    structural bound that sizes the search depth.

    The set is first reduced to its ``zero_slice``: 0 when no atom
    exists, 1 for {0}.  Otherwise dimension 1 uses the diameter; higher
    dimensions use the rearrangement-based product bound over the tightest
    enclosing symmetric box; group products multiply the group bound by
    the base bound.
    """
    ground = zero_slice(ground)
    return 0 if ground is None else _structural(ground)


def _structural(ground: GroundSet) -> int:
    """``length_bound`` of a set that ``zero_slice`` returned."""
    if isinstance(ground, GroupProduct):
        return group_davenport(ground.group).upper * _structural(ground.base)
    if ground == _ZERO:
        return 1
    if (vals := _line_values(ground)) is not None:
        return vals[-1] - vals[0]  # the diameter
    return box_upper(_half_widths(ground))


def ground_bounds(ground: GroundSet) -> BoundReport:
    """Best closed-form bracket for a ground set, by shape.  Where no
    closed form applies, the upper bound is ``length_bound``; it is never
    above it."""
    ground = zero_slice(ground)
    if ground is None:
        return BoundReport(0, 0, ("single-sign-no-atoms",))
    if isinstance(ground, GroupProduct):
        return product_bounds(ground.group, ground.base)
    if ground == _ZERO:
        return BoundReport(1, 1, ("zero-only-atom",))
    if isinstance(ground, Box) and ground.dim == 1:
        (lo, hi), = ground.intervals
        return interval_davenport(-lo, hi)
    shape = _symmetric_cube_shape(ground)
    if shape is not None:
        return hypercube_bounds(*shape)
    if (vals := _line_values(ground)) is not None:
        lower, upper = chi(vals), _structural(ground)
        return BoundReport(lower, upper, ("chi-pair-lower", "diameter-upper"))
    if ground.dim == 2:  # every subset of the enclosing box
        return BoundReport(0, square_upper(*_half_widths(ground)), ("rectangle-reorder-upper",))
    return BoundReport(0, _structural(ground), ("steinitz-box-upper",))


def product_bounds(G: GroupSpec, X: GroundSet) -> BoundReport:
    """Bracket for G x X: the product of the group and set bounds from
    above (submultiplicativity), and for cyclic G over a symmetric
    hypercube the matching construction from below; the two meet in
    dimension one."""
    if isinstance(X, GroupProduct):
        raise ValidationError("group products do not nest")
    gb = group_davenport(G)
    xb = ground_bounds(X)
    upper = gb.upper * xb.upper
    tags = ["product-upper"]
    lower = 0
    shape = _symmetric_cube_shape(X)
    if shape is not None and G.is_cyclic:
        m, d = shape
        lower = gb.lower * (2 * m - 1 + _delta(m)) ** d
        tags.append("cyclic-product-cube-lower")
        if lower == upper:
            tags.append("cyclic-interval-product-exact")
    return BoundReport(lower, upper, tuple(tags))
