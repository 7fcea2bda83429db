"""Generators for the extremal minimal zero-sum sequences.

Each builder returns the sequence in canonical form and, at desk scale
(length <= CERTIFY_LENGTH_CAP), re-certifies minimality through the
zero-sum module; a failed certificate raises ConsistencyError because it
would contradict a proved statement.  Above the cap the construction
itself is the certificate and the caller can see that via
``is_certifiable``.

The families:

  * ``two_element_atom``   - the unique atom over {x, y} with xy < 0:
                             x^(|y|/g) * y^(|x|/g), g = gcd(x, y);
  * ``interval_max_atom``  - the unique longest atom of [-m, M] for
                             coprime m, M: M^m * (-m)^M;
  * ``hypercube_atom``     - the recursive extremal sequence over
                             [-m, m]^d of length (2m-1)^d for m >= 2
                             (a cube atom lifted one axis at a time), and
                             the basis-like family of length 2^d at m = 1;
  * ``group_box_atom``     - the length n*(2m-1+delta)^d atom over
                             C_n x [-m, m]^d obtained by attaching
                             multiples of a generator, with weights from a
                             Bezout relation over the multiplicities.
"""

from __future__ import annotations

import itertools
from math import gcd

from .core import (
    ConsistencyError,
    DEFAULT_SCAN_CAP,
    Element,
    GroupSpec,
    GuardExceededError,
    MixedElement,
    Sequence,
    ValidationError,
    record,
    resolve_guard,
)
from .zerosum import certified

#: Above this length, constructions are returned uncertified.
CERTIFY_LENGTH_CAP = 200


def is_certifiable(s: Sequence) -> bool:
    return s.length <= CERTIFY_LENGTH_CAP


def _certify(s: Sequence, what: str, certify: bool) -> Sequence:
    return certified(s, what) if certify and is_certifiable(s) else s


def two_element_atom(x: int, y: int, certify: bool = True) -> Sequence:
    """The unique atom over {x, y} with xy < 0; its length (|x|+|y|)/gcd
    is the pair's contribution to the chi lower bound."""
    if x * y >= 0:
        raise ValidationError("need one positive and one negative element")
    g = gcd(x, y)
    s = Sequence.from_pairs([(x, abs(y) // g), (y, abs(x) // g)])
    return _certify(s, "two-element atom", certify)


def interval_max_atom(m: int, M: int, certify: bool = True) -> Sequence:
    """M^m * (-m)^M, the unique atom of length m + M over [-m, M]; exists
    iff gcd(m, M) = 1."""
    if m < 1 or M < 1:
        raise ValidationError("interval parameters must be >= 1")
    if gcd(m, M) != 1:
        raise ValidationError(
            f"no atom of length {m + M} exists over [-{m},{M}]: gcd({m},{M}) != 1"
        )
    s = Sequence.from_pairs([(M, m), (-m, M)])
    return _certify(s, "interval max atom", certify)


def _unit_cube_supports(d: int) -> list[tuple[tuple[int, ...], int]]:
    """The m = 1 family: all-ones, then for k = 2..d+1 the vector with
    k-2 leading zeros, a -1, and ones to the end; multiplicities
    1, 1, 2, 4, ..., 2^(d-1)."""
    supports = [(tuple([1] * d), 1)]
    for k in range(2, d + 2):
        vec = tuple([0] * (k - 2) + [-1] + [1] * (d - k + 1))
        mult = 1 if k == 2 else 2 ** (k - 2)
        supports.append((vec, mult))
    return supports


def hypercube_atom(m: int, d: int, certify: bool = True) -> Sequence:
    """The extremal atom over [-m, m]^d of length (2m-1)^d (m >= 2) or
    2^d (m = 1).

    For m >= 2 the cube atom is built by induction on the dimension: every
    element u of the d-dimensional atom becomes (u, m) with multiplicity
    scaled by m - 1, and (0, ..., 0, -(m-1)) absorbs the new axis.  The
    result has d + 1 distinct supports whose multiplicities are coprime as
    a family, which is what the group-box construction needs.
    """
    if m < 1 or d < 1:
        raise ValidationError("hypercube parameters must be >= 1")
    if m == 1:
        pairs = _unit_cube_supports(d)
        expected = 2**d
    else:
        pairs = [((m,), m - 1), ((-(m - 1),), m)]
        size = 2 * m - 1
        for dim in range(2, d + 1):
            pairs = [(u + (m,), (m - 1) * a) for u, a in pairs]
            pairs.append(((0,) * (dim - 1) + (-(m - 1),), m * size))
            size *= 2 * m - 1
        expected = (2 * m - 1) ** d
    s = Sequence.from_pairs((Element(u), a) for u, a in pairs)
    if s.length != expected:
        raise ConsistencyError(
            f"hypercube atom length {s.length}, expected {expected}"
        )
    if m >= 2:
        mults = [a for _, a in s.entries]
        if len(mults) != d + 1 or gcd(*mults) != 1:
            raise ConsistencyError("hypercube atom lost its multiplicity profile")
    return _certify(s, f"hypercube atom ({m},{d})", certify)


def _bezout_weights(alphas) -> list[int]:
    """Integers w with sum(w_j * alpha_j) = gcd(alphas), by a left fold of
    the extended Euclidean algorithm (deterministic)."""

    def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
        old_r, r = a, b
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        return old_r, old_s, old_t

    g = alphas[0]
    weights = [1]
    for a in alphas[1:]:
        g, x, y = ext_gcd(g, a)
        weights = [w * x for w in weights] + [y]
    return weights


def group_box_atom(n: int, m: int, d: int, certify: bool = True) -> Sequence:
    """An atom over C_n x [-m, m]^d of length n * (2m-1+delta_m)^d.

    Take the hypercube atom u_1^a_1 ... u_{d+1}^a_{d+1}, pick weights w_j
    with sum(w_j a_j) = 1 (possible because the a_j are coprime as a
    family), and form (w_j g, u_j) with multiplicity n a_j for a generator
    g.  Any zero-sum sub-multiset must be a power of the base atom on the
    lattice side, and the weight relation forces that power to be n.  For
    m = 1 the all-ones support has multiplicity 1, so its weight can be 1
    and all others 0.
    """
    if n < 1:
        raise ValidationError("cyclic order must be >= 1")
    base = hypercube_atom(m, d, certify=False)
    mults = [a for _, a in base.entries]
    if m == 1:
        ones = Element((1,) * d)
        weights = [1 if u == ones else 0 for u, _ in base.entries]
    else:
        weights = _bezout_weights(mults)
        if sum(w * a for w, a in zip(weights, mults)) != 1:
            raise ConsistencyError("weight relation failed")
    group = GroupSpec((n,)) if n >= 2 else GroupSpec(())
    pairs = []
    for (u, a), w in zip(base.entries, weights):
        residue = (w % n,) if n >= 2 else ()
        pairs.append((MixedElement(group, residue, u), n * a))
    s = Sequence.from_pairs(pairs)
    expected = n * base.length
    if s.length != expected:
        raise ConsistencyError(f"group-box atom length {s.length}, expected {expected}")
    return _certify(s, f"group-box atom ({n},{m},{d})", certify)


@record(frozen=True)
class PowerCheckReport:
    zero_sum_subsequences: int
    ok: bool


def power_subsequence_check(m: int, d: int, u: int) -> PowerCheckReport:
    """Exhaustively verify that the nonempty zero-sum sub-multisets of the
    u-th power of the hypercube atom are exactly its powers 1..u."""
    if u < 1:
        raise ValidationError("power must be >= 1")
    base = hypercube_atom(m, d, certify=False)
    big = base.power(u)
    cap = resolve_guard(DEFAULT_SCAN_CAP)
    selections = 1
    for _, mult in big.entries:
        selections *= mult + 1
    if selections > cap:
        raise GuardExceededError(
            f"{selections} sub-multiset selections exceed the guard of {cap}"
        )
    expected = {base.power(j) for j in range(1, u + 1)}
    found = set()
    supports = [e for e, _ in big.entries]
    mults = [mult for _, mult in big.entries]
    d_total = base.dim
    for counts in itertools.product(*(range(mult + 1) for mult in mults)):
        if not any(counts):
            continue
        sums = [0] * d_total
        for e, c in zip(supports, counts):
            if c:
                for i in range(d_total):
                    sums[i] += c * e.coords[i]
        if any(sums):
            continue
        found.add(Sequence.from_pairs(zip(supports, counts)))
    return PowerCheckReport(len(found), found == expected)
