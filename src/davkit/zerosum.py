"""Zero-sum and minimality predicates, plus the naive atom oracle.

A nonempty multiset is *zero-sum* when its componentwise (and, for group
parts, modular) sum is the identity, and *minimal* (an atom) when no
nonempty proper sub-multiset is zero-sum.

Minimality testing is a bounded-knapsack reachability DP over the distinct
supports: layer i holds every sum obtainable with multiplicities
c_1..c_i, 0 <= c_j <= a_j, with one parent pointer per sum so a witness can
be reconstructed.  When the whole multiset is zero-sum, selections that sum
to zero come in complementary pairs (c and a-c), so capping the last
support at a_k - 1 loses no witness while guaranteeing every hit is proper.
The first hit in the fixed layer/count order wins, which makes witnesses
deterministic.

``atoms_brute`` is intentionally naive - full multiset enumeration and a
full subset scan with no pruning - so it can serve as an independent
oracle for the pruned search engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .core import (
    AnyElement,
    DEFAULT_SCAN_CAP,
    Element,
    GuardExceededError,
    MixedElement,
    Sequence,
    ValidationError,
    resolve_guard,
)

#: Default cap on the states of the minimality DP (DAVKIT_GUARD overrides it).
DEFAULT_STATE_CAP = 2_000_000


class StateSpaceCapError(GuardExceededError):
    """The reachable-sum DP grew past its cap; fall back to the brute scan."""


@dataclass(frozen=True)
class SubsumWitness:
    """A nonempty proper zero-sum sub-multiset certifying non-minimality."""

    sub: Sequence


def _sum_ops(s: Sequence):
    """(zero_key, step) for the sum domain of a sequence.

    Keys are plain ints for d=1, coordinate tuples for d>=2, and
    residue+coordinate tuples (residues reduced mod n_i) for mixed
    sequences, so one DP serves every ground-set kind.
    """
    first = s.entries[0][0]
    if isinstance(first, MixedElement):
        factors = first.group.factors
        rank = len(factors)

        def step(t, e: MixedElement, c: int):
            res = tuple(
                (t[i] + c * e.group_part[i]) % factors[i] for i in range(rank)
            )
            lat = tuple(
                t[rank + j] + c * e.lattice_part.coords[j] for j in range(e.dim)
            )
            return res + lat

        return (0,) * (rank + first.dim), step
    if first.dim == 1:
        return 0, lambda t, e, c: t + c * e.coords[0]
    d = first.dim
    return (0,) * d, lambda t, e, c: tuple(t[i] + c * e.coords[i] for i in range(d))


def is_zero_sum(s: Sequence) -> bool:
    if not s.entries:
        raise ValidationError("empty sequence")
    return s.total.is_zero


def find_proper_zero_subsum(s: Sequence) -> SubsumWitness | None:
    """One nonempty proper zero-sum sub-multiset of ``s``, or None.

    Deterministic: supports are processed in canonical order, counts
    ascending, and the first reconstruction wins.
    """
    if not s.entries:
        raise ValidationError("empty sequence")
    cap = resolve_guard(DEFAULT_STATE_CAP)
    zero, step = _sum_ops(s)
    entries = s.entries
    bounds = [m for _, m in entries]
    if s.total.is_zero:
        # Complement trick: if the full multiset sums to zero, any witness
        # using all copies of the last support has a complementary witness
        # using none of them, so the cap below cannot lose solutions.
        bounds[-1] -= 1

    layers: list[dict] = []
    reach: dict = {zero: None}
    states = 1
    for i, ((elem, _), bound) in enumerate(zip(entries, bounds)):
        new_reach: dict = {}
        for t in reach:
            for c in range(bound + 1):
                nt = step(t, elem, c)
                if nt not in new_reach:
                    new_reach[nt] = (t, c)
                if c >= 1 and nt == zero:
                    counts = [0] * len(entries)
                    counts[i] = c
                    cur = t
                    for j in range(i - 1, -1, -1):
                        prev, cj = layers[j][cur]
                        counts[j] = cj
                        cur = prev
                    sub = Sequence.from_pairs(
                        (entries[j][0], counts[j])
                        for j in range(len(entries))
                        if counts[j] > 0
                    )
                    return SubsumWitness(sub)
        layers.append(new_reach)
        reach = new_reach
        states += len(new_reach)
        if states > cap:
            raise StateSpaceCapError(
                f"reachable-sum DP exceeded {cap} states; use the brute scan"
            )
    return None


def is_minimal(s: Sequence) -> bool:
    """True iff ``s`` is a minimal zero-sum sequence (an atom)."""
    if not s.entries:
        raise ValidationError("empty sequence")
    return s.total.is_zero and find_proper_zero_subsum(s) is None


# ---------------------------------------------------------------------------
# independent, pruning-free oracle


def proper_zero_subsum_scan(s: Sequence) -> Sequence | None:
    """Full scan over all proper nonempty sub-multisets; no shared machinery
    with the DP above, so the two can cross-check each other."""
    if not s.entries:
        raise ValidationError("empty sequence")
    zero, step = _sum_ops(s)
    supports = [e for e, _ in s.entries]
    mults = [m for _, m in s.entries]
    for counts in itertools.product(*(range(m + 1) for m in mults)):
        if not any(counts) or all(c == m for c, m in zip(counts, mults)):
            continue
        t = zero
        for e, c in zip(supports, counts):
            if c:
                t = step(t, e, c)
        if t == zero:
            return Sequence.from_pairs(zip(supports, counts))
    return None


def is_minimal_scan(s: Sequence) -> bool:
    return s.total.is_zero and proper_zero_subsum_scan(s) is None


def atoms_brute(elements: list[AnyElement], max_len: int) -> list[Sequence]:
    """Every atom over the given alphabet with length <= max_len.

    Enumerates all multisets in nondecreasing element order and filters
    with the pruning-free subset scan.  Guarded by the total number of
    candidate multisets (default 10^7).
    """
    if max_len < 0:
        raise ValidationError("max_len must be >= 0")
    alphabet = sorted(
        (e if isinstance(e, MixedElement) else Element.of(e) for e in elements)
    )
    for a, b in itertools.pairwise(alphabet):
        if a == b:
            raise ValidationError(f"duplicate element {a} in alphabet")
    k = len(alphabet)
    cap = resolve_guard(DEFAULT_SCAN_CAP)
    candidates = sum(comb(k + n - 1, n) for n in range(1, max_len + 1))
    if candidates > cap:
        raise GuardExceededError(
            f"{candidates} candidate multisets exceed the guard of {cap}"
        )
    atoms = []
    for n in range(1, max_len + 1):
        for combo in itertools.combinations_with_replacement(alphabet, n):
            s = Sequence.from_elements(combo)
            if is_minimal_scan(s):
                atoms.append(s)
    return atoms
