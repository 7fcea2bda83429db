"""Prefix-sum orderings of atoms: sign-opposing extension and a greedy
sup-norm heuristic.

For an atom over the integers, an ordering is *sign-opposing* (the
defining inequality is x_{sigma(i)} * prefix_{i-1} < 0) when every element
after the first strictly opposes the sign of the running prefix sum.  Any
such partial ordering of an atom extends greedily to a full one: the
prefix sum is never zero before the end (minimality), so an element of the
opposite sign is always available (the total is zero).  The payoff is
containment: all prefix sums stay inside [min X, max X], strictly inside
on the right when the start is not max X and strictly on the left when it
is not min X.

In higher dimensions no such canonical rule exists; ``greedy_box_reorder``
simply minimises the sup-norm of each successive prefix sum.  It is a
heuristic: it reports the box it achieved and guarantees nothing (in
dimension one it is *not* equivalent to sign-opposition - picking the
small same-sign step can beat the large opposite one in norm and leave
the interval).
"""

from __future__ import annotations

from .core import Sequence, ValidationError, record


class ExtensionStuckError(ValidationError):
    """Greedy extension found no opposite-sign element while the prefix sum
    was nonzero (or hit zero early): the input is not minimal, or the seed
    is bad."""


@record(frozen=True)
class Ordering:
    """A permutation of a flattened sequence with its prefix sums.

    ``perm`` holds 0-based positions into the canonical flattening
    (elements in canonical order, multiplicities expanded).  For 1-d
    sequences ``elements`` and ``prefix_sums`` are ints, otherwise
    coordinate tuples.
    """

    perm: tuple[int, ...]
    elements: tuple
    prefix_sums: tuple


@record(frozen=True)
class ContainmentReport:
    min_prefix: int
    max_prefix: int
    left_strict: bool
    right_strict: bool


def _flatten_1d(s: Sequence) -> list[int]:
    if s.is_mixed or s.dim != 1:
        raise ValidationError("orderings over the integers need a 1-d lattice sequence")
    return [e.coords[0] for e in s.flatten()]


def _ordering_from_perm(values: list[int], perm: list[int]) -> Ordering:
    chosen = [values[p] for p in perm]
    sums = []
    acc = 0
    for v in chosen:
        acc += v
        sums.append(acc)
    return Ordering(tuple(perm), tuple(chosen), tuple(sums))


def is_nyctalopic(s: Sequence, perm, k: int | None = None) -> bool:
    """Whether the first k chosen elements satisfy the sign-opposing rule."""
    values = _flatten_1d(s)
    n = len(values)
    if n < 2:
        raise ValidationError("need length >= 2")
    perm = list(perm)
    if k is None:
        k = len(perm)
    if not 1 <= k <= n or k > len(perm):
        raise ValidationError(f"k={k} out of range")
    if len(set(perm[:k])) != k or any(not 0 <= p < n for p in perm[:k]):
        raise ValidationError("not an injection into the flattened positions")
    acc = values[perm[0]]
    for i in range(1, k):
        if values[perm[i]] * acc >= 0:
            return False
        acc += values[perm[i]]
    return True


def nyctalopic_extend(s: Sequence, seed) -> Ordering:
    """Extend a sign-opposing partial ordering of an atom to a full one.

    ``seed`` is a list of flattened positions (its sign conditions are
    verified first).  Each step picks, among unused positions whose
    element opposes the prefix-sum sign, the one with the smallest
    flattened index - a deterministic instance of the free choice in the
    extension argument.  Raises ExtensionStuckError when no opposite-sign
    element exists while the prefix sum is nonzero, which cannot happen
    for an atom.
    """
    values = _flatten_1d(s)
    n = len(values)
    if n < 2:
        raise ValidationError("need length >= 2")
    perm = list(seed)
    if not perm:
        raise ValidationError("seed must place at least one element")
    if not is_nyctalopic(s, perm, len(perm)):
        raise ValidationError("seed is not sign-opposing")
    used = set(perm)
    acc = sum(values[p] for p in perm)
    while len(perm) < n:
        if acc == 0:
            raise ExtensionStuckError(
                "prefix sum hit zero before the end: not minimal or bad seed"
            )
        nxt = None
        for p in range(n):
            if p not in used and values[p] * acc < 0:
                nxt = p
                break
        if nxt is None:
            raise ExtensionStuckError(
                "no opposite-sign element available: not minimal or bad seed"
            )
        perm.append(nxt)
        used.add(nxt)
        acc += values[nxt]
    return _ordering_from_perm(values, perm)


def containment_check(s: Sequence, ordering: Ordering, lo: int, hi: int) -> ContainmentReport:
    """Verify the containment guarantee of a sign-opposing ordering of an
    atom living in [lo, hi], with its strictness refinements.

    A violation would falsify a proved statement, so it raises
    ConsistencyError rather than returning a failed report.
    """
    from .core import ConsistencyError

    sums = ordering.prefix_sums
    first = ordering.elements[0]
    left_strict = first != lo
    right_strict = first != hi
    mn, mx = min(sums), max(sums)
    ok = (mn > lo if left_strict else mn >= lo) and (mx < hi if right_strict else mx <= hi)
    if not ok:
        raise ConsistencyError(
            f"prefix sums [{mn},{mx}] leave [{lo},{hi}] "
            f"(left_strict={left_strict}, right_strict={right_strict})"
        )
    return ContainmentReport(mn, mx, left_strict, right_strict)


def greedy_box_reorder(s: Sequence) -> tuple[Ordering, tuple[tuple[int, int], ...]]:
    """Order a zero-sum lattice sequence greedily by smallest sup-norm of
    the next prefix sum (ties: lexicographically smallest element, then
    smallest flattened index).  Returns the ordering and the achieved
    per-axis prefix-sum box.  Heuristic only - no containment guarantee.
    """
    if s.is_mixed:
        raise ValidationError("greedy reordering is for lattice sequences")
    if not s.total.is_zero:
        raise ValidationError("sequence must be zero-sum")
    flat = [e.coords for e in s.flatten()]
    n = len(flat)
    d = s.dim
    used = [False] * n
    perm: list[int] = []
    acc = (0,) * d
    prefixes: list[tuple[int, ...]] = []
    for _ in range(n):
        best = None
        for p in range(n):
            if used[p]:
                continue
            cand = tuple(acc[c] + flat[p][c] for c in range(d))
            key = (max(abs(x) for x in cand), flat[p])
            if best is None or key < best[0]:
                best = (key, p, cand)
        _, p, acc = best
        used[p] = True
        perm.append(p)
        prefixes.append(acc)
    box = tuple(
        (min(pref[c] for pref in prefixes), max(pref[c] for pref in prefixes))
        for c in range(d)
    )
    if d == 1:
        ordering = Ordering(
            tuple(perm),
            tuple(flat[p][0] for p in perm),
            tuple(pref[0] for pref in prefixes),
        )
    else:
        ordering = Ordering(tuple(perm), tuple(flat[p] for p in perm), tuple(prefixes))
    return ordering, box
