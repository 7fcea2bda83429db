"""Zero-sum and minimality predicates, plus the naive atom oracle.

A nonempty multiset is *zero-sum* when its componentwise (and, for group
parts, modular) sum is the identity, and *minimal* (an atom) when no
nonempty proper sub-multiset is zero-sum.

Minimality testing is a bounded-knapsack reachability pass over the
distinct supports e_1..e_k with multiplicities a_1..a_k.  When the whole
multiset is zero-sum, selections that sum to zero come in complementary
pairs (c and a-c), so capping the last support at a_k - 1 loses no
witness while guaranteeing every hit is proper; the bounds b_j are the
multiplicities after that cap.

The set of reachable sums is one bitset, a Python int, packed like the
search kernel's ``ones`` but by this module alone, so that the
certificate shares no code with the kernel it certifies.  Lattice axis c
is a digit of hi_c - lo_c + 1 values, where lo_c and hi_c sum the
negative and the positive parts of b_j * e_jc: every selection within the
bounds sums into that box.  Residue axis i is a digit of 2*n_i - 1
values that holds a reduced residue; after a shift, the bits whose digit
reached n_i move down by n_i.  Starting from M = {0}, support i with
bound b gives N = M + {0..b-1}*e_i, by binary splitting (about log2(b)
shift-ors), and S = N + e_i, the sums of the selections whose last
support is i.  Layer i hits when S holds the zero bit; otherwise M = N | S
and the pass goes on.  No hit means that no proper zero-sum selection
exists.

The witness of a hit at layer i is the lexicographically smallest count
vector among the zero-sum selections whose last support is i: backward
masks B_j hold the sums of supports j..i with c_i >= 1, and c_1, c_2, ...
are chosen in turn, each as small as it can be while B_{j+1} can still
bring the total back to zero.  So witnesses are deterministic.

``atoms_brute`` is intentionally naive - full multiset enumeration and a
full subset scan with no pruning - so it can serve as an independent
oracle for the pruned search engine.
"""

from __future__ import annotations

import itertools
from math import comb

from .core import (
    DEFAULT_SCAN_CAP,
    ConsistencyError,
    Element,
    GuardExceededError,
    Sequence,
    ValidationError,
    resolve_guard,
)

#: Default cap on the mask bits of the minimality DP, counted as the bits of
#: one mask times (supports + 1): at most 32 MB of masks (DAVKIT_GUARD
#: overrides it).
DEFAULT_STATE_CAP = 1 << 28


class StateSpaceCapError(GuardExceededError):
    """The masks of the minimality DP would exceed their guard."""


def _sum_ops(s: Sequence):
    """(zero_key, step) for the sum domain of a sequence.

    Keys are coordinate tuples followed by the residues reduced mod n_i
    (none on Z^d), so one scan serves every ground-set kind.
    """
    moduli = s.group.factors if s.is_mixed else ()
    d = s.dim

    def step(t, e: Element, c: int):
        lat = tuple(x + c * v for x, v in zip(t, e.coords))
        return lat + tuple((x + c * h) % n for x, h, n in zip(t[d:], e.group_part, moduli))

    return (0,) * (d + len(moduli)), step


def is_zero_sum(s: Sequence) -> bool:
    if not s.entries:
        raise ValidationError("empty sequence")
    return s.total.is_zero


class _Box:
    """The bit packing of every sub-sum of a sequence within its bounds
    (see the module docstring), and the passes over it."""

    def __init__(self, s: Sequence):
        entries = s.entries
        bounds = [m for _, m in entries]
        if s.total.is_zero:
            # Complement trick: if the full multiset sums to zero, any
            # witness using all copies of the last support has a
            # complementary witness using none of them, so this cap cannot
            # lose solutions.
            bounds[-1] -= 1
        moduli = s.group.factors if s.is_mixed else ()
        vecs = [e.coords + e.group_part for e, _ in entries]
        d = s.dim
        self.bounds, self.vecs, self.moduli, self.d = bounds, vecs, moduli, d
        self.lo = [sum(b * min(0, v[c]) for v, b in zip(vecs, bounds)) for c in range(d)]
        self.hi = [sum(b * max(0, v[c]) for v, b in zip(vecs, bounds)) for c in range(d)]
        digits = [h - l + 1 for l, h in zip(self.lo, self.hi)] + [2 * n - 1 for n in moduli]
        strides = [1]
        for w in digits[:-1]:
            strides.append(strides[-1] * w)
        self.strides = strides
        size = strides[-1] * digits[-1]
        cap = resolve_guard(DEFAULT_STATE_CAP)
        if size * (len(entries) + 1) > cap:
            raise StateSpaceCapError(
                f"minimality DP needs {len(entries) + 1} masks of {size} bits, "
                f"above the guard of {cap}"
            )
        self.zero = -sum(l * t for l, t in zip(self.lo, strides))
        # per support: the shift of its lattice part
        self.steps = [sum(x * t for x, t in zip(v[:d], strides)) for v in vecs]
        # per residue axis: the bits whose digit reached n_i (one period's
        # block, doubled until it covers the mask), and the shift that
        # takes n_i off
        self.wraps = []
        for n, w, t in zip(moduli, digits[d:], strides[d:]):
            over, span = ((1 << (n - 1) * t) - 1) << (n * t), w * t
            while span < size:
                over |= over << span
                span *= 2
            self.wraps.append((over, n * t))

    def shift(self, m: int, j: int, c: int) -> int:
        """The sums of mask ``m``, each moved by c copies of support j."""
        delta = c * self.steps[j]
        if not self.moduli:
            return m << delta if delta >= 0 else m >> -delta
        d = self.d
        residues = [c * h % n for h, n in zip(self.vecs[j][d:], self.moduli)]
        delta += sum(r * t for r, t in zip(residues, self.strides[d:]))
        m = m << delta if delta >= 0 else m >> -delta
        for r, (over, down) in zip(residues, self.wraps):
            if r:
                f = m & over
                m ^= f ^ (f >> down)
        return m

    def spread(self, m: int, j: int, b: int) -> int:
        """The sums of m + {0, ..., b-1} copies of support j, by binary splitting."""
        have = 1
        while have < b:
            step = min(have, b - have)
            m |= self.shift(m, j, step)
            have += step
        return m

    def first_hit(self) -> int | None:
        """The smallest i such that a zero-sum selection within the bounds
        has last support i, or None if there is none."""
        zero = self.zero
        reach = 1 << zero  # the sums of the selections of the supports before i
        for i, b in enumerate(self.bounds):
            if b == 0:  # the last support, capped by the complement trick
                break
            grown = self.spread(reach, i, b)
            ending = self.shift(grown, i, 1)  # the selections whose last support is i
            if ending >> zero & 1:
                return i
            reach = grown | ending
        return None

    def moved(self, total: list[int], j: int, c: int) -> list[int]:
        """A total (residues reduced) plus c copies of support j."""
        d, v = self.d, self.vecs[j]
        lattice = [t + c * x for t, x in zip(total[:d], v)]
        return lattice + [(t + c * h) % n for t, h, n in zip(total[d:], v[d:], self.moduli)]

    def holds(self, m: int, total: list[int]) -> bool:
        """Mask ``m`` holds the sum ``total`` (residues reduced)."""
        pos = 0
        for x, l, h, t in zip(total, self.lo, self.hi, self.strides):
            if not l <= x <= h:
                return False
            pos += (x - l) * t
        pos += sum(r * t for r, t in zip(total[self.d:], self.strides[self.d:]))
        return bool(m >> pos & 1)

    def lex_min_counts(self, i: int) -> list[int]:
        """The lexicographically smallest count vector within the bounds
        that sums to zero and has last support i (``first_hit`` found one)."""
        bounds = self.bounds
        # back[j]: the sums of the selections of supports j..i with c_i >= 1;
        # back[i + 1] holds the empty selection alone
        back = [0] * (i + 2)
        back[i + 1] = 1 << self.zero
        back[i] = self.spread(self.shift(back[i + 1], i, 1), i, bounds[i])
        for j in range(i - 1, 0, -1):
            back[j] = self.spread(back[j + 1], j, bounds[j] + 1)
        counts = [0] * len(bounds)
        need = [0] * len(self.vecs[i])  # minus the total chosen so far
        for j in range(i + 1):
            c = 0 if j < i else 1
            while not self.holds(back[j + 1], self.moved(need, j, -c)):
                c += 1
            counts[j] = c
            need = self.moved(need, j, -c)
        return counts


def find_proper_zero_subsum(s: Sequence) -> Sequence | None:
    """One nonempty proper zero-sum sub-multiset of ``s``, the witness
    that ``s`` is not minimal, or None.

    Deterministic: of the zero-sum selections whose last support comes
    first, the one with the lexicographically smallest count vector.
    """
    if not s.entries:
        raise ValidationError("empty sequence")
    box = _Box(s)
    i = box.first_hit()
    if i is None:
        return None
    counts = box.lex_min_counts(i)
    return Sequence.from_pairs((e, c) for (e, _), c in zip(s.entries, counts))


def is_minimal(s: Sequence) -> bool:
    """True iff ``s`` is a minimal zero-sum sequence (an atom)."""
    if not s.entries:
        raise ValidationError("empty sequence")
    return s.total.is_zero and _Box(s).first_hit() is None


def certified(s: Sequence, what: str) -> Sequence:
    """``s``, once ``is_minimal`` certifies that it is an atom;
    ConsistencyError naming ``what`` if it is not."""
    if not is_minimal(s):
        raise ConsistencyError(f"{what} failed its minimality certificate: {s}")
    return s


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


def atoms_brute(elements: list[Element], max_len: int) -> list[Sequence]:
    """Every atom over the given alphabet with length <= max_len.

    Enumerates all multisets in nondecreasing element order and filters
    with the pruning-free subset scan.  Guarded by the total number of
    candidate multisets (default 10^7).
    """
    if max_len < 0:
        raise ValidationError("max_len must be >= 0")
    alphabet = sorted(Element.of(e) for e in elements)
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
