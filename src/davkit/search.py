"""Exact Davenport-constant engine: pruned exhaustive atom enumeration.

Search space
------------
Multisets over the ground set's elements, grown one element at a time in
nondecreasing canonical order, so each multiset is generated exactly once
and ties cannot occur (orderly generation).  The root is the empty
multiset; a node is a nonempty multiset that the search extends, so the
root itself is not counted.  A closure ends its branch, so the atoms of
one length are leaves of which none is a prefix of another, and the
depth-first visit meets them in increasing canonical-key order: every
list the search collects is already sorted within each length, and needs
no sort by key.

Pruning
-------
A partial multiset P is viable only while *no* nonempty sub-multiset of it
sums to zero: any such sub-multiset would survive into every extension and
kill minimality.  The moment the running total itself hits zero, P is a
completed zero-sum candidate and is emitted iff the only zero-sum
sub-multiset it contains is P itself; either way the branch ends, because
a zero-sum proper prefix can never extend to a minimal sequence.

Bookkeeping is one reachability bitmask per node.  Sums are packed by
fixed per-axis strides sized from the depth cap: delta(s), the sum of
s_c times the stride of axis c, is one-to-one on the sums of at most
depth-cap elements, so adding an element advances the whole reachable
set with one big-integer shift-or.  A child P + e is cut when
it has a nonempty zero-sum sub-multiset other than itself, that is, when
-e is a sub-sum of P or e = 0.  So every P the search extends is
zero-sum free, and then every closure P + e is an atom: a proper
zero-sum sub-multiset Z of P + e would contain e, and P + e - Z would be
a nonempty zero-sum sub-multiset of P.

One loop serves every ground set: in C_n1 x ... x C_nr x X each residue
coordinate is one more axis after the d lattice axes, and a lattice set
(a box or an explicit set) is the case r = 0.  Element e_j
has residues h_ij and the lattice delta lambda_j, the sum of its lattice
coordinates times their strides, and delta_j = lambda_j + sum_i h_ij*S_i,
S_i the stride of residue digit i.  Lattice axis d - 1 is the stride-1
digit and axis 0 the widest of them; the residue digits sit above the
lattice ones, factor 0 the widest, so delta increases along the
canonical order (group part, then lattice coordinates).

Each node carries L, the sum of max(0, lambda(e)) over the elements e of
P, which bounds lambda(s) for every sub-sum s, and a mask n relative to
that base: for each sub-sum s of P, the empty one included, n has the
one bit L - lambda(s) + sum_i ((-r_i(s)) mod n_i)*S_i set, r_i(s) the
residue of s on factor i.  The lattice part L - lambda(s) is at most the
sum of |lambda(e)| over P, which stays below the lowest residue stride
because the sum of reach_c*stride_c over the lattice axes is less than
stride_0*(2*reach_0 + 3).  So on a lattice set n is at most that sum
bits long, whatever the depth.  Residue digit i is 2*n_i - 1 values wide
and holds a reduced residue.  The root has n = 1 (the empty sum) and
L = 0.  With up_j = max(0, lambda_j) and down_j = max(0, -lambda_j) +
sum_i ((n_i - h_ij) mod n_i)*S_i, child j steps to
n << up_j | W_j(n << down_j) and base L + up_j: the sub-sums without e_j
keep their place below the raised base, and those with it, e_j alone
from the empty sum, move down by lambda_j and negate h_ij more.  The
shift takes residue digit i from [0, n_i - 1] to [a, n_i - 1 + a],
a = (n_i - h_ij) mod n_i; W_j moves the bits that reached n_i or more
down by n_i (``wraps``), onto the values below a that the shift left
empty, so nothing collides, and the zero sum is the single bit L.  On a
lattice set W_j is empty and one of up_j, down_j is 0, so the step is
n << lambda_j | n when lambda_j >= 0, else n | n << -lambda_j.
(Unreduced residue sums would need depth*(n_i - 1) + 1 values per axis,
and masks that much wider.)

The kill bit of child j is bit L + delta_j of n, which is lattice part
L + lambda_j and residue digits h_ij, set iff -e_j is a sub-sum: a
nonempty one, or the empty one for the zero element, which is always
killed.  When L + lambda_j < 0 no sub-sum has lattice delta -lambda_j,
and the bit, if it is >= 0, borrows from the residue digits: its lattice
part is the lowest residue stride plus L + lambda_j, above that of every
sub-sum, so it is clear.  So the kill set of the children
elems[start:stop] is one bit window of n, read with one shift (a left
one when L + delta_start < 0) and one AND against a precomputed int
holding bit delta_j - delta_0 for each element (``_Space.window``).  The
loop visits only the clear bits, low to high, which is canonical order.
The one child that may close P, e_j = -t, is killed too (t is a
sub-sum); it is looked up by the packed total (``closing``) and visited
in its place.  Each killed child still counts
as one prune, added as the gap between consecutive visited children and
the tail after the last, so a search that stops early counts exactly the
children it passed.

A cheap per-branch feasibility cut keeps a node only while its lattice
total t can still return to zero within the T elements left: elements of
index >= j move axis c up by at most A_c = max(0, max e_c) and down by at
most B_c = max(0, -min e_c), so -T*A_c <= t_c <= T*B_c on every axis.
This kills the single-sign cones that would otherwise dominate the tree.
The total is one guarded integer x = sum_c t_c << s_c, where field c has
w_c = (2*depth*max|e_c| + 1).bit_length() bits and a guard bit above them
(H is the OR of the guard bits).  As |t_c + T*A_c| <= 2*depth*max|e_c| <
2^w_c, field c of x + H + T*sum_c A_c << s_c is t_c + T*A_c + 2^w_c, in
(0, 2^(w_c+1)): no field borrows or carries, and its guard bit is set iff
t_c >= -T*A_c.  H + T*sum_c B_c << s_c - x tests t_c <= T*B_c alike.

Residue axis i is a field of x too, holding the unreduced residue sum
r_i in [0, rmax_i], rmax_i = depth*(n_i - 1), in (depth*rmax_i).bit_length()
bits.  P is a closure iff x is a zero sum: lattice part 0 and every r_i
a multiple of n_i.  In the rows a residue field moves up by 0 and down
by rmax_i, so the test reads 0 <= r_i <= T*rmax_i: always true for
T >= 1, and at T = 0 only for r_i = 0.  The T = 0 row therefore passes
only x == 0, which is a closure, and cuts every other child at the
depth: the depth needs no test of its own.  With both tables precomputed
per (T, j), every node takes the per-axis decisions, hence the node,
prune and closure counts, of separate comparisons.

Child j closes a node of total x iff x, with each r_i reduced mod
n_i, is the packing of -e_j with its residues reduced.  ``closing``
starts with these keys, one per element, and stores the answer for any
other total on its first use.  To reduce x it first adds the guard bit
of every lattice field, so that a negative lattice field borrows nothing
from the residue fields above it, and then reads each residue field
from those bits.  On a lattice set there is nothing to reduce, and a
total that no element closes is stored as None.

In d >= 2 the guarded total carries, after the d axes, one more field per
linear functional u = e_a + e_b and u = e_a - e_b for each pair of
lattice axes a < b, holding u.t; only the total and the rows hold them,
not the masks.  The cut is the per-axis one applied to u: any remaining
multiset of at most T elements of index >= j moves u.t by an amount in
[-T*max(0, -min u.e), T*max(0, max u.e)], so a total with u.t outside
[-T*max(0, max u.e), T*max(0, -min u.e)] cannot return to zero.  Field u
is sized from depth*max|u.e| like a lattice axis.  A zero lattice total
has every such field 0, so a closure's total is still a zero sum.

On a lattice set (a box or an explicit set) each node has a
second row pair, taken over the elements that P leaves alive instead of
a suffix.  Let e be an element with -e = sum(S) for some S in P, that is,
one whose kill bit is set; the empty S kills e = 0.  Then e never
appears below P.  If it joined a node P'' that contains P, S + e would
be a zero-sum part of P'' + e, so e is killed at P''.  If it closed a
node P'' that strictly contains P, P'' - S would be a nonempty zero-sum
part of P'', which is zero-sum free.  (The child that closes P itself
ends its branch and meets no rows.)  So below a child P + e_j, each
element added is one of index >= start whose kill bit at P is clear,
and at most T of them can still be added.  The child is cut unless, for
every functional u, u.t lies in [-T*max(0, max u.e), T*max(0, -min u.e)]
over those alive e.  A child must pass both row pairs; neither implies
the other, since the suffix rows see only the elements >= j but all of
them.  The alive set is read over [start, k), before a root range's
``stop`` clips the children: the subtrees below the roots use every
element after ``stop``.  Its pair (up, down) is packed like the steps
of CL and CR, built from per-functional masks (for each v by which a
functional moves, the elements that move it by v, v descending, so the
first mask that meets the alive set gives the largest move;
``_Space.moves``), and cached per search, keyed by the alive set.  Values, witnesses, atom lists and closure counts stay
the same; the node and prune counts drop.  A G x X search keeps only
the suffix rows, decided once per search, so a product's child costs no
extra big-integer operation.

On a one-dimensional lattice set X (a one-axis box or a 1-D explicit set;
never a group product) the search also applies Lambert's bound: a
nonzero atom A has at most m = max(0, -min A) positive and at most
M = max(0, max A) negative terms, so it is at most m + M long (the atom 0
alone has no sign; it is met only as the root's closure).  Proof: order
A so that each term opposes the sign of the running sum
(``davkit.reorder``).  Its prefix sums s_0 = 0, s_1, ..., s_(n-1) are
distinct, and from s_1 on they lie in [-m, M], from s_2 on in [1 - m, M].
Each positive term is added at a prefix value in [-m, 0].  The value -m
can only be s_1, and then the term added at s_0 = 0 was negative, so at
most m of these m + 1 values take a positive term.  The negative side is
the mirror image.  (For G x X the bound is false: D(C3 x [-2,2]) = 9 >
2 + 2.)

The search applies it per node P below the root.  An atom below P
contains P, and every element it adds comes at or after P's last one,
so its minimum is min P.  Its support lies in P, the elements P leaves
alive and e_jc, the child that closes P (see the window rows above; the
alive set is read before the ``stop`` clip).  So every atom below P has
at most m' = max(0, -min P) positive and at most M' = max(0, the largest
alive element, e_jc) negative terms.  P's own largest element, its last,
needs no term in M': an alive element or e_jc is at least as large, and
with neither P has no child.  This has two consequences.

The length: every atom below P is at most b = m' + M' long.  The node's
rows, both pairs, then use T' = min(T, b - |P| - 1): no child can still
add more elements than that.  When T' < 0 no atom lies below P and every
child is cut, each counting as one prune.  (This never cuts a closure:
P + e_jc is an atom below P, so b >= |P| + 1.)

The sign count: in canonical order the negatives come first, and a node
never holds 0 (it is zero-sum free).  So a node whose last element is
negative holds only negatives, |P| of them, and once |P| >= M' no
negative child has an atom below it.  Their bits are cleared from the
window of children to visit, so the loop passes each of them over and
counts it as one prune, as it does a killed child; the child that closes
P is positive.  No negative element then appears below P (the subtrees
of the positive children hold only positives), so the alive set is read
without them.  The positive half needs no test.  Take a node
P whose last element is positive and that holds m' positives.  Every
child is positive, and so is every element after it, so the rows pass a
child only if its total is <= 0.  A total of 0 would be an atom below P
with m' + 1 positives.  A zero-sum-free multiset with minimum -m' and a
negative total holds at most m' positives: order it by adding a positive
term whenever the running sum is <= 0 and a positive is left, and a
negative term otherwise (one is left while the sum is > 0, as the total
is negative).  The prefix sums are distinct.  Each positive term is
added at a prefix value <= 0, and every prefix value before the last
positive term is >= 1 - m' (a negative term is added at a sum >= 1, a
positive one raises the sum), so these values lie in {0} U [1 - m', -1]:
at most m'.  A child P + e that is not killed is zero-sum free, with
minimum min P.  So every child of P is killed or cut by the rows, and
counts as the one prune that a sign-count test would count.

The root needs no rule.  Its b is the diameter of X, at least the depth,
except on X = {0}, where the atom 0 is longer than b = 0.  Its M' is
max(0, max X), which stops a negative root child only when max X = 0;
then the depth is at most 1, and the T = 0 row already cuts every such
child.  Both rules depend only on the node and X, not on the root range,
so the counts of the pool's one-root tasks add up to those of the
sequential run.  They drop only nodes with no atom below them, so atom
lists, witnesses and closure counts stay the same; node and prune counts
drop.

Early stop
----------
In 'dav' mode the search depth is the proven length bound (or a smaller
cap), so an atom whose length equals the depth is a longest atom: no
atom within the depth is longer.  The search stops at the first such
atom.  Orderly generation visits multisets of equal length in increasing
canonical-key order, so that first atom is also the deterministic witness
(smallest key among the longest atoms) that the full tree would select.
In a process pool the parent then signals the workers: a task that is
running ends, one that starts later returns at once, and the workers
exit on their own.
When no atom reaches the depth the tree is exhausted, and its longest
atom is again exact up to the depth.  Either way the results are exact
values, not estimates; only the node, prune and closure counts depend on
where the search stopped.  Mode 'all' never stops early.
"""

from __future__ import annotations

import itertools
import os
from time import perf_counter

from . import bounds as _bounds
from .bounds import length_bound
from .core import (
    Element,
    Explicit,
    GroundSet,
    Sequence,
    ValidationError,
    check_threads,
    enumerate_elements,
    record,
)
from .zerosum import certified


@record
class SearchStats:
    nodes: int = 0
    prunes: int = 0
    closures: int = 0
    elapsed: float = 0.0


@record
class DavenportResult:
    """Exact value or proven bracket for the largest atom length.

    ``exact`` means the search depth was the full structural bound
    ``length_bound``, so lower == upper == the Davenport constant.
    Otherwise ``lower`` is the longest atom within the requested depth and
    ``upper`` the closed-form upper bound ``ground_bounds(ground).upper``.
    A capped result can read lower == upper with exact False (``C2x[-1,1]^2``
    capped at 8 gives [8, 8]): ``exact`` still says only whether the search
    ran to ``length_bound``.  ``witness`` is the longest atom with the
    smallest canonical key whenever lower >= 1.  ``stats`` counts only the
    nodes visited before the search stopped (see the module docstring).
    ``provenance`` names what licenses the bracket: ``exhaustive-search``
    when exact, else ``exhaustive-search-capped`` followed by the tags of
    the closed form that gave ``upper``.
    """

    lower: int
    upper: int
    exact: bool
    witness: Sequence | None
    stats: SearchStats
    provenance: tuple[str, ...]


# ---------------------------------------------------------------------------
# search space preparation


class _Rows(dict):
    """Row T is ``[guards + T * u for u in steps]``, built on first use."""

    def __init__(self, guards: int, steps: list[int]):
        super().__init__()
        self.guards, self.steps = guards, steps

    def __missing__(self, T: int) -> list[int]:
        row = self[T] = [self.guards + T * u for u in self.steps]
        return row


class _Closing(dict):
    """``self[x]`` is the child j that closes a node of guarded total x
    (e_j = -x), or None.  It starts with one key per element, the total
    -e_j with its residues reduced, and stores the answer for any other
    total on first use (see the module docstring)."""

    def __init__(self, keys: dict[int, int], bias: int, base: int, residues):
        super().__init__(keys)
        # ``bias`` sets the guard bit of every lattice field, so none borrows
        # from the residue fields above bit ``base``; ``residues`` holds
        # (shift above base, mask, n_i) per residue field
        self.bias, self.base, self.residues = bias, base, residues

    def __missing__(self, x: int) -> int | None:
        high = (x + self.bias) >> self.base
        cut = 0  # each residue sum minus its reduction mod n_i
        for s, mask, n in self.residues:
            r = (high >> s) & mask
            cut += (r - r % n) << s
        j = self[x] = self.get(x - (cut << self.base)) if cut else None
        return j


class _Space:
    """Element tables, bit packings, and closability tables for one search.

    An element of C_n1 x ... x C_nr x Z^d has d lattice axes, then r residue
    axes; see the module docstring for how each table packs them.
    """

    def __init__(self, ground: GroundSet, depth_cap: int):
        elems = enumerate_elements(ground)
        self.elems = elems
        moduli = elems[0].group.factors if elems[0].group is not None else ()
        coords = [e.coords + e.group_part for e in elems]
        d = ground.dim
        self.d = d
        self.pairs = list(itertools.combinations(range(d), 2))
        # |sum_c| <= reach[c] for every sub-multiset of <= depth_cap elements
        reach = [depth_cap * max(abs(v[c]) for v in coords) for c in range(d)]
        # Reachability masks: lattice digits sized so every such sum packs
        # uniquely, and wide enough that a node's lattice parts stay below
        # the residue digits; a residue digit holds a reduced residue plus
        # one more, and is reduced again after a shift.  Lattice axis d - 1
        # is the stride-1 digit and axis 0 the widest, and the residue
        # digits sit above them, factor 0 the widest, so deltas increase
        # with the canonical order (group part, then lattice coordinates).
        digits = [2 * m + 3 for m in reach] + [2 * n - 1 for n in moduli]
        strides = [0] * len(digits)
        size = 1
        for c in [*range(d - 1, -1, -1), *range(len(digits) - 1, d - 1, -1)]:
            strides[c] = size
            size *= digits[c]
        self.deltas = [sum(t * s for t, s in zip(v, strides)) for v in coords]
        # the loop's window (see the module docstring): bit
        # deltas[j] - deltas[0] of ``window`` for each element j, and ``at``
        # the element of each delta
        self.window = sum(1 << (t - self.deltas[0]) for t in self.deltas)
        self.at = {t: j for j, t in enumerate(self.deltas)}
        # per residue axis: the bits whose digit is n_i or more, and the
        # shift that takes n_i off it
        wrap = []
        for n, w, s in zip(moduli, digits[d:], strides[d:]):
            block = ((1 << (n - 1) * s) - 1) << (n * s)
            wrap.append((sum(block << q for q in range(0, size, w * s)), n * s))
        # steps[j] = (up, down, wraps): child j of a node with base L steps
        # to n << up | wraps(n << down), base L + up
        self.steps = []
        for v in coords:
            lat = sum(t * s for t, s in zip(v[:d], strides))
            neg = sum((-h) % n * s for h, n, s in zip(v[d:], moduli, strides[d:]))
            wraps = tuple(a for a, h in zip(wrap, v[d:]) if h)
            self.steps.append((max(0, lat), max(0, -lat) + neg, wraps))
        # guarded totals (see the module docstring): field f starts at
        # shifts[f]; the nf lattice functionals come first, then residue
        # field i, which holds an unreduced residue sum in [0, rmax[i]], and
        # row T adds T * rmax[i] to it, T <= depth_cap
        fields = [self.fields(v) for v in coords]
        nf = len(fields[0]) - len(moduli)
        freach = [depth_cap * max(abs(u[f]) for u in fields) for f in range(nf)]
        rmax = [depth_cap * (n - 1) for n in moduli]
        widths = [(2 * m + 1).bit_length() for m in freach]
        widths += [(depth_cap * m).bit_length() for m in rmax]
        shifts = [0]
        for w in widths[:-1]:
            shifts.append(shifts[-1] + w + 1)
        self.shifts = shifts
        self.guards = sum(1 << (s + w) for s, w in zip(shifts, widths))
        self.packed = [self._put(u) for u in fields]
        # ``closing`` maps a total to the one child that closes it: one key
        # per element j, the total -e_j with its residues reduced
        negated = [[-t for t in v[:d]] + [-h % n for h, n in zip(v[d:], moduli)] for v in coords]
        base = sum(w + 1 for w in widths[:nf])
        self.closing = _Closing(
            {self.pack(v): j for j, v in enumerate(negated)},
            sum(1 << (s + w) for s, w in zip(shifts[:nf], widths)),
            base,
            [(s - base, (1 << w) - 1, n) for s, w, n in zip(shifts[nf:], widths[nf:], moduli)],
        )
        # the masks of ``moves``: for each direction (up, then down) and
        # lattice functional f, a pair (v << shifts[f], mask) for each v > 0
        # that f moves that way, v descending, mask holding bit
        # deltas[j] - deltas[0] of each element j that moves f by v
        dmin = self.deltas[0]
        bits = [1 << (t - dmin) for t in self.deltas]
        self.reaches = []
        for sign in (1, -1):
            half = []
            for f in range(nf):
                by = {}
                for b, u in zip(bits, fields):
                    if sign * u[f] > 0:
                        by[sign * u[f]] = by.get(sign * u[f], 0) | b
                half.append([(v << shifts[f], by[v]) for v in sorted(by, reverse=True)])
            self.reaches.append(half)
        # row T of CL / CR holds guards + T * how far the elements >= j move
        # each functional up / down; rows are built on first use, so memory
        # follows the depth reached.  A residue axis moves down by rmax[i]:
        # row T >= 1 passes any residue sum, and row 0 only residue 0, so it
        # cuts every non-closure.
        suffixes = [self.moves(self.window >> (t - dmin) << (t - dmin)) for t in self.deltas]
        residues = self._put([0] * nf + rmax)
        self.CL = _Rows(self.guards, [up for up, _ in suffixes])
        self.CR = _Rows(self.guards, [down + residues for _, down in suffixes])
        # the window rows, over the elements a node leaves alive, serve
        # lattice sets only (see the module docstring)
        self.lattice = not moduli
        # Lambert's bound serves one-dimensional lattice sets only, where
        # each element's delta is its value
        self.line = d == 1 and not moduli

    def moves(self, alive: int) -> list[int]:
        """[up, down]: how far the elements whose bits are set in ``alive``
        (laid out like ``window``) move each lattice functional up and down,
        packed like the guarded total."""
        rows = []
        for half in self.reaches:
            row = 0
            for masks in half:
                for v, mask in masks:  # the first v met is the largest
                    if alive & mask:
                        row += v
                        break
            rows.append(row)
        return rows

    def fields(self, total) -> list[int]:
        """The fields of the guarded total for a total (lattice sums, then
        residue sums): each lattice sum t_c, then t_a + t_b and t_a - t_b
        for each pair of lattice axes a < b, then each residue sum."""
        t = total[: self.d]
        pairs = [s for a, b in self.pairs for s in (t[a] + t[b], t[a] - t[b])]
        return [*t, *pairs, *total[self.d :]]

    def _put(self, values) -> int:
        return sum(t << s for t, s in zip(values, self.shifts))

    def pack(self, total) -> int:
        """The guarded packing of a total: lattice sums, then residue sums."""
        return self._put(self.fields(total))

    def certified_atom(self, counts) -> Sequence:
        """The atom with these multiplicities over ``elems``, re-certified by
        ``is_minimal`` (ConsistencyError if the certificate fails)."""
        atom = Sequence.from_pairs((self.elems[i], c) for i, c in enumerate(counts) if c)
        return certified(atom, "search atom")


# ---------------------------------------------------------------------------
# sequential DFS

_PROGRESS_STRIDE = 1 << 17


class _DepthReached(Exception):
    """A 'dav' search found an atom as long as its depth: the answer is final."""


def _search_sequential(
    space: _Space,
    depth_cap: int,
    mode: str,
    lo: int = 0,
    hi: int | None = None,
    progress=None,
):
    """Explore the orderly multiset tree; see the module docstring.

    mode 'dav'  - track the longest atom (the first found, which has the
                  smallest key), and stop at the first atom of length
                  ``depth_cap``;
    mode 'all'  - collect every atom of length <= depth_cap.

    Only the subtrees of the one-element multisets elems[lo:hi] are
    explored.  Returns (best_len, best_counts, collected, stats) where
    ``collected`` is a list of multiplicity tuples over space.elems, in
    visit order.
    """
    k = len(space.elems)
    deltas = space.deltas
    steps = space.steps
    packed = space.packed
    H = space.guards
    CL = space.CL
    CR = space.CR
    closing = space.closing
    at = space.at
    window = space.window
    dmin = deltas[0]
    lattice = space.lattice
    line = space.line
    windows = {}  # alive elements, laid out like ``window`` -> [up, down]

    counts = [0] * k
    collected: list[tuple[int, ...]] = []
    best_len = 0
    best_counts: tuple[int, ...] | None = None
    nodes = prunes = closures = 0

    def emit(length: int):
        nonlocal best_len, best_counts
        if mode == "all":
            collected.append(tuple(counts))
        # equal lengths arrive in increasing key order, so the first atom
        # of the longest length is the witness
        if length > best_len:
            best_len = length
            best_counts = tuple(counts)
            if mode == "dav" and length == depth_cap:
                raise _DepthReached

    def rec(start: int, depth: int, x: int, n: int, L: int, low: int, stop: int = k):
        """``n`` holds the sub-sums of P relative to the base L (see the
        module docstring), and only the children whose kill bit L + delta_j
        is clear are visited.  On a line, ``low`` is max(0, -min P) below
        the root."""
        nonlocal nodes, prunes, closures
        nd = depth + 1
        T = depth_cap - nd
        d0 = deltas[start]
        bits = window >> (d0 - dmin)  # bit delta_j - d0 per child
        s = L + d0
        bits ^= bits & (n >> s if s >= 0 else n << -s)
        jc = closing[x]  # the one child that closes P: e_j = -t
        if line and depth:
            # Lambert's bound on the atoms below P, from the alive elements,
            # read before the ``stop`` clip, and e_jc: M' = max(0, top)
            top = d0 + bits.bit_length() - 1 if bits else 0
            if jc is not None and deltas[jc] > top:
                top = deltas[jc]
            reach = low + top if top > 0 else low
            if reach < nd:
                prunes += stop - start
                return
            if reach - nd < T:  # no min(): this runs at every node
                T = reach - nd
            if d0 < 0 and depth >= top:  # all-negative P: skip negative children
                bits &= -1 << -d0
        cl = CL[T]
        cr = CR[T]
        wl = 0
        if lattice:
            # the rows of the elements >= start that P leaves alive, read
            # before the root's ``stop`` clip: the subtree uses all of them
            alive = bits << (d0 - dmin)
            rows = windows.get(alive)
            if rows is None:
                rows = windows[alive] = space.moves(alive)
            wl = H + T * rows[0]
            wr = H + T * rows[1]
        if stop < k:
            bits &= (1 << (deltas[stop] - d0)) - 1
        if jc is not None and start <= jc < stop:
            bits |= 1 << (deltas[jc] - d0)
        last = start - 1
        while bits:
            low_bit = bits & -bits
            bits ^= low_bit
            j = at[d0 + low_bit.bit_length() - 1]
            prunes += j - last - 1  # the killed children since the last one visited
            last = j
            nx = x + packed[j]
            if j == jc:
                closures += 1  # P is zero-sum free, so P + e is an atom
                counts[j] += 1
                emit(nd)
                counts[j] -= 1
                continue
            # T = 0 cuts at the depth
            if wl and (nx + wl) & (wr - nx) & H != H or (nx + cl[j]) & (cr[j] - nx) & H != H:
                prunes += 1
                continue
            nodes += 1
            if progress is not None and nodes % _PROGRESS_STRIDE == 0:
                progress(nodes, best_len)
            counts[j] += 1
            up, down, wraps = steps[j]
            m = n << down
            if wraps:
                for over, w in wraps:  # reduce the residues that reached n_i
                    f = m & over
                    m ^= f ^ (f >> w)
            rec(j, nd, nx, n << up | m, L + up, low if depth else max(0, -deltas[j]))
            counts[j] -= 1
        prunes += stop - 1 - last

    try:
        # the root is the empty multiset: total 0, and only the empty sum
        rec(lo, 0, 0, 1, 0, 0, k if hi is None else hi)
    except _DepthReached:
        pass
    finally:
        rec = None  # rec's closure holds rec: free the search's tables now
    return best_len, best_counts, collected, SearchStats(nodes, prunes, closures)


# ---------------------------------------------------------------------------
# parallel driver

# (space, depth_cap, mode) of a pool worker, set once by the pool initializer
_worker: tuple[_Space, int, str] | None = None
# a worker's stop state: the stop signal sets _stopped, and ends the task
# that is running (_running) with _Stopped
_stopped = False
_running = False


class _Stopped(Exception):
    """The search has its answer: the running task is not needed."""


def _on_stop(signum, frame) -> None:
    global _stopped
    _stopped = True
    if _running:  # never while the worker reads a task or puts a result
        raise _Stopped


def _init_worker(space: _Space, depth_cap: int, mode: str) -> None:
    import signal

    global _worker
    _worker = (space, depth_cap, mode)
    signal.signal(signal.SIGUSR1, _on_stop)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGUSR1})


def _parallel_task(j0: int):
    """The search below root j0: None once the search is stopped, at once
    if the task starts after the stop.  Only a 'dav' search is stopped."""
    global _running
    try:
        _running = True
        if not _stopped:
            return _search_sequential(*_worker, j0, j0 + 1)
    except _Stopped:
        pass
    finally:
        _running = False
    return None


def _run_search(
    ground: GroundSet,
    depth_cap: int,
    mode: str,
    threads: int = 1,
    progress=None,
):
    """Build the search space and run the search, in ``threads`` worker
    processes, or in this process at threads 1.  Threads 0 means auto:
    workers only when the elements times the depth searched are many
    enough to pay for them.
    Returns (space, best_len, best_counts, collected, stats)."""
    space = _Space(ground, depth_cap)
    k = len(space.elems)
    if threads == 0:
        threads = min(4, os.cpu_count() or 1) if k * depth_cap >= 20_000 else 1
    if threads == 1 or k <= 1:
        return space, *_search_sequential(space, depth_cap, mode, progress=progress)
    best_len = 0
    best_counts = None
    collected = []
    stats = SearchStats()
    # imported here, not at the top: most runs never start a pool
    import signal
    from multiprocessing import Pool

    # the workers start with the stop signal blocked, so that one sent
    # before a worker has set its handler waits for it
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGUSR1})
    try:
        pool = Pool(min(threads, k), _init_worker, (space, depth_cap, mode))
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    # leaving the block terminates the workers: safe once every task has
    # ended, but a worker killed while it puts a result keeps the result
    # queue's lock, and the pool then waits for it for ever
    with pool:
        # merge in root order, as the sequential run visits them.  A 'dav'
        # root that reaches the depth ends that run too, so the roots after
        # it are not summed: the stop signal ends their tasks, and the
        # workers exit before the block is left.
        for blen, bcounts, coll, st in pool.imap(_parallel_task, range(k)):
            collected.extend(coll)
            stats.nodes += st.nodes
            stats.prunes += st.prunes
            stats.closures += st.closures
            # every key of root j0 starts with elems[j0]'s key, so a tie
            # keeps the earlier root's witness
            if blen > best_len:
                best_len, best_counts = blen, bcounts
            if mode == "dav" and blen == depth_cap:
                for worker in pool._pool:  # the pool's own processes
                    os.kill(worker.pid, signal.SIGUSR1)
                pool.close()
                pool.join()
                break
    return space, best_len, best_counts, collected, stats


# ---------------------------------------------------------------------------
# public operations


def davenport(
    ground: GroundSet,
    cap: int | None = None,
    threads: int = 1,
    progress=None,
) -> DavenportResult:
    """The Davenport constant of a finite ground set, by exhaustive search.

    The depth is the proven ``length_bound``; ``cap``, an integer >= 1
    (ValidationError if not), may lower (never raise) it.  A capped search
    reports exact=False, the longest atom found as the lower bound and the
    closed-form ``ground_bounds`` upper bound, with that bound's
    provenance.  The search stops at the first atom as long as the depth,
    or else exhausts the tree.  Results are deterministic and, stats
    included, independent of ``threads`` (0 = auto).  The witness is
    re-certified by ``is_minimal`` (ConsistencyError if not).
    """
    if cap is not None and (type(cap) is not int or cap < 1):
        raise ValidationError(f"cap must be an integer >= 1, got {cap!r}")
    check_threads(threads)
    t0 = perf_counter()
    bound = length_bound(ground)
    depth = bound if cap is None else min(cap, bound)
    best_len, witness, stats = 0, None, SearchStats()
    if depth > 0:
        space, best_len, best_counts, _, stats = _run_search(
            ground, depth, "dav", threads=threads, progress=progress
        )
        witness = space.certified_atom(best_counts) if best_counts else None
    stats.elapsed = perf_counter() - t0
    if depth == bound:
        return DavenportResult(best_len, best_len, True, witness, stats, ("exhaustive-search",))
    report = _bounds.ground_bounds(ground)
    provenance = ("exhaustive-search-capped", *report.provenance)
    return DavenportResult(best_len, report.upper, False, witness, stats, provenance)


def atoms_of_length(
    ground: GroundSet, length: int, threads: int = 1
) -> list[Sequence]:
    """All atoms over ``ground`` of length exactly ``length``, sorted, each
    re-certified by ``is_minimal`` (ConsistencyError if not)."""
    if length < 1:
        raise ValidationError("length must be >= 1")
    check_threads(threads)
    bound = length_bound(ground)
    if length > bound:
        return []
    space, _, _, collected, _ = _run_search(ground, length, "all", threads=threads)
    # the search emits the atoms of one length in canonical-key order
    return [space.certified_atom(c) for c in collected if sum(c) == length]


def all_atoms(ground: GroundSet, max_len: int | None = None) -> list[Sequence]:
    """Every atom over ``ground`` (of length <= max_len if given), sorted
    by (length, canonical form), each re-certified by ``is_minimal``
    (ConsistencyError if not)."""
    bound = length_bound(ground)
    depth = bound if max_len is None else min(max_len, bound)
    if depth == 0:
        return []
    space, _, _, collected, _ = _run_search(ground, depth, "all")
    # stable: within one length the search order is the canonical order
    collected.sort(key=sum)
    return [space.certified_atom(c) for c in collected]


def max_atoms(ground: GroundSet, threads: int = 1) -> list[Sequence]:
    """All atoms of maximal length; requires the exact search to complete."""
    result = davenport(ground, threads=threads)
    if not result.exact:
        raise ValidationError("maximal atoms need an exact search (no cap)")
    if result.lower == 0:
        return []
    return atoms_of_length(ground, result.lower, threads=threads)


def hunt_chi_gap(max_abs: int, max_size: int, threads: int = 1) -> dict:
    """Exploration: scan explicit mixed-sign subsets of [-k,k] minus 0 for a
    set whose pairwise lower bound is strictly below its exact Davenport
    constant.  No such example is known; none is asserted.
    """
    check_threads(threads)
    if max_abs < 1 or max_size < 2:
        raise ValidationError("need max_abs >= 1 and max_size >= 2")
    universe = [v for v in range(-max_abs, max_abs + 1) if v != 0]
    checked = 0
    gaps = []
    for size in range(2, max_size + 1):
        for combo in itertools.combinations(universe, size):
            if not (any(v > 0 for v in combo) and any(v < 0 for v in combo)):
                continue
            chi_value = _bounds.chi(combo)
            result = davenport(Explicit(tuple(Element((v,)) for v in combo)), threads=threads)
            checked += 1
            if chi_value < result.lower:
                gaps.append(
                    {
                        "set": list(combo),
                        "chi": chi_value,
                        "davenport": result.lower,
                    }
                )
    return {
        "universe": universe,
        "max_size": max_size,
        "sets_checked": checked,
        "gaps": gaps,
    }
