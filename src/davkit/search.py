"""Exact Davenport-constant engine: pruned exhaustive atom enumeration.

Search space
------------
Multisets over the ground set's elements, grown one element at a time in
nondecreasing canonical order, so each multiset is generated exactly once
and ties cannot occur (orderly generation).

Pruning
-------
A partial multiset P is viable only while *no* nonempty sub-multiset of it
sums to zero: any such sub-multiset would survive into every extension and
kill minimality.  The moment the running total itself hits zero, P is a
completed zero-sum candidate and is emitted iff the only zero-sum
sub-multiset it contains is P itself; either way the branch ends, because
a zero-sum proper prefix can never extend to a minimal sequence.

Bookkeeping is two reachability bitmasks: bit w of ``ones`` says some
nonempty sub-multiset of P sums to w, and ``twos`` marks sums achieved by
at least two distinct sub-multisets (saturating counter).  Lattice sums
are packed into bit positions by fixed per-axis strides sized from the
depth cap, so adding an element advances the whole reachable set with one
big-integer shift-or.  At a closure with last element e, P + e is an atom
iff ``twos`` has no bit at -e: the full P always reaches -e, and a second
achiever would be a proper zero-sum sub-multiset.

For group products the masks are keyed by group residue tuple; shifting
moves lattice sums while the key tracks the modular component, so the same
invariants hold verbatim.

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
t_c >= -T*A_c.  H + T*sum_c B_c << s_c - x tests t_c <= T*B_c alike, and
x == 0 iff t == 0.  With both tables precomputed per (T, j), every node
takes the per-axis decisions, hence the node, prune and closure counts, of
separate comparisons.  The reachability masks keep their dense packing.

Early stop
----------
In 'dav' mode the search depth is the proven length bound (or a smaller
cap), so an atom whose length equals the depth is a longest atom: no
atom within the depth is longer.  The search stops at the first such
atom.  Orderly generation visits multisets of equal length in increasing
canonical-key order, so that first atom is also the deterministic witness
(smallest key among the longest atoms) that the full tree would select.
When no atom reaches the depth the tree is exhausted, and its longest
atom is again exact up to the depth.  Either way the results are exact
values, not estimates; only the node, prune and closure counts depend on
where the search stopped.  Modes 'len' and 'all' never stop early.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter

from . import bounds as _bounds
from .core import (
    Box,
    ConsistencyError,
    Element,
    Explicit,
    GroundSet,
    GroupProduct,
    Interval,
    MixedElement,
    Sequence,
    ValidationError,
    emit_ground_set,
    enumerate_elements,
    parse_ground_set,
)
from .zerosum import is_minimal


@dataclass
class SearchStats:
    nodes: int = 0
    prunes: int = 0
    closures: int = 0
    elapsed: float = 0.0


@dataclass
class DavenportResult:
    """Exact value or proven bracket for the largest atom length.

    ``exact`` means the search depth was the full proven length bound, so
    lower == upper == the Davenport constant; otherwise ``lower`` is the
    longest atom within the requested depth and ``upper`` the best proven
    bound.  ``witness`` is the longest atom with the smallest canonical key
    whenever lower >= 1.  ``stats`` counts only the nodes visited before
    the search stopped (see the module docstring).
    """

    lower: int
    upper: int
    exact: bool
    witness: Sequence | None
    stats: SearchStats


# ---------------------------------------------------------------------------
# proven length bounds


def length_bound(ground: GroundSet) -> int:
    """A proven upper bound on the length of any atom over ``ground``.

    Dimension 1 uses the diameter (0 or 1 for single-sign sets); higher
    dimensions use the rearrangement-based product bound over the tightest
    enclosing symmetric box; group products multiply the group bound by
    the base bound.  Axes that are identically zero are dropped first.
    """
    ground = _bounds.drop_zero_axes(ground)
    if isinstance(ground, GroupProduct):
        return _bounds.group_davenport(ground.group).upper * length_bound(ground.base)
    if isinstance(ground, Interval):
        lo, hi = ground.lo, ground.hi
        if lo > 0 or hi < 0:
            return 0
        if lo == 0 or hi == 0:
            return 1
        return hi - lo
    if isinstance(ground, Explicit):
        if ground.dim == 1:
            vals = [e.coords[0] for e in ground.elements]
            has_pos = any(v > 0 for v in vals)
            has_neg = any(v < 0 for v in vals)
            if has_pos and has_neg:
                return max(vals) - min(vals)
            return 1 if 0 in vals else 0
        ms = [
            max(abs(e.coords[c]) for e in ground.elements) for c in range(ground.dim)
        ]
        return _bounds.box_upper(ms)
    if isinstance(ground, Box):
        ms = [max(abs(lo), abs(hi)) for lo, hi in ground.intervals]
        return _bounds.box_upper(ms)
    raise ValidationError(f"unknown ground set {ground!r}")


def _refined_upper(ground: GroundSet, bound: int) -> int:
    """Best proven upper bound for reporting an inexact result."""
    ground = _bounds.drop_zero_axes(ground)
    if isinstance(ground, Box) and ground.dim == 2:
        m1, m2 = (max(abs(lo), abs(hi)) for lo, hi in ground.intervals)
        return min(bound, _bounds.square_upper(m1, m2))
    return bound


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


class _Space:
    """Element tables, bit packings, and closability tables for one search."""

    def __init__(self, ground: GroundSet, depth_cap: int):
        elems = enumerate_elements(ground)
        self.elems = elems
        first = elems[0]
        if isinstance(first, MixedElement):
            self.group = first.group
            self.gparts = [e.group_part for e in elems]
            lcoords = [e.lattice_part.coords for e in elems]
        else:
            self.group = None
            self.gparts = [()] * len(elems)
            lcoords = [e.coords for e in elems]
        d = len(lcoords[0])
        # |sum_c| <= reach[c] for every sub-multiset of <= depth_cap elements
        reach = [depth_cap * max(abs(v[c]) for v in lcoords) for c in range(d)]
        # Reachability masks: strides sized so every such sum packs uniquely;
        # all bit indices stay non-negative via the offset.
        strides = [1] * d
        for c in range(1, d):
            strides[c] = strides[c - 1] * (2 * reach[c - 1] + 3)
        self.offset = sum((reach[c] + 1) * strides[c] for c in range(d))
        self.deltas = [sum(v[c] * strides[c] for c in range(d)) for v in lcoords]
        # guarded totals (see the module docstring): field c starts at shifts[c]
        shifts = [0] * d
        guards = 0
        for c in range(d):
            w = (2 * reach[c] + 1).bit_length()
            guards |= 1 << (shifts[c] + w)
            if c + 1 < d:
                shifts[c + 1] = shifts[c] + w + 1
        self.guards = guards
        self.shifts = shifts
        self.packed = [self.pack(v) for v in lcoords]
        # up[j] / down[j] pack how far elements >= j move each axis up / down;
        # rows are built on first use, so memory follows the depth reached
        k = len(elems)
        up, down = [0] * k, [0] * k
        hi, lo = [0] * d, [0] * d
        for j in range(k - 1, -1, -1):
            for c in range(d):
                hi[c] = max(hi[c], lcoords[j][c])
                lo[c] = min(lo[c], lcoords[j][c])
            up[j] = self.pack(hi)
            down[j] = -self.pack(lo)
        self.CL = _Rows(guards, up)
        self.CR = _Rows(guards, down)

    def pack(self, total) -> int:
        """The guarded packing of a lattice total."""
        return sum(t << s for t, s in zip(total, self.shifts))

    def sequence_from_counts(self, counts) -> Sequence:
        return Sequence.from_pairs(
            (self.elems[i], c) for i, c in enumerate(counts) if c
        )

    def flat_key(self, counts) -> tuple:
        out = []
        for i, c in enumerate(counts):
            if c:
                e = self.elems[i]
                key = (
                    (e.group_part, e.lattice_part.coords)
                    if isinstance(e, MixedElement)
                    else e.coords
                )
                out.extend([key] * c)
        return tuple(out)


# ---------------------------------------------------------------------------
# sequential DFS

_PROGRESS_STRIDE = 1 << 17


class _DepthReached(Exception):
    """A 'dav' search found an atom as long as its depth: the answer is final."""


def _search_sequential(
    space: _Space,
    depth_cap: int,
    mode: str,
    target: int,
    root_range: tuple[int, int] | None = None,
    progress=None,
):
    """Explore the orderly multiset tree; see the module docstring.

    mode 'dav'  - track the longest atom (the first found, which has the
                  smallest key), and stop at the first atom of length
                  ``depth_cap``;
    mode 'len'  - collect atoms of length exactly ``target``;
    mode 'all'  - collect every atom of length <= depth_cap.

    Returns (best_len, best_counts, collected, stats_tuple) where
    ``collected`` is a list of multiplicity tuples over space.elems.
    """
    k = len(space.elems)
    deltas = space.deltas
    offset = space.offset
    zero_bit = 1 << offset
    packed = space.packed
    H = space.guards
    CL = space.CL
    CR = space.CR
    group = space.group
    gparts = space.gparts
    identity = group.identity if group is not None else ()

    counts = [0] * k
    collected: list[tuple[int, ...]] = []
    best_len = 0
    best_counts: tuple[int, ...] | None = None
    nodes = prunes = closures = 0
    t0 = perf_counter()

    def emit(length: int):
        nonlocal best_len, best_counts
        if mode == "len":
            if length == target:
                collected.append(tuple(counts))
            return
        if mode == "all":
            collected.append(tuple(counts))
        # equal lengths arrive in increasing key order, so the first atom
        # of the longest length is the witness
        if length > best_len:
            best_len = length
            best_counts = tuple(counts)
            if mode == "dav" and length == depth_cap:
                raise _DepthReached

    if group is None:
        # pure-lattice fast path: masks are two plain integers
        def rec(start: int, depth: int, x: int, m1: int, m2: int):
            nonlocal nodes, prunes, closures
            nodes += 1
            if progress is not None and nodes % _PROGRESS_STRIDE == 0:
                progress(nodes, best_len)
            nd = depth + 1
            cl = CL[depth_cap - nd]
            cr = CR[depth_cap - nd]
            for j in range(start, k):
                nx = x + packed[j]
                if nx == 0:
                    closures += 1
                    delta = deltas[j]
                    if not (m2 >> (offset - delta)) & 1:
                        counts[j] += 1
                        emit(nd)
                        counts[j] -= 1
                    continue
                if (nx + cl[j]) & (cr[j] - nx) & H != H:  # T = 0 cuts at the depth
                    prunes += 1
                    continue
                delta = deltas[j]
                if delta >= 0:
                    sm1 = m1 << delta
                    sm2 = m2 << delta
                else:
                    sm1 = m1 >> -delta
                    sm2 = m2 >> -delta
                bit = 1 << (offset + delta)
                nm1 = m1 | sm1 | bit
                if nm1 & zero_bit:
                    prunes += 1
                    continue
                nm2 = m2 | sm2 | (m1 & sm1) | (bit & (m1 | sm1))
                counts[j] += 1
                rec(j, nd, nx, nm1, nm2)
                counts[j] -= 1

        def roots(lo: int, hi: int):
            nonlocal nodes, prunes, closures
            cl = CL[depth_cap - 1]
            cr = CR[depth_cap - 1]
            for j0 in range(lo, hi):
                # subtree whose first (smallest) element is elems[j0]
                nodes += 1
                x = packed[j0]
                if x == 0:
                    closures += 1
                    counts[j0] += 1
                    emit(1)
                    counts[j0] -= 1
                    continue
                if (x + cl[j0]) & (cr[j0] - x) & H != H:
                    prunes += 1
                    continue
                counts[j0] += 1
                rec(j0, 1, x, 1 << (offset + deltas[j0]), 0)
                counts[j0] -= 1
    else:
        gadd = group.add
        gneg = group.neg

        def rec_mixed(start: int, depth: int, gtotal, x: int, masks):
            nonlocal nodes, prunes, closures
            nodes += 1
            if progress is not None and nodes % _PROGRESS_STRIDE == 0:
                progress(nodes, best_len)
            nd = depth + 1
            cl = CL[depth_cap - nd]
            cr = CR[depth_cap - nd]
            for j in range(start, k):
                h = gparts[j]
                ngt = gadd(gtotal, h)
                nx = x + packed[j]
                delta = deltas[j]
                if ngt == identity and nx == 0:
                    closures += 1
                    pm2 = masks.get(gneg(h), (0, 0))[1]
                    if not (pm2 >> (offset - delta)) & 1:
                        counts[j] += 1
                        emit(nd)
                        counts[j] -= 1
                    continue
                # T = 0 passes a zero lattice total with a nonzero group part
                if nd >= depth_cap or (nx + cl[j]) & (cr[j] - nx) & H != H:
                    prunes += 1
                    continue
                new = dict(masks)
                if delta >= 0:
                    for g, (a1, a2) in masks.items():
                        tg = gadd(g, h)
                        sm1 = a1 << delta
                        t1, t2 = new.get(tg, (0, 0))
                        new[tg] = (t1 | sm1, t2 | (a2 << delta) | (t1 & sm1))
                else:
                    sh = -delta
                    for g, (a1, a2) in masks.items():
                        tg = gadd(g, h)
                        sm1 = a1 >> sh
                        t1, t2 = new.get(tg, (0, 0))
                        new[tg] = (t1 | sm1, t2 | (a2 >> sh) | (t1 & sm1))
                bit = 1 << (offset + delta)
                t1, t2 = new.get(h, (0, 0))
                new[h] = (t1 | bit, t2 | (t1 & bit))
                z1 = new.get(identity, (0, 0))[0]
                if (z1 >> offset) & 1:
                    prunes += 1
                    continue
                counts[j] += 1
                rec_mixed(j, nd, ngt, nx, new)
                counts[j] -= 1

        def roots(lo: int, hi: int):
            nonlocal nodes, prunes, closures
            cl = CL[depth_cap - 1]
            cr = CR[depth_cap - 1]
            for j0 in range(lo, hi):
                nodes += 1
                h = gparts[j0]
                x = packed[j0]
                if h == identity and x == 0:
                    closures += 1
                    counts[j0] += 1
                    emit(1)
                    counts[j0] -= 1
                    continue
                if depth_cap <= 1 or (x + cl[j0]) & (cr[j0] - x) & H != H:
                    prunes += 1
                    continue
                delta = deltas[j0]
                masks0 = {h: (1 << (offset + delta), 0)}
                counts[j0] += 1
                rec_mixed(j0, 1, h, x, masks0)
                counts[j0] -= 1

    try:
        roots(*(root_range or (0, k)))
    except _DepthReached:
        pass
    elapsed = perf_counter() - t0
    return best_len, best_counts, collected, (nodes, prunes, closures, elapsed)


# ---------------------------------------------------------------------------
# parallel driver


def _parallel_task(args):
    text, depth_cap, mode, target, j0 = args
    ground = parse_ground_set(text)
    space = _Space(ground, depth_cap)
    return _search_sequential(space, depth_cap, mode, target, root_range=(j0, j0 + 1))


def _run_search(
    ground: GroundSet,
    depth_cap: int,
    mode: str,
    target: int = 0,
    threads: int = 1,
    progress=None,
):
    space = _Space(ground, depth_cap)
    k = len(space.elems)
    if threads <= 1 or k <= 1:
        best_len, best_counts, collected, st = _search_sequential(
            space, depth_cap, mode, target, progress=progress
        )
        stats = SearchStats(*st)
        return space, best_len, best_counts, collected, stats
    text = emit_ground_set(ground)
    tasks = [(text, depth_cap, mode, target, j0) for j0 in range(k)]
    best_len = 0
    best_counts = None
    collected = []
    stats = SearchStats()
    with ProcessPoolExecutor(max_workers=min(threads, k)) as pool:
        # merge in root order, as the sequential run visits them.  A 'dav'
        # root that reaches the depth ends that run too, so the roots after
        # it are not summed, and those not yet started are cancelled.
        results = pool.map(_parallel_task, tasks)
        for blen, bcounts, coll, st in results:
            collected.extend(coll)
            stats.nodes += st[0]
            stats.prunes += st[1]
            stats.closures += st[2]
            stats.elapsed = max(stats.elapsed, st[3])
            # every key of root j0 starts with elems[j0]'s key, so a tie
            # keeps the earlier root's witness
            if blen > best_len:
                best_len, best_counts = blen, bcounts
            if mode == "dav" and blen == depth_cap:
                results.close()
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

    The depth is the proven ``length_bound``; ``cap`` may lower (never
    raise) it, and a capped search reports exact=False with the longest
    atom found as the lower bound.  The search stops at the first atom as
    long as the depth, or else exhausts the tree.  Results are
    deterministic and, stats included, independent of ``threads``.  The
    witness is re-certified by ``is_minimal`` (ConsistencyError if not).
    """
    t0 = perf_counter()
    bound = length_bound(ground)
    if bound == 0:
        return DavenportResult(0, 0, True, None, SearchStats(elapsed=perf_counter() - t0))
    depth = bound if cap is None else max(0, min(cap, bound))
    if depth == 0:
        return DavenportResult(
            0, _refined_upper(ground, bound), False, None,
            SearchStats(elapsed=perf_counter() - t0),
        )
    space, best_len, best_counts, _, stats = _run_search(
        ground, depth, "dav", threads=threads, progress=progress
    )
    stats.elapsed = perf_counter() - t0
    witness = space.sequence_from_counts(best_counts) if best_counts else None
    if witness is not None and not is_minimal(witness):
        raise ConsistencyError(f"search witness failed its minimality certificate: {witness}")
    if depth == bound:
        return DavenportResult(best_len, best_len, True, witness, stats)
    return DavenportResult(best_len, _refined_upper(ground, bound), False, witness, stats)


def atoms_of_length(
    ground: GroundSet, length: int, threads: int = 1
) -> list[Sequence]:
    """All atoms over ``ground`` of length exactly ``length``, sorted."""
    if length < 1:
        raise ValidationError("length must be >= 1")
    bound = length_bound(ground)
    if length > bound:
        return []
    space, _, _, collected, _ = _run_search(
        ground, length, "len", target=length, threads=threads
    )
    collected.sort(key=space.flat_key)
    return [space.sequence_from_counts(c) for c in collected]


def all_atoms(ground: GroundSet, max_len: int | None = None) -> list[Sequence]:
    """Every atom over ``ground`` (of length <= max_len if given), sorted
    by (length, canonical form)."""
    bound = length_bound(ground)
    depth = bound if max_len is None else min(max_len, bound)
    if depth == 0:
        return []
    space, _, _, collected, _ = _run_search(ground, depth, "all")
    collected.sort(key=lambda c: (sum(c), space.flat_key(c)))
    return [space.sequence_from_counts(c) for c in collected]


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
