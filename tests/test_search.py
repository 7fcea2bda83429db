import functools
import gc
import itertools
import multiprocessing
import multiprocessing.pool
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from davkit import (
    Element,
    Explicit,
    GroupProduct,
    GroupSpec,
    Interval,
    MixedElement,
    ValidationError,
    all_atoms,
    atoms_brute,
    atoms_of_length,
    davenport,
    enumerate_elements,
    ground_bounds,
    hunt_chi_gap,
    is_minimal,
    length_bound,
    max_atoms,
    parse_ground_set,
    verify_inverse,
)
from davkit import search as _search
from davkit.search import _run_search, _Space

from conftest import S


def explicit(*values) -> Explicit:
    return Explicit(tuple(Element.of(v) for v in values))


def _canonical_key(s) -> tuple:
    return tuple((e.group_part, e.coords) for e in s.flatten())


_search_sequential = _search._search_sequential


def _slow_after_root_zero(space, depth_cap, mode, lo=0, hi=None, progress=None):
    """The search of a pool task, whose roots after the first take seconds;
    the forked workers call it in place of the module's own."""
    if lo >= 1:
        time.sleep(30)
    return _search_sequential(space, depth_cap, mode, lo, hi, progress)


class TestLengthBound:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("[-2,4]", 6),
            ("[-1,1]^2", 16),
            ("C2x[-1,1]", 4),
            ("{1,2}", 0),
            ("{0,1,2}", 1),
            ("{-2,-1}", 0),
            ("{0}", 1),
            ("C3x[-2,2]", 12),
            ("[-1,1]x[0,0]", 2),
            ("{(0,0)}", 1),
            # a single-signed axis: the bound of the slice where it is 0
            ("[1,2]x[-1,1]", 0),
            ("{(1,0),(0,1)}", 0),
            ("[0,2]x[-1,1]", 2),
            ("[0,1]x[-2,2]", 4),
            ("{(0,1),(1,-1),(0,2)}", 0),
            ("C3x[1,2]x[-1,1]", 0),
        ],
    )
    def test_values(self, text, expected):
        assert length_bound(parse_ground_set(text)) == expected


class TestDavenport:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("[-2,3]", 5),
            ("[-2,4]", 5),
            ("[-1,1]", 2),
            ("{0}", 1),
            ("{1}", 0),
            ("[-1,1]^2", 4),
            # axes that are identically zero do not change the value
            ("[-1,1]x[0,0]", 2),
            ("[0,0]x[-1,1]", 2),
            ("{(1,0),(-1,0)}", 2),
            ("{(0,0)}", 1),
            ("[0,0]^3", 1),
            ("[-1,1]x[0,0]x[-1,1]", 4),
            ("C3x{(1,0),(-1,0)}", 6),
        ],
    )
    def test_exact_values(self, text, expected):
        r = davenport(parse_ground_set(text))
        assert r.exact and r.lower == r.upper == expected
        if expected >= 1:
            assert r.witness is not None
            assert r.witness.length == expected
            assert is_minimal(r.witness)
        else:
            assert r.witness is None

    def test_cap_gives_bracket(self):
        r = davenport(Interval(-3, 3), cap=3)
        assert not r.exact
        # the upper bound is the closed form D([-3,3]) = 5
        assert r.lower == 3 and r.upper == 5
        assert is_minimal(r.witness) and r.witness.length == 3

    def test_cap_with_zero_axis(self):
        # the upper bound of a capped run is that of [-2,2], the closed form 3
        r = davenport(parse_ground_set("[-2,2]x[0,0]"), cap=2)
        assert (r.lower, r.upper, r.exact) == (2, 3, False)

    @pytest.mark.parametrize(
        "text,cap",
        [("[-3,3]", 3), ("[-2,2]^2", 9), ("[-1,1]^3", 7), ("C5x[-2,2]", 6),
         ("C2x[-1,1]^2", 8), ("{-3,1,2}", 3), ("[-3,4]", 1)],
    )
    def test_capped_upper_is_the_closed_form(self, text, cap):
        ground = parse_ground_set(text)
        r = davenport(ground, cap=cap)
        report = ground_bounds(ground)
        assert not r.exact
        assert r.upper == report.upper
        assert r.provenance == ("exhaustive-search-capped", *report.provenance)
        # the bracket claims no lower bound beyond its certified witness
        if r.lower >= 1:
            assert r.lower == r.witness.length and is_minimal(r.witness)
        else:
            assert r.witness is None

    def test_capped_bracket_can_close_without_exact(self):
        # D(C2 x [-1,1]^2) = 8 is a closed form; the search did not run to
        # length_bound = 32, so the result is still not exact
        r = davenport(parse_ground_set("C2x[-1,1]^2"), cap=8)
        assert (r.lower, r.upper, r.exact) == (8, 8, False)

    def test_cap_at_bound_still_exact(self):
        r = davenport(Interval(-2, 3), cap=100)
        assert r.exact and r.lower == 5
        assert r.provenance == ("exhaustive-search",)

    def test_open_square_reports_construction_bracket(self):
        # the exact value of this square is unknown; a capped run must
        # report the best atom found against the rectangle upper bound
        r = davenport(parse_ground_set("[-2,2]^2"), cap=9)
        assert not r.exact
        assert (r.lower, r.upper) == (9, 45)
        assert is_minimal(r.witness)

    def test_witness_deterministic_across_threads(self):
        a = davenport(parse_ground_set("C2x[-2,2]"), threads=1)
        b = davenport(parse_ground_set("C2x[-2,2]"), threads=3)
        assert (a.lower, a.upper, a.exact, a.witness) == (b.lower, b.upper, b.exact, b.witness)
        assert (a.stats.nodes, a.stats.prunes) == (b.stats.nodes, b.stats.prunes)

    @pytest.mark.parametrize("cap", [0, -3, 2.5, "4", True])
    def test_cap_below_one_or_not_an_integer_is_rejected(self, cap):
        with pytest.raises(ValidationError, match="cap"):
            davenport(Interval(-2, 3), cap=cap)

    @pytest.mark.parametrize(
        "call",
        [lambda: davenport(Interval(1, 2), threads=-1),  # no atoms: no tree is searched
         lambda: atoms_of_length(Interval(-1, 1), 5, threads=-1),  # above the bound
         lambda: max_atoms(Interval(1, 2), threads=-1),
         lambda: hunt_chi_gap(1, 2, threads=-1),
         lambda: verify_inverse([1], threads=-1)],  # m = 1 lists no atoms
        ids=["davenport", "atoms_of_length", "max_atoms", "hunt_chi_gap", "verify_inverse"],
    )
    def test_negative_threads_rejected_before_any_early_return(self, call):
        with pytest.raises(ValidationError, match="threads"):
            call()


class TestEarlyStop:
    """A 'dav' search ends at its first atom as long as the depth."""

    @pytest.mark.parametrize(
        "text,cap",
        [("C5x[-1,1]", None), ("[-2,3]", None), ("[-2,2]^2", 8), ("[-7,7]", None), ("[-6,10]", None)],
    )
    def test_full_result_independent_of_threads(self, text, cap):
        ground = parse_ground_set(text)
        a = davenport(ground, cap=cap, threads=1)
        b = davenport(ground, cap=cap, threads=2)
        # the first three stop early, at an atom as long as the depth; the
        # one-dimensional ones exhaust their trees, which Lambert's local
        # depth cuts per node
        assert a.lower == (cap or ground_bounds(ground).lower)
        a.stats.elapsed = b.stats.elapsed = 0.0
        assert a == b

    @pytest.mark.parametrize(
        "text,cap",
        [("[-3,4]", None), ("C3x[-1,1]", None), ("{-3,-1,2}", None), ("[-1,1]^2", 3),
         # exhausted trees, cut by the local depth, also below a cap
         ("[-5,5]", None), ("[-4,6]", None), ("[-5,5]", 6)],
    )
    def test_witness_is_first_longest_atom(self, text, cap):
        # all_atoms never stops early and sorts by (length, canonical key)
        ground = parse_ground_set(text)
        r = davenport(ground, cap=cap)
        atoms = all_atoms(ground, max_len=cap)
        longest = max(a.length for a in atoms)
        assert r.lower == longest
        assert r.witness == next(a for a in atoms if a.length == longest)

    def test_parallel_stop_does_not_wait_for_running_roots(self, monkeypatch):
        # root 0 reaches the depth; the roots after it would run for seconds
        monkeypatch.setattr(_search, "_search_sequential", _slow_after_root_zero)
        ground = parse_ground_set("C6x[-1,1]")
        t0 = time.perf_counter()
        b = davenport(ground, threads=2)
        assert time.perf_counter() - t0 < 10
        assert multiprocessing.active_children() == []
        a = davenport(ground, threads=1)
        a.stats.elapsed = b.stats.elapsed = 0.0
        assert a == b

    def test_node_count_pinned(self):
        # the full tree to the depth 12 has 37,254 nodes; the first root's
        # leftmost branch already reaches an atom of length 12
        r = davenport(parse_ground_set("C6x[-1,1]"))
        assert r.exact and r.lower == 12
        assert r.stats.nodes == 11


def _terminate_only_when_idle(real):
    """Pool.terminate that fails while a worker is still alive."""
    def terminate(pool):
        alive = [w.pid for w in pool._pool if w.is_alive()]
        assert not alive, f"terminate() while workers {alive} run"
        real(pool)
    return terminate


class TestParallelStop:
    """A 'dav' pool that stops early lets its workers finish, never kills them."""

    def test_task_after_the_stop_searches_nothing(self, monkeypatch):
        def search(*args):
            raise AssertionError("a task after the stop searched")

        monkeypatch.setattr(_search, "_search_sequential", search)
        monkeypatch.setattr(_search, "_worker", (None, 4, "dav"))
        monkeypatch.setattr(_search, "_stopped", True)
        assert _search._parallel_task(3) is None
        assert _search._running is False

    def test_stop_signal_ends_the_running_task(self, monkeypatch):
        # the handler, called as the signal would call it, mid-task
        def search(*args):
            assert _search._running
            _search._on_stop(None, None)
            raise AssertionError("the stop did not end the task")

        monkeypatch.setattr(_search, "_search_sequential", search)
        monkeypatch.setattr(_search, "_worker", (None, 4, "dav"))
        monkeypatch.setattr(_search, "_stopped", False)
        assert _search._parallel_task(3) is None
        assert _search._stopped and not _search._running

    def test_stop_signal_between_tasks_only_marks_the_stop(self, monkeypatch):
        monkeypatch.setattr(_search, "_stopped", False)
        _search._on_stop(None, None)  # no task runs: nothing to raise into
        assert _search._stopped

    def test_early_stop_never_terminates_running_workers(self, monkeypatch):
        # root 0 reaches the depth; the roots after it would run for seconds
        monkeypatch.setattr(_search, "_search_sequential", _slow_after_root_zero)
        Pool = multiprocessing.pool.Pool
        monkeypatch.setattr(Pool, "terminate", _terminate_only_when_idle(Pool.terminate))
        ground = parse_ground_set("C6x[-1,1]")
        b = davenport(ground, threads=2)
        assert multiprocessing.active_children() == []
        a = davenport(ground, threads=1)
        a.stats.elapsed = b.stats.elapsed = 0.0
        assert a == b

    def test_many_early_stops_with_more_workers_than_cores(self):
        # most of these sets stop at a root before the last, while other
        # roots run; a pool that hangs fails on the timeout
        code = (
            "import itertools\n"
            "from davkit import Element, Explicit, davenport\n"
            "values = [v for v in range(-6, 7) if v]\n"
            "sets = [c for c in itertools.combinations(values, 3) if min(c) < 0 < max(c)]\n"
            "for c in sets[::2]:\n"
            "    X = Explicit(tuple(Element((v,)) for v in c))\n"
            "    a, b = davenport(X, threads=1), davenport(X, threads=3)\n"
            "    a.stats.elapsed = b.stats.elapsed = 0.0\n"
            "    assert a == b, c\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestAtomsOfLength:
    def test_symmetric_interval_examples(self):
        assert set(atoms_of_length(Interval(-2, 2), 3)) == {
            S({2: 1, -1: 2}),
            S({-2: 1, 1: 2}),
        }
        assert atoms_of_length(Interval(-1, 1), 2) == [S({1: 1, -1: 1})]

    def test_near_maximal_family(self):
        got = set(atoms_of_length(Interval(-3, 3), 4))
        assert got == {
            S({3: 1, -1: 3}),
            S({-3: 1, 1: 3}),
            S({3: 1, -2: 2, 1: 1}),
            S({-3: 1, 2: 2, -1: 1}),
        }

    def test_length_above_bound_is_empty(self):
        assert atoms_of_length(Interval(-2, 2), 9) == []

    def test_auto_threads_measure_the_searched_depth(self, monkeypatch):
        # 441 elements times depth 2 is far below the pool threshold, though
        # 441 times length_bound (961) is not: no pool may start
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        atoms = atoms_of_length(parse_ground_set("[-10,10]^2"), 2, threads=0)
        assert len(atoms) == 220

    @pytest.mark.parametrize(
        "listing",
        [lambda: atoms_of_length(Interval(-2, 2), 3), lambda: all_atoms(Interval(-2, 2), 3)],
        ids=["atoms_of_length", "all_atoms"],
    )
    def test_listed_atoms_are_certified(self, monkeypatch, listing):
        from davkit import ConsistencyError
        from davkit import zerosum as _zerosum

        monkeypatch.setattr(_zerosum, "is_minimal", lambda s: False)
        with pytest.raises(ConsistencyError, match="minimality certificate"):
            listing()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("text,length", [("[-3,3]", 4), ("[-2,2]^2", 5), ("C2xC4x[-1,1]", 4)])
    def test_output_sorted_and_minimal(self, text, length, threads):
        # the search emits atoms of one length in canonical-key order; no sort follows
        atoms = atoms_of_length(parse_ground_set(text), length, threads=threads)
        assert atoms == sorted(atoms, key=_canonical_key)
        assert all(a.length == length and is_minimal(a) for a in atoms)


class TestMaxAtoms:
    def test_small_cases(self):
        assert max_atoms(Interval(-1, 1)) == [S({1: 1, -1: 1})]
        assert set(max_atoms(Interval(-3, 3))) == {S({3: 2, -2: 3}), S({-3: 2, 2: 3})}

    def test_asymmetric_interval_against_oracle(self):
        oracle = atoms_brute([-2, -1, 1, 2, 3], 5)
        expected = {a for a in oracle if a.length == 5}
        assert set(max_atoms(Interval(-2, 3))) == expected

    def test_requires_exactness(self):
        # an all-positive set has no atoms; exact zero, no maximal atoms
        assert max_atoms(explicit(1, 2)) == []


class TestOracleFamily:
    """Pruned search versus the naive oracle on explicit 1-d subsets."""

    def _family(self):
        universe = [-3, -2, -1, 1, 2, 3]
        for size in range(1, 5):
            yield from itertools.combinations(universe, size)

    def test_agreement_smoke(self):
        # full sweep lives in the acceptance suite; spot-check a slice here
        for combo in list(self._family())[::5]:
            vals = list(combo)
            ground = explicit(*vals)
            oracle = atoms_brute(vals, max(max(vals) - min(vals), 0))
            want = max((a.length for a in oracle), default=0)
            r = davenport(ground)
            assert r.exact and r.lower == want, combo

    def test_monotonicity_and_mirror(self):
        values = {}
        for combo in self._family():
            values[combo] = davenport(explicit(*combo)).lower
        for combo, d in values.items():
            mirror = tuple(sorted(-v for v in combo))
            assert values[mirror] == d
            for other, d2 in values.items():
                if set(combo) <= set(other):
                    assert d <= d2

    def test_sandwich_and_degenerate(self):
        from davkit import chi, diam

        for combo in self._family():
            vals = list(combo)
            d = davenport(explicit(*vals)).lower
            has_pos = any(v > 0 for v in vals)
            has_neg = any(v < 0 for v in vals)
            if has_pos and has_neg:
                assert chi(vals) <= d <= diam(vals)
            else:
                assert d == 0
                with_zero = davenport(explicit(*(vals + [0]))).lower
                assert with_zero == 1

    def test_interval_collapse(self):
        for m in range(2, 6):
            a = davenport(Interval(-m, m))
            b = davenport(Interval(-(m - 1), m))
            assert a.exact and b.exact and a.lower == b.lower


class TestSignCount:
    """Lambert's bound, which the one-dimensional search cuts on: an atom
    over X has at most max(0, -min X) positive and at most max(0, max X)
    negative terms.  X may be any set that holds the atom's support, the
    support itself included, which bounds a nonzero atom's length by
    -min supp(A) + max supp(A)."""

    def test_every_brute_atom_obeys_it(self):
        checked = 0
        for size in range(2, 5):
            for combo in itertools.combinations(range(-4, 5), size):
                if not combo[0] < 0 < combo[-1]:
                    continue
                most_pos, most_neg = -combo[0], combo[-1]
                for atom in atoms_brute(list(combo), length_bound(explicit(*combo))):
                    signs = [e.coords[0] for e in atom.flatten()]
                    low, high = signs[0], signs[-1]  # flatten is sorted
                    pos, neg = sum(v > 0 for v in signs), sum(v < 0 for v in signs)
                    assert pos <= most_pos and neg <= most_neg, (combo, atom)
                    assert pos <= max(0, -low) and neg <= max(0, high), (combo, atom)
                    assert signs == [0] or atom.length <= high - low, (combo, atom)
                    checked += 1
        assert checked == 642


class TestGroupProducts:
    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1)])
    def test_cyclic_times_interval(self, n, m):
        r = davenport(parse_ground_set(f"C{n}x[-{m},{m}]"))
        delta = 1 if m == 1 else 0
        assert r.exact and r.lower == n * (2 * m - 1 + delta)
        assert is_minimal(r.witness)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_pure_group_embedding(self, n):
        r = davenport(parse_ground_set(f"C{n}x{{0}}"))
        assert r.exact and r.lower == n

    def test_rank_two_group_embedding(self):
        r = davenport(parse_ground_set("C2xC2x{0}"))
        assert r.exact and r.lower == 3


class TestAllAtoms:
    def test_matches_brute(self):
        ground = Interval(-2, 2)
        got = all_atoms(ground)
        want = atoms_brute([-2, -1, 0, 1, 2], length_bound(ground))
        assert set(got) == set(want)

    def test_lengths_sorted(self):
        lengths = [a.length for a in all_atoms(Interval(-2, 3))]
        assert lengths == sorted(lengths)
        atoms = all_atoms(parse_ground_set("C2x[-1,1]"))
        order = [(a.length, _canonical_key(a)) for a in atoms]
        assert order == sorted(order)

    def test_matches_brute_in_two_dimensions(self):
        from davkit import enumerate_elements

        ground = parse_ground_set("[-1,1]x[0,1]")
        got = [a for a in all_atoms(ground) if a.length <= 5]
        want = atoms_brute(enumerate_elements(ground), 5)
        assert set(got) == set(want)

    def test_matches_brute_for_group_products(self):
        from davkit import enumerate_elements

        ground = parse_ground_set("C2x[-1,1]")
        got = all_atoms(ground)
        want = atoms_brute(enumerate_elements(ground), length_bound(ground))
        assert set(got) == set(want)


def test_hunt_chi_gap_smoke():
    report = hunt_chi_gap(2, 3)
    assert report["sets_checked"] == 8
    assert report["gaps"] == []


class TestTreePinned:
    """(nodes, prunes, closures) at threads=1: the pruning decisions of the
    guarded running total are those of the direct inequalities, the
    window rows prune lattice sets, and Lambert's bound per node prunes
    one-dimensional sets.  A node is a multiset the
    search extends; the empty root is not counted."""

    @pytest.mark.parametrize(
        "text,cap,counts",
        [
            ("[-7,7]", None, (6217, 25432, 560)),
            ("[-6,10]", None, (9180, 51582, 957)),
            ("[-1,2]x[-1,1]", None, (1503, 9296, 39)),
            ("[-1,1]^3", 7, (47, 468, 1)),
            ("{(2,1),(-1,0),(0,-1),(-1,1)}", None, (183, 277, 3)),
            # Lambert's bound does not apply to a group product over one
            # lattice axis; it would be false here (D = 9 > 2 + 2)
            ("C3x[-2,2]", None, (11817, 41949, 406)),
            ("C2x[-1,1]^2", 8, (178, 895, 2)),
            ("C3xC3x{-1,1}", None, (9, 9, 1)),
            # the only root is a closure: no multiset is extended
            ("{0}", None, (0, 0, 1)),
            # stopped early: a killed child counts as a prune only once the
            # loop has passed it
            ("[-6,7]", None, (12, 13, 1)),
            ("[-2,2]^2", 8, (7, 23, 1)),
            ("[-3,4]", None, (6, 7, 1)),
            ("{-7,-3,2,5,6}", None, (12, 4, 1)),
            ("[-1,1]x[0,0]", None, (1, 2, 1)),
            # the zero element, over an exhausted tree
            ("[-8,8]", None, (20952, 97252, 1165)),
            # negative deltas dominate these trees: such a child keeps its
            # parent's mask base and shifts the mask left
            ("[-1,1]^3", 9, (78, 676, 1)),
            ("{(-2,0,1),(1,1,-1),(0,-1,0),(1,0,0),(0,0,0)}", 20, (28, 83, 2)),
        ],
    )
    def test_davenport_counts(self, text, cap, counts):
        st_ = davenport(parse_ground_set(text), cap=cap).stats
        assert (st_.nodes, st_.prunes, st_.closures) == counts

    def test_atoms_of_length_counts(self):
        for text, length, atoms, counts in [
            ("[-5,5]", 9, 2, (425, 1387, 100)),
            ("[-2,2]^2", 8, 644, (21196, 156622, 3577)),
        ]:
            _, _, _, collected, st_ = _run_search(parse_ground_set(text), length, "all")
            assert len([c for c in collected if sum(c) == length]) == atoms
            assert (st_.nodes, st_.prunes, st_.closures) == counts

    @pytest.mark.parametrize(
        "text,depth,counts",
        [("C2xC4x[-1,1]", 5, (5703, 27454, 1419)), ("C2xC2x[-1,1]", 6, (409, 1073, 83))],
    )
    def test_rank_two_all_atoms_counts(self, text, depth, counts):
        _, _, _, collected, st_ = _run_search(parse_ground_set(text), depth, "all")
        assert (st_.nodes, st_.prunes, st_.closures) == counts
        assert len(collected) == counts[2]


def _functionals(d: int) -> list[tuple[int, ...]]:
    """Each lattice axis, then for each pair of axes a < b the sum and the
    difference of the two."""
    axes = [tuple(int(c == a) for c in range(d)) for a in range(d)]
    pairs = [
        tuple(int(c == a) + sign * int(c == b) for c in range(d))
        for a, b in itertools.combinations(range(d), 2)
        for sign in (1, -1)
    ]
    return axes + pairs


def _direct(coords, j: int, T: int, t, functionals) -> bool:
    """-T * max(0, max u.e) <= u.t <= T * max(0, -min u.e) over the
    elements e >= j, for every functional u."""
    for u in functionals:
        values = [sum(a * b for a, b in zip(u, v)) for v in coords[j:]]
        ut = sum(a * b for a, b in zip(u, t))
        if not -T * max([0, *values]) <= ut <= T * max([0, *(-w for w in values)]):
            return False
    return True


class TestGuardedTotal:
    """The guarded test against the direct inequalities
    -T * max(0, max u.e) <= u.t <= T * max(0, -min u.e) over elements >= j,
    for u each lattice axis and, in d >= 2, each pair sum and difference."""

    @pytest.mark.parametrize(
        "text,depth",
        [
            ("{-3,-1,2}", 3),
            ("{2,3}", 2),
            # the second axis is one-signed on every suffix after the first
            ("{(-2,0),(-1,1),(1,2),(2,1)}", 2),
            # the last axis is identically zero
            ("{(-1,0,0),(0,1,0),(1,-1,0),(1,1,0)}", 3),
        ],
    )
    def test_matches_per_axis_inequality(self, text, depth):
        ground = parse_ground_set(text)
        space = _Space(ground, depth)
        coords = [e.coords for e in space.elems]
        d = len(coords[0])
        reach = [depth * max(abs(v[c]) for v in coords) for c in range(d)]
        H = space.guards
        functionals = _functionals(d)
        pair_cuts = 0
        for t in itertools.product(*(range(-r, r + 1) for r in reach)):
            x = space.pack(t)
            assert (x == 0) == (not any(t))
            for j in range(len(coords)):
                for T in range(depth + 1):
                    direct = _direct(coords, j, T, t, functionals)
                    guarded = (x + space.CL[T][j]) & (space.CR[T][j] - x) & H == H
                    assert guarded == direct, (t, j, T)
                    pair_cuts += not direct and _direct(coords, j, T, t, functionals[:d])
        # the pair fields cut totals that every axis passes
        assert (pair_cuts > 0) == (d >= 2)

    def test_packing_adds(self):
        space = _Space(parse_ground_set("[-2,2]^2"), 4)
        for a, b in itertools.product(space.elems, repeat=2):
            total = tuple(p + q for p, q in zip(a.coords, b.coords))
            assert space.pack(a.coords) + space.pack(b.coords) == space.pack(total)


class TestMixedTables:
    """The residue axes of the guarded total and of the reachability masks."""

    @pytest.mark.parametrize(
        "text,depth", [("C3x{-1,2}", 3), ("C2xC2x{(1,0),(-1,1)}", 2), ("C2xC4x[-1,1]", 2)]
    )
    def test_closed_and_rows(self, text, depth):
        space = _Space(parse_ground_set(text), depth)
        moduli = space.elems[0].group.factors
        coords = [e.lattice_part.coords for e in space.elems]
        d = len(coords[0])
        reach = [depth * max(abs(v[c]) for v in coords) for c in range(d)]
        rmax = [depth * (n - 1) for n in moduli]
        H = space.guards
        functionals = _functionals(d)
        lattice_totals = itertools.product(*(range(-m, m + 1) for m in reach))
        residue_sums = itertools.product(*(range(m + 1) for m in rmax))
        for t, r in itertools.product(lattice_totals, list(residue_sums)):
            x = space.pack(t + r)
            # the one element e with t + e = 0 and r + e's residues = 0 mod n_i
            closes = [
                j for j, e in enumerate(space.elems)
                if all(a + b == 0 for a, b in zip(t, e.coords))
                and all((ri + h) % n == 0 for ri, h, n in zip(r, e.group_part, moduli))
            ]
            assert space.closing[x] == (closes[0] if closes else None), (t, r)
            for j in range(len(coords)):
                for T in range(depth + 1):
                    direct = _direct(coords, j, T, t, functionals)
                    direct = direct and (T >= 1 or not any(r))
                    guarded = (x + space.CL[T][j]) & (space.CR[T][j] - x) & H == H
                    assert guarded == direct, (t, r, j, T)

    @pytest.mark.parametrize(
        "text,depth", [("C3x{-1,2}", 3), ("C2xC2x{(1,0),(-1,1),(0,-1)}", 3), ("C2xC4x[-1,1]", 2)]
    )
    def test_mask_bits(self, text, depth):
        """Walk the kernel's step from the empty root (the empty sum on bit
        0, base 0) over every multiset of at most ``depth`` elements, and
        each sub-sum's bit along with it: one bit per sum in the group, at
        the same offset below the base in every node; the zero sum on the
        base; and, for each element e_j, bit L + delta_j set iff -e_j is a
        sub-sum."""
        space = _Space(parse_ground_set(text), depth)
        elems = space.elems
        moduli, dim = elems[0].group.factors, elems[0].dim

        def lowered(m, j):  # the wrap reduction of m << down_j
            for over, w in space.steps[j][2]:
                f = m & over
                m ^= f ^ (f >> w)
            return m

        def key(sub):  # the sum of elems[sub] in the group
            residues = [sum(elems[j].group_part[i] for j in sub) for i in range(len(moduli))]
            lattice = [sum(elems[j].lattice_part.coords[c] for j in sub) for c in range(dim)]
            return tuple(r % n for r, n in zip(residues, moduli)), tuple(lattice)

        def negative(e):
            return (
                tuple(-r % n for r, n in zip(e.group_part, moduli)),
                tuple(-c for c in e.lattice_part.coords),
            )

        offset = {}  # L - bit, per sum in the group
        for size in range(1, depth + 1):
            for multiset in itertools.combinations_with_replacement(range(len(elems)), size):
                n, L = 1, 0
                bits = {(): 0}  # sub-multiset (positions in ``multiset``) -> its bit
                for pos, j in enumerate(multiset):
                    up, down, _ = space.steps[j]
                    bits = {
                        **{sub: bit + up for sub, bit in bits.items()},
                        **{
                            sub + (pos,): lowered(1 << (bit + down), j).bit_length() - 1
                            for sub, bit in bits.items()
                        },
                    }
                    n, L = n << up | lowered(n << down, j), L + up
                sums = {}
                for sub, bit in bits.items():
                    assert n >> bit & 1, (multiset, sub)
                    total = key([multiset[p] for p in sub])
                    assert sums.setdefault(total, bit) == bit, (multiset, sub)
                    assert offset.setdefault(total, L - bit) == L - bit, (multiset, sub)
                assert n.bit_count() == len(sums), multiset
                for j, e in enumerate(elems):
                    bit = L + space.deltas[j]
                    assert (bit >= 0 and n >> bit & 1 == 1) == (negative(e) in sums), (multiset, j)
        assert len(set(offset.values())) == len(offset)
        assert offset[(0,) * len(moduli), (0,) * dim] == 0


class _Stop(Exception):
    pass


def _set_search(ground, depth: int, mode: str, lo: int, hi: int):
    """The orderly search of the ``davkit.search`` docstring over plain
    sets of sub-sums in the group, no bit packing.  On a 1-D lattice set a
    nonempty P first takes Lambert's bound b = m' + M', m' = max(0, -min P)
    and M' = max(0, max of P, the alive elements and the element that
    closes P): when b < |P| + 1 every child is cut; otherwise the rows and
    the alive test use T = min(depth - |P| - 1, b - |P| - 1).  Each child
    P + e of a node P, in canonical order, is then cut by Lambert's sign
    count (on a 1-D lattice set, P nonempty: a negative e when P holds
    only negatives, at least M' of them; a positive e when P holds at
    least m' positives), else a closure when e = -t, else killed when
    e = 0 or -e is a sub-sum of P, else cut by the rows (``_direct`` on
    the lattice part; at T = 0 every child), else, on a lattice set, cut
    by ``_direct`` over the elements that P leaves alive (index i >= the
    node's start, not the root range's, e_i != 0 and -e_i not a sub-sum
    of P), and otherwise extended.  The kernel has no positive sign-count
    test: the module docstring proves that every such child is killed or
    cut by the rows anyway.  Returns what ``_search_sequential`` does, with
    the counts as a tuple."""
    elems = enumerate_elements(ground)
    if elems[0].group is not None:
        moduli = elems[0].group.factors
        coords = [e.lattice_part.coords + e.group_part for e in elems]
    else:
        moduli = ()
        coords = [e.coords for e in elems]
    k, d = len(coords), len(coords[0]) - len(moduli)
    lattice = [v[:d] for v in coords]
    functionals = _functionals(d)
    rows = functools.cache(lambda j, T, t: T >= 1 and _direct(lattice, j, T, t, functionals))
    window = functools.cache(lambda alive, T, t: not moduli and not _direct(alive, 0, T, t, functionals))
    line = d == 1 and not moduli
    values = [v[0] for v in coords]
    counts = [0] * k
    collected, best, tally = [], [0, None], [0, 0, 0]

    def add(s, e):  # the sum in Z^d x G
        return tuple(a + b for a, b in zip(s[:d], e)) + tuple(
            (a + b) % n for a, b, n in zip(s[d:], e[d:], moduli)
        )

    def neg(e):
        return add((0,) * len(e), tuple(-c for c in e))

    def emit(length):
        if mode == "all":
            collected.append(tuple(counts))
        if length > best[0]:
            best[:] = length, tuple(counts)
            if mode == "dav" and length == depth:
                raise _Stop

    def visit(P, start, stop, sums, t):
        neg_count = sum(coords[i][0] < 0 for i in P)
        alive = tuple(lattice[i] for i in range(start, k) if any(coords[i]) and neg(coords[i]) not in sums)
        T = depth - len(P) - 1
        most_pos = most_neg = len(P) + 1  # no sign-count cut
        if line and P:
            closer = [e[0] for e in coords[start:] if not any(add(t, e))]
            support = [values[i] for i in P] + [a[0] for a in alive] + closer
            most_pos, most_neg = max(0, -values[P[0]]), max(0, *support)
            if most_pos + most_neg < len(P) + 1:
                tally[1] += stop - start
                return
            T = min(T, most_pos + most_neg - len(P) - 1)
        for j in range(start, stop):
            e = coords[j]
            nt = add(t, e)
            if (
                e[0] < 0 and neg_count == len(P) >= most_neg
                or e[0] > 0 and len(P) - neg_count >= most_pos
            ):
                tally[1] += 1
            elif not any(nt):
                tally[2] += 1
                counts[j] += 1
                emit(len(P) + 1)
                counts[j] -= 1
            elif (
                not any(e)
                or neg(e) in sums
                or not rows(j, T, nt[:d])
                or window(alive, T, nt[:d])
            ):
                tally[1] += 1
            else:
                tally[0] += 1
                counts[j] += 1
                visit(P + (j,), j, k, sums | {add(s, e) for s in sums} | {e}, nt)
                counts[j] -= 1

    try:
        visit((), lo, hi, frozenset(), (0,) * len(coords[0]))
    except _Stop:
        pass
    return best[0], best[1], collected, tuple(tally)


class TestWindow:
    """The search loop: its digit order, and its visits against a search
    over plain sets of sub-sums."""

    @pytest.mark.parametrize(
        "text",
        ["[-3,4]", "{-7,-3,2,5,6}", "[-1,1]x[0,0]", "[-2,2]^2", "[-1,2]x[-1,1]", "[-1,1]^3",
         "{(2,1),(-1,0),(0,-1),(-1,1)}", "{(-1,0,0),(0,1,0),(1,-1,0),(1,1,0)}",
         "C3x[-2,2]", "C2xC4x[-1,1]", "C2xC2x{(1,0),(-1,1),(0,-1)}"],
    )
    def test_deltas_increase_in_canonical_order(self, text):
        for depth in (1, 5):
            space = _Space(parse_ground_set(text), depth)
            assert all(a < b for a, b in itertools.pairwise(space.deltas))

    @pytest.mark.parametrize(
        "text,depth",
        [
            ("[-3,4]", 6),
            # the full depth: the negative sign count decides here, and on
            # [-4,4] it needs depth >= M' and e_jc in M'
            ("[-3,3]", 6),
            ("[-4,4]", 7),
            ("{-5,-2,3,4}", 8),
            ("{-7,-3,2,5,6}", 6),
            ("[-1,1]x[0,0]", 4),
            ("[-2,2]^2", 5),
            ("[-1,2]x[-1,1]", 5),
            ("[-1,1]^3", 4),
            ("{(2,1),(-1,0),(0,-1),(-1,1)}", 5),
            ("{(-1,0,0),(0,1,0),(1,-1,0),(1,1,0)}", 6),
            ("C3x[-2,2]", 5),
            ("C3x{-1,2}", 5),
            ("C2xC4x[-1,1]", 5),
            ("C2xC2x{(1,0),(-1,1),(0,-1)}", 5),
            ("C2x[-1,1]^2", 5),
        ],
    )
    def test_survivors_against_brute_force(self, text, depth):
        """Counts, collected atoms and best atom of the kernel equal those
        of ``_set_search``, in both modes, over every root, over a root
        range that stops before k, and over the one root a pool task runs."""
        ground = parse_ground_set(text)
        space = _Space(ground, depth)
        k = len(space.elems)
        for lo, hi in [(0, k), (k // 3, k - 1), (1, 2)]:
            for mode in ("all", "dav"):
                best_len, best_counts, collected, st_ = _search._search_sequential(
                    space, depth, mode, lo, hi
                )
                got = best_len, best_counts, collected, (st_.nodes, st_.prunes, st_.closures)
                assert got == _set_search(ground, depth, mode, lo, hi), (mode, lo, hi)


class TestWindowRows:
    """``_Space.moves`` against the largest rise and fall of each
    functional over the window's elements."""

    @pytest.mark.parametrize(
        "text,depth",
        [("[-3,4]", 6), ("[-3,3]", 6), ("{-7,-3,2,5,6}", 6), ("[-1,1]x[0,0]", 4), ("[-2,2]^2", 5),
         ("[-1,2]x[-1,1]", 5), ("[-1,1]^3", 4), ("{(2,1),(-1,0),(0,-1),(-1,1)}", 5),
         ("{(-1,0,0),(0,1,0),(1,-1,0),(1,1,0)}", 6)],
    )
    def test_packed_extremes(self, text, depth):
        space = _Space(parse_ground_set(text), depth)
        coords = [e.coords for e in space.elems]
        k, functionals = len(coords), _functionals(len(coords[0]))
        rng = random.Random(text)
        windows = [(), tuple(range(k))]
        windows += [tuple(j for j in range(k) if rng.random() < p) for p in (0.2, 0.5, 0.8) for _ in range(20)]
        for window in windows:
            alive = sum(1 << (space.deltas[j] - space.deltas[0]) for j in window)
            values = [[sum(a * b for a, b in zip(u, coords[j])) for j in window] for u in functionals]
            up = sum(max([0, *v]) << s for v, s in zip(values, space.shifts))
            down = sum(max([0, *(-w for w in v)]) << s for v, s in zip(values, space.shifts))
            assert space.moves(alive) == [up, down], window


class TestNoCycles:
    """A search frees its tables when it returns, not at the next run of
    the cyclic garbage collector."""

    @pytest.mark.parametrize(
        "operation",
        [lambda: davenport(Interval(-7, 7)), lambda: atoms_of_length(Interval(-5, 5), 9),
         lambda: all_atoms(parse_ground_set("[-1,1]^2"))],
        ids=["davenport", "atoms_of_length", "all_atoms"],
    )
    def test_search_leaves_no_garbage(self, operation):
        operation()
        gc.collect()
        gc.disable()
        try:
            operation()
            assert gc.collect() == 0
        finally:
            gc.enable()


def _explicit_sets(dim: int, max_size: int = 4):
    # in one dimension, wide enough that max(0, -min X) != max(0, max X) is common
    point = st.integers(-5, 5) if dim == 1 else st.tuples(*[st.integers(-2, 2)] * dim)
    return st.sets(point, min_size=1, max_size=max_size).map(
        lambda pts: Explicit(tuple(sorted(Element.of(p) for p in pts)))
    )


def _products(moduli, base):
    return st.builds(lambda m, b: GroupProduct(GroupSpec(m), b), st.sampled_from(moduli), base)


_small_grounds = st.one_of(
    _explicit_sets(1),
    _explicit_sets(2),
    _explicit_sets(3, 3),
    _products([(2,), (3,)], _explicit_sets(1, 3)),
    # several residue axes, and residue axes next to two lattice axes
    _products([(2, 2), (2, 4)], _explicit_sets(1, 2)),
    _products([(2,), (2, 2)], _explicit_sets(2, 3)),
)


def _brute(ground):
    elements = enumerate_elements(ground)
    # the oracle scans every multiset: keep that to some thousands
    depth = min(length_bound(ground), 6 if len(elements) <= 9 else 4)
    return depth, set(atoms_brute(elements, depth))


class TestProperties:
    """Search against the pruning-free oracle on random small ground sets."""

    @settings(max_examples=25, deadline=None)
    @given(_small_grounds)
    def test_all_atoms_equal_brute(self, ground):
        depth, want = _brute(ground)
        assert set(all_atoms(ground, max_len=depth)) == want

    @settings(max_examples=25, deadline=None)
    @given(_small_grounds)
    def test_longest_atom_equals_brute(self, ground):
        depth, want = _brute(ground)
        # depth 0 means length_bound 0, which cap 1 does not raise
        r = davenport(ground, cap=max(1, depth))
        assert r.lower == max((a.length for a in want), default=0)
        longest = [a for a in want if a.length == r.lower]
        # the witness is the longest atom with the smallest canonical key
        assert r.witness == (min(longest, key=_canonical_key) if longest else None)

    @settings(max_examples=25, deadline=None)
    @given(_small_grounds)
    def test_bounds_hold_against_brute(self, ground):
        report = ground_bounds(ground)
        bound = length_bound(ground)
        assert report.upper <= bound
        depth, want = _brute(ground)
        longest = max((a.length for a in want), default=0)
        assert longest <= report.upper
        if depth == bound:  # the oracle saw every atom
            assert report.lower <= longest

    @settings(max_examples=10, deadline=None)
    @given(_small_grounds)
    def test_result_independent_of_threads(self, ground):
        a = davenport(ground, cap=6, threads=1)
        b = davenport(ground, cap=6, threads=2)
        a.stats.elapsed = b.stats.elapsed = 0.0
        assert a == b
