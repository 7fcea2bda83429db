import itertools

import pytest
from hypothesis import given, settings, strategies as st

from davkit import (
    Element,
    Explicit,
    GroupProduct,
    GroupSpec,
    Interval,
    all_atoms,
    atoms_brute,
    atoms_of_length,
    davenport,
    enumerate_elements,
    hunt_chi_gap,
    is_minimal,
    length_bound,
    max_atoms,
    parse_ground_set,
)
from davkit.search import _run_search, _Space

from conftest import S


def explicit(*values) -> Explicit:
    return Explicit(tuple(Element.of(v) for v in values))


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
        assert r.lower == 3 and r.upper == 6
        assert is_minimal(r.witness) and r.witness.length == 3

    def test_cap_with_zero_axis(self):
        # the upper bound of a capped run is that of [-2,2], its diameter
        r = davenport(parse_ground_set("[-2,2]x[0,0]"), cap=2)
        assert (r.lower, r.upper, r.exact) == (2, 4, False)

    def test_cap_at_bound_still_exact(self):
        r = davenport(Interval(-2, 3), cap=100)
        assert r.exact and r.lower == 5

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


class TestEarlyStop:
    """A 'dav' search ends at its first atom as long as the depth."""

    @pytest.mark.parametrize("text,cap", [("C5x[-1,1]", None), ("[-2,3]", None), ("[-2,2]^2", 8)])
    def test_full_result_independent_of_threads(self, text, cap):
        ground = parse_ground_set(text)
        a = davenport(ground, cap=cap, threads=1)
        b = davenport(ground, cap=cap, threads=2)
        # these searches stop early: an atom reaches the depth
        assert a.lower == (cap or length_bound(ground))
        a.stats.elapsed = b.stats.elapsed = 0.0
        assert a == b

    @pytest.mark.parametrize(
        "text,cap", [("[-3,4]", None), ("C3x[-1,1]", None), ("{-3,-1,2}", None), ("[-1,1]^2", 3)]
    )
    def test_witness_is_first_longest_atom(self, text, cap):
        # all_atoms never stops early and sorts by (length, canonical key)
        ground = parse_ground_set(text)
        r = davenport(ground, cap=cap)
        atoms = all_atoms(ground, max_len=cap)
        longest = max(a.length for a in atoms)
        assert r.lower == longest
        assert r.witness == next(a for a in atoms if a.length == longest)

    def test_node_count_pinned(self):
        # the full tree to the depth 12 has 37,272 nodes; the first root's
        # leftmost branch already reaches an atom of length 12
        r = davenport(parse_ground_set("C6x[-1,1]"))
        assert r.exact and r.lower == 12
        assert r.stats.nodes == 12


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

    def test_output_sorted_and_minimal(self):
        atoms = atoms_of_length(Interval(-3, 3), 4)
        assert atoms == sorted(atoms, key=lambda s: tuple(e.coords for e in s.flatten()))
        assert all(is_minimal(a) for a in atoms)


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
    guarded running total are those of the per-axis inequalities."""

    @pytest.mark.parametrize(
        "text,cap,counts",
        [
            ("[-7,7]", None, (23220, 132666, 560)),
            ("[-6,10]", None, (31715, 269201, 957)),
            ("[-1,2]x[-1,1]", None, (37507, 160360, 39)),
            ("[-1,1]^3", 7, (77, 540, 1)),
            ("{(2,1),(-1,0),(0,-1),(-1,1)}", None, (1591, 1775, 3)),
            ("C3x[-2,2]", None, (11832, 41949, 406)),
            ("C2x[-1,1]^2", 8, (260, 941, 2)),
        ],
    )
    def test_davenport_counts(self, text, cap, counts):
        st_ = davenport(parse_ground_set(text), cap=cap).stats
        assert (st_.nodes, st_.prunes, st_.closures) == counts

    def test_atoms_of_length_counts(self):
        _, _, _, collected, st_ = _run_search(parse_ground_set("[-5,5]"), 9, "len", target=9)
        assert len(collected) == 2
        assert (st_.nodes, st_.prunes, st_.closures) == (793, 3067, 100)


class TestGuardedTotal:
    """The guarded test against the direct per-axis inequality
    -T * max(0, max e_c) <= t_c <= T * max(0, -min e_c) over elements >= j."""

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
        for t in itertools.product(*(range(-r, r + 1) for r in reach)):
            x = space.pack(t)
            assert (x == 0) == (not any(t))
            for j in range(len(coords)):
                up = [max(0, *(v[c] for v in coords[j:])) for c in range(d)]
                down = [max(0, *(-v[c] for v in coords[j:])) for c in range(d)]
                for T in range(depth + 1):
                    direct = all(-T * up[c] <= t[c] <= T * down[c] for c in range(d))
                    guarded = (x + space.CL[T][j]) & (space.CR[T][j] - x) & H == H
                    assert guarded == direct, (t, j, T)

    def test_packing_adds(self):
        space = _Space(parse_ground_set("[-2,2]^2"), 4)
        for a, b in itertools.product(space.elems, repeat=2):
            total = tuple(p + q for p, q in zip(a.coords, b.coords))
            assert space.pack(a.coords) + space.pack(b.coords) == space.pack(total)


def _explicit_sets(dim: int):
    point = st.integers(-2, 2) if dim == 1 else st.tuples(*[st.integers(-2, 2)] * dim)
    return st.sets(point, min_size=1, max_size=4).map(
        lambda pts: Explicit(tuple(sorted(Element.of(p) for p in pts)))
    )


_small_grounds = st.one_of(
    _explicit_sets(1),
    _explicit_sets(2),
    st.builds(
        lambda n, base: GroupProduct(GroupSpec((n,)), base),
        st.integers(2, 3),
        st.sets(st.integers(-2, 2), min_size=1, max_size=3).map(
            lambda vs: Explicit(tuple(sorted(Element.of(v) for v in vs)))
        ),
    ),
)


def _brute(ground):
    depth = min(length_bound(ground), 6)
    return depth, set(atoms_brute(enumerate_elements(ground), depth))


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
        r = davenport(ground, cap=depth)
        assert r.lower == max((a.length for a in want), default=0)
        if r.witness is not None:
            assert r.witness in want

    @settings(max_examples=10, deadline=None)
    @given(_small_grounds)
    def test_result_independent_of_threads(self, ground):
        a = davenport(ground, cap=6, threads=1)
        b = davenport(ground, cap=6, threads=2)
        a.stats.elapsed = b.stats.elapsed = 0.0
        assert a == b
