import itertools

import pytest

from davkit import (
    Element,
    Explicit,
    Interval,
    all_atoms,
    atoms_brute,
    atoms_of_length,
    davenport,
    hunt_chi_gap,
    is_minimal,
    length_bound,
    max_atoms,
    parse_ground_set,
)

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
