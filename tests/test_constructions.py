from math import gcd

import pytest

from davkit import (
    Element,
    GuardExceededError,
    MixedElement,
    ValidationError,
    group_box_atom,
    hypercube_atom,
    interval_max_atom,
    is_minimal,
    is_zero_sum,
    power_subsequence_check,
    two_element_atom,
)

from conftest import S


def _delta(m):
    return 1 if m == 1 else 0


class TestTwoElementAtom:
    def test_examples(self):
        assert two_element_atom(-2, 3) == S({3: 2, -2: 3})
        assert two_element_atom(-1, 1) == S({1: 1, -1: 1})
        assert two_element_atom(-4, 6) == S({6: 2, -4: 3})

    def test_length_is_pair_ratio(self):
        from math import gcd

        for x in range(-6, 0):
            for y in range(1, 7):
                atom = two_element_atom(x, y)
                assert atom.length == (-x + y) // gcd(x, y)
                assert is_minimal(atom)

    def test_same_sign_rejected(self):
        with pytest.raises(ValidationError):
            two_element_atom(2, 3)
        with pytest.raises(ValidationError):
            two_element_atom(0, 3)


class TestIntervalMaxAtom:
    def test_examples(self):
        assert interval_max_atom(2, 3) == S({3: 2, -2: 3})
        assert interval_max_atom(1, 1) == S({1: 1, -1: 1})

    def test_non_coprime_rejected(self):
        with pytest.raises(ValidationError):
            interval_max_atom(2, 4)


class TestHypercubeAtom:
    def test_unrolled_plane_case(self):
        assert hypercube_atom(2, 2) == S({(2, 2): 1, (-1, 2): 2, (0, -1): 6})

    def test_unit_cube_plane_case(self):
        assert hypercube_atom(1, 2) == S({(1, 1): 1, (-1, 1): 1, (0, -1): 2})

    def test_one_dimensional_base(self):
        assert hypercube_atom(3, 1) == S({3: 2, -2: 3})
        assert hypercube_atom(1, 1) == S({1: 1, -1: 1})

    @pytest.mark.parametrize(
        "m,d", [(1, d) for d in range(1, 7)] + [(2, d) for d in range(1, 4)] + [(3, 1), (3, 2)]
    )
    def test_certified_lengths(self, m, d):
        atom = hypercube_atom(m, d)
        assert atom.length == (2 * m - 1 + _delta(m)) ** d
        assert is_minimal(atom)

    def test_stays_inside_the_box(self):
        for m, d in [(1, 4), (2, 3), (3, 2), (4, 2)]:
            atom = hypercube_atom(m, d, certify=False)
            for e, _ in atom.entries:
                assert all(-m <= c <= m for c in e.coords)

    def test_profile_gcd_one(self):
        # d + 1 supports whose multiplicities are coprime as a family
        for m in range(2, 5):
            for d in range(1, 4):
                mults = [a for _, a in hypercube_atom(m, d, certify=False).entries]
                assert len(mults) == d + 1
                assert gcd(*mults) == 1


class TestProfile:
    """The multiplicities that ``group_box_atom`` reads from the entries."""

    def test_base_case(self):
        mults = [a for _, a in S({3: 2, -2: 3}).entries]
        assert sorted(mults) == [2, 3] and gcd(*mults) == 1

    def test_plane_case(self):
        atom = hypercube_atom(2, 2, certify=False)
        assert sorted(a for _, a in atom.entries) == [1, 2, 6]

    def test_pair(self):
        assert [a for _, a in S({1: 1, -1: 1}).entries] == [1, 1]


class TestPowerSubsequenceCheck:
    @pytest.mark.parametrize(
        "m,d,u", [(2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 1), (3, 1, 2), (2, 2, 1), (2, 2, 2)]
    )
    def test_powers_are_the_only_zero_sums(self, m, d, u):
        report = power_subsequence_check(m, d, u)
        assert report.ok
        assert report.zero_sum_subsequences == u

    def test_guard(self, monkeypatch):
        monkeypatch.setenv("DAVKIT_GUARD", "10")
        with pytest.raises(GuardExceededError):
            power_subsequence_check(4, 3, 4)


class TestGroupBoxAtom:
    def test_small_mixed_example(self):
        atom = group_box_atom(2, 1, 1)
        g = atom.group
        assert atom == S(
            {
                MixedElement(g, (1,), Element.of(1)): 2,
                MixedElement(g, (0,), Element.of(-1)): 2,
            }
        )

    @pytest.mark.parametrize(
        "n,m,d", [(2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1), (2, 2, 2), (3, 2, 2)]
    )
    def test_certified_lengths(self, n, m, d):
        atom = group_box_atom(n, m, d)
        assert atom.length == n * (2 * m - 1 + _delta(m)) ** d
        assert is_zero_sum(atom)
        assert is_minimal(atom)

    def test_trivial_group_degenerates_to_cube(self):
        atom = group_box_atom(1, 2, 1)
        assert atom.length == 3 and is_minimal(atom)

    def test_weights_satisfy_the_unit_relation(self):
        from davkit.constructions import _bezout_weights

        for alphas in [(2, 3), (1, 2, 6), (4, 6, 15), (2, 6, 15)]:
            ws = _bezout_weights(list(alphas))
            assert sum(w * a for w, a in zip(ws, alphas)) == 1
