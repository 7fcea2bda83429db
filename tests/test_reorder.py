import itertools

import pytest

from davkit import (
    ConsistencyError,
    ExtensionStuckError,
    Interval,
    ValidationError,
    all_atoms,
    containment_check,
    greedy_box_reorder,
    is_minimal,
    is_nyctalopic,
    nyctalopic_extend,
)

from conftest import S, one_d_values, prefix_sums_all_distinct, refine_exclusion_holds


def pigeonhole_length_ok(s, ordering, values: set[int]) -> bool:
    """When every prefix sum of an atom lands in a set, the length cannot
    exceed that set's size (all prefix sums are distinct members)."""
    if not all(p in values for p in ordering.prefix_sums):
        return True  # hypothesis not met; nothing to check
    return s.length <= len(values)


def pigeonhole_sharp_ok(s, ordering, values: set[int]) -> bool:
    """Sharpened count: with length >= 3, x_{sigma(2)} != x_{sigma(3)} and
    their sum also in the set, the bound improves to |set| - 1."""
    if s.length < 3:
        return True
    e = ordering.elements
    if e[1] == e[2]:
        return True
    extra = e[1] + e[2]
    if extra not in values or not all(p in values for p in ordering.prefix_sums):
        return True
    return s.length <= len(values) - 1


class TestIsNyctalopic:
    def test_sign_opposing_order(self):
        s = S({2: 1, -1: 2})
        # flattened: [-1, -1, 2]
        assert is_nyctalopic(s, [2, 0, 1], 3)

    def test_same_sign_step_fails(self):
        s = S({2: 1, -1: 2})
        assert not is_nyctalopic(s, [0, 1, 2], 3)

    def test_k_one_is_vacuous(self):
        s = S({2: 1, -1: 2})
        for p in range(3):
            assert is_nyctalopic(s, [p], 1)

    def test_validation(self):
        with pytest.raises(ValidationError):
            is_nyctalopic(S({(1, 1): 1, (-1, -1): 1}), [0, 1], 2)
        with pytest.raises(ValidationError):
            is_nyctalopic(S({2: 1, -1: 2}), [0, 0], 2)


class TestNyctalopicExtend:
    def test_two_support_atom_from_positive(self):
        s = S({3: 2, -2: 3})
        flat = one_d_values(s)  # [-2, -2, -2, 3, 3]
        ordering = nyctalopic_extend(s, [flat.index(3)])
        assert ordering.elements == (3, -2, -2, 3, -2)
        assert ordering.prefix_sums == (3, 1, -1, 2, 0)

    def test_pair_atom(self):
        s = S({1: 1, -1: 1})
        ordering = nyctalopic_extend(s, [1])  # position of +1
        assert ordering.elements == (1, -1)
        assert ordering.prefix_sums == (1, 0)

    def test_three_atom_from_negative(self):
        s = S({2: 1, -1: 2})
        ordering = nyctalopic_extend(s, [0])
        assert ordering.elements == (-1, 2, -1)
        assert ordering.prefix_sums == (-1, 1, 0)

    def test_non_minimal_detected(self):
        with pytest.raises(ExtensionStuckError):
            nyctalopic_extend(S({1: 2, -1: 2}), [0])

    def test_bad_seed_rejected(self):
        s = S({2: 1, -1: 2})
        with pytest.raises(ValidationError):
            nyctalopic_extend(s, [0, 1])  # -1 then -1 is not sign-opposing


class TestContainment:
    def test_start_at_max_leaves_right_equality(self):
        s = S({3: 2, -2: 3})
        flat = one_d_values(s)
        ordering = nyctalopic_extend(s, [flat.index(3)])
        report = containment_check(s, ordering, -2, 3)
        assert (report.min_prefix, report.max_prefix) == (-1, 3)
        assert report.left_strict and not report.right_strict

    def test_interior_start_is_strict_both_sides(self):
        s = S({2: 1, -1: 2})
        ordering = nyctalopic_extend(s, [0])
        report = containment_check(s, ordering, -2, 2)
        assert (report.min_prefix, report.max_prefix) == (-1, 1)
        assert report.left_strict and report.right_strict

    def test_pair_atom_in_unit_interval(self):
        s = S({1: 1, -1: 1})
        ordering = nyctalopic_extend(s, [1])
        report = containment_check(s, ordering, -1, 1)
        assert (report.min_prefix, report.max_prefix) == (0, 1)

    def test_violation_raises(self):
        s = S({3: 2, -2: 3})
        flat = one_d_values(s)
        ordering = nyctalopic_extend(s, [flat.index(3)])
        with pytest.raises(ConsistencyError):
            containment_check(s, ordering, -2, 2)  # prefix 3 leaves [-2,2]


class TestGreedyBoxReorder:
    def test_square_multiset_stays_small(self):
        s = S({(1, 1): 1, (-1, 1): 1, (0, -1): 2})
        ordering, achieved = greedy_box_reorder(s)
        sup = max(max(abs(x) for x in p) for p in ordering.prefix_sums)
        # oracle: the optimum over all orders of this multiset
        flat = [e.coords for e in s.flatten()]
        best = min(
            max(
                max(abs(x) for x in acc)
                for acc in itertools.accumulate(
                    perm, lambda a, b: tuple(p + q for p, q in zip(a, b))
                )
            )
            for perm in set(itertools.permutations(flat))
        )
        assert best <= 2
        assert sup <= 2
        assert ordering.prefix_sums[-1] == (0, 0)
        assert all(lo <= hi for lo, hi in achieved)

    def test_single_pair(self):
        ordering, achieved = greedy_box_reorder(S({(2, -1): 1, (-2, 1): 1}))
        assert achieved == ((-2, 0), (0, 1)) or achieved == ((0, 2), (-1, 0))

    def test_requires_zero_sum(self):
        with pytest.raises(ValidationError):
            greedy_box_reorder(S({(1, 1): 1}))

    def test_one_dimensional_greedy_can_leave_the_interval(self):
        # the sup-norm rule is NOT the sign-opposing rule: for 2^7*(-7)^2
        # it prefers 2 over -7 at prefix 2 and exits [-7, 2] - which is why
        # containment is only ever asserted for sign-opposing orderings
        s = S({2: 7, -7: 2})
        assert is_minimal(s)
        ordering, achieved = greedy_box_reorder(s)
        assert achieved[0][1] > 2


class TestPrefixSumFacts:
    def _orderings(self, max_weight=8):
        for m in range(1, max_weight):
            for M in range(1, max_weight + 1 - m):
                for atom in all_atoms(Interval(-m, M)):
                    if atom.length < 2:
                        continue
                    n = atom.length
                    for p0 in range(n):
                        yield m, M, atom, nyctalopic_extend(atom, [p0])

    def test_all_distinct_and_refine(self):
        for m, M, atom, ordering in self._orderings():
            assert prefix_sums_all_distinct(ordering)
            if atom.length >= 3:
                assert refine_exclusion_holds(ordering)

    def test_containment_everywhere(self):
        for m, M, atom, ordering in self._orderings():
            containment_check(atom, ordering, -m, M)

    def test_pigeonhole_predicates(self):
        for m, M, atom, ordering in self._orderings(6):
            values = set(range(-m, M + 1))
            assert pigeonhole_length_ok(atom, ordering, values)
            assert pigeonhole_sharp_ok(atom, ordering, values)
