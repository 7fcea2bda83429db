import itertools
import random
from math import gcd

import pytest

from davkit import (
    Element,
    GroupSpec,
    GuardExceededError,
    MixedElement,
    Sequence,
    StateSpaceCapError,
    ValidationError,
    atoms_brute,
    find_proper_zero_subsum,
    is_minimal,
    is_zero_sum,
    parse_sequence,
)
from davkit.cli import EXIT_GUARD, main
from davkit.zerosum import is_minimal_scan, proper_zero_subsum_scan

from conftest import S


def contains_sub(s: Sequence, sub: Sequence) -> bool:
    """``sub`` is a sub-multiset of ``s``."""
    return all(s.multiplicity(e) >= m for e, m in sub.entries)


class TestIsZeroSum:
    def test_basic(self):
        assert is_zero_sum(S({2: 1, -1: 2}))
        assert not is_zero_sum(S({3: 1, -1: 1}))

    def test_square_instance(self):
        # the four-element square sequence sums to the origin
        assert is_zero_sum(S({(1, 1): 1, (-1, 1): 1, (0, -1): 2}))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            is_zero_sum(Sequence.from_pairs([]))

    def test_mixed(self):
        g = GroupSpec((2,))
        s = Sequence.from_pairs(
            [
                (MixedElement(g, (1,), Element.of(1)), 2),
                (MixedElement(g, (0,), Element.of(-1)), 2),
            ]
        )
        assert is_zero_sum(s)


class TestFindProperZeroSubsum:
    def test_coprime_two_support_atom_has_none(self):
        assert find_proper_zero_subsum(S({3: 2, -2: 3})) is None

    def test_plus_minus_pair(self):
        w = find_proper_zero_subsum(S({2: 2, -2: 1, 1: 1, -1: 1}))
        assert w is not None
        sub = w.sub
        assert sub.total.is_zero and 0 < sub.length < 5

    def test_non_coprime_power(self):
        # 4^2*(-2)^4 contains 4*(-2)^2 (verified by the independent scan below)
        s = S({4: 2, -2: 4})
        w = find_proper_zero_subsum(s)
        assert w is not None
        assert w.sub.total.is_zero
        assert contains_sub(s, w.sub) and w.sub != s
        assert proper_zero_subsum_scan(s) is not None

    def test_witness_is_deterministic(self):
        s = S({4: 2, -2: 4})
        assert find_proper_zero_subsum(s) == find_proper_zero_subsum(s)

    def test_state_cap(self, monkeypatch):
        monkeypatch.setenv("DAVKIT_GUARD", "10")
        s = S({i: 3 for i in range(1, 12)} | {-40: 1})
        with pytest.raises(StateSpaceCapError):
            find_proper_zero_subsum(s)


class TestIsMinimal:
    def test_square_atom(self):
        assert is_minimal(S({(1, -1): 1, (1, 1): 1, (-1, 0): 2}))

    def test_zero_singleton_and_violation(self):
        assert is_minimal(S({0: 1}))
        assert not is_minimal(S({0: 1, 2: 1, -2: 1}))

    def test_unit_power(self):
        assert not is_minimal(S({1: 4, -2: 2}))
        w = find_proper_zero_subsum(S({1: 4, -2: 2}))
        assert w.sub == S({1: 2, -2: 1})

    def test_group_scale(self):
        # residue 2 repeated twice in C4: the only zero-sum selection is full
        g = GroupSpec((4,))
        s = Sequence.from_pairs([(MixedElement(g, (2,), Element.of(0)), 2)])
        assert is_minimal(s)


class TestAtomsBrute:
    def test_interval_one(self):
        atoms = atoms_brute([-1, 0, 1], 3)
        assert set(atoms) == {S({0: 1}), S({1: 1, -1: 1})}

    def test_two_support(self):
        assert atoms_brute([-2, 3], 5) == [S({3: 2, -2: 3})]

    def test_single_sign_empty(self):
        assert atoms_brute([1], 10) == []

    def test_guard(self, monkeypatch):
        monkeypatch.setenv("DAVKIT_GUARD", "100")
        with pytest.raises(GuardExceededError):
            atoms_brute(list(range(-20, 21)), 20)


class TestStructureLaws:
    """Elementary structure facts about atoms, checked over brute output."""

    def _atom_pool(self):
        pool = []
        for alphabet, max_len in [
            ([-2, -1, 1, 2], 4),
            ([-3, 1, 2], 5),
            ([-1, 0, 1], 3),
            ([-3, -1, 2, 3], 6),
        ]:
            pool.extend(atoms_brute(alphabet, max_len))
        return pool

    def test_negation_symmetry(self):
        for atom in self._atom_pool():
            assert is_minimal(atom.neg())

    def test_zero_element_iff_length_one(self):
        for atom in self._atom_pool():
            has_zero = any(e.is_zero for e, _ in atom.entries)
            assert has_zero == (atom.length == 1)

    def test_plus_minus_pair_iff_length_two(self):
        for atom in self._atom_pool():
            values = {e.coords[0] for e, _ in atom.entries}
            has_pair = any(v != 0 and -v in values for v in values)
            assert has_pair == (atom.length == 2)

    def test_two_element_alphabet_law_exhaustive(self):
        # over {x, y} with xy < 0 the unique atom is x^(|y|/g)*y^(|x|/g),
        # and every zero-sum multiset is one of its powers
        for x in range(-6, 0):
            for y in range(1, 7):
                g = gcd(x, y)
                atom = S({x: y // g, y: -x // g})
                max_len = 2 * atom.length
                found = [a for a in atoms_brute([x, y], max_len)]
                assert found == [atom]
                # every zero-sum (a, b) grid point is a power of the atom
                for a in range(0, max_len + 1):
                    for b in range(0, max_len + 1):
                        if a * x + b * y == 0 and a + b > 0:
                            assert a % (y // g) == 0
                            j = a // (y // g)
                            assert S({x: a, y: b}) == atom.power(j)


GROUPS = [None, GroupSpec((3,)), GroupSpec((2, 4))]


def random_sequence(rng: random.Random, dim: int, group: GroupSpec | None, n: int) -> Sequence:
    """n random elements of [-r,r]^dim (times ``group``), r = 4 for dim 1
    and 2 above; half the time one more element makes the total zero, so
    atoms and their near misses occur."""
    r = 4 if dim == 1 else 2
    elements = []
    for _ in range(n):
        point = Element(tuple(rng.randint(-r, r) for _ in range(dim)))
        if group is not None:
            point = MixedElement(group, tuple(rng.randrange(f) for f in group.factors), point)
        elements.append(point)
    s = Sequence.from_elements(elements)
    if rng.random() < 0.5:
        s = Sequence.from_elements(elements + [s.total.neg()])
    return s


def reference_witness(s: Sequence) -> Sequence | None:
    """The witness order, by brute force: of all proper nonempty zero-sum
    count vectors (the last support capped at its multiplicity minus one
    when the total is zero), the smallest last nonzero index, then the
    lexicographically smallest vector."""
    supports = [e for e, _ in s.entries]
    bounds = [m for _, m in s.entries]
    if s.total.is_zero:
        bounds[-1] -= 1
    best = None
    for counts in itertools.product(*(range(b + 1) for b in bounds)):
        if not any(counts):
            continue
        sub = Sequence.from_pairs(zip(supports, counts))
        if not sub.total.is_zero:
            continue
        last = max(j for j, c in enumerate(counts) if c)
        if best is None or (last, counts) < best[0]:
            best = ((last, counts), sub)
    return None if best is None else best[1]


def test_witness_is_the_reference_order():
    # pins the witness that check-minimal prints
    rng = random.Random(2024)
    found = 0
    for case in range(1000):
        dim = 1 + case % 3
        s = random_sequence(rng, dim, GROUPS[case // 3 % 3], rng.randint(2, 8 if dim == 1 else 6))
        want = reference_witness(s)
        got = find_proper_zero_subsum(s)
        assert (got and got.sub) == want, str(s)
        found += want is not None
    assert 200 < found < 800  # both verdicts are exercised


def test_dp_agrees_with_scan_randomised():
    rng = random.Random(99)
    domain = list(range(-4, 5))
    sequences = [
        Sequence.from_elements(rng.choice(domain) for _ in range(rng.randint(1, 12)))
        for _ in range(1000)
    ]
    for case in range(600):
        dim = 1 + case % 3
        sequences.append(random_sequence(rng, dim, GROUPS[case // 3 % 3], rng.randint(1, 8)))
    for s in sequences:
        dp = find_proper_zero_subsum(s)
        scan = proper_zero_subsum_scan(s)
        assert (dp is None) == (scan is None)
        if dp is not None:
            assert dp.sub.total.is_zero
            assert contains_sub(s, dp.sub) and dp.sub != s and dp.sub.length > 0
        if is_zero_sum(s):
            assert is_minimal(s) == is_minimal_scan(s)


class TestMaskGuard:
    """The DP's masks span the box of sub-sums, not the distinct sums, so a
    sparse sequence with a huge box meets the guard."""

    SPARSE = "(100,100,100)^50*(-100,-100,-100)^50"

    def test_sparse_box_raises(self):
        with pytest.raises(StateSpaceCapError):
            find_proper_zero_subsum(parse_sequence(self.SPARSE))

    def test_sparse_box_exits_guard(self, capsys):
        code = main(["check-minimal", "[-100,100]^3", "--seq", self.SPARSE])
        assert code == EXIT_GUARD
        assert capsys.readouterr().err.startswith("guard:")
