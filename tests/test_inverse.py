import itertools

import pytest

from davkit import (
    Sequence,
    ValidationError,
    classify_interval_max,
    classify_symmetric_max,
    classify_symmetric_submax,
    is_minimal,
    verify_inverse,
)
from davkit.inverse import InverseCase, InverseCheck, symmetric_submax_templates

from conftest import S

# the case of the negated template
_MIRROR = {
    InverseCase.SYM_MAX_POS: InverseCase.SYM_MAX_NEG,
    InverseCase.SYM_MAX_NEG: InverseCase.SYM_MAX_POS,
    InverseCase.SUBMAX_PAIR_POS: InverseCase.SUBMAX_PAIR_NEG,
    InverseCase.SUBMAX_PAIR_NEG: InverseCase.SUBMAX_PAIR_POS,
    InverseCase.SUBMAX_UNIT_POS: InverseCase.SUBMAX_UNIT_NEG,
    InverseCase.SUBMAX_UNIT_NEG: InverseCase.SUBMAX_UNIT_POS,
    InverseCase.NONE: InverseCase.NONE,
}


class TestClassifyIntervalMax:
    def test_the_unique_max_atom(self):
        assert classify_interval_max(2, 3, S({3: 2, -2: 3})) is InverseCase.INTERVAL_MAX

    def test_non_minimal_same_length(self):
        s = S({3: 1, 2: 1, -1: 1, -2: 2})
        assert classify_interval_max(2, 3, s) is InverseCase.NONE and not is_minimal(s)

    def test_non_coprime_never_matches(self):
        for s in [S({4: 2, -2: 4}), S({4: 1, 2: 1, -2: 3, 1: 0, -1: 0, 3: 1})]:
            if s.length == 6:
                assert classify_interval_max(2, 4, s) is InverseCase.NONE

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            classify_interval_max(2, 3, S({1: 1, -1: 1}))

    def test_alphabet_enforced(self):
        with pytest.raises(ValidationError):
            classify_interval_max(2, 3, S({4: 1, -2: 2, 1: 1, -1: 1}))


class TestClassifySymmetricMax:
    def test_positive_and_mirror(self):
        assert classify_symmetric_max(3, S({3: 2, -2: 3})) is InverseCase.SYM_MAX_POS
        assert classify_symmetric_max(3, S({-3: 2, 2: 3})) is InverseCase.SYM_MAX_NEG

    def test_non_minimal_candidate(self):
        s = S({3: 1, 2: 1, -2: 2, -1: 1})
        assert classify_symmetric_max(3, s) is InverseCase.NONE and not is_minimal(s)


class TestClassifySymmetricSubmax:
    def test_odd_m_two_support_case(self):
        assert classify_symmetric_submax(3, S({3: 1, -1: 3})) is InverseCase.SUBMAX_PAIR_POS

    def test_unit_case(self):
        assert classify_symmetric_submax(4, S({4: 2, -3: 3, 1: 1})) is InverseCase.SUBMAX_UNIT_POS

    def test_even_m_has_no_two_support_case(self):
        # for even m the would-be pair template is not even zero-sum
        assert InverseCase.SUBMAX_PAIR_POS not in symmetric_submax_templates(4)
        assert classify_symmetric_submax(4, S({4: 2, -2: 4})) is InverseCase.NONE

    def test_mirror_coherence(self):
        for m in (3, 4, 5):
            for case, template in symmetric_submax_templates(m).items():
                assert classify_symmetric_submax(m, template) is case
                assert classify_symmetric_submax(m, template.neg()) is _MIRROR[case]


class TestSoundnessBothWays:
    """Over every multiset of the relevant length, non-NONE <=> minimal."""

    def _multisets(self, m, length):
        alphabet = range(-m, m + 1)
        for combo in itertools.combinations_with_replacement(alphabet, length):
            yield Sequence.from_elements(combo)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_maximal_length(self, m):
        for s in self._multisets(m, 2 * m - 1):
            assert (classify_symmetric_max(m, s) is not InverseCase.NONE) == is_minimal(s)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_near_maximal_length(self, m):
        for s in self._multisets(m, 2 * m - 2):
            assert (classify_symmetric_submax(m, s) is not InverseCase.NONE) == is_minimal(s)

    @pytest.mark.parametrize("m,M", [(2, 3), (3, 4)])
    def test_interval_maximal_length(self, m, M):
        for combo in itertools.combinations_with_replacement(range(-m, M + 1), m + M):
            s = Sequence.from_elements(combo)
            assert (classify_interval_max(m, M, s) is not InverseCase.NONE) == is_minimal(s)


class TestVerifyInverse:
    def test_counts_by_m(self):
        report = verify_inverse([3])
        by_name = {c.name: c for c in report.checks}
        assert by_name["[-3,3] length 5"].ok
        assert len(by_name["[-3,3] length 4"].found) == 4

    def test_even_m_counts(self):
        report = verify_inverse([4])
        by_name = {c.name: c for c in report.checks}
        assert len(by_name["[-4,4] length 7"].found) == 2
        assert len(by_name["[-4,4] length 6"].found) == 2

    def test_coprime_pair(self):
        report = verify_inverse([3, 4])
        pair_check = [c for c in report.checks if c.name == "[-3,4] length 7"]
        assert pair_check and pair_check[0].ok
        assert pair_check[0].found == ("(-3)^4*4^3",)

    def test_check_passes_only_on_equal_listings(self):
        assert InverseCheck("c", ("a", "b"), ("a", "b")).ok
        assert not InverseCheck("c", ("a", "b"), ("a",)).ok
        assert not InverseCheck("c", ("a",), ("a", "a")).ok  # a repeated atom fails

    def test_full_range_passes(self):
        assert verify_inverse([2, 3, 4, 5]).ok

    def test_empty_range_is_rejected(self):
        # no checks at all would read as a vacuous "ok"
        with pytest.raises(ValidationError, match="no m values"):
            verify_inverse([])

    @pytest.mark.parametrize("bad", [2.9, "3", True, None])
    def test_non_integer_m_is_rejected(self, bad):
        # int() would check m = 2 for 2.9 and m = 3 for "3"
        with pytest.raises(ValidationError, match="m values must be integers"):
            verify_inverse([3, bad])
