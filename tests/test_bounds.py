import math
from decimal import Decimal, getcontext
from math import gcd

import pytest

from davkit import (
    BoundReport,
    GroupSpec,
    GuardExceededError,
    ValidationError,
    box_upper,
    chi,
    davenport,
    diam,
    ground_bounds,
    group_davenport,
    hypercube_bounds,
    interval_davenport,
    length_bound,
    parse_ground_set,
    product_bounds,
    square_upper,
)
from davkit.bounds import log_upper


class TestChiDiam:
    def test_chi_examples(self):
        assert chi(range(-2, 4)) == 5
        assert chi([-2, 4]) == 3
        assert chi([-5, -2, 3]) == 8

    def test_chi_is_integral_by_construction(self):
        for x in range(-6, 0):
            for y in range(1, 7):
                assert chi([x, y]) == (-x + y) // gcd(x, y)

    def test_chi_needs_both_signs(self):
        with pytest.raises(ValidationError):
            chi([1, 2])

    def test_diam(self):
        assert diam(range(-2, 5)) == 6
        assert diam([5]) == 0
        assert diam([-3, 7]) == 10


class TestIntervalDavenport:
    def test_coprime(self):
        r = interval_davenport(2, 3)
        assert r.exact and r.value == 5

    def test_symmetric(self):
        assert interval_davenport(3, 3).value == 5
        assert interval_davenport(1, 1).value == 2

    def test_non_coprime_meets_at_desk_scale(self):
        r = interval_davenport(2, 4)
        assert r.exact and r.value == 5

    def test_non_coprime_can_stay_bracketed(self):
        # both pairs summing to m+M-1 share a factor here, so chi < m+M-1
        r = interval_davenport(15, 21)
        assert not r.exact and (r.lower, r.upper) == (34, 35)

    def test_agrees_with_search_up_to_twelve(self):
        for m in range(1, 12):
            for M in range(1, 13 - m):
                report = interval_davenport(m, M)
                result = davenport(parse_ground_set(f"[-{m},{M}]"))
                assert result.exact
                assert report.exact, (m, M)
                assert report.value == result.lower, (m, M)


class TestBoxBounds:
    def test_box_upper(self):
        assert box_upper([5]) == 11
        assert box_upper([1, 1]) == 16
        assert box_upper([2, 2, 2]) == 1000
        assert box_upper([2, 1, 2]) == 10 * 5 * 10

    def test_box_upper_guards_its_bits(self, monkeypatch):
        # each of the 3 factors of [-2,2]^3 is 10, of 4 bits
        monkeypatch.setenv("DAVKIT_GUARD", "12")
        assert box_upper([2, 2, 2]) == 1000
        monkeypatch.setenv("DAVKIT_GUARD", "11")
        with pytest.raises(GuardExceededError, match="12 bits"):
            box_upper([2, 2, 2])

    def test_every_bracket_guards_its_bits(self, monkeypatch):
        # C16 has D = 16, of 5 bits
        monkeypatch.setenv("DAVKIT_GUARD", "5")
        assert group_davenport(GroupSpec((16,))).upper == 16
        monkeypatch.setenv("DAVKIT_GUARD", "4")
        with pytest.raises(GuardExceededError, match="5 bits"):
            group_davenport(GroupSpec((16,)))

    def test_product_bracket_guards_its_bits(self):
        # the box factor passes its own guard (14,280 bits); times
        # D(C_(10^300)) it does not
        box = parse_ground_set("[-1,1]^1190")
        assert ground_bounds(box).upper == 2379**1190
        with pytest.raises(GuardExceededError, match="above the guard of 14284"):
            product_bounds(GroupSpec((10**300,)), box)

    def test_square_upper(self):
        assert square_upper(1, 1) == 15
        assert square_upper(1, 2) == 25
        assert square_upper(2, 2) == 45

    def test_hypercube(self):
        assert hypercube_bounds(1, 2).value == 4
        r = hypercube_bounds(2, 3)
        assert (r.lower, r.upper) == (27, 1000)
        r = hypercube_bounds(1, 3)
        assert (r.lower, r.upper) == (8, 125)
        r = hypercube_bounds(2, 2)
        assert (r.lower, r.upper) == (9, 45)
        assert hypercube_bounds(2, 1).value == 3


class TestGroupDavenport:
    def test_cyclic_is_order(self):
        assert group_davenport(GroupSpec((6,))).value == 6
        assert group_davenport(GroupSpec(())).value == 1

    def test_rank_two(self):
        assert group_davenport(GroupSpec((2, 2))).value == 3
        assert group_davenport(GroupSpec((2, 4))).value == 5

    def test_p_group(self):
        assert group_davenport(GroupSpec((3, 3, 3))).value == 7

    def test_general_bracket(self):
        r = group_davenport(GroupSpec((2, 2, 6)))
        assert not r.exact
        assert r.lower == 8 and r.upper == 14

    def test_log_upper_of_rank_three(self):
        # floor((1 + ln 12) 6) = floor(20.909...)
        r = group_davenport(GroupSpec((2, 6, 6)))
        assert (r.lower, r.upper) == (12, 20)
        assert r.provenance == ("group-factor-sum-lower", "group-log-upper")

    def test_log_upper_against_decimal_logarithm(self):
        # an independent 50-digit logarithm; none of these products sits
        # within 1e-40 of an integer
        getcontext().prec = 50
        for exponent in range(2, 31):
            for q in range(2, 41):
                want = math.floor((1 + Decimal(q).ln()) * exponent)
                assert log_upper(q * exponent, exponent) == want, (q, exponent)

    def test_search_matches_for_small_cyclic(self):
        for n in range(2, 9):
            want = group_davenport(GroupSpec((n,))).value
            got = davenport(parse_ground_set(f"C{n}x{{0}}")).lower
            assert want == got == n


class TestProductBounds:
    def test_cyclic_interval_exact(self):
        r = product_bounds(GroupSpec((2,)), parse_ground_set("[-1,1]"))
        assert r.exact and r.value == 4
        r = product_bounds(GroupSpec((5,)), parse_ground_set("[-3,3]"))
        assert r.exact and r.value == 25

    def test_square_bracket(self):
        r = product_bounds(GroupSpec((2,)), parse_ground_set("[-2,2]^2"))
        assert (r.lower, r.upper) == (18, 90)

    def test_non_cyclic_upper_only(self):
        r = product_bounds(GroupSpec((2, 2)), parse_ground_set("[-1,1]"))
        assert r.lower == 0 and r.upper == 6
        assert "cyclic-product-cube-lower" not in r.provenance


class TestGroundBounds:
    @pytest.mark.parametrize(
        "text,lower,upper",
        [
            ("[-2,3]", 5, 5),
            ("[-2,2]", 3, 3),
            ("{1,2}", 0, 0),
            ("{0,1,2}", 1, 1),
            ("{-2,3}", 5, 5),
            ("[-1,1]^2", 4, 4),
            ("C2x[-2,2]", 6, 6),
            ("[-1,1]x[0,0]", 2, 2),
            ("{(0,0)}", 1, 1),
            ("{(2,0),(-1,0)}", 3, 3),
            # 2-D explicit sets: the rectangle bound of the enclosing box
            ("{(1,1),(-1,1),(0,-1)}", 0, 15),
            ("{(2,1),(-1,0),(0,-1),(-1,1)}", 0, 25),
            # a single-signed axis: every atom lies where that axis is 0
            ("[1,2]x[-1,1]", 0, 0),
            ("{(1,0),(0,1)}", 0, 0),
            ("[0,2]x[-1,1]", 2, 2),
            ("[0,1]x[-2,2]", 3, 3),
            ("{(0,1),(1,-1),(0,2)}", 0, 0),  # the slice {1,2} is single-signed too
            ("C3x[1,2]x[-1,1]", 0, 0),
        ],
    )
    def test_shapes(self, text, lower, upper):
        r = ground_bounds(parse_ground_set(text))
        assert (r.lower, r.upper) == (lower, upper)

    def test_exact_means_lower_equals_upper(self):
        # exact and value are read from the bracket, never stored beside it
        assert BoundReport(3, 3, ("tag",)).exact and BoundReport(3, 3, ("tag",)).value == 3
        assert not BoundReport(2, 3, ("tag",)).exact and BoundReport(2, 3, ("tag",)).value is None
        with pytest.raises(ValidationError, match="exceeds upper"):
            BoundReport(4, 3, ("tag",))

    def test_search_value_falls_inside_bracket(self):
        for text in ["[-2,3]", "[-3,3]", "{-3,1,2}", "C2x[-1,1]", "[-1,1]^2"]:
            report = ground_bounds(parse_ground_set(text))
            result = davenport(parse_ground_set(text))
            assert result.exact
            assert report.lower <= result.lower <= report.upper


class TestAgainstLengthBound:
    @pytest.mark.parametrize(
        "text",
        [
            # the inputs of TestGroundBounds and of test_search.py's TestLengthBound
            "[-2,3]", "[-2,2]", "{1,2}", "{0,1,2}", "{-2,3}", "[-1,1]^2", "C2x[-2,2]",
            "[-1,1]x[0,0]", "{(0,0)}", "{(2,0),(-1,0)}", "[-2,4]", "C2x[-1,1]", "{-2,-1}",
            "{0}", "C3x[-2,2]",
            # and shapes without a closed form, or with a product bound
            "[-1,2]x[-1,1]", "[-1,1]^3", "[-1,1]x[-2,2]x[-3,3]", "{-3,1,2}",
            "{(1,1),(-1,1),(0,-1)}", "C2x[-1,1]^2", "C2xC2xC6x[-1,1]", "C2x[1,2]",
            "[-15,21]", "[1,2]x[-1,1]",
        ],
    )
    def test_closed_form_upper_within_length_bound(self, text):
        ground = parse_ground_set(text)
        report = ground_bounds(ground)
        assert report.upper <= length_bound(ground)
        if report.provenance[-1] in ("diameter-upper", "steinitz-box-upper"):
            # no closed form: the upper bound is the structural one
            assert report.upper == length_bound(ground)


def test_finite_shadow_of_the_asymptotic():
    # exact interval values at desk scale sit at m+M or m+M-1
    for m in range(1, 12):
        for M in range(1, 13 - m):
            value = davenport(parse_ground_set(f"[-{m},{M}]")).lower
            assert value in (m + M, m + M - 1)
