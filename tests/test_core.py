import json
import random

import pytest
from hypothesis import given, strategies as st

from davkit import (
    Box,
    CardinalityGuardError,
    Element,
    Explicit,
    GroupProduct,
    GroupSpec,
    Interval,
    MixedElement,
    OverflowGuardError,
    ParseError,
    Sequence,
    ValidationError,
    canonicalize,
    emit_ground_set,
    enumerate_elements,
    parse_ground_set,
    parse_sequence,
)
from davkit.cli import run
from davkit.core import contains_element, parse_group

from conftest import S


class TestElement:
    def test_coercion_and_order(self):
        assert Element.of(3) == Element((3,))
        assert Element.of((1, 2)).dim == 2
        assert Element.of(-1) < Element.of(0) < Element.of(1)
        assert Element.of((0, -1)) < Element.of((1, 1))

    def test_dim_mismatch_comparison_rejected(self):
        with pytest.raises(ValidationError):
            Element.of(1) < Element.of((1, 2))

    def test_overflow_guard(self):
        with pytest.raises(OverflowGuardError):
            Element.of(2**63)
        Element.of(2**63 - 1)  # boundary is fine

    def test_neg_and_zero(self):
        assert Element.of((1, -2)).neg() == Element.of((-1, 2))
        assert Element.of((0, 0)).is_zero


class TestGroupSpec:
    def test_invariant_factor_chain(self):
        g = GroupSpec((2, 4, 8))
        assert g.order == 64 and g.exponent == 8 and g.rank == 3

    def test_non_dividing_rejected(self):
        with pytest.raises(ValidationError):
            GroupSpec((4, 2))
        with pytest.raises(ValidationError):
            GroupSpec((2, 3))

    def test_trivial_group(self):
        g = GroupSpec(())
        assert g.order == 1 and g.exponent == 1 and g.is_cyclic

    def test_c1_names_the_trivial_group(self):
        # ``davkit bounds --group C1`` reads its group with parse_group
        assert parse_group("C1") == GroupSpec(())

    def test_p_group_detection(self):
        assert GroupSpec((3, 3, 9)).is_p_group
        assert not GroupSpec((2, 4, 12)).is_p_group

    def test_modular_arithmetic(self):
        g = GroupSpec((2, 4))
        assert g.add((1, 3), (1, 2)) == (0, 1)
        assert g.neg((1, 3)) == (1, 1)
        assert g.scale((1, 1), 5) == (1, 1)


class TestSequence:
    def test_canonical_equality(self):
        a = Sequence.from_elements([2, -1, -1])
        b = Sequence.from_pairs([(-1, 2), (2, 1)])
        assert a == b
        assert a.length == 3
        assert a.total == Element.of(0)

    def test_zero_multiplicity_dropped(self):
        s = Sequence.from_pairs([(3, 2), (5, 0)])
        assert s.support() == (Element.of(3),)

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ValidationError):
            Sequence.from_pairs([(3, -1)])

    def test_mixed_kinds_rejected(self):
        g = GroupSpec((2,))
        mixed = MixedElement(g, (1,), Element.of(1))
        with pytest.raises(ValidationError):
            Sequence.from_pairs([(mixed, 1), (Element.of(1), 1)])

    def test_mixed_total_reduces_modulo(self):
        g = GroupSpec((2,))
        s = Sequence.from_pairs(
            [(MixedElement(g, (1,), Element.of(1)), 2), (MixedElement(g, (0,), Element.of(-1)), 2)]
        )
        assert s.total.is_zero

    def test_canonicalize_idempotent_randomised(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            n = rng.randint(1, 10)
            elems = [rng.randint(-5, 5) for _ in range(n)]
            s = Sequence.from_elements(elems)
            c = canonicalize(s)
            assert c == s and canonicalize(c) == c
            assert c.length == len(elems)
            assert c.total == Element.of(sum(elems))

    def test_str_and_parse_round_trip(self):
        for s in [
            S({3: 2, -2: 3}),
            S({(1, 1): 1, (-1, 1): 1, (0, -1): 2}),
            S({0: 1}),
        ]:
            assert parse_sequence(str(s)) == s

    def test_parse_mixed_needs_group(self):
        with pytest.raises(ParseError):
            parse_sequence("(1|1)^2")
        g = GroupSpec((2,))
        s = parse_sequence("(1|1)^2*(0|-1)^2", group=g)
        assert s.length == 4 and s.is_mixed

    @pytest.mark.parametrize(
        "text,factors,position",
        [
            ("(a,1)", None, 0),
            ("3*(a|1)", (2,), 2),
            ("(1|a)", (2,), 0),
            ("()", None, 0),
            ("1*(1,,2)^2", None, 2),
        ],
    )
    def test_bad_token_in_parentheses(self, text, factors, position):
        group = GroupSpec(factors) if factors else None
        with pytest.raises(ParseError) as info:
            parse_sequence(text, group=group)
        assert info.value.position == position

    @pytest.mark.parametrize(
        "text,factors", [("(1,1|1)", (2,)), ("(|1)", (2,)), ("(1|0)", (2, 2))]
    )
    def test_residue_count_must_match_rank(self, text, factors):
        with pytest.raises(ParseError, match="residues"):
            parse_sequence(text, group=GroupSpec(factors))

    def test_power_and_neg(self):
        s = S({3: 2, -2: 3})
        assert s.power(2).length == 10
        assert s.neg() == S({-3: 2, 2: 3})


class TestEnumerate:
    def test_interval(self):
        got = enumerate_elements(Interval(-1, 1))
        assert [e.coords[0] for e in got] == [-1, 0, 1]

    def test_box(self):
        got = enumerate_elements(parse_ground_set("[-1,1]^2"))
        assert len(got) == 9
        assert got == sorted(got)

    def test_group_product(self):
        got = enumerate_elements(parse_ground_set("C2x[-1,1]"))
        assert len(got) == 6
        assert all(e.group is not None for e in got)

    def test_cardinality_guard_reports_size(self, monkeypatch):
        monkeypatch.setenv("DAVKIT_GUARD", "3")
        with pytest.raises(CardinalityGuardError) as err:
            enumerate_elements(Interval(-10, 10))
        assert err.value.cardinality == 21

    def test_cardinality_groups_equal_widths(self):
        assert Box(((0, 1), (0, 2), (0, 1), (-3, 3))).cardinality() == 2 * 3 * 2 * 7
        # one power per width: a product axis by axis would take seconds
        assert parse_ground_set("[-1,1]^1000000").cardinality() == 3**1000000

    def test_cardinality_beyond_printable_digits(self):
        # 3^10000 has 4,772 digits, more than Python converts to text by
        # default; the message names a power of two below it
        with pytest.raises(CardinalityGuardError, match=r"at least 2\^15849 elements") as err:
            enumerate_elements(parse_ground_set("[-1,1]^10000"))
        assert err.value.cardinality == 3**10000

    @pytest.mark.parametrize(
        "text",
        ["[-2,4]", "[-1,1]^2", "{-2,3}", "C2x[-2,2]", "{(1,1),(0,-1)}", "C2xC4x{0}"],
    )
    def test_no_duplicates_and_membership(self, text):
        ground = parse_ground_set(text)
        got = enumerate_elements(ground)
        assert len(set(got)) == len(got) == ground.cardinality()
        assert all(contains_element(ground, e) for e in got)


class TestParser:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("[-2,4]", Interval(-2, 4)),
            (" [ -1 , 1 ] ^ 2 ", Box(((-1, 1), (-1, 1)))),
            ("[-1,1]x[-2,2]", Box(((-1, 1), (-2, 2)))),
            ("[-1,1]^1", Interval(-1, 1)),
            ("{-2,3}", Explicit((Element.of(-2), Element.of(3)))),
            (
                "C2x[-2,2]",
                GroupProduct(GroupSpec((2,)), Interval(-2, 2)),
            ),
            (
                "C2xC4x{0}",
                GroupProduct(GroupSpec((2, 4)), Explicit((Element.of(0),))),
            ),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_ground_set(text) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "[4,-2]",
            "[1,2",
            "C4xC2x[0,1]",
            "C2x",
            "{}",
            "{(1,1),(1,1)}",
            "{(1,1),2}",
            "[-1,1]x{0}",
            "[-1,1]^0",
            "gibberish",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_ground_set(text)

    def test_explicit_rejects_an_element_with_a_group(self):
        # G x X is a GroupProduct; an explicit set holds lattice points only
        mixed = MixedElement(GroupSpec((2,)), (1,), Element((1,)))
        with pytest.raises(ValidationError):
            Explicit((mixed,))
        with pytest.raises(ValidationError):
            Explicit((Element((0,)), mixed))

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_ground_set("[-1,1]x[9,2]")
        assert err.value.position is not None

    @pytest.mark.parametrize(
        "text,position",
        [("{(1,a)}", 1), ("{(1|0)}", 1), ("{2,(1,a)}", 3), ("C2x{(1,a)}", 4), ("{2,(1," + "1" * 5001 + ")}", 3)],
    )
    def test_bad_explicit_element_carries_position(self, text, position):
        # explicit-set elements are read by the sequence element parser,
        # which has no group context here
        with pytest.raises(ParseError) as err:
            parse_ground_set(text)
        assert err.value.position == position

    def test_group_grammar(self):
        assert parse_group("C2xC4") == GroupSpec((2, 4))
        assert parse_group(" C3 x C3 ") == GroupSpec((3, 3))
        for text, position in [("C2xCa", 3), ("", 0), ("C4xC2", 0), ("C2x[-1,1]", 3), ("C2xC" + "1" * 5001, 3)]:
            with pytest.raises(ParseError) as err:
                parse_group(text)
            assert err.value.position == position, text

    @pytest.mark.parametrize(
        "text",
        [
            "[-2,4]",
            "[-1,1]^2",
            "[-1,1]^3",
            "[-1,1]x[-2,2]",
            "{-2,3}",
            "{-2,0,3}",
            "{(1,1),(0,-1)}",
            "C2x[-2,2]",
            "C2xC4x{0}",
            "C2xC4x{(1,1),(0,-1)}",
        ],
    )
    def test_round_trip(self, text):
        ground = parse_ground_set(text)
        assert parse_ground_set(emit_ground_set(ground)) == ground

    @pytest.mark.parametrize(
        "text",
        ["[-2,4]", "[-1,1]^2", "{-2,3}", "C2x[-2,2]", "C2xC4x{(1,1),(0,-1)}"],
    )
    def test_json_round_trip(self, text):
        # In JSON (job files, reports) a ground set travels as its text form.
        ground = parse_ground_set(text)
        job = json.loads(json.dumps({"command": "bounds", "ground": emit_ground_set(ground)}))
        _, report = run(job)
        assert parse_ground_set(report["input"]["ground"]) == ground


_interval_st = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(
    lambda ab: (min(ab), max(ab))
)


@st.composite
def _ground_sets(draw):
    kind = draw(st.sampled_from(["interval", "box", "explicit", "group"]))
    if kind == "interval":
        lo, hi = draw(_interval_st)
        return Interval(lo, hi)
    if kind == "box":
        axes = draw(st.lists(_interval_st, min_size=2, max_size=3))
        return Box(tuple(axes))
    if kind == "explicit":
        dim = draw(st.integers(1, 2))
        coords = st.tuples(*([st.integers(-9, 9)] * dim))
        elems = draw(st.sets(coords, min_size=1, max_size=5))
        return Explicit(tuple(Element(c) for c in elems))
    factors = draw(st.sampled_from([(), (2,), (3,), (2, 4), (2, 2)]))
    lo, hi = draw(_interval_st)
    return GroupProduct(GroupSpec(factors), Interval(lo, hi))


@st.composite
def _sequences(draw):
    """A lattice sequence with group None, or one over G x Z^d with its G."""
    dim = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-9, 9)] * dim).map(Element)
    group = draw(st.sampled_from([None, GroupSpec((2,)), GroupSpec((3,)), GroupSpec((2, 4))]))
    if group is not None:
        residues = st.tuples(*(st.integers(0, n - 1) for n in group.factors))
        point = st.builds(lambda r, v: MixedElement(group, r, v), residues, point)
    pairs = draw(st.lists(st.tuples(point, st.integers(1, 4)), min_size=1, max_size=5))
    return Sequence.from_pairs(pairs), group


@given(_sequences())
def test_sequence_str_parse_identity(drawn):
    s, group = drawn
    assert parse_sequence(str(s), group) == s


@given(_ground_sets())
def test_emit_parse_identity(ground):
    assert parse_ground_set(emit_ground_set(ground)) == ground
