"""The contract of davkit's value classes (``core.record``): each test
takes every class, or every frozen or mutable one, as its input."""

import pickle

import pytest

from davkit import (
    Box,
    BoundReport,
    ContainmentReport,
    DavenportResult,
    Element,
    Explicit,
    GroupProduct,
    GroupSpec,
    InverseCase,
    InverseReport,
    InverseVerdict,
    Interval,
    MultiplicityProfile,
    Ordering,
    Sequence,
    SubsumWitness,
    ValidationError,
    atoms_of_length,
)
from davkit.constructions import PowerCheckReport
from davkit.inverse import InverseCheck
from davkit.search import SearchStats

G = GroupSpec((2, 4))


def seq(k: int) -> Sequence:
    return Sequence.from_elements([1 + k, -1 - k])


# name -> (make, fields): make(0) and make(0) are equal, make(1) differs in
# a field; fields are the class's fields in order
CASES = {
    "GroupSpec": (lambda k: GroupSpec((2, 4 + 4 * k)), ("factors",)),
    "Element": (lambda k: Element((1, k)), ("coords", "group", "group_part")),
    "Element-mixed": (lambda k: Element((1,), G, (1, k)), ("coords", "group", "group_part")),
    "Sequence": (seq, ("entries",)),
    "Box": (lambda k: Box(((-1, 1 + k), (0, 2))), ("intervals",)),
    "Explicit": (lambda k: Explicit((Element((-1,)), Element((2 + k,)))), ("elements",)),
    "GroupProduct": (lambda k: GroupProduct(G, Interval(-1, 1 + k)), ("group", "base")),
    "BoundReport": (
        lambda k: BoundReport(1, 2 + k, False, ("tag",)),
        ("lower", "upper", "exact", "provenance"),
    ),
    "SearchStats": (
        lambda k: SearchStats(5, 3 + k, 1, 0.5),
        ("nodes", "prunes", "closures", "elapsed"),
    ),
    "DavenportResult": (
        lambda k: DavenportResult(2, 2, True, seq(k), SearchStats(5, 3, 1, 0.5), ("exhaustive-search",)),
        ("lower", "upper", "exact", "witness", "stats", "provenance"),
    ),
    "SubsumWitness": (lambda k: SubsumWitness(seq(k)), ("sub",)),
    "InverseVerdict": (
        lambda k: InverseVerdict(True, (InverseCase.SYM_MAX_POS, InverseCase.SYM_MAX_NEG)[k]),
        ("matches", "case"),
    ),
    "InverseCheck": (
        lambda k: InverseCheck("[-3,3] length 5", True, ("a",), ("a", "b")[: 1 + k]),
        ("name", "ok", "expected", "found"),
    ),
    "InverseReport": (lambda k: InverseReport((InverseCheck("c", k == 0, (), ()),)), ("checks",)),
    "Ordering": (
        lambda k: Ordering((1, 0), (-1 - k, 1 + k), (-1 - k, 0)),
        ("perm", "elements", "prefix_sums"),
    ),
    "ContainmentReport": (
        lambda k: ContainmentReport(-1 - k, 1, True, False),
        ("min_prefix", "max_prefix", "left_strict", "right_strict"),
    ),
    "MultiplicityProfile": (
        lambda k: MultiplicityProfile((1, -1), (1, 1 + k)),
        ("supports", "mults"),
    ),
    "PowerCheckReport": (
        lambda k: PowerCheckReport(2, 1 + k, 1 + k, True),
        ("base_length", "power", "zero_sum_subsequences", "ok"),
    ),
}
MUTABLE = ["SearchStats", "DavenportResult"]
FROZEN = [name for name in CASES if name not in MUTABLE]


@pytest.mark.parametrize("name", CASES)
def test_equality_is_by_field(name):
    make, _ = CASES[name]
    a, b, c = make(0), make(0), make(1)
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c


@pytest.mark.parametrize("name", CASES)
def test_equality_holds_only_within_one_class(name):
    make, fields = CASES[name]
    a = make(0)
    twin = object.__new__(type("Twin", (type(a),), {}))
    twin.__dict__.update(a.__dict__)  # the same fields, in a subclass
    assert a != twin and twin != a
    assert a != tuple(getattr(a, f) for f in fields)


def test_elements_keep_total_ordering():
    lo, mid, hi = Element((0, 5)), Element((1, -1)), Element((1, 0))
    assert sorted([hi, lo, mid]) == [lo, mid, hi]
    assert lo < mid <= hi and hi > mid >= lo
    assert mid <= Element((1, -1)) and mid >= Element((1, -1))
    with pytest.raises(ValidationError, match="cannot compare"):
        lo < Element((0,))


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_hash_is_by_field(name):
    make, _ = CASES[name]
    a, b, c = make(0), make(0), make(1)
    assert hash(a) == hash(b)
    assert len({a, b, c}) == 2


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_fields_cannot_change(name):
    make, fields = CASES[name]
    a = make(0)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == make(0)


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_classes_are_unhashable(name):
    make, fields = CASES[name]
    a, b, c = make(0), make(0), make(1)
    with pytest.raises(TypeError):
        hash(a)
    changed = next(f for f in fields if getattr(a, f) != getattr(c, f))
    setattr(b, changed, getattr(c, changed))
    assert b == c and b != a


@pytest.mark.parametrize("name", CASES)
def test_repr_names_each_field(name):
    make, fields = CASES[name]
    a = make(0)
    shown = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
    assert repr(a) == f"{type(a).__name__}({shown})"


@pytest.mark.parametrize("name", CASES)
def test_pickle_round_trip(name):
    make, _ = CASES[name]
    a = make(0)
    b = pickle.loads(pickle.dumps(a))
    assert type(b) is type(a) and b == a
    if name in FROZEN:
        assert hash(b) == hash(a)


def test_fields_by_position_name_or_default():
    assert ContainmentReport(-1, 2, left_strict=True, right_strict=False) == ContainmentReport(
        -1, 2, True, False
    )
    assert SearchStats() == SearchStats(0, 0, 0, 0.0)
    assert SearchStats(closures=2).closures == 2
    with pytest.raises(TypeError, match="missing field 'ok'"):
        PowerCheckReport(2, 1, 1)
    with pytest.raises(TypeError, match="unknown or repeated field 'nodes'"):
        SearchStats(1, nodes=2)
    with pytest.raises(TypeError, match="unknown or repeated field 'depth'"):
        SearchStats(depth=2)
    with pytest.raises(TypeError, match="takes 4 fields"):
        SearchStats(1, 2, 3, 4.0, 5)


def test_records_cross_the_process_pool():
    ground = Interval(-3, 3)
    atoms = atoms_of_length(ground, 5, threads=2)
    assert atoms and atoms == atoms_of_length(ground, 5, threads=1)
