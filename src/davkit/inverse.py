"""Structure of maximal and near-maximal atoms in intervals, with an
exhaustive verifier.

The classification results are complete explicit lists, so classifying is
canonical multiset comparison against generated templates - no case
analysis is re-derived:

  * length m+M over [-m, M]: minimal iff gcd(m, M) = 1 and the sequence
    is M^m * (-m)^M;
  * length 2m-1 over [-m, m] (m >= 2): minimal iff m^(m-1) * (-(m-1))^m
    or its mirror image;
  * length 2m-2 over [-m, m] (m >= 3): minimal iff one of
      - m odd: m^(m-2) * (-(m-2))^m, or its mirror,
      - m^(m-2) * (-(m-1))^(m-1) * 1, or its mirror.

Each classifier returns the ``InverseCase`` of the template that the
sequence equals, or ``InverseCase.NONE`` when it equals none.

The verifier re-derives each list by exhaustive atom enumeration and
reports any discrepancy as a hard failure: a mismatch would contradict a
proved statement, so it can only mean an implementation bug.
"""

from __future__ import annotations

from enum import Enum
from math import gcd

from . import search as _search
from .core import Interval, Sequence, ValidationError, check_threads, record


class InverseCase(str, Enum):
    INTERVAL_MAX = "INTERVAL_MAX"
    SYM_MAX_POS = "SYM_MAX_POS"
    SYM_MAX_NEG = "SYM_MAX_NEG"
    SUBMAX_PAIR_POS = "SUBMAX_PAIR_POS"
    SUBMAX_PAIR_NEG = "SUBMAX_PAIR_NEG"
    SUBMAX_UNIT_POS = "SUBMAX_UNIT_POS"
    SUBMAX_UNIT_NEG = "SUBMAX_UNIT_NEG"
    NONE = "NONE"


def _check_sequence(s: Sequence, length: int, lo: int, hi: int) -> None:
    if s.is_mixed or s.dim != 1:
        raise ValidationError("classification expects a 1-d lattice sequence")
    if s.length != length:
        raise ValidationError(f"wrong length {s.length}, expected {length}")
    for e, _ in s.entries:
        v = e.coords[0]
        if not lo <= v <= hi:
            raise ValidationError(f"element {v} outside [{lo},{hi}]")


def symmetric_max_templates(m: int) -> tuple[Sequence, Sequence]:
    """The two atoms of length 2m-1 over [-m, m]."""
    pos = Sequence.from_pairs([(m, m - 1), (-(m - 1), m)])
    return pos, pos.neg()


def symmetric_submax_templates(m: int) -> dict[InverseCase, Sequence]:
    """The atoms of length 2m-2 over [-m, m]: four for odd m, two for even."""
    out: dict[InverseCase, Sequence] = {}
    if m % 2 == 1:
        pair = Sequence.from_pairs([(m, m - 2), (-(m - 2), m)])
        out[InverseCase.SUBMAX_PAIR_POS] = pair
        out[InverseCase.SUBMAX_PAIR_NEG] = pair.neg()
    unit = Sequence.from_pairs([(m, m - 2), (-(m - 1), m - 1), (1, 1)])
    out[InverseCase.SUBMAX_UNIT_POS] = unit
    out[InverseCase.SUBMAX_UNIT_NEG] = unit.neg()
    return out


def classify_interval_max(m: int, M: int, s: Sequence) -> InverseCase:
    """Classify a length-(m+M) sequence over [-m, M]: it is minimal iff
    gcd(m, M) = 1 and it equals M^m * (-m)^M."""
    if m < 1 or M < 1:
        raise ValidationError("interval parameters must be >= 1")
    _check_sequence(s, m + M, -m, M)
    if gcd(m, M) == 1 and s == Sequence.from_pairs([(M, m), (-m, M)]):
        return InverseCase.INTERVAL_MAX
    return InverseCase.NONE


def classify_symmetric_max(m: int, s: Sequence) -> InverseCase:
    if m < 2:
        raise ValidationError("need m >= 2")
    _check_sequence(s, 2 * m - 1, -m, m)
    pos, neg = symmetric_max_templates(m)
    if s == pos:
        return InverseCase.SYM_MAX_POS
    if s == neg:
        return InverseCase.SYM_MAX_NEG
    return InverseCase.NONE


def classify_symmetric_submax(m: int, s: Sequence) -> InverseCase:
    if m < 3:
        raise ValidationError("need m >= 3")
    _check_sequence(s, 2 * m - 2, -m, m)
    for case, template in symmetric_submax_templates(m).items():
        if s == template:
            return case
    return InverseCase.NONE


@record(frozen=True)
class InverseCheck:
    """The sorted texts of the atoms a classification lists (``expected``)
    and of those the search finds (``found``)."""

    name: str
    expected: tuple[str, ...]
    found: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.expected == self.found


@record(frozen=True)
class InverseReport:
    checks: tuple[InverseCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_inverse(ms, threads: int = 1) -> InverseReport:
    """Exhaustively confirm the interval classifications.

    For each m: the atoms of length 2m-1 over [-m, m] must be exactly the
    two maximal templates (m >= 2), and the atoms of length 2m-2 exactly
    the near-maximal list (m >= 3).  For each coprime (m, M) pair, the
    atoms of length m+M over [-m, M] must be exactly {M^m * (-m)^M}; the
    pairs are all coprime pairs drawn from ``ms``, whose items must be
    ints (ValidationError if not).
    """
    check_threads(threads)
    ms = list(ms)
    for m in ms:
        if type(m) is not int:
            raise ValidationError(f"m values must be integers, got {m!r}")
    ms = sorted(set(ms))
    if not ms:
        raise ValidationError("no m values to verify")
    if any(m < 1 for m in ms):
        raise ValidationError("m values must be >= 1")
    checks: list[InverseCheck] = []

    def add_check(name: str, expected: set[Sequence], found: list[Sequence]):
        checks.append(
            InverseCheck(
                name,
                tuple(sorted(str(t) for t in expected)),
                tuple(sorted(str(t) for t in found)),
            )
        )

    for m in ms:
        ground = Interval(-m, m)
        if m >= 2:
            expected = set(symmetric_max_templates(m))
            found = _search.atoms_of_length(ground, 2 * m - 1, threads=threads)
            add_check(f"[-{m},{m}] length {2 * m - 1}", expected, found)
        if m >= 3:
            expected = set(symmetric_submax_templates(m).values())
            found = _search.atoms_of_length(ground, 2 * m - 2, threads=threads)
            add_check(f"[-{m},{m}] length {2 * m - 2}", expected, found)

    pairs = [(m, M) for m in ms for M in ms if gcd(m, M) == 1]
    for m, M in pairs:
        expected = {Sequence.from_pairs([(M, m), (-m, M)])}
        found = _search.atoms_of_length(Interval(-m, M), m + M, threads=threads)
        add_check(f"[-{m},{M}] length {m + M}", expected, found)

    return InverseReport(tuple(checks))
