"""Domain model for exact zero-sum computations over integer lattices.

The objects here are deliberately small and immutable:

  * an element of Z^d is an integer coordinate tuple, ordered
    lexicographically (the canonical order used everywhere);
  * a finite abelian group is described by its invariant factors
    n_1 | n_2 | ... | n_r; its elements are residue tuples added
    componentwise mod n_i;
  * a mixed element pairs a group residue tuple with a lattice point,
    for sets of the form G x X;
  * a sequence is an *unordered* multiset, stored as a sorted
    (element, multiplicity) table, so two equal multisets are equal
    Python objects regardless of construction order;
  * a ground set is a finite description (interval, box, explicit set,
    or group x set product) that can be enumerated in canonical order,
    subject to a cardinality guard.

Coordinates are guarded to the signed 64-bit window: anything outside it
raises OverflowGuardError instead of silently growing, because the search
and minimality certificates are only vetted for desk-scale integers.
"""

from __future__ import annotations

import itertools
import os
import re
from dataclasses import dataclass
from functools import cached_property, total_ordering
from math import prod
from typing import Iterable, Union

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1

#: Default cap on the number of ground-set elements materialised at once.
DEFAULT_ENUM_CAP = 10**6
#: Default cap on brute-force candidate/selection scans.
DEFAULT_SCAN_CAP = 10**7
#: Environment variable overriding every enumeration guard.
GUARD_ENV_VAR = "DAVKIT_GUARD"


class DavkitError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DavkitError, ValueError):
    """A value violates a documented precondition or invariant."""


class ParseError(DavkitError, ValueError):
    """Malformed textual input; carries the offending position when known."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class OverflowGuardError(DavkitError, ArithmeticError):
    """An integer left the signed 64-bit window the engines are vetted for."""


class GuardExceededError(DavkitError):
    """A configurable enumeration or state-space guard tripped."""


class CardinalityGuardError(GuardExceededError):
    """A ground set is too large to materialise; reports the exact size."""

    def __init__(self, cardinality: int, cap: int):
        self.cardinality = cardinality
        self.cap = cap
        super().__init__(
            f"ground set has {cardinality} elements, above the guard of {cap}"
        )


class ConsistencyError(DavkitError):
    """An internally certified identity failed; indicates a bug, never expected."""


def resolve_guard(default: int, override: int | None = None) -> int:
    """Guard value: an explicit override beats DAVKIT_GUARD beats the default."""
    if override is not None:
        return int(override)
    env = os.environ.get(GUARD_ENV_VAR)
    return int(env) if env else default


def check_i64(value: int, context: str = "value") -> int:
    if value < I64_MIN or value > I64_MAX:
        raise OverflowGuardError(f"{context} {value} outside signed 64-bit range")
    return value


# ---------------------------------------------------------------------------
# elements


@total_ordering
@dataclass(frozen=True)
class Element:
    """A point of Z^d; the atomic symbol of a sequence."""

    coords: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.coords, tuple):
            object.__setattr__(self, "coords", tuple(self.coords))
        if len(self.coords) < 1:
            raise ValidationError("an element needs at least one coordinate")
        for c in self.coords:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValidationError(f"non-integer coordinate {c!r}")
            check_i64(c, "coordinate")

    @staticmethod
    def of(value: Union["Element", int, Iterable[int]]) -> "Element":
        """Coerce an int (d=1) or coordinate iterable into an Element."""
        if isinstance(value, Element):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Element((value,))
        return Element(tuple(value))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def neg(self) -> "Element":
        return Element(tuple(-c for c in self.coords))

    def __lt__(self, other: "Element") -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        if self.dim != other.dim:
            raise ValidationError(
                f"cannot compare elements of dimension {self.dim} and {other.dim}"
            )
        return self.coords < other.coords

    def __str__(self) -> str:
        if self.dim == 1:
            return str(self.coords[0])
        return "(" + ",".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group as invariant factors n_1 | n_2 | ... | n_r.

    The empty factor list is the trivial group.  Elements are residue
    tuples; addition is componentwise mod n_i.
    """

    factors: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.factors, tuple):
            object.__setattr__(self, "factors", tuple(self.factors))
        prev = None
        for n in self.factors:
            if not isinstance(n, int) or n < 2:
                raise ValidationError(f"invariant factor {n!r} must be an integer >= 2")
            if prev is not None and n % prev != 0:
                raise ValidationError(
                    f"invariant factors must divide in order: {prev} does not divide {n}"
                )
            prev = n

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def exponent(self) -> int:
        return self.factors[-1] if self.factors else 1

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    @property
    def is_cyclic(self) -> bool:
        return len(self.factors) <= 1

    @property
    def is_p_group(self) -> bool:
        """True when every factor is a power of one shared prime."""
        if not self.factors:
            return True
        n = self.factors[0]
        p = 2
        while p * p <= n:
            if n % p == 0:
                break
            p += 1
        else:
            p = n
        for n in self.factors:
            while n % p == 0:
                n //= p
            if n != 1:
                return False
        return True

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def elements(self):
        return itertools.product(*(range(n) for n in self.factors))

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factors))

    def neg(self, a: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((-x) % n for x, n in zip(a, self.factors))

    def scale(self, a: tuple[int, ...], k: int) -> tuple[int, ...]:
        return tuple((x * k) % n for x, n in zip(a, self.factors))

    def __str__(self) -> str:
        if not self.factors:
            return "C1"
        return "x".join(f"C{n}" for n in self.factors)


@total_ordering
@dataclass(frozen=True)
class MixedElement:
    """An element of G x Z^d: a residue tuple paired with a lattice point."""

    group: GroupSpec
    group_part: tuple[int, ...]
    lattice_part: Element

    def __post_init__(self):
        if not isinstance(self.group_part, tuple):
            object.__setattr__(self, "group_part", tuple(self.group_part))
        if len(self.group_part) != self.group.rank:
            raise ValidationError(
                f"residue tuple length {len(self.group_part)} != group rank {self.group.rank}"
            )
        for r, n in zip(self.group_part, self.group.factors):
            if not isinstance(r, int) or not 0 <= r < n:
                raise ValidationError(f"residue {r!r} outside [0, {n})")

    @property
    def dim(self) -> int:
        return self.lattice_part.dim

    @property
    def is_zero(self) -> bool:
        return all(r == 0 for r in self.group_part) and self.lattice_part.is_zero

    def neg(self) -> "MixedElement":
        return MixedElement(self.group, self.group.neg(self.group_part), self.lattice_part.neg())

    def __lt__(self, other: "MixedElement") -> bool:
        if not isinstance(other, MixedElement):
            return NotImplemented
        if self.group != other.group or self.dim != other.dim:
            raise ValidationError("cannot compare mixed elements over different structures")
        return (self.group_part, self.lattice_part.coords) < (
            other.group_part,
            other.lattice_part.coords,
        )

    def __str__(self) -> str:
        g = ",".join(str(r) for r in self.group_part)
        v = ",".join(str(c) for c in self.lattice_part.coords)
        return f"({g}|{v})"


AnyElement = Union[Element, MixedElement]


def _sort_key(e: AnyElement):
    if isinstance(e, MixedElement):
        return (e.group_part, e.lattice_part.coords)
    return e.coords


# ---------------------------------------------------------------------------
# sequences


@dataclass(frozen=True)
class Sequence:
    """An unordered multiset of elements, kept in canonical form.

    ``entries`` is a tuple of (element, multiplicity) pairs sorted in
    canonical element order with multiplicities >= 1; two sequences are
    equal iff they are equal as multisets.
    """

    entries: tuple[tuple[AnyElement, int], ...]

    def __post_init__(self):
        prev = None
        for e, m in self.entries:
            if not isinstance(m, int) or m < 1:
                raise ValidationError(f"multiplicity {m!r} must be a positive integer")
            if prev is not None:
                if type(e) is not type(prev) or (
                    isinstance(e, MixedElement) and e.group != prev.group
                ):
                    raise ValidationError("mixed element kinds in one sequence")
                if e.dim != prev.dim:
                    raise ValidationError("mixed dimensions in one sequence")
                if not _sort_key(prev) < _sort_key(e):
                    raise ValidationError("entries not in strictly increasing canonical order")
            prev = e

    @classmethod
    def from_pairs(cls, pairs) -> "Sequence":
        """Build from (element, multiplicity) pairs; merges duplicates,
        drops zero multiplicities, coerces ints/tuples to elements."""
        merged: dict[AnyElement, int] = {}
        kind = None
        for raw, m in pairs:
            if not isinstance(m, int) or m < 0:
                raise ValidationError(f"multiplicity {m!r} must be a non-negative integer")
            if m == 0:
                continue
            e = raw if isinstance(raw, MixedElement) else Element.of(raw)
            if kind is None:
                kind = type(e)
            elif type(e) is not kind:
                raise ValidationError("mixed element kinds in one sequence")
            merged[e] = merged.get(e, 0) + m
        entries = tuple(sorted(merged.items(), key=lambda em: _sort_key(em[0])))
        return cls(entries)

    @classmethod
    def from_elements(cls, elements) -> "Sequence":
        return cls.from_pairs((e, 1) for e in elements)

    @cached_property
    def length(self) -> int:
        return sum(m for _, m in self.entries)

    @cached_property
    def total(self) -> AnyElement:
        """The componentwise sum of the multiset (residues reduced mod n_i)."""
        if not self.entries:
            raise ValidationError("empty sequence has no sum")
        first = self.entries[0][0]
        d = first.dim
        acc = [0] * d
        for e, m in self.entries:
            lat = e.lattice_part.coords if isinstance(e, MixedElement) else e.coords
            for i in range(d):
                acc[i] = check_i64(acc[i] + m * lat[i], "sequence sum")
        point = Element(tuple(acc))
        if isinstance(first, MixedElement):
            g = first.group
            res = g.identity
            for e, m in self.entries:
                res = g.add(res, g.scale(e.group_part, m))
            return MixedElement(g, res, point)
        return point

    @property
    def dim(self) -> int:
        if not self.entries:
            raise ValidationError("empty sequence has no dimension")
        return self.entries[0][0].dim

    @property
    def is_mixed(self) -> bool:
        return bool(self.entries) and isinstance(self.entries[0][0], MixedElement)

    @property
    def group(self) -> GroupSpec | None:
        return self.entries[0][0].group if self.is_mixed else None

    def support(self) -> tuple[AnyElement, ...]:
        return tuple(e for e, _ in self.entries)

    def multiplicity(self, element) -> int:
        e = element if isinstance(element, MixedElement) else Element.of(element)
        for cand, m in self.entries:
            if cand == e:
                return m
        return 0

    def flatten(self) -> list[AnyElement]:
        """Elements expanded by multiplicity, canonical order."""
        out = []
        for e, m in self.entries:
            out.extend([e] * m)
        return out

    def neg(self) -> "Sequence":
        return Sequence.from_pairs((e.neg(), m) for e, m in self.entries)

    def power(self, k: int) -> "Sequence":
        if k < 1:
            raise ValidationError("power must be >= 1")
        return Sequence.from_pairs((e, m * k) for e, m in self.entries)

    def contains_sub(self, other: "Sequence") -> bool:
        return all(self.multiplicity(e) >= m for e, m in other.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "(empty)"
        parts = []
        for e, m in self.entries:
            text = str(e)
            if isinstance(e, Element) and e.dim == 1 and e.coords[0] < 0:
                text = f"({text})"
            parts.append(text if m == 1 else f"{text}^{m}")
        return "*".join(parts)


def canonicalize(sequence: Sequence) -> Sequence:
    """Rebuild the canonical form; idempotent, preserves length and sum."""
    return Sequence.from_pairs(sequence.entries)


# ---------------------------------------------------------------------------
# ground sets


class GroundSet:
    """Finite description of a set of elements; see the concrete variants."""

    def cardinality(self) -> int:
        raise NotImplementedError

    @property
    def dim(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Interval(GroundSet):
    lo: int
    hi: int

    def __post_init__(self):
        check_i64(self.lo, "interval bound")
        check_i64(self.hi, "interval bound")
        if self.lo > self.hi:
            raise ValidationError(f"interval [{self.lo},{self.hi}] has lo > hi")

    def cardinality(self) -> int:
        return self.hi - self.lo + 1

    @property
    def dim(self) -> int:
        return 1


@dataclass(frozen=True)
class Box(GroundSet):
    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not isinstance(self.intervals, tuple):
            object.__setattr__(self, "intervals", tuple(tuple(iv) for iv in self.intervals))
        if len(self.intervals) < 2:
            raise ValidationError("a box needs at least two axes; use Interval for d=1")
        for lo, hi in self.intervals:
            check_i64(lo, "box bound")
            check_i64(hi, "box bound")
            if lo > hi:
                raise ValidationError(f"box axis [{lo},{hi}] has lo > hi")

    def cardinality(self) -> int:
        return prod(hi - lo + 1 for lo, hi in self.intervals)

    @property
    def dim(self) -> int:
        return len(self.intervals)


def box(intervals) -> GroundSet:
    """Factory normalising a one-axis box to an Interval."""
    ivs = [tuple(iv) for iv in intervals]
    if len(ivs) == 1:
        return Interval(ivs[0][0], ivs[0][1])
    return Box(tuple(ivs))


@dataclass(frozen=True)
class Explicit(GroundSet):
    elements: tuple[Element, ...]

    def __post_init__(self):
        elems = tuple(sorted((Element.of(e) for e in self.elements), key=_sort_key))
        if not elems:
            raise ValidationError("an explicit set must be nonempty")
        d = elems[0].dim
        for a, b in itertools.pairwise(elems):
            if b.dim != d:
                raise ValidationError("explicit set mixes dimensions")
            if a == b:
                raise ValidationError(f"duplicate element {a} in explicit set")
        object.__setattr__(self, "elements", elems)

    def cardinality(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements[0].dim


@dataclass(frozen=True)
class GroupProduct(GroundSet):
    group: GroupSpec
    base: GroundSet

    def __post_init__(self):
        if isinstance(self.base, GroupProduct):
            raise ValidationError("group products do not nest")

    def cardinality(self) -> int:
        return self.group.order * self.base.cardinality()

    @property
    def dim(self) -> int:
        return self.base.dim


def enumerate_elements(ground: GroundSet, cap: int | None = None) -> list[AnyElement]:
    """All elements of a ground set in canonical order, guard-checked.

    Raises CardinalityGuardError (reporting the exact cardinality) instead
    of materialising more than the guard allows.
    """
    guard = resolve_guard(DEFAULT_ENUM_CAP, cap)
    card = ground.cardinality()
    if card > guard:
        raise CardinalityGuardError(card, guard)
    if isinstance(ground, Interval):
        return [Element((v,)) for v in range(ground.lo, ground.hi + 1)]
    if isinstance(ground, Box):
        ranges = [range(lo, hi + 1) for lo, hi in ground.intervals]
        return [Element(t) for t in itertools.product(*ranges)]
    if isinstance(ground, Explicit):
        return list(ground.elements)
    if isinstance(ground, GroupProduct):
        base = enumerate_elements(ground.base, cap=guard)
        return [
            MixedElement(ground.group, res, e)
            for res in ground.group.elements()
            for e in base
        ]
    raise ValidationError(f"unknown ground set {ground!r}")


def contains_element(ground: GroundSet, e: AnyElement) -> bool:
    if isinstance(ground, Interval):
        return isinstance(e, Element) and e.dim == 1 and ground.lo <= e.coords[0] <= ground.hi
    if isinstance(ground, Box):
        return (
            isinstance(e, Element)
            and e.dim == ground.dim
            and all(lo <= c <= hi for c, (lo, hi) in zip(e.coords, ground.intervals))
        )
    if isinstance(ground, Explicit):
        return isinstance(e, Element) and e in ground.elements
    if isinstance(ground, GroupProduct):
        return (
            isinstance(e, MixedElement)
            and e.group == ground.group
            and contains_element(ground.base, e.lattice_part)
        )
    return False


# ---------------------------------------------------------------------------
# ground-set grammar

_INTERVAL_RE = re.compile(r"\[(-?\d+),(-?\d+)\](?:\^(\d+))?$")
_GROUP_RE = re.compile(r"C(\d+)$")


def _split_top_level(text: str, sep: str) -> list[tuple[str, int]]:
    """Split on a separator character outside any bracket pair.

    Returns (chunk, start_position) pairs.
    """
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "[({":
            depth += 1
        elif ch in "])}":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced bracket", i)
        elif ch == sep and depth == 0:
            parts.append((text[start:i], start))
            start = i + 1
    if depth != 0:
        raise ParseError("unbalanced bracket", len(text) - 1)
    parts.append((text[start:], start))
    return parts


def _parse_explicit(chunk: str, pos: int) -> Explicit:
    body = chunk[1:-1]
    if not body:
        raise ParseError("explicit set is empty", pos)
    elems = []
    for item, at in _split_top_level(body, ","):
        item = item.strip()
        if not item:
            raise ParseError("empty element in explicit set", pos + 1 + at)
        if item.startswith("("):
            if not item.endswith(")"):
                raise ParseError("unterminated tuple element", pos + 1 + at)
            try:
                coords = tuple(int(c) for c in item[1:-1].split(","))
            except ValueError:
                raise ParseError(f"bad tuple element {item!r}", pos + 1 + at) from None
            elems.append(Element(coords))
        else:
            try:
                elems.append(Element((int(item),)))
            except ValueError:
                raise ParseError(f"bad element {item!r}", pos + 1 + at) from None
    try:
        return Explicit(tuple(elems))
    except ValidationError as exc:
        raise ParseError(str(exc), pos) from None


def parse_ground_set(text: str) -> GroundSet:
    """Parse the ground-set grammar.

    ``[-m,M]`` interval; ``[-a,b]x[-c,d]`` box; ``[-m,m]^d`` power box;
    ``{e1,e2,...}`` explicit set with elements ``k`` or ``(k1,...,kd)``;
    ``Cn1xCn2x...x<set>`` group product.  Whitespace is ignored.  Every
    expressible set is finite; there is no syntax for unbounded sets.
    """
    src = "".join(text.split())
    if not src:
        raise ParseError("empty ground-set spec", 0)
    parts = _split_top_level(src, "x")

    factors: list[int] = []
    idx = 0
    while idx < len(parts):
        m = _GROUP_RE.fullmatch(parts[idx][0])
        if not m:
            break
        factors.append(int(m.group(1)))
        idx += 1
    rest = parts[idx:]
    if factors and not rest:
        raise ParseError("group product needs a base set", len(src) - 1)
    if not rest or any(not chunk for chunk, _ in rest):
        raise ParseError("empty set component", parts[idx][1] if idx < len(parts) else 0)

    axes: list[tuple[int, int]] = []
    explicit: Explicit | None = None
    for chunk, at in rest:
        if chunk.startswith("{"):
            if not chunk.endswith("}"):
                raise ParseError("unterminated explicit set", at)
            if len(rest) > 1:
                raise ParseError("explicit sets cannot be crossed with other sets", at)
            explicit = _parse_explicit(chunk, at)
        else:
            m = _INTERVAL_RE.fullmatch(chunk)
            if not m:
                raise ParseError(f"bad set component {chunk!r}", at)
            lo, hi = int(m.group(1)), int(m.group(2))
            power = int(m.group(3)) if m.group(3) else 1
            if power < 1:
                raise ParseError("power must be >= 1", at)
            if lo > hi:
                raise ParseError(f"interval [{lo},{hi}] has lo > hi", at)
            axes.extend([(lo, hi)] * power)

    base: GroundSet = explicit if explicit is not None else box(axes)
    if not factors:
        return base
    try:
        group = GroupSpec(tuple(factors))
    except ValidationError as exc:
        raise ParseError(str(exc), 0) from None
    return GroupProduct(group, base)


def emit_ground_set(ground: GroundSet) -> str:
    """Inverse of parse_ground_set on canonical forms."""
    if isinstance(ground, Interval):
        return f"[{ground.lo},{ground.hi}]"
    if isinstance(ground, Box):
        ivs = ground.intervals
        if all(iv == ivs[0] for iv in ivs):
            return f"[{ivs[0][0]},{ivs[0][1]}]^{len(ivs)}"
        return "x".join(f"[{lo},{hi}]" for lo, hi in ivs)
    if isinstance(ground, Explicit):
        return "{" + ",".join(str(e) for e in ground.elements) + "}"
    if isinstance(ground, GroupProduct):
        prefix = "x".join(f"C{n}" for n in ground.group.factors) or "C1"
        return f"{prefix}x{emit_ground_set(ground.base)}"
    raise ValidationError(f"unknown ground set {ground!r}")


# ---------------------------------------------------------------------------
# JSON output


def element_to_json(e: AnyElement):
    if isinstance(e, MixedElement):
        return {"group": list(e.group_part), "coords": list(e.lattice_part.coords)}
    return list(e.coords)


def sequence_to_json(s: Sequence) -> dict:
    return {
        "text": str(s),
        "entries": [{"element": element_to_json(e), "mult": m} for e, m in s.entries],
        "length": s.length,
    }


# ---------------------------------------------------------------------------
# sequence grammar

_TERM_RE = re.compile(r"(?P<elem>.+?)(?:\^(?P<mult>\d+))?$")


def _parse_ints(text: str, whole: str, pos: int) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise ParseError(f"bad element {whole!r}", pos) from None


def _parse_element(text: str, pos: int, group: GroupSpec | None) -> AnyElement:
    if text.startswith("("):
        if not text.endswith(")"):
            raise ParseError("unterminated element", pos)
        body = text[1:-1]
        if "|" in body:
            if group is None:
                raise ParseError("mixed element needs a group context", pos)
            gtext, _, vtext = body.partition("|")
            residues = _parse_ints(gtext, text, pos) if gtext else ()
            if len(residues) != group.rank:
                raise ParseError(
                    f"element {text!r} has {len(residues)} residues, the group has rank {group.rank}",
                    pos,
                )
            coords = _parse_ints(vtext, text, pos)
            residues = tuple(r % n for r, n in zip(residues, group.factors))
            return MixedElement(group, residues, Element(coords))
        return Element(_parse_ints(body, text, pos))
    try:
        return Element((int(text),))
    except ValueError:
        raise ParseError(f"bad element {text!r}", pos) from None


def parse_sequence(text: str, group: GroupSpec | None = None) -> Sequence:
    """Parse a multiset written as ``elem[^mult]`` terms joined by ``*``.

    Elements are ``k`` for d=1, ``(k1,...,kd)`` for boxes, and
    ``(r1,...,rk|c1,...,cd)`` for group products (requires ``group``).
    """
    src = "".join(text.split())
    if not src:
        raise ParseError("empty sequence", 0)
    pairs = []
    for chunk, at in _split_top_level(src, "*"):
        if not chunk:
            raise ParseError("empty term", at)
        m = _TERM_RE.fullmatch(chunk)
        elem_text = m.group("elem")
        mult = int(m.group("mult")) if m.group("mult") else 1
        pairs.append((_parse_element(elem_text, at, group), mult))
    try:
        return Sequence.from_pairs(pairs)
    except ValidationError as exc:
        raise ParseError(str(exc), 0) from None
