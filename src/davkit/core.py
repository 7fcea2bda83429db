"""Domain model for exact zero-sum computations over integer lattices.

The objects here are deliberately small and immutable:

  * a finite abelian group is described by its invariant factors
    n_1 | n_2 | ... | n_r; its elements are residue tuples added
    componentwise mod n_i;
  * an element is an integer coordinate tuple, a point of Z^d; on sets
    of the form G x X it also carries the group and a residue tuple.
    Elements are ordered by (residues, coordinates), lexicographically
    (the canonical order used everywhere);
  * a sequence is an *unordered* multiset, stored as a sorted
    (element, multiplicity) table, so two equal multisets are equal
    Python objects regardless of construction order;
  * a ground set is a finite description (a box of d >= 1 axes, an
    explicit set of lattice points, or a group x set product) that can
    be enumerated in canonical order, subject to a cardinality guard.
    ``Interval(lo, hi)`` builds the one-axis box and
    ``MixedElement(group, residues, point)`` an element of G x Z^d.

Coordinates are guarded to the signed 64-bit window: anything outside it
raises OverflowGuardError instead of silently growing, because the search
and minimality certificates are only vetted for desk-scale integers.
"""

from __future__ import annotations

import itertools
import os
import re
from collections import Counter
from collections.abc import Iterable
from functools import cached_property, total_ordering
from math import prod
from operator import attrgetter

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1

#: Default cap on the number of ground-set elements materialised at once,
#: and on the axes of a parsed box.
DEFAULT_ENUM_CAP = 10**6
#: Default cap on brute-force candidate/selection scans.
DEFAULT_SCAN_CAP = 10**7
#: Default cap on the bits of a closed-form bound: an int of at most
#: 4300 * log2(10) bits has at most 4300 digits, the most that Python
#: converts to text by default (``sys.get_int_max_str_digits``).
DEFAULT_BITS_CAP = 14_284
#: Environment variable overriding every guard (see ``resolve_guard``).
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
        # a count of thousands of digits would not even convert to text
        bits = cardinality.bit_length()
        size = cardinality if bits <= 64 else f"at least 2^{bits - 1}"
        super().__init__(f"ground set has {size} elements, above the guard of {cap}")


class ConsistencyError(DavkitError):
    """An internally certified identity failed; indicates a bug, never expected."""


def resolve_guard(default: int) -> int:
    """Guard value: DAVKIT_GUARD if set, else the default.  A value that
    is not a non-negative integer is a ParseError or ValidationError."""
    env = os.environ.get(GUARD_ENV_VAR)
    if not env:
        return default
    guard = _number(env, f"{GUARD_ENV_VAR} value", None)
    if guard < 0:
        raise ValidationError(f"{GUARD_ENV_VAR} must be >= 0, got {guard}")
    return guard


def check_threads(threads: int) -> None:
    """ValidationError unless ``threads``, a worker count, is an int >= 0
    (0 means auto)."""
    if type(threads) is not int or threads < 0:
        raise ValidationError(f"threads must be an integer >= 0, got {threads!r}")


def check_i64(value: int, context: str = "value") -> int:
    if value < I64_MIN or value > I64_MAX:
        raise OverflowGuardError(f"{context} {value} outside signed 64-bit range")
    return value


# ---------------------------------------------------------------------------
# value classes


def _record_init(self, *args, **kwargs):
    cls = type(self)
    fields = cls._fields
    if len(args) > len(fields):
        raise TypeError(f"{cls.__name__}() takes {len(fields)} fields, got {len(args)}")
    values = dict(zip(fields, args))
    for name in kwargs:
        if name not in fields or name in values:
            raise TypeError(f"{cls.__name__}() got an unknown or repeated field {name!r}")
    values.update(kwargs)
    for name in fields[len(args):]:
        if name not in values:
            if name not in cls._defaults:
                raise TypeError(f"{cls.__name__}() is missing field {name!r}")
            values[name] = cls._defaults[name]
    self.__dict__.update(values)


def _record_repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({fields})"


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")


def record(cls=None, *, frozen: bool = False):
    """Class decorator for a value class: the names annotated in the class
    body, in order, are its fields.

    It installs ``__repr__`` (``Name(field=value, ...)``) and, unless
    the class defines its own, ``__eq__`` (field by field, between
    instances of one class) and an ``__init__`` that takes the fields by
    position or name, with a field's class attribute as its default.  A
    frozen class hashes by its fields (a class with its own ``__eq__``
    brings its own ``__hash__``) and raises AttributeError on any
    assignment or deletion, so its own ``__init__`` stores the fields
    with ``self.__dict__.update``; any other class is mutable and
    unhashable.  It generates no source, so a class costs no compile.
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    cls._fields = fields
    if "__init__" not in cls.__dict__:
        cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        cls.__init__ = _record_init
    if "__eq__" not in cls.__dict__:
        values = attrgetter(*fields)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__ if frozen else None
    cls.__repr__ = _record_repr
    if frozen:
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
    return cls


# ---------------------------------------------------------------------------
# elements


@record(frozen=True)
class GroupSpec:
    """A finite abelian group as invariant factors n_1 | n_2 | ... | n_r.

    The empty factor list is the trivial group.  Elements are residue
    tuples; addition is componentwise mod n_i.
    """

    factors: tuple[int, ...]

    def __init__(self, factors: Iterable[int] = ()):
        factors = tuple(factors)
        prev = None
        for n in factors:
            if not isinstance(n, int) or n < 2:
                raise ValidationError(f"invariant factor {n!r} must be an integer >= 2")
            if prev is not None and n % prev != 0:
                raise ValidationError(
                    f"invariant factors must divide in order: {prev} does not divide {n}"
                )
            prev = n
        self.__dict__.update(factors=factors)

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
@record(frozen=True)
class Element:
    """The atomic symbol of a sequence: a point of Z^d, or of G x Z^d.

    ``coords`` is the lattice point.  On G x Z^d, ``group`` is G and
    ``group_part`` the residue tuple; on Z^d they are None and ().
    Elements are ordered by (group_part, coords).
    """

    coords: tuple[int, ...]
    group: GroupSpec | None
    group_part: tuple[int, ...]

    def __init__(
        self,
        coords: Iterable[int],
        group: GroupSpec | None = None,
        group_part: Iterable[int] = (),
    ):
        if not isinstance(coords, tuple):
            coords = tuple(coords)
        if len(coords) < 1:
            raise ValidationError("an element needs at least one coordinate")
        for c in coords:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValidationError(f"non-integer coordinate {c!r}")
            check_i64(c, "coordinate")
        if group is None:
            if group_part != ():
                raise ValidationError("a residue tuple needs a group")
        else:
            if not isinstance(group_part, tuple):
                group_part = tuple(group_part)
            if len(group_part) != group.rank:
                raise ValidationError(
                    f"residue tuple length {len(group_part)} != group rank {group.rank}"
                )
            for r, n in zip(group_part, group.factors):
                if not isinstance(r, int) or not 0 <= r < n:
                    raise ValidationError(f"residue {r!r} outside [0, {n})")
        self.__dict__.update(coords=coords, group=group, group_part=group_part)

    @staticmethod
    def of(value: Element | int | Iterable[int]) -> Element:
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
    def lattice_part(self) -> "Element":
        """The lattice point, as an element of Z^d."""
        return self if self.group is None else Element(self.coords)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords) and not any(self.group_part)

    def neg(self) -> "Element":
        group_part = self.group.neg(self.group_part) if self.group is not None else ()
        return Element(tuple(-c for c in self.coords), self.group, group_part)

    # by hand, not by ``record``: elements key the dict of every multiset
    # built, and its generic field getter takes about 1.7 times as long
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.coords, self.group, self.group_part) == (
                other.coords, other.group, other.group_part
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.coords, self.group, self.group_part))

    def __lt__(self, other: "Element") -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        if self.group != other.group or self.dim != other.dim:
            raise ValidationError(f"cannot compare elements {self} and {other}")
        return (self.group_part, self.coords) < (other.group_part, other.coords)

    def __str__(self) -> str:
        v = ",".join(str(c) for c in self.coords)
        if self.group is not None:
            return "(" + ",".join(str(r) for r in self.group_part) + f"|{v})"
        return v if self.dim == 1 else f"({v})"


def MixedElement(group: GroupSpec, residues: Iterable[int], point: Element) -> Element:
    """The element (residues | point) of G x Z^d."""
    return Element(point.coords, group, tuple(residues))


# ---------------------------------------------------------------------------
# sequences


@record(frozen=True)
class Sequence:
    """An unordered multiset of elements, kept in canonical form.

    ``entries`` is a tuple of (element, multiplicity) pairs sorted in
    canonical element order with multiplicities >= 1; two sequences are
    equal iff they are equal as multisets.
    """

    entries: tuple[tuple[Element, int], ...]

    def __init__(self, entries: tuple[tuple[Element, int], ...]):
        prev = None
        for e, m in entries:
            if not isinstance(m, int) or m < 1:
                raise ValidationError(f"multiplicity {m!r} must be a positive integer")
            if prev is not None:
                if e.group != prev.group:
                    raise ValidationError("mixed element kinds in one sequence")
                if e.dim != prev.dim:
                    raise ValidationError("mixed dimensions in one sequence")
                if not (prev.group_part, prev.coords) < (e.group_part, e.coords):
                    raise ValidationError("entries not in strictly increasing canonical order")
            prev = e
        self.__dict__.update(entries=entries)

    @classmethod
    def from_pairs(cls, pairs) -> "Sequence":
        """Build from (element, multiplicity) pairs; merges duplicates,
        drops zero multiplicities, coerces ints/tuples to elements."""
        merged: dict[Element, int] = {}
        for raw, m in pairs:
            if not isinstance(m, int) or m < 0:
                raise ValidationError(f"multiplicity {m!r} must be a non-negative integer")
            if m == 0:
                continue
            e = Element.of(raw)
            merged[e] = merged.get(e, 0) + m
        entries = tuple(sorted(merged.items(), key=lambda em: (em[0].group_part, em[0].coords)))
        return cls(entries)

    @classmethod
    def from_elements(cls, elements) -> "Sequence":
        return cls.from_pairs((e, 1) for e in elements)

    @cached_property
    def length(self) -> int:
        return sum(m for _, m in self.entries)

    @cached_property
    def total(self) -> Element:
        """The componentwise sum of the multiset (residues reduced mod n_i)."""
        if not self.entries:
            raise ValidationError("empty sequence has no sum")
        first = self.entries[0][0]
        d = first.dim
        acc = [0] * d
        for e, m in self.entries:
            for i in range(d):
                acc[i] = check_i64(acc[i] + m * e.coords[i], "sequence sum")
        g = first.group
        res = ()
        if g is not None:
            res = g.identity
            for e, m in self.entries:
                res = g.add(res, g.scale(e.group_part, m))
        return Element(tuple(acc), g, res)

    @property
    def dim(self) -> int:
        if not self.entries:
            raise ValidationError("empty sequence has no dimension")
        return self.entries[0][0].dim

    @property
    def is_mixed(self) -> bool:
        return bool(self.entries) and self.entries[0][0].group is not None

    @property
    def group(self) -> GroupSpec | None:
        return self.entries[0][0].group if self.entries else None

    def support(self) -> tuple[Element, ...]:
        return tuple(e for e, _ in self.entries)

    def multiplicity(self, element) -> int:
        e = Element.of(element)
        for cand, m in self.entries:
            if cand == e:
                return m
        return 0

    def flatten(self) -> list[Element]:
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

    def __str__(self) -> str:
        if not self.entries:
            return "(empty)"
        parts = []
        for e, m in self.entries:
            text = str(e)
            if e.group is None and e.dim == 1 and e.coords[0] < 0:
                text = f"({text})"
            parts.append(text if m == 1 else f"{text}^{m}")
        return "*".join(parts)


# ---------------------------------------------------------------------------
# ground sets


class GroundSet:
    """Finite description of a set of elements; see the concrete variants."""

    def cardinality(self) -> int:
        raise NotImplementedError

    @property
    def dim(self) -> int:
        raise NotImplementedError


@record(frozen=True)
class Box(GroundSet):
    """The product of the integer intervals [lo, hi], one per axis."""

    intervals: tuple[tuple[int, int], ...]

    def __init__(self, intervals: Iterable[tuple[int, int]]):
        if not isinstance(intervals, tuple):
            intervals = tuple(tuple(iv) for iv in intervals)
        if len(intervals) < 1:
            raise ValidationError("a box needs at least one axis")
        for lo, hi in intervals:
            check_i64(lo, "box bound")
            check_i64(hi, "box bound")
            if lo > hi:
                raise ValidationError(f"box axis [{lo},{hi}] has lo > hi")
        self.__dict__.update(intervals=intervals)

    def cardinality(self) -> int:
        # one power per distinct width: a product taken axis by axis costs
        # time quadratic in the number of axes
        widths = Counter(hi - lo + 1 for lo, hi in self.intervals)
        return prod(w**c for w, c in widths.items())

    @property
    def dim(self) -> int:
        return len(self.intervals)


def Interval(lo: int, hi: int) -> Box:
    """The interval [lo, hi]: a box with one axis."""
    return Box(((lo, hi),))


@record(frozen=True)
class Explicit(GroundSet):
    elements: tuple[Element, ...]

    def __init__(self, elements: Iterable):
        elems = tuple(sorted((Element.of(e) for e in elements), key=lambda e: e.coords))
        if not elems:
            raise ValidationError("an explicit set must be nonempty")
        for e in elems:
            if e.group is not None:
                raise ValidationError(f"explicit sets hold lattice points; {e} has a group part")
        d = elems[0].dim
        for a, b in itertools.pairwise(elems):
            if b.dim != d:
                raise ValidationError("explicit set mixes dimensions")
            if a == b:
                raise ValidationError(f"duplicate element {a} in explicit set")
        self.__dict__.update(elements=elems)

    def cardinality(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements[0].dim


@record(frozen=True)
class GroupProduct(GroundSet):
    group: GroupSpec
    base: GroundSet

    def __init__(self, group: GroupSpec, base: GroundSet):
        if isinstance(base, GroupProduct):
            raise ValidationError("group products do not nest")
        self.__dict__.update(group=group, base=base)

    def cardinality(self) -> int:
        return self.group.order * self.base.cardinality()

    @property
    def dim(self) -> int:
        return self.base.dim


def enumerate_elements(ground: GroundSet) -> list[Element]:
    """All elements of a ground set in canonical order, guard-checked.

    Raises CardinalityGuardError (reporting the exact cardinality) instead
    of materialising more than the guard allows.
    """
    guard = resolve_guard(DEFAULT_ENUM_CAP)
    card = ground.cardinality()
    if card > guard:
        raise CardinalityGuardError(card, guard)
    if isinstance(ground, Box):
        ranges = [range(lo, hi + 1) for lo, hi in ground.intervals]
        return [Element(t) for t in itertools.product(*ranges)]
    if isinstance(ground, Explicit):
        return list(ground.elements)
    if isinstance(ground, GroupProduct):
        base = enumerate_elements(ground.base)
        return [
            Element(e.coords, ground.group, res)
            for res in ground.group.elements()
            for e in base
        ]
    raise ValidationError(f"unknown ground set {ground!r}")


def contains_element(ground: GroundSet, e: Element) -> bool:
    if isinstance(ground, Box):
        return (
            e.group is None
            and e.dim == ground.dim
            and all(lo <= c <= hi for c, (lo, hi) in zip(e.coords, ground.intervals))
        )
    if isinstance(ground, Explicit):
        return e in ground.elements
    if isinstance(ground, GroupProduct):
        return e.group == ground.group and contains_element(ground.base, e.lattice_part)
    return False


# ---------------------------------------------------------------------------
# ground-set grammar

_INTERVAL_RE = re.compile(r"\[(-?[0-9]+),(-?[0-9]+)\](?:\^([0-9]+))?$")
_GROUP_RE = re.compile(r"C([0-9]+)$")


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
        if not item:
            raise ParseError("empty element in explicit set", pos + 1 + at)
        elems.append(_parse_element(item, pos + 1 + at, None))
    try:
        return Explicit(tuple(elems))
    except ValidationError as exc:
        raise ParseError(str(exc), pos) from None


def _group_prefix(parts: list[tuple[str, int]]) -> tuple[GroupSpec, int]:
    """The group named by the leading ``Cn`` chunks of ``parts``, and
    their number (0 for none: the trivial group).  ``C1`` is the trivial
    group, so it adds no factor."""
    factors = []
    for chunk, pos in parts:
        m = _GROUP_RE.fullmatch(chunk)
        if not m:
            break
        factors.append(_number(m.group(1), "group order", pos))
    try:
        return GroupSpec(tuple(n for n in factors if n != 1)), len(factors)
    except ValidationError as exc:
        raise ParseError(str(exc), 0) from None


def parse_group(text: str) -> GroupSpec:
    """Parse ``Cn1xCn2x...``, the group part of the ground-set grammar."""
    parts = _split_top_level("".join(text.split()), "x")
    group, idx = _group_prefix(parts)
    if idx < len(parts):
        raise ParseError(f"bad group factor {parts[idx][0]!r}", parts[idx][1])
    return group


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
    group, idx = _group_prefix(parts)
    rest = parts[idx:]
    if idx and not rest:
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
            lo, hi = (_number(t, "interval bound", at) for t in m.group(1, 2))
            power = _number(m.group(3), "power", at) if m.group(3) else 1
            if power < 1:
                raise ParseError("power must be >= 1", at)
            if lo > hi:
                raise ParseError(f"interval [{lo},{hi}] has lo > hi", at)
            cap = resolve_guard(DEFAULT_ENUM_CAP)
            if len(axes) + power > cap:
                raise GuardExceededError(
                    f"a box of {len(axes) + power} axes is above the guard of {cap}"
                )
            axes.extend([(lo, hi)] * power)

    base: GroundSet = explicit if explicit is not None else Box(tuple(axes))
    return GroupProduct(group, base) if idx else base


def emit_ground_set(ground: GroundSet) -> str:
    """Inverse of parse_ground_set on canonical forms."""
    if isinstance(ground, Box):
        ivs = ground.intervals
        if len(ivs) >= 2 and all(iv == ivs[0] for iv in ivs):
            return f"[{ivs[0][0]},{ivs[0][1]}]^{len(ivs)}"
        return "x".join(f"[{lo},{hi}]" for lo, hi in ivs)
    if isinstance(ground, Explicit):
        return "{" + ",".join(str(e) for e in ground.elements) + "}"
    if isinstance(ground, GroupProduct):
        return f"{ground.group}x{emit_ground_set(ground.base)}"
    raise ValidationError(f"unknown ground set {ground!r}")


# ---------------------------------------------------------------------------
# JSON output


def element_to_json(e: Element):
    if e.group is not None:
        return {"group": list(e.group_part), "coords": list(e.coords)}
    return list(e.coords)


def sequence_to_json(s: Sequence) -> dict:
    return {
        "text": str(s),
        "entries": [{"element": element_to_json(e), "mult": m} for e, m in s.entries],
        "length": s.length,
    }


# ---------------------------------------------------------------------------
# sequence grammar

_TERM_RE = re.compile(r"(?P<elem>.+?)(?:\^(?P<mult>[0-9]+))?$")
_NUMBER_RE = re.compile(r"-?[0-9]+")


def _number(text: str, what: str, pos: int | None) -> int:
    """The integer ``text`` of the grammar, ``-?[0-9]+`` in ASCII digits,
    or ParseError: ``int`` alone would also read ``1_0``, ``+1`` and
    non-ASCII digits, and converts at most 4,300 digits
    (``sys.get_int_max_str_digits``)."""
    try:
        if _NUMBER_RE.fullmatch(text):
            return int(text)
    except ValueError:
        pass
    shown = repr(text) if len(text) <= 40 else f"of {len(text)} characters"
    raise ParseError(f"bad {what} {shown}", pos)


def _parse_ints(text: str, pos: int) -> tuple[int, ...]:
    return tuple(_number(c, "coordinate", pos) for c in text.split(","))


def _parse_element(text: str, pos: int, group: GroupSpec | None) -> Element:
    if text.startswith("("):
        if not text.endswith(")"):
            raise ParseError("unterminated element", pos)
        body = text[1:-1]
        if "|" in body:
            if group is None:
                raise ParseError("mixed element needs a group context", pos)
            gtext, _, vtext = body.partition("|")
            residues = _parse_ints(gtext, pos) if gtext else ()
            if len(residues) != group.rank:
                raise ParseError(
                    f"element {text!r} has {len(residues)} residues, the group has rank {group.rank}",
                    pos,
                )
            coords = _parse_ints(vtext, pos)
            residues = tuple(r % n for r, n in zip(residues, group.factors))
            return Element(coords, group, residues)
        return Element(_parse_ints(body, pos))
    return Element((_number(text, "element", pos),))


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
        mult = _number(m.group("mult"), "multiplicity", at) if m.group("mult") else 1
        pairs.append((_parse_element(elem_text, at, group), mult))
    try:
        return Sequence.from_pairs(pairs)
    except ValidationError as exc:
        raise ParseError(str(exc), 0) from None
