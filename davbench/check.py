"""Independent checks for davkit's outputs.

Nothing here imports davkit.  Values come from the closed forms of the
paper, recomputed from their parameters; atoms are certified with this
module's own subset-sum count.  An element is a pair ``(residues, coords)``
of integer tuples (``residues`` is empty off a group product), and a
multiset is a list of ``(element, multiplicity)`` pairs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd


class CheckError(AssertionError):
    """An output of the program disagrees with the independent check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# multisets and minimality


def lattice(values) -> list:
    """A 1-d lattice multiset from ``{value: multiplicity}`` or pairs."""
    items = values.items() if isinstance(values, dict) else values
    return [(((), (v,)), m) for v, m in items]


def _add(a, b, moduli):
    ra, ca = a
    rb, cb = b
    return (
        tuple((x + y) % n for x, y, n in zip(ra, rb, moduli)),
        tuple(x + y for x, y in zip(ca, cb)),
    )


def _scale(a, k, moduli):
    r, c = a
    return tuple((x * k) % n for x, n in zip(r, moduli)), tuple(x * k for x in c)


def _zero(elem):
    return (0,) * len(elem[0]), (0,) * len(elem[1])


def length(ms) -> int:
    return sum(m for _, m in ms)


def total(ms, moduli=()):
    acc = _zero(ms[0][0])
    for e, m in ms:
        acc = _add(acc, _scale(e, m, moduli), moduli)
    return acc


def zero_sum_count(ms, moduli=()) -> int:
    """How many sub-multisets (the empty one included) sum to zero,
    saturated at 3.  A multiset is an atom iff this is exactly 2: the
    empty selection and the whole."""
    zero = _zero(ms[0][0])
    ways = {zero: 1}
    for e, mult in ms:
        nxt: dict = {}
        for s, w in ways.items():
            t = s
            for _ in range(mult + 1):
                nxt[t] = min(3, nxt.get(t, 0) + w)
                t = _add(t, e, moduli)
        ways = nxt
    return ways.get(zero, 0)


def is_atom(ms, moduli=()) -> bool:
    if not ms or any(m < 1 for _, m in ms):
        return False
    if len({e for e, _ in ms}) != len(ms):
        return False
    return total(ms, moduli) == _zero(ms[0][0]) and zero_sum_count(ms, moduli) == 2


def is_proper_zero_sub(sub, whole, moduli=()) -> bool:
    """``sub`` is a nonempty proper sub-multiset of ``whole`` summing to 0."""
    have = dict(whole)
    if not sub or any(m < 1 or m > have.get(e, 0) for e, m in sub):
        return False
    if length(sub) >= length(whole):
        return False
    return total(sub, moduli) == _zero(sub[0][0])


def expect_atom(ms, moduli=(), size=None, what="sequence") -> None:
    expect(is_atom(ms, moduli), f"{what} is not an atom: {ms}")
    if size is not None:
        expect(length(ms) == size, f"{what} has length {length(ms)}, expected {size}")


def in_box(ms, axes) -> bool:
    """Every lattice part lies in the box with the given (lo, hi) axes."""
    return all(
        len(e[1]) == len(axes) and all(lo <= c <= hi for c, (lo, hi) in zip(e[1], axes))
        for e, _ in ms
    )


def canon(ms) -> tuple:
    return tuple(sorted(ms))


# ---------------------------------------------------------------------------
# closed forms from the paper


def chi(values) -> int:
    """Longest two-element atom (|x| + y) / gcd(x, y) over opposite signs."""
    neg = [v for v in values if v < 0]
    pos = [v for v in values if v > 0]
    return max(((-x + y) // gcd(-x, y) for x in neg for y in pos), default=0)


def interval_bracket(m: int, M: int) -> tuple[int, int]:
    """[lower, upper] for D([-m, M]), m, M >= 1: m + M when coprime,
    2m - 1 when symmetric (2 at m = 1), else [chi, m + M - 1]."""
    if gcd(m, M) == 1:
        return m + M, m + M
    if m == M:
        return 2 * m - 1, 2 * m - 1
    return chi(range(-m, M + 1)), m + M - 1


def cube_lower(m: int, d: int) -> int:
    """Length of the hypercube construction: (2m - 1)^d, or 2^d at m = 1."""
    return (2 * m - 1) ** d if m >= 2 else 2**d


def box_upper(ms) -> int:
    """prod(floor(2 (d + 1/d - 1) m_i) + 1) over the half-widths m_i."""
    d = len(ms)
    c = Fraction(d) + Fraction(1, d) - 1
    out = 1
    for m in ms:
        out *= int(2 * c * m) + 1
    return out


def square_upper(m1: int, m2: int) -> int:
    return min((2 * m1 + 1) * (4 * m2 + 1), (2 * m2 + 1) * (4 * m1 + 1))


def group_exact(factors) -> int | None:
    """D(G) where known: the order for cyclic G, else 1 + sum(n_i - 1)
    for rank two and for p-groups; None otherwise."""
    if len(factors) <= 1:
        return factors[0] if factors else 1
    lower = 1 + sum(n - 1 for n in factors)
    if len(factors) == 2:
        return lower
    p = min(q for q in range(2, factors[0] + 1) if factors[0] % q == 0)
    if all(_is_power_of(n, p) for n in factors):
        return lower
    return None


def _is_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def cube_atom(m: int, d: int) -> list:
    """The paper's hypercube construction: u^a lifted one axis at a
    time, of length (2m-1)^d (2^d at m = 1)."""
    if m == 1:
        pairs = [((1,) * d, 1)] + [
            ((0,) * (k - 2) + (-1,) + (1,) * (d - k + 1), 1 if k == 2 else 2 ** (k - 2))
            for k in range(2, d + 2)
        ]
    else:
        pairs, size = [((m,), m - 1), ((-(m - 1),), m)], 2 * m - 1
        for dim in range(2, d + 1):
            pairs = [(u + (m,), (m - 1) * a) for u, a in pairs]
            pairs.append(((0,) * (dim - 1) + (-(m - 1),), m * size))
            size *= 2 * m - 1
    return sorted((((), u), a) for u, a in pairs)


# ---------------------------------------------------------------------------
# inverse templates


def sym_max_templates(m: int) -> dict:
    """The atoms of length 2m - 1 over [-m, m] (m >= 2), by case name:
    m^(m-1) (-(m-1))^m and its mirror."""
    pos = lattice({m: m - 1, -(m - 1): m})
    return {"SYM_MAX_POS": canon(pos), "SYM_MAX_NEG": canon(mirror(pos))}


def sym_submax_templates(m: int) -> dict:
    """The atoms of length 2m - 2 over [-m, m] (m >= 3), by case name:
    m^(m-2) (-(m-1))^(m-1) 1, and for odd m also m^(m-2) (-(m-2))^m,
    each with its mirror."""
    unit = lattice({m: m - 2, -(m - 1): m - 1, 1: 1})
    out = {"SUBMAX_UNIT_POS": canon(unit), "SUBMAX_UNIT_NEG": canon(mirror(unit))}
    if m % 2 == 1:
        pair = lattice({m: m - 2, -(m - 2): m})
        out["SUBMAX_PAIR_POS"] = canon(pair)
        out["SUBMAX_PAIR_NEG"] = canon(mirror(pair))
    return out


def interval_max_template(m: int, M: int) -> tuple:
    """M^m (-m)^M, the one atom of length m + M over [-m, M] (gcd 1)."""
    return canon(lattice({M: m, -m: M}))


def mirror(ms) -> list:
    return [((r, tuple(-c for c in v)), m) for (r, v), m in ms]


# ---------------------------------------------------------------------------
# davkit's text and JSON forms, read without davkit

_TERM = re.compile(r"(\((?:[^()]*)\)|-?\d+)(?:\^(\d+))?$")


def parse_text(text: str) -> list:
    """Read a sequence written as ``elem[^mult]`` terms joined by ``*``."""
    out = []
    for term in text.split("*"):
        match = _TERM.fullmatch(term.strip())
        expect(match is not None, f"unreadable term {term!r} in {text!r}")
        body, mult = match.group(1), int(match.group(2) or 1)
        body = body.strip("()")
        if "|" in body:
            r, _, v = body.partition("|")
            elem = (tuple(int(x) for x in r.split(",")), tuple(int(x) for x in v.split(",")))
        else:
            elem = ((), tuple(int(x) for x in body.split(",")))
        out.append((elem, mult))
    return out


def from_json(witness: dict) -> list:
    """A multiset from davkit/1 JSON ``{"entries": [...], "length": n}``."""
    out = []
    for entry in witness["entries"]:
        el = entry["element"]
        elem = (tuple(el["group"]), tuple(el["coords"])) if isinstance(el, dict) else ((), tuple(el))
        out.append((elem, entry["mult"]))
    expect(length(out) == witness["length"], f"witness length field disagrees: {witness}")
    return out


# ---------------------------------------------------------------------------
# an enumerator of lattice atoms, independent of the program's search


def lattice_atoms(vectors, max_len: int, exact: bool = False, first=None) -> set:
    """Every atom over a set of lattice points with length <= max_len (or
    == max_len when ``exact``), grown as nondecreasing multisets whose
    nonempty subset sums avoid 0.  ``first`` keeps only the atoms whose
    smallest element is ``first``."""
    vals = sorted(tuple(v) for v in vectors)
    zero = (0,) * len(vals[0])
    reach = max(abs(c) for v in vals for c in v)
    found = set()

    def grow(start: int, stop: int, chosen: list, sums: frozenset, tot: tuple):
        for i in range(start, stop):
            x = vals[i]
            t = tuple(a + b for a, b in zip(tot, x))
            new = chosen + [x]
            if t == zero:
                ms = [(((), v), new.count(v)) for v in sorted(set(new))]
                if (not exact or len(new) == max_len) and is_atom(ms):
                    found.add(canon(ms))
                continue
            left = max_len - len(new)
            if left <= 0 or max(abs(c) for c in t) > reach * left:
                continue
            xs = {tuple(a + b for a, b in zip(s, x)) for s in sums} | {x}
            if zero in xs:
                continue
            grow(i, len(vals), new, sums | xs, t)

    if first is None:
        grow(0, len(vals), [], frozenset(), zero)
    else:
        i = vals.index(tuple(first))
        grow(i, i + 1, [], frozenset(), zero)
    return found


# ---------------------------------------------------------------------------
# reorderings


def check_sign_opposing(values, perm, elements, prefix, lo: int, hi: int) -> None:
    """A sign-opposing ordering of a 1-d atom stays inside [lo, hi]."""
    flat = sorted(values)
    expect(sorted(perm) == list(range(len(flat))), f"not a permutation: {perm}")
    expect(list(elements) == [flat[p] for p in perm], "elements do not follow perm")
    acc = 0
    for i, x in enumerate(elements):
        if i:
            expect(x * acc < 0, f"element {x} does not oppose prefix {acc}")
        acc += x
        expect(prefix[i] == acc, f"prefix sum {prefix[i]} at {i}, expected {acc}")
    expect(acc == 0, "ordering does not end at 0")
    left = elements[0] != lo
    right = elements[0] != hi
    expect((min(prefix) > lo) if left else (min(prefix) >= lo), "prefix leaves the left end")
    expect((max(prefix) < hi) if right else (max(prefix) <= hi), "prefix leaves the right end")


def check_reordering(vectors, perm, elements, prefix, box) -> None:
    """A reordering of a zero-sum lattice multiset and its achieved box."""
    flat = sorted(vectors)
    expect(sorted(perm) == list(range(len(flat))), f"not a permutation: {perm}")
    expect([tuple(e) for e in elements] == [flat[p] for p in perm], "elements do not follow perm")
    acc = (0,) * len(flat[0])
    for i, e in enumerate(elements):
        acc = tuple(a + b for a, b in zip(acc, e))
        expect(tuple(prefix[i]) == acc, f"prefix sum {prefix[i]} at {i}, expected {acc}")
    expect(not any(acc), "reordering does not end at 0")
    want = [[min(p[c] for p in prefix), max(p[c] for p in prefix)] for c in range(len(acc))]
    expect([list(b) for b in box] == want, f"achieved box {box}, expected {want}")


if __name__ == "__main__":
    # the count of atoms of length 8 over [-2,2]^2 that workloads.py records
    square = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    print(len(lattice_atoms(square, 8, exact=True)))
