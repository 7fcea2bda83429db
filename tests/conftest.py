"""Shared helpers for the test suite."""

from davkit import Box, Interval, Sequence


def S(spec) -> Sequence:
    """Sequence shorthand: dict {element: mult} or iterable of elements;
    elements may be ints (d=1) or coordinate tuples."""
    if isinstance(spec, dict):
        return Sequence.from_pairs(spec.items())
    return Sequence.from_elements(spec)


def interval(m: int, M: int) -> Box:
    return Interval(-m, M)


def one_d_values(seq: Sequence) -> list[int]:
    return [e.coords[0] for e in seq.flatten()]


def prefix_sums_all_distinct(ordering) -> bool:
    """For an atom, prefix sums are pairwise distinct under any ordering:
    a repeat would expose an interior zero-sum block."""
    return len(set(ordering.prefix_sums)) == len(ordering.prefix_sums)


def refine_exclusion_holds(ordering) -> bool:
    """For an atom of length >= 3: no prefix sum with index != 2 equals
    x_{sigma(1)} + x_{sigma(3)} (indices 1-based)."""
    elems = ordering.elements
    assert len(elems) >= 3, "need length >= 3"
    if isinstance(elems[0], tuple):
        forbidden = tuple(a + b for a, b in zip(elems[0], elems[2]))
    else:
        forbidden = elems[0] + elems[2]
    return all(ordering.prefix_sums[i] != forbidden for i in range(len(elems)) if i != 1)
