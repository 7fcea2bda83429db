"""Acceptance suite: one test per criterion, each printing a PASS line
with its elapsed time (run with ``pytest tests/test_acceptance.py -v -s``).

Every criterion is checked at its stated tolerance (exact integer
equality / exact set equality) and against its runtime budget.
"""

import itertools
import time
from math import gcd

from davkit import (
    Element,
    Explicit,
    Interval,
    atoms_brute,
    atoms_of_length,
    chi,
    davenport,
    diam,
    group_box_atom,
    hypercube_atom,
    hypercube_bounds,
    is_minimal,
    max_atoms,
    nyctalopic_extend,
    containment_check,
    parse_ground_set,
    power_subsequence_check,
)
from davkit.cli import EXIT_OK, run
from davkit.inverse import symmetric_max_templates, symmetric_submax_templates
from davkit.search import all_atoms

from conftest import prefix_sums_all_distinct, refine_exclusion_holds


def _delta(m: int) -> int:
    return 1 if m == 1 else 0


def _report(number: int, elapsed: float, budget: float, detail: str = ""):
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert elapsed < budget


def test_criterion_1_interval_exactness():
    """Exact interval values for every m + M <= 12, via the CLI surface."""
    t0 = time.perf_counter()
    checked = 0
    for m in range(1, 12):
        for M in range(1, 13 - m):
            code, report = run(
                {
                    "command": "davenport",
                    "ground": f"[-{m},{M}]",
                    "no_stats": True,
                    "threads": 1,
                }
            )
            assert code == EXIT_OK
            assert report["exact"] is True
            value = report["result"]["value"]
            if gcd(m, M) == 1:
                assert value == m + M, (m, M)
            if m == M:
                assert value == (2 if m == 1 else 2 * m - 1), (m, M)
            checked += 1
    _report(1, time.perf_counter() - t0, 30, f"{checked} intervals")


def test_criterion_2_unit_square():
    t0 = time.perf_counter()
    result = davenport(parse_ground_set("[-1,1]^2"))
    assert result.exact and result.lower == result.upper == 4
    assert result.witness is not None and result.witness.length == 4
    assert is_minimal(result.witness)
    _report(2, time.perf_counter() - t0, 10)


def test_criterion_3_inverse_enumeration():
    t0 = time.perf_counter()
    for m in range(2, 6):
        found = set(atoms_of_length(Interval(-m, m), 2 * m - 1))
        assert found == set(symmetric_max_templates(m)), f"m={m} maximal"
    for m in range(3, 6):
        found = set(atoms_of_length(Interval(-m, m), 2 * m - 2))
        expected = set(symmetric_submax_templates(m).values())
        assert len(expected) == (4 if m % 2 else 2)
        assert found == expected, f"m={m} near-maximal"
    _report(3, time.perf_counter() - t0, 60)


def test_criterion_4_construction_certification():
    t0 = time.perf_counter()
    cases = 0
    for m, ds in [(1, range(1, 7)), (2, range(1, 4)), (3, range(1, 3))]:
        for d in ds:
            atom = hypercube_atom(m, d, certify=False)
            assert atom.length == (2 * m - 1 + _delta(m)) ** d
            assert is_minimal(atom), (m, d)
            cases += 1
    for n, m, d in [(2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1), (2, 2, 2)]:
        atom = group_box_atom(n, m, d, certify=False)
        assert atom.length == n * (2 * m - 1 + _delta(m)) ** d
        assert is_minimal(atom), (n, m, d)
        cases += 1
    _report(4, time.perf_counter() - t0, 120, f"{cases} constructions")


def test_criterion_5_cyclic_product_closure():
    t0 = time.perf_counter()
    for n, m in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        result = davenport(parse_ground_set(f"C{n}x[-{m},{m}]"))
        want = n * (2 * m - 1 + _delta(m))
        assert result.exact and result.lower == result.upper == want, (n, m)
        assert is_minimal(result.witness)
    _report(5, time.perf_counter() - t0, 300)


def _oracle_family():
    universe = [-3, -2, -1, 1, 2, 3]
    for size in range(1, 5):
        yield from itertools.combinations(universe, size)


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    count = 0
    for combo in _oracle_family():
        vals = list(combo)
        ground = Explicit(tuple(Element.of(v) for v in vals))
        oracle_atoms = atoms_brute(vals, max(max(vals) - min(vals), 0))
        oracle_value = max((a.length for a in oracle_atoms), default=0)
        result = davenport(ground)
        assert result.exact and result.lower == oracle_value, combo
        if oracle_value >= 1:
            want = {a for a in oracle_atoms if a.length == oracle_value}
            assert set(max_atoms(ground)) == want, combo
        count += 1
    _report(6, time.perf_counter() - t0, 60, f"{count} explicit sets")


def test_criterion_7_reordering_properties():
    t0 = time.perf_counter()
    atoms = orderings = 0
    for m in range(1, 10):
        for M in range(1, 11 - m):
            for atom in all_atoms(Interval(-m, M)):
                if atom.length < 2:
                    continue
                atoms += 1
                for p0 in range(atom.length):
                    ordering = nyctalopic_extend(atom, [p0])
                    assert prefix_sums_all_distinct(ordering)
                    containment_check(atom, ordering, -m, M)  # raises on violation
                    if atom.length >= 3:
                        assert refine_exclusion_holds(ordering)
                    orderings += 1
    _report(7, time.perf_counter() - t0, 60, f"{atoms} atoms, {orderings} seeds")


def test_criterion_8_bound_sandwich():
    t0 = time.perf_counter()
    for combo in _oracle_family():
        vals = list(combo)
        value = davenport(Explicit(tuple(Element.of(v) for v in vals))).lower
        has_pos = any(v > 0 for v in vals)
        has_neg = any(v < 0 for v in vals)
        if has_pos and has_neg:
            assert chi(vals) <= value <= diam(vals), combo
        else:
            assert value == 0, combo
            adjoined = Explicit(tuple(Element.of(v) for v in vals + [0]))
            assert davenport(adjoined).lower == 1, combo
    _report(8, time.perf_counter() - t0, 60)


def test_criterion_9_open_cases_property_substituted():
    """Exact hypercube values for m, d >= 2 are open; assert the proven
    bracket, the construction witness at the lower bound, and the
    power-subsequence structure instead."""
    t0 = time.perf_counter()
    for m, d in [(2, 2), (3, 2), (2, 3)]:
        bracket = hypercube_bounds(m, d)
        assert bracket.lower == (2 * m - 1) ** d <= bracket.upper
        witness = hypercube_atom(m, d, certify=False)
        assert witness.length == bracket.lower and is_minimal(witness)
    for m, d, us in [(2, 1, (1, 2, 3)), (3, 1, (1, 2)), (2, 2, (1, 2))]:
        for u in us:
            assert power_subsequence_check(m, d, u).ok, (m, d, u)
    _report(9, time.perf_counter() - t0, 60)
