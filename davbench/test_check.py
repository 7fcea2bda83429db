"""The benchmark's checks reject wrong outputs.

    python3 -m pytest davbench/test_check.py
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import check as ck  # noqa: E402
import workloads as wl  # noqa: E402


def test_own_minimality_check():
    assert ck.is_atom(ck.lattice({3: 2, -2: 3}))
    assert not ck.is_atom(ck.lattice({1: 3, -1: 3}))  # zero-sum, not minimal
    assert not ck.is_atom(ck.lattice({1: 1, 2: 1}))  # not zero-sum
    g = (((1,), (0,)), 3)
    assert ck.is_atom([g], (3,)) and not ck.is_atom([g], (2,))


def test_closed_forms():
    assert ck.interval_bracket(8, 8) == (15, 15)
    assert ck.interval_bracket(7, 9) == (16, 16)
    assert ck.interval_bracket(1, 1) == (2, 2)
    assert ck.interval_bracket(6, 10) == (ck.chi(range(-6, 11)), 15)
    assert ck.cube_lower(3, 3) == 125 and ck.cube_lower(1, 3) == 8
    assert ck.group_exact((2, 2, 2)) == 4 and ck.group_exact((2, 2, 6)) is None


def test_own_enumerator_matches_templates():
    atoms = ck.lattice_atoms([(v,) for v in range(-3, 4)], 5, exact=True)
    assert atoms == set(ck.sym_max_templates(3).values())


def dav(lower, witness, exact=True, upper=None):
    return wl.Dav(lower, lower if upper is None else upper, exact, witness, (), 1, 0, 0)


def test_rejects_wrong_value_and_non_atom():
    check = wl.exact(5, wl.interval(2, 3))
    check(dav(5, ck.lattice({3: 2, -2: 3})))
    with pytest.raises(ck.CheckError):
        check(dav(4, ck.lattice({3: 2, -2: 3})))  # wrong value
    with pytest.raises(ck.CheckError):
        check(dav(5, ck.lattice({1: 1, -1: 1})))  # witness shorter than the value
    with pytest.raises(ck.CheckError):
        check(dav(6, ck.lattice({1: 3, -1: 3})))  # non-atom witness


def test_rejects_capped_search_that_missed_an_atom():
    check = wl.capped(9, ck.cube_atom(2, 2), 9, 45, [(-2, 2)] * 2)
    witness = sorted(ck.lattice({2: 1, -1: 2}))
    witness = [((r, v + (0,)), m) for (r, v), m in witness]
    with pytest.raises(ck.CheckError):
        check(dav(3, witness, exact=False, upper=45))


def test_rejects_wrong_cli_minimality():
    report = {"sequence": {"entries": [{"element": [1], "mult": 3}, {"element": [-1], "mult": 3}],
                           "length": 6},
              "zero_sum": True, "minimal": True, "witness": None}
    with pytest.raises(ck.CheckError):
        wl.minimality("1^3*(-1)^3")(wl.Cli(0, {"result": report}, "", False))


def test_rejects_incomplete_inverse_list():
    ok = [(f"[-{m},{m}] length {2 * m - 1}", True, (), ()) for m in range(2, 8)]
    with pytest.raises(ck.CheckError):
        wl.check_inverse((True, ok))


def test_kept_faults_are_recognised():
    assert wl.half_width_fault(wl.Raised("ValidationError", "box half-widths must be >= 1"))
    assert not wl.half_width_fault(dav(2, ck.lattice({1: 1, -1: 1})))


def test_rejects_lenient_minimality():
    atom = ck.lattice({3: 2, -2: 3})
    check = wl.check_all_atoms([-2, 3])
    check(([atom], [(True, False)]))
    with pytest.raises(ck.CheckError):
        check(([atom], [(True, True)]))  # the square called minimal
    with pytest.raises(ck.CheckError):
        check(([atom], [(False, False)]))  # the atom called not minimal
