"""The package's public names, and its submodules that run on first use."""

import importlib
import json
import subprocess
import sys
import types

import pytest

import davkit

# home module -> the public names that ``davkit`` exports from it
EXPORTS = {
    "bounds": [
        "BoundReport", "box_upper", "chi", "diam", "ground_bounds", "group_davenport",
        "hypercube_bounds", "interval_davenport", "length_bound", "product_bounds",
        "square_upper",
    ],
    "constructions": [
        "group_box_atom", "hypercube_atom", "interval_max_atom", "power_subsequence_check",
        "two_element_atom",
    ],
    "core": [
        "Box", "CardinalityGuardError", "ConsistencyError", "DavkitError", "Element",
        "Explicit", "GroundSet", "GroupProduct", "GroupSpec", "GuardExceededError",
        "Interval", "MixedElement", "OverflowGuardError", "ParseError", "Sequence",
        "ValidationError", "emit_ground_set", "enumerate_elements",
        "parse_ground_set", "parse_sequence",
    ],
    "inverse": [
        "InverseCase", "InverseReport", "classify_interval_max",
        "classify_symmetric_max", "classify_symmetric_submax", "verify_inverse",
    ],
    "reorder": [
        "ContainmentReport", "ExtensionStuckError", "Ordering", "containment_check",
        "greedy_box_reorder", "is_nyctalopic", "nyctalopic_extend",
    ],
    "search": [
        "DavenportResult", "all_atoms", "atoms_of_length", "davenport", "hunt_chi_gap",
        "max_atoms",
    ],
    "zerosum": [
        "StateSpaceCapError", "atoms_brute", "find_proper_zero_subsum",
        "is_minimal", "is_zero_sum",
    ],
}
NAMES = {name for names in EXPORTS.values() for name in names}


def test_public_names_are_pinned():
    public = {n for n in dir(davkit) if not n.startswith("_")}
    assert {n for n in public if not isinstance(getattr(davkit, n), types.ModuleType)} == NAMES
    assert set(EXPORTS) <= public
    assert sorted(davkit.__all__) == sorted(NAMES)


def test_each_name_is_its_home_modules():
    for home, names in EXPORTS.items():
        module = importlib.import_module(f"davkit.{home}")
        for name in names:
            obj = getattr(davkit, name)
            assert obj is getattr(module, name), name
            assert obj.__module__ == module.__name__, name


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(davkit, "no_such_name")


def test_import_runs_no_submodule():
    # each submodule is in sys.modules, its code not yet run; the first
    # name used runs its home module and what that imports
    code = (
        "import sys, types, davkit\n"
        "def executed():\n"
        "    return sorted(n for n, m in sys.modules.items()\n"
        "                  if n.startswith('davkit.') and type(m) is types.ModuleType)\n"
        "print(sorted(n for n in sys.modules if n.startswith('davkit.')))\n"
        "print(executed())\n"
        "davkit.interval_davenport\n"
        "print(executed())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    registered, before, after = proc.stdout.splitlines()
    assert registered == str(sorted(f"davkit.{m}" for m in EXPORTS))
    assert before == "[]"
    assert after == str(["davkit.bounds", "davkit.core"])


# what a davkit process must not import: dataclasses imports inspect, and
# with it ast, dis and tokenize; fractions serves only the group log bound
SLOW_IMPORTS = ["dataclasses", "inspect", "fractions"]
STARTUP_CHILD = (
    "import json, sys\n"
    "before = set(sys.modules)\n"
    "import davkit.cli\n"
    "code = davkit.cli.main(sys.argv[1:])\n"
    f"slow = {SLOW_IMPORTS!r}\n"
    "print(json.dumps([code, sorted(n for n in set(sys.modules) - before if n in slow)]))\n"
)


@pytest.mark.parametrize(
    "argv, allowed",
    [
        (["bounds", "[-2,3]"], []),
        (["check-minimal", "--seq", "2*(-1)^2"], []),
        (["davenport", "[-2,3]"], []),
        (["atoms", "[-2,2]", "--length", "3"], []),
        (["bounds", "--group", "C2xC4"], ["fractions"]),
        (["bounds", "--group", "C2xC2xC6"], ["fractions"]),  # the log bound
    ],
    ids=["bounds", "check-minimal", "davenport", "atoms", "bounds-group", "bounds-log"],
)
def test_startup_imports(argv, allowed):
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_CHILD, *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    code, imported = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    assert set(imported) <= set(allowed), imported
