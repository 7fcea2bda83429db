"""davkit: exact Davenport constants for integer boxes, finite abelian
groups, and group x box products.

Each submodule is registered in ``sys.modules`` on ``import davkit`` but
runs its code only when one of its names is first used, so the import is
cheap and a command runs only the modules it needs.  The public names
below resolve to their home module on access: ``davkit.X`` is
``davkit.<home>.X``.
"""

import importlib.util
import sys

# home module -> the public names it defines
_EXPORTS = {
    "bounds": (
        "BoundReport", "box_upper", "chi", "diam", "ground_bounds", "group_davenport",
        "hypercube_bounds", "interval_davenport", "length_bound", "product_bounds",
        "square_upper",
    ),
    "constructions": (
        "MultiplicityProfile", "group_box_atom", "hypercube_atom", "interval_max_atom",
        "power_subsequence_check", "profile", "two_element_atom",
    ),
    "core": (
        "Box", "CardinalityGuardError", "ConsistencyError", "DavkitError", "Element",
        "Explicit", "GroundSet", "GroupProduct", "GroupSpec", "GuardExceededError",
        "Interval", "MixedElement", "OverflowGuardError", "ParseError", "Sequence",
        "ValidationError", "canonicalize", "emit_ground_set", "enumerate_elements",
        "parse_ground_set", "parse_sequence",
    ),
    "inverse": (
        "InverseCase", "InverseReport", "InverseVerdict", "classify_interval_max",
        "classify_symmetric_max", "classify_symmetric_submax", "verify_inverse",
    ),
    "reorder": (
        "ContainmentReport", "ExtensionStuckError", "Ordering", "containment_check",
        "greedy_box_reorder", "is_nyctalopic", "nyctalopic_extend",
    ),
    "search": (
        "DavenportResult", "all_atoms", "atoms_of_length", "davenport", "hunt_chi_gap",
        "max_atoms",
    ),
    "zerosum": (
        "StateSpaceCapError", "SubsumWitness", "atoms_brute", "find_proper_zero_subsum",
        "is_minimal", "is_zero_sum",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)
__version__ = "0.1.0"


def _register(name: str):
    """The submodule ``name``, in sys.modules, its code not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _register(name) for name in _EXPORTS})


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME})
