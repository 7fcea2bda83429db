"""davkit: exact Davenport constants for integer boxes, finite abelian
groups, and group x box products."""

from .bounds import (
    BoundReport,
    box_upper,
    chi,
    diam,
    ground_bounds,
    group_davenport,
    hypercube_bounds,
    interval_davenport,
    length_bound,
    product_bounds,
    square_upper,
)
from .constructions import (
    MultiplicityProfile,
    group_box_atom,
    hypercube_atom,
    interval_max_atom,
    power_subsequence_check,
    profile,
    two_element_atom,
)
from .core import (
    Box,
    CardinalityGuardError,
    ConsistencyError,
    DavkitError,
    Element,
    Explicit,
    GroundSet,
    GroupProduct,
    GroupSpec,
    GuardExceededError,
    Interval,
    MixedElement,
    OverflowGuardError,
    ParseError,
    Sequence,
    ValidationError,
    canonicalize,
    emit_ground_set,
    enumerate_elements,
    parse_ground_set,
    parse_sequence,
)
from .inverse import (
    InverseCase,
    InverseReport,
    InverseVerdict,
    classify_interval_max,
    classify_symmetric_max,
    classify_symmetric_submax,
    verify_inverse,
)
from .reorder import (
    ContainmentReport,
    ExtensionStuckError,
    Ordering,
    containment_check,
    greedy_box_reorder,
    is_nyctalopic,
    nyctalopic_extend,
)
from .search import (
    DavenportResult,
    all_atoms,
    atoms_of_length,
    davenport,
    hunt_chi_gap,
    max_atoms,
)
from .zerosum import (
    StateSpaceCapError,
    SubsumWitness,
    atoms_brute,
    find_proper_zero_subsum,
    is_minimal,
    is_zero_sum,
)

__version__ = "0.1.0"
