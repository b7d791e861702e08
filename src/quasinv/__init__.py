"""Orbit structure, quasi-invariant sets, and superset-preservation solvers
for self-maps on finite domains and on the naturals, verified against brute
force at desk scale."""

from .classify import (
    IntervalClassification,
    StrictIntervalResult,
    SubsetClassification,
    classify_intervals_1qi,
    classify_strict_intervals_1qi,
    classify_subsets_1qi,
)
from .errors import (
    BoundTooLarge,
    ConfigError,
    DomainTooSmall,
    InfiniteOrbitError,
    InvalidMap,
    NotAP2Solution,
    NotNatDomain,
    OrbitTooLong,
    OutOfDomain,
    ParseError,
    ProfileInvalid,
    QuasinvError,
    StructureViolation,
)
from .orbits import (
    DriftCertificate,
    Listing,
    OrbitResult,
    XiResult,
    check_p_tilde,
    hitting_time,
    in_D_phi,
    orbit,
    orbits_intersect,
    xi,
)
from .oracle import (
    GenParams,
    SuiteConfig,
    SuiteReport,
    brute_force_w_table,
    enumerate_finite_maps,
    random_described_map,
    run_theorem_suite,
)
from .psolve import (
    HDecomposition,
    IndivisibilityReport,
    PSolution,
    check_P,
    decompose_HHH,
    has_full_orbit,
    indivisibility_check,
    is_total_order,
    solve_P1,
    solve_P2,
)
from .quasi import (
    QuasiInvarianceReport,
    external_quasi_invariant,
    identity_decision,
    internal_quasi_invariant,
    is_invariant,
)
from .selfmap import (
    DescribedNatMap,
    FiniteTable,
    SelfMap,
    named_map,
    parse_map,
    serialize_map,
)
from .supersets import (
    MaxCondProfile,
    analyze_maxcond,
    build_G_orbit_union,
    check_superset_closure,
    interval_superset_bounds,
)

__version__ = "0.1.0"
