"""Orbit structure, quasi-invariant sets, and superset-preservation solvers
for self-maps on finite domains and on the naturals, verified against brute
force at desk scale.

Submodules load on first use (PEP 562): ``import quasinv`` imports none of
them, and ``quasinv.orbit`` or ``from quasinv import orbit`` imports only
``quasinv.orbits`` and what it needs, not the theorem suite (``oracle``).
"""

import importlib

# submodule -> the public names the package exports from it
_EXPORTS = {
    "classify": "IntervalClassification StrictIntervalResult SubsetClassification "
    "classify_intervals_1qi classify_strict_intervals_1qi classify_subsets_1qi",
    "errors": "BoundTooLarge ConfigError DomainTooSmall InfiniteOrbitError InvalidMap "
    "NotAP2Solution NotNatDomain OrbitTooLong OutOfDomain ParseError ProfileInvalid "
    "QuasinvError StructureViolation",
    "orbits": "DriftCertificate Listing OrbitResult XiResult check_p_tilde hitting_time "
    "in_D_phi orbit orbits_intersect xi",
    "oracle": "GenParams SuiteConfig SuiteReport brute_force_w_table enumerate_finite_maps "
    "random_described_map run_theorem_suite",
    "psolve": "HDecomposition IndivisibilityReport PSolution check_P decompose_HHH "
    "has_full_orbit indivisibility_check is_total_order solve_P1 solve_P2",
    "quasi": "QuasiInvarianceReport external_quasi_invariant identity_decision "
    "internal_quasi_invariant is_invariant",
    "selfmap": "DescribedNatMap FiniteTable SelfMap named_map parse_map serialize_map",
    "supersets": "MaxCondProfile analyze_maxcond build_G_orbit_union check_superset_closure "
    "interval_superset_bounds",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule that defines ``name`` (or is ``name``) on first
    access; an exported name is then bound here, so later reads skip this."""
    mod = _MODULE_OF.get(name, name)
    if mod not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{mod}")
    if mod == name:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
