"""Enumeration, brute-force primitives, generation, and suite plumbing."""

import json
from unittest import mock

import pytest

from quasinv import classify as classify_mod
from quasinv import oracle as oracle_mod
from quasinv import orbits as orbits_mod
from quasinv import quasi as quasi_mod
from quasinv import supersets as supersets_mod
from quasinv import (
    BoundTooLarge,
    ConfigError,
    FiniteTable,
    GenParams,
    SuiteConfig,
    brute_force_w_table,
    enumerate_finite_maps,
    random_described_map,
    run_theorem_suite,
)
from quasinv.oracle import brute_force_interval_w, named_corpus
from quasinv.orbits import XiResult
from quasinv.quasi import QuasiInvarianceReport


def test_enumeration_counts():
    assert len(list(enumerate_finite_maps(2))) == 4
    assert len(list(enumerate_finite_maps(3))) == 27
    assert list(enumerate_finite_maps(1)) == [FiniteTable((0,))]


def test_enumeration_bound():
    with pytest.raises(BoundTooLarge):
        next(enumerate_finite_maps(8))


def test_enumeration_lexicographic_and_distinct():
    maps = [sm.table for sm in enumerate_finite_maps(3)]
    assert maps == sorted(maps)
    assert len(set(maps)) == 27


def test_w_table_identity_present():
    table = brute_force_w_table(FiniteTable((0, 1, 2)))
    assert table is not None and len(table) == 7


def test_w_table_four_cycle_absent():
    assert brute_force_w_table(FiniteTable((1, 2, 3, 0))) is None


def test_w_table_three_cycle_present():
    assert brute_force_w_table(FiniteTable((1, 2, 0))) is not None


def test_interval_oracle():
    assert brute_force_interval_w(named_corpus()["succ"], 12) is None
    assert brute_force_interval_w(named_corpus()["shift2"], 12) is not None


def _literal_interval_w(sm, bound):
    """The removal quantifier read literally: the first [lo, hi] for which no
    point a of it keeps the image of every other point inside."""
    for lo in range(bound + 1):
        for hi in range(lo, bound + 1):
            pts = range(lo, hi + 1)
            if not any(all(lo <= sm(x) <= hi for x in pts if x != a) for a in pts):
                return (lo, hi)
    return None


def test_interval_brute_force_matches_the_literal_quantifier():
    maps = [*named_corpus().values(), *(random_described_map(seed) for seed in range(20))]
    found = [brute_force_interval_w(sm, 12) for sm in maps]
    assert found == [_literal_interval_w(sm, 12) for sm in maps]
    assert None in found and any(found)  # both outcomes occur


def test_random_map_deterministic_and_valid():
    a = random_described_map(1)
    b = random_described_map(1)
    assert a == b
    quiet = random_described_map(2, GenParams(max_shift=0))
    assert all(c == 0 for c in quiet.shifts)
    for seed in range(50):
        sm = random_described_map(seed)
        sm(0), sm(17)  # total evaluation


def test_config_validation():
    with pytest.raises(ConfigError):
        run_theorem_suite(SuiteConfig(n_max=9))
    with pytest.raises(ConfigError):
        run_theorem_suite(SuiteConfig(theorems=("no-such-check",)))


def test_empty_selection_gives_empty_report():
    report = run_theorem_suite(SuiteConfig(theorems=()))
    assert report.checks == [] and report.passed


def test_suite_deterministic_bytes():
    cfg = SuiteConfig(theorems=("orbit-infinite-iterates-distinct", "strict-classifier-families"), samples=10)
    assert run_theorem_suite(cfg).to_json() == run_theorem_suite(cfg).to_json()


def test_small_suite_passes():
    cfg = SuiteConfig(
        theorems=(
            "enumeration-complete",
            "cofinite-implies-pairwise-intersecting",
            "identity-decision-intervals",
        ),
        n_max=3,
        samples=15,
    )
    report = run_theorem_suite(cfg)
    assert report.passed
    assert all(c.instances > 0 for c in report.checks)


def test_timings_only_when_asked():
    cfg = SuiteConfig(theorems=("enumeration-complete", "strict-classifier-families"), samples=5)
    report = run_theorem_suite(cfg)
    assert all(c.seconds > 0 for c in report.checks)
    plain = json.loads(report.to_json())
    assert "generator" not in plain["config"]
    assert all("seconds" not in c for c in plain["checks"])
    timed = json.loads(report.to_json(timings=True))
    assert timed["config"]["generator"] == {
        "max_prefix_len": 3, "max_modulus": 3, "max_shift": 3, "max_prefix_value": 10
    }
    assert [c["seconds"] for c in timed["checks"]] == [c.seconds for c in report.checks]


# ---------------------------------------------------------------------------
# Single-line mutants of the code under the rewritten brute-force routes
# ---------------------------------------------------------------------------


def _external_strict_bound(sm, lam, k):
    pts = set(lam)
    excess = tuple(sorted({sm(x) for x in pts} - pts))
    return QuasiInvarianceReport(len(excess) < k, "external", excess)  # should be <=


def _internal_witness_drops_largest(sm, lam, k, real=quasi_mod.internal_quasi_invariant):
    rep = real(sm, lam, k)
    return rep._replace(witness=rep.witness[:-1]) if rep.holds else rep


def _xi_hitting_times_off_by_one(sm, istar, real=orbits_mod.xi):
    res = real(sm, istar)
    if res is None:
        return None
    return XiResult(res.point, {a: t + 1 for a, t in res.hitting_times.items()})


def _xi_first_orbit_earliest(sm, istar, real=orbits_mod.xi):
    """On finite orbits, the first orbit's earliest common point, whatever
    the sum of hitting times."""
    res = real(sm, istar)
    first = orbits_mod.orbit_profile(sm, istar[0])
    if res is None or not first.finite:
        return res
    rest = [orbits_mod.orbit_profile(sm, a) for a in istar[1:]]
    z = next(p for p in first.points() if all(p in q for q in rest))
    return XiResult(z, {a: orbits_mod.hitting_time(sm, a, z) for a in istar})


def _in_D_phi_accepts_mixed(sm, istar, real=orbits_mod.in_D_phi):
    """Also True on a set whose orbits are of both classes."""
    return real(sm, istar) or len({orbits_mod.orbit_profile(sm, a).finite for a in istar}) > 1


def _intervals_accept_shift2(sm, real=classify_mod.classify_intervals_1qi):
    """Also classifies shift2, where [0, 1] has two escaping points, with
    succ's classification."""
    if sm == named_corpus()["shift2"]:
        return real(named_corpus()["succ"])
    return real(sm)


def _union_drops_largest(sm, istar, h=(), real=supersets_mod.build_G_orbit_union):
    return real(sm, istar, h)[:-1]


ROUTE_MUTANTS = {
    "external bound strict": (
        quasi_mod, "external_quasi_invariant", _external_strict_bound,
        "quasi-invariance-oracle", {"n_max": 3},
    ),
    "internal witness drops its largest escape": (
        quasi_mod, "internal_quasi_invariant", _internal_witness_drops_largest,
        "quasi-invariance-oracle", {"n_max": 3},
    ),
    "xi hitting times off by one": (
        orbits_mod, "xi", _xi_hitting_times_off_by_one,
        "shared-point-minimality", {"n_max": 3, "samples": 10},
    ),
    "xi keeps the first orbit's earliest common point": (
        orbits_mod, "xi", _xi_first_orbit_earliest,
        "shared-point-minimality", {"n_max": 3, "samples": 10},
    ),
    "in_D_phi accepts mixed orbit classes": (
        orbits_mod, "in_D_phi", _in_D_phi_accepts_mixed,
        "shared-point-class-purity", {"n_max": 3, "samples": 10},
    ),
    "interval classifier accepts shift2": (
        classify_mod, "classify_intervals_1qi", _intervals_accept_shift2,
        "interval-classifier-oracle", {"samples": 10},
    ),
    "interval selector returns lo": (
        classify_mod.IntervalWitnessSelector, "choose", lambda self, lo, hi: lo,
        "interval-classifier-oracle", {"samples": 10},
    ),
    "orbit union drops its largest point": (
        supersets_mod, "build_G_orbit_union", _union_drops_largest,
        "superset-union-equivalence", {"n_max": 3},
    ),
}


@pytest.mark.parametrize("label", sorted(ROUTE_MUTANTS))
def test_rewritten_routes_catch_mutants(label):
    target, attr, mutant, check, kwargs = ROUTE_MUTANTS[label]
    cfg = SuiteConfig(theorems=(check,), **kwargs)
    with mock.patch.object(target, attr, mutant):
        report = run_theorem_suite(cfg)
    failures = report.checks[0].failures
    assert failures and all("map" in f for f in failures), label
    # details passed as tuples are recorded as lists, as JSON reads them back
    assert all(f == json.loads(json.dumps(f)) for f in failures), label
    assert run_theorem_suite(cfg).passed, label
    assert not oracle_mod._TABLES, "the suite's table memo outlives its run"
    assert not oracle_mod._CORPORA, "the suite's corpus memo outlives its run"
