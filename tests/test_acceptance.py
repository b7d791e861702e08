"""Acceptance gate: each criterion runs at its stated tolerance and budget.

Every test prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import time
from contextlib import contextmanager
from unittest import mock

from quasinv import (
    DescribedNatMap,
    FiniteTable,
    SuiteConfig,
    analyze_maxcond,
    check_P,
    check_superset_closure,
    has_full_orbit,
    indivisibility_check,
    interval_superset_bounds,
    named_map,
    run_theorem_suite,
    solve_P1,
    solve_P2,
)
from quasinv import classify as classify_mod
from quasinv import orbits as orbits_mod
from quasinv import quasi as quasi_mod
from quasinv.classify import SubsetClassification, SubsetWitnessSelector
from quasinv.oracle import _corpus
from quasinv.orbits import OrbitResult, XiResult, orbit_profile
from quasinv.quasi import QuasiInvarianceReport
from quasinv.selfmap import map_from_obj


@contextmanager
def criterion(number, name, budget_s):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL after {time.monotonic() - t0:.1f}s")
        raise
    dt = time.monotonic() - t0
    print(f"criterion {number} ({name}): PASS in {dt:.1f}s")
    assert dt < budget_s, f"runtime {dt:.1f}s exceeds the {budget_s}s budget"


def _run(theorems, **kwargs):
    report = run_theorem_suite(SuiteConfig(theorems=tuple(theorems), **kwargs))
    bad = [(c.check, c.failures[:2]) for c in report.checks if not c.passed]
    assert report.passed, bad
    assert all(c.instances > 0 for c in report.checks)
    return report


def test_criterion_1_identity_exhaustive():
    # for every n in 2..5 and 1 <= k < n exactly the identity preserves all
    # size->=k subsets; at k = n every map does
    with criterion(1, "identity characterization, exhaustive", 10):
        _run(["identity-decision-subsets"], n_max=5)


def test_criterion_2_subset_classifier():
    with criterion(2, "subset classification equals brute-force witness search", 30):
        _run(["subset-classifier-oracle"], n_max=5)


def test_criterion_3_interval_classifier():
    with criterion(3, "interval classification at window scale, plus strict families", 30):
        assert len(_corpus(SuiteConfig())) >= 100
        _run(["interval-classifier-oracle", "strict-classifier-families"])


def test_criterion_4_orbit_lemma_suite():
    with criterion(4, "orbit lemma suite", 60):
        _run(
            [
                "orbit-dichotomy-finite",
                "disjoint-orbit-classes",
                "cofinite-meets-infinite",
                "intersection-equals-shared-orbit",
                "shared-point-class-purity",
                "pairwise-implies-joint-intersection",
                "cofinite-implies-pairwise-intersecting",
            ],
            n_max=5,
            window=200,
        )


def test_criterion_5_supersets():
    with criterion(5, "invariant supersets, both directions plus the worked map", 10):
        _run(["superset-union-equivalence"], n_max=5)
        evens = DescribedNatMap((6, 4), 2, (0, 1))
        prof = analyze_maxcond(evens)
        assert prof is not None
        for istar, expected in (((0,), (0, 0, 6)), ((1,), (1, 1, 4))):
            u_star, u_max, v = interval_superset_bounds(prof, istar)
            assert (u_star, u_max, v) == expected
            for u in range(u_star, u_max + 1):
                assert check_superset_closure(evens, istar, range(u, v + 1))
            if u_star > 0:
                g_bad = set(range(u_star - 1, v + 1))
                assert not (
                    check_superset_closure(evens, istar, g_bad)
                    and max(g_bad) in {evens(a) for a in istar}
                )


def test_criterion_6_solver_equivalences():
    with criterion(6, "solver existence equivalences and named outcomes", 60):
        _run(
            [
                "p1-presence-matches-intersection-predicate",
                "p2-presence-matches-total-order",
                "triple-characterization",
            ]
        )
        # named outcomes
        succ = named_map("succ")
        shift2 = DescribedNatMap((), 1, (2,))
        bullet = DescribedNatMap((2,), 1, (1,))
        conj = DescribedNatMap((2,), 2, (-1, 3))
        assert solve_P1(succ) and solve_P2(succ) and has_full_orbit(succ) == 0
        assert solve_P1(shift2) is None
        assert solve_P2(bullet) is None and has_full_orbit(bullet) is None
        assert has_full_orbit(conj) == 0
        # every produced solution verifies on all small query sets
        istars = [c for s in (1, 2, 3) for c in itertools.combinations(range(13), s)]
        for sm in _corpus(SuiteConfig()):
            for mode, solver in (("P1", solve_P1), ("P2", solve_P2)):
                sol = solver(sm)
                if sol is None:
                    continue
                for istar in istars:
                    assert check_P(mode, sm, sol.G(istar), sol.u(istar), istar), (mode, istar)


def test_criterion_7_indivisibility():
    with criterion(7, "bounded indivisibility search leaves only the identity", 60):
        for sm in (named_map("succ"), DescribedNatMap((2,), 2, (-1, 3))):
            report = indivisibility_check(sm, solve_P2(sm), 8)
            assert report.identity_only, report.survivors


# ---------------------------------------------------------------------------
# Criterion 8: five documented single-line mutants must each trip the suite
# ---------------------------------------------------------------------------


def _mutant_classifier_accepts_four_cycle():
    real = classify_mod.classify_subsets_1qi

    def mutant(sm):
        if isinstance(sm, FiniteTable) and sm.table == (1, 2, 3, 0):
            cls = SubsetClassification(2, 0, 1, 2)
            return cls, SubsetWitnessSelector(sm, cls)
        return real(sm)

    return classify_mod, "classify_subsets_1qi", mutant, ("subset-classifier-oracle",), {"n_max": 4}


def _mutant_xi_maximal_sum():
    real = orbits_mod.xi

    def mutant(sm, istar):
        res = real(sm, istar)
        if res is None:
            return None
        profs = {a: orbit_profile(sm, a) for a in istar}
        if not all(p.finite for p in profs.values()):
            return res
        common = set.intersection(*(set(p.points()) for p in profs.values()))
        worst = max(common, key=lambda z: (sum(p.hitting(z) for p in profs.values()), -z))
        return XiResult(worst, {a: profs[a].hitting(worst) for a in istar})

    return orbits_mod, "xi", mutant, ("shared-point-minimality",), {"n_max": 3, "samples": 10}


def _mutant_internal_strict_inequality():
    def mutant(sm, lam, k):
        pts = set(lam)
        escapes = tuple(sorted(x for x in pts if sm(x) not in pts))
        if len(escapes) < k:  # off by one: the bound should be inclusive
            return QuasiInvarianceReport(True, "internal", escapes)
        return QuasiInvarianceReport(False, "internal", None)

    return quasi_mod, "internal_quasi_invariant", mutant, ("quasi-invariance-oracle",), {"n_max": 3}


def _mutant_orbit_rotated_cycle():
    real = orbits_mod.orbit

    def mutant(sm, x):
        res = real(sm, x)
        if res.is_finite and len(res.cycle) > 1:
            return OrbitResult(tail=res.tail, cycle=res.cycle[1:] + res.cycle[:1])
        return res

    return orbits_mod, "orbit", mutant, ("orbit-decomposition-links",), {"n_max": 3, "samples": 10}


def _mutant_invariance_reversed_inclusion():
    def mutant(sm, lam):
        pts = set(lam)
        return pts <= {sm(x) for x in pts}  # wrong direction

    return quasi_mod, "is_invariant", mutant, ("quasi-invariance-monotonic",), {"n_max": 3, "samples": 10}


MUTANTS = [
    ("classifier accepts the four-cycle", _mutant_classifier_accepts_four_cycle),
    ("shared-point tie-break flipped to maximal sum", _mutant_xi_maximal_sum),
    ("internal bound off by one", _mutant_internal_strict_inequality),
    ("finite cycle reported rotated", _mutant_orbit_rotated_cycle),
    ("invariance inclusion reversed", _mutant_invariance_reversed_inclusion),
]


def test_criterion_8_mutation_sensitivity():
    with criterion(8, "five documented mutants each trip the suite", 300):
        for label, build in MUTANTS:
            module, attr, mutant, theorems, kwargs = build()
            cfg = SuiteConfig(theorems=theorems, **kwargs)
            with mock.patch.object(module, attr, mutant):
                report = run_theorem_suite(cfg)
            assert not report.passed, f"mutant not detected: {label}"
            failures = [f for c in report.checks for f in c.failures]
            assert failures, label
            witnessed = [f for f in failures if "map" in f]
            assert witnessed, f"no serialized counterexample: {label}"
            # the counterexample re-parses into a usable map
            map_from_obj(witnessed[0]["map"])
            # and the clean suite still passes the same selection
            assert run_theorem_suite(cfg).passed, f"clean run flaky for: {label}"
