"""Invariance, quasi-invariance, and the identity characterizations."""

import pytest
from hypothesis import given, settings, strategies as st
from strategies import descending_maps, finite_maps, nat_maps

from quasinv import (
    DescribedNatMap,
    FiniteTable,
    NotNatDomain,
    external_quasi_invariant,
    identity_decision,
    internal_quasi_invariant,
    is_invariant,
    named_map,
)

SUCC = named_map("succ")
IDENT = named_map("id")


def test_is_invariant():
    assert is_invariant(FiniteTable((1, 2, 0)), (0, 1, 2))
    assert not is_invariant(SUCC, (0, 1))
    assert is_invariant(IDENT, (3, 8, 12))


def test_internal_examples():
    rep = internal_quasi_invariant(SUCC, (3, 4, 5, 6, 7), 1)
    assert rep.holds and rep.witness == (7,)
    rep = internal_quasi_invariant(SUCC, (0, 2), 1)
    assert not rep.holds and rep.witness is None
    rep = internal_quasi_invariant(FiniteTable((1, 2, 0)), (0, 1), 1)
    assert rep.holds and rep.witness == (1,)


def test_external_examples():
    rep = external_quasi_invariant(IDENT, (2, 9), 0)
    assert rep.holds and rep.witness == ()
    rep = external_quasi_invariant(SUCC, (0, 1, 2, 3, 4, 5), 1)
    assert rep.holds and rep.witness == (6,)
    rep = external_quasi_invariant(FiniteTable((0, 0, 0)), (1, 2), 1)
    assert rep.holds and rep.witness == (0,)


def test_nonempty_required():
    with pytest.raises(ValueError):
        internal_quasi_invariant(SUCC, (), 1)
    with pytest.raises(ValueError):
        external_quasi_invariant(SUCC, range(5, 3), 1)
    with pytest.raises(ValueError):  # an interval has step 1
        internal_quasi_invariant(SUCC, range(0, 10, 2), 1)


@settings(max_examples=300, deadline=None)
@given(st.one_of(nat_maps, descending_maps), st.integers(0, 400), st.integers(1, 300),
       st.integers(0, 3))
def test_interval_closed_form_matches_the_listing(sm, lo, width, k):
    interval = range(lo, lo + width)
    for predicate in (internal_quasi_invariant, external_quasi_invariant):
        fast, listed = predicate(sm, interval, k), predicate(sm, tuple(interval), k)
        assert (fast.holds, fast.witness) == (listed.holds, listed.witness)


def test_interval_at_any_width():
    top = 10**18
    rep = external_quasi_invariant(SUCC, range(0, top + 1), 1)
    assert rep.holds and rep.witness == (top + 1,)
    rep = internal_quasi_invariant(DescribedNatMap((5, 0), 2, (-1, 3)), range(1, top), 2)
    assert not rep.holds
    # a finite table decides a range by listing it
    rep = internal_quasi_invariant(FiniteTable((1, 2, 0)), range(0, 2), 1)
    assert rep.holds and rep.witness == (1,)


def test_identity_decision_examples():
    assert identity_decision(IDENT, "intervals", 1) is True
    assert identity_decision(SUCC, "intervals", 3) is False
    assert identity_decision(FiniteTable((1, 0)), "subsets", 2) is True
    assert identity_decision(FiniteTable((1, 0)), "subsets", 1) is False
    assert identity_decision(IDENT, "subsets", 4) is True


def test_identity_decision_intervals_beyond_the_identity():
    # 0 -> 1 and every other point fixed: each interval of length >= 2 through 0
    # also holds 1, while [0, 0] does not
    nudge = DescribedNatMap((1,), 1, (0,))
    assert identity_decision(nudge, "intervals", 2) is True
    assert identity_decision(nudge, "intervals", 1) is False
    assert identity_decision(DescribedNatMap((2, 1), 1, (0,)), "intervals", 2) is False
    assert identity_decision(DescribedNatMap((2, 1), 1, (0,)), "intervals", 3) is True


def _preserves_intervals(sm, k, window):
    """Every interval of length >= k inside [0, window] is invariant."""
    image = [sm(x) for x in range(window + 1)]
    return all(
        all(lo <= image[x] <= hi for x in range(lo, hi + 1))
        for lo in range(window + 1)
        for hi in range(lo + k - 1, window + 1)
    )


def test_identity_decision_intervals_matches_brute_force():
    # prefixes up to length 3 with values up to 4, moduli 1 and 2, shifts down
    # to the prefix length and up to 1; a violating interval lies below
    # prefix_len + max(prefix) + modulus + k, inside the window
    from itertools import product

    window, cases = 16, 0
    for n in range(4):
        for prefix in product(range(5), repeat=n):
            for m in (1, 2):
                for shifts in product(range(-n, 2), repeat=m):
                    sm = DescribedNatMap(prefix, m, shifts)
                    for k in range(1, 5):
                        cases += 1
                        want = _preserves_intervals(sm, k, window)
                        assert identity_decision(sm, "intervals", k) == want, (sm, k)
    assert cases > 6000


def test_identity_decision_intervals_check_on_a_wider_corpus():
    # random maps with longer prefixes and small values reach the non-identity
    # maps that keep every interval of length >= 2 or 3
    from unittest import mock

    from quasinv import GenParams, SuiteConfig, oracle, run_theorem_suite

    real = oracle.random_described_map
    with mock.patch.object(
        oracle, "random_described_map", lambda seed: real(seed, GenParams(4, 2, 2, 4))
    ):
        report = run_theorem_suite(
            SuiteConfig(theorems=("identity-decision-intervals",), samples=300)
        )
    [check] = report.checks
    assert check.instances == 930 and check.failures == []


def test_identity_decision_validation():
    with pytest.raises(ValueError):
        identity_decision(FiniteTable((0, 1)), "subsets", 0)
    with pytest.raises(ValueError):
        identity_decision(FiniteTable((0, 1)), "subsets", 3)
    with pytest.raises(NotNatDomain):
        identity_decision(FiniteTable((0, 1)), "intervals", 1)


@given(finite_maps, st.data(), st.integers(0, 2))
def test_monotone_in_k_and_zero_agreement(sm, data, k):
    lam = tuple(
        sorted(
            data.draw(
                st.sets(st.integers(0, sm.size - 1), min_size=1, max_size=sm.size)
            )
        )
    )
    assert not internal_quasi_invariant(sm, lam, k).holds or internal_quasi_invariant(
        sm, lam, k + 1
    ).holds
    assert not external_quasi_invariant(sm, lam, k).holds or external_quasi_invariant(
        sm, lam, k + 1
    ).holds
    inv = is_invariant(sm, lam)
    assert inv == internal_quasi_invariant(sm, lam, 0).holds
    assert inv == external_quasi_invariant(sm, lam, 0).holds


@given(finite_maps, st.data(), st.integers(0, 2))
def test_internal_verdict_matches_removal_enumeration(sm, data, k):
    from itertools import combinations

    lam = tuple(
        sorted(
            data.draw(
                st.sets(st.integers(0, sm.size - 1), min_size=1, max_size=sm.size)
            )
        )
    )
    pts = set(lam)
    direct = any(
        all(sm(x) in pts for x in lam if x not in removed)
        for size in range(k + 1)
        for removed in combinations(lam, size)
    )
    assert internal_quasi_invariant(sm, lam, k).holds == direct
