"""Hypothesis strategies for described maps, shared by the test modules."""

from hypothesis import strategies as st

from quasinv import DescribedNatMap, FiniteTable

# every self-map of [0, n) for n up to 5
finite_maps = st.integers(1, 5).flatmap(
    lambda n: st.tuples(*[st.integers(0, n - 1)] * n).map(FiniteTable)
)

# nonnegative shifts and a short prefix: every orbit closes or climbs
nat_maps = st.integers(1, 3).flatmap(
    lambda m: st.builds(
        DescribedNatMap,
        prefix=st.lists(st.integers(0, 9), max_size=3).map(tuple),
        modulus=st.just(m),
        shifts=st.lists(st.integers(0, 4), min_size=m, max_size=m).map(tuple),
    )
)

# negative shifts and prefix values up to 5000: long descents, cut into runs
descending_maps = st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(
    lambda mn: st.builds(
        DescribedNatMap,
        prefix=st.lists(
            st.one_of(st.integers(0, 12), st.integers(0, 5000)), min_size=mn[1], max_size=mn[1]
        ).map(tuple),
        modulus=st.just(mn[0]),
        shifts=st.lists(st.integers(-mn[1], 3), min_size=mn[0], max_size=mn[0]).map(tuple),
    )
)

# the same shapes with prefix values up to 10^18: descents and climbs that
# no per-point reading of the window could cover
huge_prefix_maps = st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(
    lambda mn: st.builds(
        DescribedNatMap,
        prefix=st.lists(
            st.one_of(st.integers(0, 12), st.integers(0, 10**18)), min_size=mn[1], max_size=mn[1]
        ).map(tuple),
        modulus=st.just(mn[0]),
        shifts=st.lists(st.integers(-mn[1], 3), min_size=mn[0], max_size=mn[0]).map(tuple),
    )
)

# shifts in [-3, 0] under a short prefix: ascending points up to a pivot, then
# gentle descents, so the interval classification meets all three of its cases
pivot_maps = st.tuples(st.integers(1, 3), st.integers(1, 6)).flatmap(
    lambda mn: st.builds(
        DescribedNatMap,
        prefix=st.lists(st.integers(0, 9), min_size=mn[1], max_size=mn[1]).map(tuple),
        modulus=st.just(mn[0]),
        shifts=st.lists(st.integers(-min(3, mn[1]), 0), min_size=mn[0], max_size=mn[0]).map(tuple),
    )
)
