"""Hypothesis strategies shared by the property tests."""

from itertools import accumulate
from operator import mul

from hypothesis import strategies as st

# 1-3 permutations on at most 5 points; they generate groups up to S5
permutation_lists = st.integers(1, 5).flatmap(
    lambda m: st.lists(st.permutations(range(m)), min_size=1, max_size=3)
)

# 1-3 permutations on at most 6 points; they generate groups up to S6
permutation_lists_6 = st.integers(1, 6).flatmap(
    lambda m: st.lists(st.permutations(range(m)), min_size=1, max_size=3)
)

# 1-3 permutations on at most 4 points; they generate groups of order at most 24
permutation_lists_4 = st.integers(1, 4).flatmap(
    lambda m: st.lists(st.permutations(range(m)), min_size=1, max_size=3)
)

# invariant-factor chains e_1 | e_2 | e_3: a first factor of 2-4, each next
# one 1-3 times the one before; or the empty chain, the trivial group
invariant_factor_chains = st.builds(
    lambda first, steps: tuple(accumulate(steps, mul, initial=first)),
    st.integers(2, 4),
    st.lists(st.integers(1, 3), max_size=2),
) | st.just(())
