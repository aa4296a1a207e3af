"""Hypothesis strategies shared by the property tests."""

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
