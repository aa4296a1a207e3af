import functools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    binary_splitting_count,
    exponential_formula_counts,
    probs,
    reference_merged_terms,
    reference_orbit_data,
    reference_tables,
    sup_distance_to_uniform,
)
from strategies import permutation_lists
from wreathhom import (
    AbelianGroup,
    InvariantError,
    SizeCapError,
    WreathHomCounter,
    builtin_group,
    decay_constant,
    delta_distribution,
    fixed_point_free_probability,
    group_from_permutations,
    hom_count_direct,
    hom_count_wreath,
    hom_group,
    weyl_hom_count,
    weyl_limit_ratio,
)
from wreathhom import counting
from wreathhom.counting import DistributionTable, distribution_to_json, ratio_to_json

C2 = AbelianGroup((2,))
C3A = AbelianGroup((3,))
V4A = AbelianGroup((2, 2))
C4A = AbelianGroup((4,))
C2C4A = AbelianGroup((2, 4))


def test_hyperoctahedral_involution_counts():
    g = builtin_group("C2")
    assert [hom_count_wreath(g, C2, n) for n in range(7)] == [1, 2, 6, 20, 76, 312, 1384]


def test_direct_examples():
    assert hom_count_direct(builtin_group("C1"), C3A, 5) == 1
    assert hom_count_direct(builtin_group("C2"), C2, 2) == 6
    assert hom_count_direct(builtin_group("C2"), C2, 3) == 20


def test_direct_cap_error_mentions_recurrence():
    with pytest.raises(SizeCapError, match="hom_count_wreath"):
        hom_count_direct(builtin_group("C2"), C2, 61)


def test_direct_count_refuses_a_remainder(monkeypatch):
    # an orbit of size 2 with c = 3 weighs 2! / 3 at n = 2: the sum over the
    # common denominator leaves a remainder
    from types import SimpleNamespace

    data = (SimpleNamespace(k=1, c=1, weight=1), SimpleNamespace(k=2, c=3, weight=1))
    monkeypatch.setattr(counting, "counter_for", lambda group, coeffs: SimpleNamespace(orbit_data=data))
    assert hom_count_direct(builtin_group("C1"), C2, 1) == 1
    with pytest.raises(InvariantError, match="non-integral direct count at n=2"):
        hom_count_direct(builtin_group("C1"), C2, 2)


def test_recurrence_cap():
    with pytest.raises(SizeCapError, match="cap"):
        hom_count_wreath(builtin_group("C2"), C2, 50, cap=10)


@pytest.mark.parametrize("name", ["C1", "C2", "C3", "C4", "V4", "S3", "D4", "Q8"])
@pytest.mark.parametrize("coeffs", [C2, C3A, V4A], ids=str)
def test_direct_equals_recurrence(name, coeffs):
    g = builtin_group(name)
    for n in range(13):
        assert hom_count_direct(g, coeffs, n) == hom_count_wreath(g, coeffs, n)


def test_trivial_group_counts():
    g = builtin_group("C1")
    for coeffs in (C2, V4A, AbelianGroup(())):
        for n in (0, 1, 5, 40):
            assert hom_count_wreath(g, coeffs, n) == 1


def test_trivial_coeffs_counts_permutation_homs():
    # A trivial: |Hom(G, S_n)| for G = C2 is the involution count I(n)
    g = builtin_group("C2")
    trivial = AbelianGroup(())
    assert [hom_count_wreath(g, trivial, n) for n in range(7)] == [1, 1, 2, 4, 10, 26, 76]


def test_count_table():
    counter = WreathHomCounter(builtin_group("C2"), C2)
    assert [counter.count(n) for n in range(5)] == [1, 2, 6, 20, 76]
    assert [Fraction(od.weight, od.c) for od in counter.orbit_data] == [1, 2]


def test_pfree_examples():
    g = builtin_group("C2")
    assert fixed_point_free_probability(g, C2, 1) == 0
    assert fixed_point_free_probability(g, C2, 2) == Fraction(1, 3)
    assert fixed_point_free_probability(g, C2, 3) == 0


def test_pfree_odd_parity():
    g = builtin_group("C2")
    for n in range(1, 30, 2):
        assert fixed_point_free_probability(g, C2, n) == 0


def test_delta_examples():
    g = builtin_group("C2")
    assert probs(delta_distribution(g, C2, 2)) == (Fraction(2, 3), Fraction(1, 3))
    assert probs(delta_distribution(g, C2, 3)) == (Fraction(1, 2), Fraction(1, 2))
    c3 = builtin_group("C3")
    for n in (1, 2, 5):
        assert probs(delta_distribution(c3, C2, n)) == (Fraction(1),)


def test_delta_fiber_counts_sum_to_total():
    for name in ("C2", "V4", "S3"):
        g = builtin_group(name)
        for n in range(8):
            table = delta_distribution(g, C2, n)
            assert table.total == hom_count_wreath(g, C2, n)


@pytest.mark.parametrize("name", ["C2", "C4", "V4", "S3", "D4", "Q8"])
@pytest.mark.parametrize("coeffs", [C2, C3A, V4A], ids=str)
def test_sup_distance_bounded_by_pfree(name, coeffs):
    g = builtin_group(name)
    for n in range(10):
        table = delta_distribution(g, coeffs, n)
        p = fixed_point_free_probability(g, coeffs, n)
        assert sup_distance_to_uniform(table) <= p
        if p == 0:
            h = len(probs(table))
            assert probs(table) == (Fraction(1, h),) * h


def test_weyl_examples():
    assert weyl_hom_count(builtin_group("C1"), 5) == 1
    assert weyl_hom_count(builtin_group("C2"), 2) == 4
    assert weyl_hom_count(builtin_group("C2"), 3) == 10


def test_weyl_d3_is_s4():
    # W(D3) is S4; solutions of x^2 = e there number 10
    count = sum(
        1
        for p in __import__("itertools").permutations(range(4))
        if all(p[p[i]] == i for i in range(4))
    )
    assert weyl_hom_count(builtin_group("C2"), 3) == count


def test_weyl_limit_ratio():
    assert weyl_limit_ratio(builtin_group("C2")) == Fraction(1, 2)
    assert weyl_limit_ratio(builtin_group("V4")) == Fraction(1, 4)
    assert weyl_limit_ratio(builtin_group("S3")) == Fraction(1, 2)


def test_decay_constant_examples():
    g = builtin_group("C2")
    dc = decay_constant(g, C2)
    assert dc.conservative == Fraction(1, 48)
    assert dc.reference_value == pytest.approx(1 / (16 * math.e))

    c1 = builtin_group("C1")
    dc1 = decay_constant(c1, C2)
    assert dc1.conservative == Fraction(1, 6)
    assert dc1.reference_value == pytest.approx(1 / (2 * math.e))


def test_decay_constant_trivial_coeffs():
    g = builtin_group("S3")
    dc = decay_constant(g, AbelianGroup(()))
    d, num_classes = 6, 4
    assert dc.conservative == Fraction(1, 3 * d * num_classes)
    assert dc.reference_value == pytest.approx(1 / (math.e * d * num_classes))


def test_decay_conservative_below_paper():
    for name in ("C1", "C2", "S3", "Q8"):
        dc = decay_constant(builtin_group(name), C2)
        assert float(dc.conservative) < dc.reference_value


def fraction_from_json(data: dict) -> Fraction:
    return Fraction(int(data["num"]), int(data["den"]))


def test_json_roundtrips():
    assert ratio_to_json(20, 42) == '{"num": "10", "den": "21"}'
    assert ratio_to_json(0, 42) == '{"num": "0", "den": "1"}'
    table = delta_distribution(builtin_group("C2"), C2, 2)
    text = distribution_to_json(table)
    assert text == ('{"n": 2, "fibers": ["4", "2"], "probs": [{"num": "2", "den": "3"}, {"num": "1", "den": "3"}], '
                    '"supDistance": {"num": "1", "den": "6"}}')
    data = json.loads(text)
    assert data["fibers"] == ["4", "2"]
    assert fraction_from_json(data["probs"][0]) == Fraction(2, 3)
    assert fraction_from_json(data["supDistance"]) == sup_distance_to_uniform(table)


@pytest.mark.parametrize("name, coeffs", [("D4", C4A), ("Q8", C2C4A), ("S3", C3A)], ids=str)
def test_distribution_json_renders_each_fiber_as_fraction_would(name, coeffs):
    for n in range(8):
        table = delta_distribution(builtin_group(name), coeffs, n)
        text = distribution_to_json(table)
        data = json.loads(text)
        assert text == json.dumps(data)
        assert data["fibers"] == [str(f) for f in table.fiber_counts]
        assert [fraction_from_json(p) for p in data["probs"]] == list(probs(table))
        assert all(math.gcd(int(p["num"]), int(p["den"])) == 1 for p in data["probs"])
        assert fraction_from_json(data["supDistance"]) == sup_distance_to_uniform(table)


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        hom_count_wreath(builtin_group("C2"), C2, -1)
    with pytest.raises(ValueError):
        hom_count_direct(builtin_group("C2"), C2, -1)


def _check_against_reference(group, coeffs, n):
    counter = WreathHomCounter(group, coeffs)
    totals, free, fibers = reference_tables(reference_orbit_data(group, coeffs), counter.homs, n)
    for s in range(n + 1):
        assert counter.count(s) == totals[s], s
        assert counter.fixed_point_free_probability(s) == Fraction(free[s], totals[s]), s
        assert counter.fiber_counts(s) == fibers[s], s


@pytest.mark.parametrize("name", ["C1", "C2", "C3", "C4", "V4", "S3", "D4", "Q8"])
@pytest.mark.parametrize("coeffs", [C2, C3A, V4A, C4A, C2C4A], ids=str)
def test_kernel_matches_reference_recurrence(name, coeffs):
    _check_against_reference(builtin_group(name), coeffs, 40)


def test_kernel_matches_reference_recurrence_c2_4():
    # 67 classes but 5 distinct orbit sizes: merging by k does the most work here
    transpositions = [[1, 0, 2, 3, 4, 5, 6, 7], [0, 1, 3, 2, 4, 5, 6, 7],
                      [0, 1, 2, 3, 5, 4, 6, 7], [0, 1, 2, 3, 4, 5, 7, 6]]
    group = group_from_permutations(transpositions, name="C2^4")
    assert group.order == 16
    _check_against_reference(group, C2, 120)


@pytest.mark.parametrize("order", ["descending", "shuffled"])
@pytest.mark.parametrize("name, coeffs", [("D4", C2), ("S3", V4A)], ids=["D4-C2", "S3-V4"])
def test_window_answers_queries_in_any_order(name, coeffs, order):
    # queries behind the window restart the cursor, and a table asked for
    # the first time restarts it with the tables already in use
    counter = WreathHomCounter(builtin_group(name), coeffs)
    n = 40
    totals, free, fibers = reference_tables(reference_orbit_data(builtin_group(name), coeffs), counter.homs, n)
    ns = list(range(n, -1, -1))
    if order == "shuffled":
        random.Random(0).shuffle(ns)
    queries = [
        lambda s: counter.count(s) == totals[s],
        lambda s: counter.fixed_point_free_probability(s) == Fraction(free[s], totals[s]),
        lambda s: counter.fiber_counts(s) == fibers[s],
    ]
    for i, s in enumerate(ns):
        for query in queries[i % 3 :] + queries[: i % 3]:
            assert query(s), (s, i)


def _corrupt_character_term(counter, q, k, by):
    """Sequence q of the counter's fold lattice, given by its position or by
    its terms as a dict, with its term at orbit size k changed by ``by`` (a
    term that is 0, and so not listed, included)."""
    lattice = counter.fiber_lattice
    seqs = list(lattice.seqs)
    if isinstance(q, dict):
        q = [dict(terms) for terms in seqs].index(q)
    terms = dict(seqs[q])
    terms[k] = terms.get(k, 0) + by
    seqs[q] = tuple(sorted(terms.items(), reverse=True))
    counter.fiber_lattice = lattice._replace(seqs=tuple(seqs))


@pytest.mark.parametrize("name, q, k, message", [
    # w_2 = b_2 = 2 on S3: y(2) = 3 > free(2) = 2
    ("S3", 0, 2, r"a character part is outside \[0, free count\] at n=2"),
    # y(4) moves by 3! = 6, and h F(psi) by 6 times psi's coefficient, which h = 4 does not divide
    ("D4", {8: 128, 4: 80, 2: 4}, 4, "non-integral fiber at n=4"),
])
def test_corrupted_character_term_raises(name, q, k, message):
    # Not every +1 is seen: one that keeps y within [0, free] and moves each
    # h F(psi) by a multiple of h passes both checks and the division by h
    # (S3's k = 3 and 6 through n = 300, and D4's k = 8).
    counter = WreathHomCounter(builtin_group(name), C2)
    _corrupt_character_term(counter, q, k, 1)
    assert counter.count(10) == hom_count_wreath(builtin_group(name), C2, 10)
    with pytest.raises(InvariantError, match=message):
        for n in range(11):  # the division by h checks only the rows asked for
            counter.fiber_counts(n)


@pytest.mark.parametrize("by", [1, -1])
def test_corrupted_k1_character_term_raises_at_the_bound(by):
    # w_1 = 0 for every character, as the U = G class's fold values are all
    # of H; a k = 1 term of +1 or -1 makes y(1) = +1 or -1, outside
    # [0, free(1)] = [0, 0], at the first step
    counter = WreathHomCounter(builtin_group("S3"), C2)
    _corrupt_character_term(counter, 0, 1, by)
    with pytest.raises(InvariantError, match=r"a character part is outside \[0, free count\] at n=1"):
        counter.fiber_counts(1)


def test_lattice_without_the_zero_subgroup_raises_at_setup():
    # Every character kills 0; on D4 with A = C2 the U = 1 class and four
    # more fold onto 0.  With those classes' fold subgroups made all of H,
    # the lattice is H, {0, 2} and {0, 3}, and a character that kills
    # neither order-2 element is counted nowhere: the e_L(0) sum to
    # 1 + 1 + 1, not h = 4
    counter = WreathHomCounter(builtin_group("D4"), C2)
    assert sum(od.fold == {0} for od in counter.orbit_data) == 5
    counter.orbit_data = tuple(od._replace(fold=frozenset(range(4))) if od.fold == {0} else od
                               for od in counter.orbit_data)
    with pytest.raises(InvariantError, match=r"the characters of Hom\(G, A\) do not each kill one largest lattice element"):
        counter.fiber_lattice


def test_weyl_reads_only_the_trivial_class(monkeypatch):
    def whole_vector(self, n):
        raise AssertionError("weyl built the whole fiber vector")

    monkeypatch.setattr(WreathHomCounter, "fiber_counts", whole_vector)
    assert [weyl_hom_count(builtin_group("C2"), n) for n in (2, 3)] == [4, 10]


@pytest.mark.parametrize("query", ["fiber_counts", "weyl"])
def test_inexact_division_by_h_raises(query):
    counter = WreathHomCounter(builtin_group("D4"), C2)
    lattice = counter.fiber_lattice
    first, *others = lattice.classes
    # h F(0) = sum_L e_L(0) T_L(0) = sum_L e_L(0) is h; one more is not a multiple of h
    counter.fiber_lattice = lattice._replace(classes=((first[0] + 1, *first[1:]), *others))
    with pytest.raises(InvariantError, match="non-integral fiber at n=0"):
        counter.fiber_counts(0) if query == "fiber_counts" else counter.fiber_count(0, 0)


def test_negative_fiber_raises():
    counter = WreathHomCounter(builtin_group("D4"), C2)
    lattice = counter.fiber_lattice
    first, *others = lattice.classes
    counter.fiber_lattice = lattice._replace(classes=(tuple(-c for c in first), *others))
    with pytest.raises(InvariantError, match="negative fiber at n=3"):
        counter.fiber_counts(3)


def test_c2_4_fiber_quotients():
    # every class of C2^4 folds onto 0 or onto all of H = Hom(C2^4, C2): a
    # 2-element lattice, one scalar sequence beyond the totals, and the fold
    # values fall in two classes, e_H = 1 and e_0 = 16 [psi = 0] - 1
    transpositions = [[1, 0, 2, 3, 4, 5, 6, 7], [0, 1, 3, 2, 4, 5, 6, 7],
                      [0, 1, 2, 3, 5, 4, 6, 7], [0, 1, 2, 3, 4, 5, 7, 6]]
    counter = WreathHomCounter(group_from_permutations(transpositions), C2)
    lattice = counter.fiber_lattice
    assert [len(L) for L in lattice.subgroups] == [16, 1]
    assert {len(od.fold) for od in counter.orbit_data} == {1, 16}
    assert len(lattice.seqs) == 1
    assert lattice.classes == ((1, 15), (1, -1))
    assert lattice.class_of == (0,) + (1,) * 15


def test_fiber_quotients_built_only_for_fibers():
    counter = WreathHomCounter(builtin_group("D4"), C2)
    counter.count(30)
    counter.fixed_point_free_probability(30)
    assert "fiber_lattice" not in vars(counter)
    counter.fiber_counts(3)
    assert "fiber_lattice" in vars(counter)


@settings(max_examples=30, deadline=None, database=None)
@given(permutation_lists, st.sampled_from(["2", "3", "4", "2,2", "6"]))
@example(perms=[[1, 2, 3, 0]], factors="4")  # a character of order 2 on Z/4
@example(perms=[[1, 2, 3, 0]], factors="2,4")
def test_fibers_match_group_algebra_reference_random_groups(perms, factors):
    group = group_from_permutations(perms)
    coeffs = AbelianGroup(tuple(int(e) for e in factors.split(",")))
    counter = WreathHomCounter(group, coeffs)
    n = 25
    _, _, fibers = reference_tables(reference_orbit_data(group, coeffs), counter.homs, n)
    for s in range(n + 1):
        assert counter.fiber_counts(s) == fibers[s], s
        assert counter.fiber_count(s, 0) == fibers[s][0], s


def test_class_c_not_dividing_k_raises(monkeypatch):
    # b_k = k a_k is an integer only if every c_i divides k_i; a class with
    # c = 2 at k = 3 (in S3, U of order 2, which is its own normalizer) is
    # refused before any step
    real = counting.orbit_type_data

    def corrupted(group, coeffs, cls, homs, class_id=0):
        od = real(group, coeffs, cls, homs, class_id=class_id)
        return od._replace(c=2) if od.k == 3 else od

    monkeypatch.setattr(counting, "orbit_type_data", corrupted)
    with pytest.raises(InvariantError, match="c = 2 does not divide k = 3 in class 1"):
        WreathHomCounter(builtin_group("S3"), C2)


def _check_integer_terms(group):
    # b_k sums [G:N_G(U_i)] w_i over the classes of orbit size k, and
    # k_i // c_i is that conjugate count
    for coeffs in (C2, C3A):
        counter = WreathHomCounter(group, coeffs)
        expected: dict[int, int] = {}
        for cls, od in zip(counter.classes, counter.orbit_data):
            assert od.k // od.c == cls.conjugate_count
            expected[od.k] = expected.get(od.k, 0) + cls.conjugate_count * od.weight
        assert counter._total_terms == tuple(expected.items())


@pytest.mark.parametrize("name", ["C1", "C2", "C3", "C4", "V4", "S3", "D4", "Q8"])
def test_integer_terms_are_conjugate_counts(name):
    _check_integer_terms(builtin_group(name))


@settings(max_examples=30, deadline=None, database=None)
@given(permutation_lists)
def test_integer_terms_are_conjugate_counts_random_groups(perms):
    _check_integer_terms(group_from_permutations(perms))


@functools.lru_cache(maxsize=None)
def _exponential_formula_counts(name, coeffs, n):
    group = builtin_group(name)
    return exponential_formula_counts(reference_orbit_data(group, coeffs), hom_group(group, coeffs), n)


@pytest.mark.parametrize("name, n, coeffs", [
    pytest.param("C2", 1500, C2, id="C2-1500"), pytest.param("S3", 500, C2, id="S3-500"),
    pytest.param("D4", 500, C2, id="D4-500"), pytest.param("Q8", 500, C2, id="Q8-500"),
    pytest.param("D4", 300, C4A, id="D4-300-C4"), pytest.param("Q8", 300, C4A, id="Q8-300-C4"),
])
def test_kernel_matches_exponential_formula_at_large_n(name, n, coeffs):
    # a second exact route where no brute force reaches: the truncated
    # product of exp(a_k x^k), with the sign characters of Hom(G, A) for
    # every fiber (Hom(D4, C4) and Hom(Q8, C4) have exponent 2 too); n is
    # as large as keeps the A = C2 cases near 2 s in all, and the A = C4
    # ones near 0.1 s each
    group = builtin_group(name)
    counter = WreathHomCounter(group, coeffs)
    total, free, fibers = _exponential_formula_counts(name, coeffs, n)
    assert counter.count(n) == total
    assert counter.fixed_point_free_probability(n) == Fraction(free, total)
    assert counter.fiber_counts(n) == fibers
    if coeffs == C2:
        assert weyl_hom_count(group, n) == fibers[0]


def test_character_term_seen_only_by_the_second_route():
    # a +1 on D4's k = 8 character term keeps y within [0, free] and moves
    # each h F(psi) by a multiple of h, so it passes the counter's checks at
    # every n; the exponential formula's fibers at n = 500 (A = C2) and
    # n = 300 (A = C4) do not match it
    for coeffs, terms, n in ((C2, {8: 128, 4: 80, 2: 4}, 500), (C4A, {8: 16384, 4: 640, 2: 32}, 300)):
        counter = WreathHomCounter(builtin_group("D4"), coeffs)
        _corrupt_character_term(counter, terms, 8, 1)
        corrupted = [counter.fiber_counts(s) for s in range(n + 1)][-1]
        total, _, fibers = _exponential_formula_counts("D4", coeffs, n)
        assert sum(corrupted) == total
        assert corrupted != fibers


@pytest.mark.parametrize("name, n", [("C2", 20000), ("S3", 20000), ("D4", 20000)])
def test_kernel_matches_binary_splitting_at_large_n(name, n):
    # a second exact route where the exponential formula is too slow: t_n as
    # a balanced product of the recurrence's companion matrices, with the b_k
    # summed from the reference orbit data; about 5 s in all
    group = builtin_group(name)
    b = reference_merged_terms(reference_orbit_data(group, C2))
    assert binary_splitting_count(b, n) == hom_count_wreath(group, C2, n)


@pytest.mark.parametrize("name", ["C2", "S3", "D4", "Q8"])
def test_binary_splitting_at_small_n_and_with_one_term_off(name):
    # every n up to several leaves, where halves and leaves meet; and t_n
    # moves when any one b_k is off by one
    group = builtin_group(name)
    b = reference_merged_terms(reference_orbit_data(group, C2))
    assert [binary_splitting_count(b, n) for n in range(100)] == [hom_count_wreath(group, C2, n) for n in range(100)]
    for k in b:
        assert binary_splitting_count({**b, k: b[k] + 1}, 300) != hom_count_wreath(group, C2, 300)


def test_distribution_table_rejects_non_distribution():
    with pytest.raises(InvariantError):
        DistributionTable(n=1, fiber_counts=(2, -1))
    with pytest.raises(InvariantError):
        DistributionTable(n=1, fiber_counts=(0,))


def test_invariants_hold_under_optimize():
    # assert statements vanish under -O; the invariant checks must not
    script = (
        "from wreathhom import DistributionTable, InvariantError\n"
        "assert False, 'asserts are live'\n"
        "try:\n"
        "    DistributionTable(n=1, fiber_counts=(0,))\n"
        "except InvariantError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
