"""Acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL
line; run with `pytest -s tests/test_acceptance.py` to see them.  The
brute-force grid is enumerated once and shared across criteria 1-3.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

from scipy import stats

from wreathhom import (
    AbelianGroup,
    InvariantError,
    build_wreath_group,
    builtin_group,
    coset_action,
    decay_constant,
    delta_distribution,
    enumerate_homs,
    fixed_point_free_probability,
    fixed_point_strata_uniform,
    fold_indices,
    hom_count_direct,
    hom_count_wreath,
    hom_group,
    oracle_delta,
    sample_hom,
    subgroup_classes,
    weyl_hom_count,
)
from wreathhom.counting import WreathHomCounter
from wreathhom.cli import fit_decay
from oracles import centralizer_order, sup_distance_to_uniform

GRID_GROUPS = ("C1", "C2", "C3", "C4", "V4", "S3")
GRID_COEFFS = ((2,), (3,), (2, 2))
ORACLE_SIZE_CAP = 10**6

_cells_cache: dict = {}


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{tail}")


def _grid_ns(coeffs: AbelianGroup):
    ns = [1, 2, 3]
    if coeffs.order**4 * math.factorial(4) <= ORACLE_SIZE_CAP:
        ns.append(4)
    return ns


def _cells():
    if _cells_cache:
        return _cells_cache
    for gname in GRID_GROUPS:
        group = builtin_group(gname)
        for factors in GRID_COEFFS:
            coeffs = AbelianGroup(factors)
            for n in _grid_ns(coeffs):
                target = build_wreath_group(coeffs, n)
                homs = enumerate_homs(group, target)
                folds = fold_indices(group, coeffs, target, homs)
                _cells_cache[(gname, factors, n)] = {
                    "group": group,
                    "coeffs": coeffs,
                    "n": n,
                    "oracle_count": len(homs),
                    "oracle_fibers": oracle_delta(group, coeffs, target, folds).fiber_counts,
                    "strata_uniform": fixed_point_strata_uniform(group, coeffs, target, homs, folds),
                }
    return _cells_cache


def test_criterion_1_oracle_count_equivalence():
    start = time.time()
    cells = _cells()
    bad = []
    for (gname, factors, n), cell in cells.items():
        rec = hom_count_wreath(cell["group"], cell["coeffs"], n)
        direct = hom_count_direct(cell["group"], cell["coeffs"], n)
        if not (rec == direct == cell["oracle_count"]):
            bad.append((gname, factors, n, rec, direct, cell["oracle_count"]))
    elapsed = time.time() - start
    ok = not bad and elapsed < 300
    _report(1, "oracle count equivalence", ok, f"{len(cells)} cells, {elapsed:.1f}s")
    assert not bad, bad
    assert elapsed < 300


def test_criterion_2_distribution_equivalence():
    cells = _cells()
    bad = []
    for (gname, factors, n), cell in cells.items():
        engine = delta_distribution(cell["group"], cell["coeffs"], n).fiber_counts
        if engine != cell["oracle_fibers"]:
            bad.append((gname, factors, n, engine, cell["oracle_fibers"]))
    pinned = (
        cells[("C2", (2,), 2)]["oracle_fibers"] == (4, 2)
        and cells[("C2", (2,), 3)]["oracle_fibers"] == (10, 10)
    )
    ok = not bad and pinned
    _report(2, "distribution equivalence", ok, f"{len(cells)} cells, pinned fibers (4,2) and (10,10)")
    assert not bad, bad
    assert pinned


def test_criterion_3_fixed_point_strata_uniform():
    cells = _cells()
    bad = [key for key, cell in cells.items() if not cell["strata_uniform"]]
    ok = not bad
    _report(3, "fixed-point strata have equal fold fibers", ok, f"{len(cells)} cells, zero exceptions")
    assert not bad, bad


def test_criterion_4_sup_distance_bound_to_300():
    start = time.time()
    group = builtin_group("C2")
    coeffs = AbelianGroup((2,))
    bad = []
    for n in range(1, 301):
        table = delta_distribution(group, coeffs, n)
        p = fixed_point_free_probability(group, coeffs, n)
        if sup_distance_to_uniform(table) > p:
            bad.append(n)
        if n % 2 == 1 and p != 0:
            bad.append(n)
    p300 = fixed_point_free_probability(group, coeffs, 300)
    tail_small = p300 < Fraction(1, 10**6)
    elapsed = time.time() - start
    ok = not bad and tail_small and elapsed < 60
    _report(
        4,
        "sup distance <= p_n up to n=300",
        ok,
        f"p_300 ~ {float(p300):.2e} < 1e-6, odd p_n all zero, {elapsed:.1f}s",
    )
    assert not bad, bad
    assert tail_small
    assert elapsed < 60


def test_criterion_5_decay_shape():
    group = builtin_group("C2")
    coeffs = AbelianGroup((2,))
    result = fit_decay(group, coeffs, list(range(50, 301, 2)))
    slope = result["slope"]
    reference = decay_constant(group, coeffs).reference_value
    ok = slope < 0 and result["points"] == 126
    _report(
        5,
        "decay shape",
        ok,
        f"slope {slope:.4f} < 0 over even n in [50,300]; reference constant {reference:.4f} = 1/(16e)",
    )
    assert slope < 0
    assert result["points"] == 126
    assert abs(reference - 1 / (16 * math.e)) < 1e-12


def test_criterion_6_weyl_ratio():
    bad = []
    pinned_ok = True
    for gname in ("C2", "V4", "S3"):
        group = builtin_group(gname)
        c2 = AbelianGroup((2,))
        s2_subgroups = sum(c.conjugate_count for c in subgroup_classes(group) if c.index == 2)
        s2_homs = hom_group(group, c2).size - 1
        if s2_subgroups != s2_homs:
            bad.append((gname, "s2 mismatch", s2_subgroups, s2_homs))
            continue
        limit = Fraction(1, 1 + s2_subgroups)
        for n in range(1, 301):
            ratio = Fraction(weyl_hom_count(group, n), hom_count_wreath(group, c2, n))
            p = fixed_point_free_probability(group, c2, n)
            if abs(ratio - limit) > p:
                bad.append((gname, n, ratio, limit, p))
        if gname == "C2":
            r2 = Fraction(weyl_hom_count(group, 2), hom_count_wreath(group, c2, 2))
            r3 = Fraction(weyl_hom_count(group, 3), hom_count_wreath(group, c2, 3))
            pinned_ok = r2 == Fraction(4, 6) and r3 == Fraction(1, 2)
    ok = not bad and pinned_ok
    _report(6, "Weyl ratio vs 1/(1+s2)", ok, "C2, V4, S3 up to n=300; pinned 4/6 and 1/2")
    assert not bad, bad[:5]
    assert pinned_ok


def test_criterion_7_recurrence_integrality():
    # fresh counters so the per-step integrality assertions all run here
    failures = []
    for gname in GRID_GROUPS:
        for factors in GRID_COEFFS:
            try:
                counter = WreathHomCounter(builtin_group(gname), AbelianGroup(factors))
                counter.extend_to(60, free=True, fibers=True)
            except InvariantError as exc:
                failures.append((gname, factors, str(exc)))
    ok = not failures
    _report(7, "recurrence integrality", ok, "18 group/coefficient pairs to n=60")
    assert not failures, failures


def test_criterion_8_centralizer_identity():
    bad = []
    for gname in GRID_GROUPS + ("D4", "Q8"):
        group = builtin_group(gname)
        for cls in subgroup_classes(group):
            brute = centralizer_order(coset_action(group, cls))
            if brute != cls.normalizer_order // cls.order or brute != cls.centralizer_order:
                bad.append((gname, cls.elements, brute, cls.centralizer_order))
    ok = not bad
    _report(8, "centralizer identity", ok, "all classes of all suite groups")
    assert not bad, bad


def test_criterion_9_sampler_statistics():
    group = builtin_group("C2")
    coeffs = AbelianGroup((2,))
    target = build_wreath_group(coeffs, 2)
    all_homs = enumerate_homs(group, target)
    rng = random.Random(1)
    total = 10**5
    hom_counts = Counter()
    stratum_counts = Counter()
    for _ in range(total):
        hom = sample_hom(group, coeffs, 2, rng)
        hom_counts[hom.perms[0], hom.decors[0]] += 1
        stratum_counts["moved" if hom.perms[0] != (0, 1) else "fixed"] += 1
    observed = [hom_counts[images[0]] for images in all_homs]
    uniform_test = stats.chisquare(observed)
    stratum_test = stats.chisquare(
        [stratum_counts["moved"], stratum_counts["fixed"]],
        f_exp=[total / 3, 2 * total / 3],
    )
    ok = (
        sum(observed) == total
        and uniform_test.pvalue > 0.001
        and stratum_test.pvalue > 0.001
    )
    _report(
        9,
        "sampler statistics",
        ok,
        f"uniform p={uniform_test.pvalue:.3f}, stratum p={stratum_test.pvalue:.3f} at 1e5 draws",
    )
    assert sum(observed) == total
    assert uniform_test.pvalue > 0.001
    assert stratum_test.pvalue > 0.001
