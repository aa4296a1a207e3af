import json
import random
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

import pytest
from scipy import stats

from oracles import (
    fold_values,
    full_images,
    probs,
    reference_orbit_data,
    reference_orbit_type,
    reference_sample_hom,
    reference_tables,
)
from wreathhom import (
    AbelianGroup,
    InvariantError,
    WreathHom,
    WreathHomCounter,
    build_wreath_group,
    builtin_group,
    delta_distribution,
    enumerate_homs,
    group_from_permutations,
    hom_group,
    sample_hom,
    sample_orbit_type,
    verify_wreath_hom,
)
from wreathhom import counting, sampling
from wreathhom.counting import counter_for
from wreathhom.groups import BUILTIN_GROUP_NAMES
from wreathhom.sampling import BackwardWalk

C2 = AbelianGroup((2,))
C3A = AbelianGroup((3,))
V4A = AbelianGroup((2, 2))


def test_orbit_type_trivial_group():
    g = builtin_group("C1")
    rng = random.Random(1)
    for n in (1, 3, 7):
        assert sample_orbit_type(g, C2, n, rng) == (n,)


def test_orbit_type_distribution_c2_n2():
    g = builtin_group("C2")
    rng = random.Random(42)
    draws = Counter(sample_orbit_type(g, C2, 2, rng) for _ in range(30000))
    # exact stratum probabilities 1/3 for the 2-orbit, 2/3 for two fixed points
    observed = [draws[(1, 0)], draws[(0, 2)]]
    result = stats.chisquare(observed, f_exp=[30000 / 3, 2 * 30000 / 3])
    assert result.pvalue > 0.001


def test_orbit_type_distribution_c2_n3():
    g = builtin_group("C2")
    rng = random.Random(7)
    draws = Counter(sample_orbit_type(g, C2, 3, rng) for _ in range(20000))
    observed = [draws[(1, 1)], draws[(0, 3)]]
    result = stats.chisquare(observed, f_exp=[20000 * 12 / 20, 20000 * 8 / 20])
    assert result.pvalue > 0.001


@pytest.mark.parametrize("coeffs", [C2, V4A], ids=["C2", "V4"])
@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
def test_orbit_type_matches_eager_reference_walk(name, coeffs):
    # the lazy walk must consume the same draws and pick the same classes
    g = builtin_group(name)
    orbit_data = reference_orbit_data(g, coeffs)
    n = 40
    totals, _, _ = reference_tables(orbit_data, hom_group(g, coeffs), n)
    for seed in range(5):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert sample_orbit_type(g, coeffs, n, rng) == reference_orbit_type(orbit_data, totals, n, ref_rng)
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("coeffs", [C2, C3A, V4A], ids=["C2", "C3", "V4"])
@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
def test_choose_class_at_every_bound(name, coeffs):
    # r = B - 1, B, B + 1 at every cumulative class weight B, and the largest
    # draw: the top-bit estimates and the exact scan must pick the class an
    # exact bisection does, and refuse every r from the total on
    counter = counter_for(builtin_group(name), coeffs)
    walk = BackwardWalk(counter)
    walk.extend_to(300)
    for s in [*range(1, 61), 150, 300]:
        total = walk.scale * counter.count(s)
        assert walk.bits[s] == total.bit_length()
        bounds = list(accumulate(walk.weights(s)))
        assert bounds[-1] == total
        for r in {max(0, b + d) for b in bounds for d in (-1, 0, 1)} | {2 ** walk.bits[s] - 1}:
            expected = bisect_right(bounds, r) if r < total else None
            assert walk.choose_class(s, r) == expected, (s, r)


def test_counter_refuses_classes_of_one_size_apart(monkeypatch):
    # V4's three subgroups of order 2 share k = 2; one moved past the
    # trivial subgroup (k = 4) would split their run.  The counter groups
    # its terms by k once, as the runs the walk bisects, so it refuses when
    # it is built: a count refuses as well as a draw.
    g = builtin_group("V4")
    classes = counting.subgroup_classes(g)
    assert [c.index for c in classes] == [4, 2, 2, 2, 1]
    monkeypatch.setattr(counting, "subgroup_classes", lambda group: (classes[1], classes[0], *classes[2:]))
    counter_for.cache_clear()  # groups are cached by value
    for query in (lambda: counter_for(g, C2).count(5), lambda: sample_hom(g, C2, 5, random.Random(0))):
        with pytest.raises(InvariantError, match="the classes of orbit size 2 are not contiguous"):
            query()


@pytest.mark.parametrize("coeffs", [C2, C3A, V4A], ids=["C2", "C3", "V4"])
@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
def test_sample_hom_matches_reference_draws(name, coeffs):
    # the written-out draws must consume the stream as randrange and shuffle
    # do: a Python whose _randbelow or shuffle changes fails here
    g = builtin_group(name)
    for seed in range(5):
        for n in (0, 1, 2, 17, 40):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            assert sample_hom(g, coeffs, n, rng) == reference_sample_hom(g, coeffs, n, ref_rng)
            assert rng.random() == ref_rng.random()


def test_sample_hom_matches_reference_draws_at_large_n():
    # Q8 with A = C4 has three classes of orbit size 2 in one run; both it
    # and S3 with A = 2,2 draw u from |Hom(U, A)| = 4 at most classes
    for name, coeffs, n in (("D4", C2, 3000), ("Q8", AbelianGroup((4,)), 1000), ("S3", V4A, 1000)):
        g = builtin_group(name)
        rng, ref_rng = random.Random(3), random.Random(3)
        assert sample_hom(g, coeffs, n, rng) == reference_sample_hom(g, coeffs, n, ref_rng), name
        assert rng.random() == ref_rng.random(), name


@pytest.mark.parametrize("entries", [0, 16])
def test_draws_past_the_row_cache_match_reference_draws(entries, monkeypatch):
    # a u whose row finds no room is built for its orbit alone: the same
    # draws, and no class keeps more than its room
    monkeypatch.setattr(sampling, "ROW_CACHE_ENTRIES", entries)
    sampling._walk_of.cache_clear()
    try:
        for name, coeffs in (("D4", AbelianGroup((2, 4))), ("S3", V4A)):
            g = builtin_group(name)
            rng, ref_rng = random.Random(5), random.Random(5)
            for _ in range(10):
                assert sample_hom(g, coeffs, 40, rng) == reference_sample_hom(g, coeffs, 40, ref_rng), name
            for k, _, _, rows, _ in sampling._walk_of(counter_for(g, coeffs)).classes:
                assert len(rows) * len(g.generators) * k <= entries, name
    finally:
        sampling._walk_of.cache_clear()


def test_row_cache_stops_growing():
    # F56 = C2^3 x| C7 with A = C2^8: the C2^3 class draws u below 2^24, and
    # 5000 draws at n = 30 meet about 20000 distinct u there, rows of 14
    # entries each; the class keeps the first that fit in ROW_CACHE_ENTRIES
    g = group_from_permutations([[1, 0, 3, 2, 5, 4, 7, 6], [0, 2, 4, 6, 3, 1, 7, 5]], name="F56")
    coeffs = AbelianGroup((2,) * 8)
    sampling._walk_of.cache_clear()  # groups are cached by value
    rng = random.Random(1)
    for _ in range(5000):
        sample_hom(g, coeffs, 30, rng)
    classes = sampling._walk_of(counter_for(g, coeffs)).classes
    entries = [len(rows) * len(g.generators) * k for k, _, _, rows, _ in classes]
    assert max(entries) <= sampling.ROW_CACHE_ENTRIES, entries
    # the C2^3 class filled its room; the classes with one u each keep theirs
    [(_, _, u_count, rows, _)] = [record for record in classes if record[0] == 7]
    assert (u_count, len(rows)) == (2**24, sampling.ROW_CACHE_ENTRIES // 14)
    assert [len(rows) for _, _, u_count, rows, _ in classes if u_count == 1] == [0, 1, 1]


def _exact_walk(monkeypatch, counter):
    """Send every draw of the sampler through the exact scan on ``counter``
    where the walk tables hold a shift (at shift 0 the estimates are exact;
    for S3 with A = C2, from s = 18 on)."""
    monkeypatch.setattr(sampling, "counter_for", lambda group, coeffs: counter)
    monkeypatch.setattr(sampling, "WALK_SLACK", 2**64)


def test_corrupted_totals_raise_stratum_error(monkeypatch):
    # the exact scan at s = 20 steps t_0 .. t_19 on the merged terms; with
    # the term of k = |G| one too large after the walk tables were built,
    # t_6 .. t_19 come out too large, and the class weights at s = 20 no
    # longer sum to the L t_20 of the tables
    g = builtin_group("S3")
    counter = WreathHomCounter(g, C2)  # not the cached counter_for one
    walk = BackwardWalk(counter)
    walk.extend_to(30)
    terms = dict(counter._total_terms)
    terms[g.order] += 1
    counter._total_terms = tuple(terms.items())
    _exact_walk(monkeypatch, counter)
    with pytest.raises(InvariantError, match="stratum weights do not sum to the count at n=20"):
        walk.choose_class(20, 0)


@pytest.mark.parametrize("table", ["window", "residues"])
def test_corrupted_walk_window_raises_stratum_error(monkeypatch, table):
    # The walk tables step two windows on their own: L t_s, for the bit
    # lengths and tops, and L t_s modulo WALK_PRIME.  One of them one too
    # large at s = 10, partway through the build, carries into every later
    # entry of its own tables and into none of the other's, and the exact
    # scan at s = 20, on the totals, misses the tables there: the tops for
    # the window (they are exact to s = 17, so an error there reaches the
    # top 64 bits later), the residue for the residues.
    g = builtin_group("S3")
    fresh = BackwardWalk(WreathHomCounter(g, C2))
    fresh.extend_to(30)
    counter = WreathHomCounter(g, C2)  # not the cached counter_for one
    walk = BackwardWalk(counter)
    walk.extend_to(10)
    if table == "window":
        walk.window[-1] += 1
    else:
        walk.residues[-1] = (walk.residues[-1] + 1) % sampling.WALK_PRIME
    walk.extend_to(30)
    at_20 = slice(20 * len(walk.runs), 21 * len(walk.runs))
    tops_moved = walk.tops[at_20] != fresh.tops[at_20]
    residue_moved = walk.residues[20] != fresh.residues[20]
    assert (tops_moved, residue_moved) == ((True, False) if table == "window" else (False, True))
    _exact_walk(monkeypatch, counter)
    with pytest.raises(InvariantError, match="stratum weights do not sum to the count at n=20"):
        walk.choose_class(20, 0)


def test_exact_scan_keeps_a_shared_counters_windows(monkeypatch):
    # The exact scan steps the totals it reads in a window of its own, so a
    # draw that takes it leaves the shared counter's cursor where it was,
    # with its fixed-point-free and fiber windows, and restarts nothing;
    # the next fiber query is read off the windows as they stand.
    g = builtin_group("D4")
    counter = counter_for(g, C2)
    counter.fiber_counts(300)
    assert len(counter._windows) == 4
    scans, restarts = [], []
    real_weights = BackwardWalk.weights
    monkeypatch.setattr(BackwardWalk, "weights", lambda walk, s: scans.append(s) or real_weights(walk, s))
    monkeypatch.setattr(sampling, "WALK_SLACK", 2**64)
    real_restart = counter._restart
    monkeypatch.setattr(counter, "_restart", lambda width: restarts.append(width) or real_restart(width))
    sample_orbit_type(g, C2, 250, random.Random(0))
    assert scans and counter._n == 300 and len(counter._windows) == 4
    assert restarts == []
    assert counter.fiber_counts(300) == WreathHomCounter(g, C2).fiber_counts(300)
    assert restarts == []


def test_corrupted_class_term_raises_stratum_error(monkeypatch):
    # one class term one too large: the class weights no longer sum to L t_s
    g = builtin_group("S3")
    counter = WreathHomCounter(g, C2)  # not the cached counter_for one
    terms = list(counter._class_terms)
    k, a = terms[-1]
    terms[-1] = (k, a + 1)
    counter._class_terms = tuple(terms)
    _exact_walk(monkeypatch, counter)
    with pytest.raises(InvariantError, match="stratum weights do not sum to the count at n=20"):
        sample_orbit_type(g, C2, 20, random.Random(0))


def test_sample_trivial_group():
    g = builtin_group("C1")
    hom = sample_hom(g, C2, 4, random.Random(0))
    assert hom.n == 4
    assert hom.perms == () and hom.decors == ()
    assert verify_wreath_hom(g, C2, hom)


@pytest.mark.parametrize(
    "name,coeffs,n",
    [
        ("C2", C2, 4),
        ("C4", C2, 5),
        ("S3", C2, 6),
        ("S3", V4A, 4),
        ("V4", AbelianGroup((3,)), 5),
        ("Q8", C2, 4),
        ("D4", V4A, 3),
    ],
)
def test_samples_are_homomorphisms(name, coeffs, n):
    g = builtin_group(name)
    rng = random.Random(1234)
    for _ in range(40):
        hom = sample_hom(g, coeffs, n, rng)
        assert verify_wreath_hom(g, coeffs, hom)


@pytest.mark.parametrize(
    "name,perm,decor",
    [
        ("C2", (1, 0), (1, 0)),  # squares to decorations (1, 1), not the identity
        ("C3", (1, 2, 0), (1, 0, 0)),  # cubes to decorations (1, 1, 1)
        ("C3", (1, 0, 2), (0, 0, 0)),  # a transposition cubes to itself
        ("C2", (0,), (3,)),  # a decoration past A = C2
        ("C2", (0,), (-2,)),  # a negative decoration
        ("D4", (0, 1), (0, 0)),  # one image for two generators
        ("C2", (0, 1), (0,)),  # a decoration vector shorter than n
        ("C2", (0, 2), (0, 0)),  # a point outside 0..n-1
    ],
)
def test_verify_rejects_broken_relation(name, perm, decor):
    g = builtin_group(name)
    hom = WreathHom(n=len(perm), perms=(perm,), decors=(decor,))
    assert not verify_wreath_hom(g, C2, hom)
    with pytest.raises(ValueError, match="homomorphism"):
        full_images(g, C2, hom)


def test_sampler_uniform_over_all_homs_c2_n2():
    g = builtin_group("C2")
    target = build_wreath_group(C2, 2)
    all_homs = enumerate_homs(g, target)
    assert len(all_homs) == 6
    rng = random.Random(99)
    draws = Counter()
    total = 30000
    for _ in range(total):
        hom = sample_hom(g, C2, 2, rng)
        draws[hom.perms[0], hom.decors[0]] += 1
    observed = [draws[images[0]] for images in all_homs]
    assert sum(observed) == total
    result = stats.chisquare(observed)
    assert result.pvalue > 0.001


def test_sampler_uniform_over_all_homs_s3_n3():
    g = builtin_group("S3")
    target = build_wreath_group(C2, 3)
    all_homs = enumerate_homs(g, target)
    index = {h: i for i, h in enumerate(all_homs)}
    rng = random.Random(31337)
    total = 30000
    counts = [0] * len(all_homs)
    for _ in range(total):
        hom = sample_hom(g, C2, 3, rng)
        counts[index[tuple(zip(hom.perms, hom.decors))]] += 1
    assert sum(counts) == total
    result = stats.chisquare(counts)
    assert result.pvalue > 0.001


@pytest.mark.parametrize("seed", range(5))
def test_sampled_images_are_oracle_homs(seed):
    # the sampler's pairs and the oracle's elements are one format
    g = builtin_group("S3")
    homs = set(enumerate_homs(g, build_wreath_group(C2, 3)))
    hom = sample_hom(g, C2, 3, random.Random(seed))
    assert tuple(zip(hom.perms, hom.decors)) in homs


def test_sampler_fold_matches_exact_distribution():
    g = builtin_group("C2")
    n = 4
    table = delta_distribution(g, C2, n)
    hg = hom_group(g, C2)
    rng = random.Random(2718)
    total = 20000
    counts = [0] * hg.size
    for _ in range(total):
        hom = sample_hom(g, C2, n, rng)
        values = fold_values(g, C2, hom)
        counts[hg.index_of([values[s] for s in g.generators])] += 1
    expected = [float(p) * total for p in probs(table)]
    result = stats.chisquare(counts, f_exp=expected)
    assert result.pvalue > 0.001


def test_sampler_determinism():
    g = builtin_group("S3")
    a = sample_hom(g, C2, 5, random.Random(5))
    b = sample_hom(g, C2, 5, random.Random(5))
    assert a == b
    c = sample_hom(g, C2, 5, random.Random(6))
    assert a != c  # overwhelmingly likely for distinct seeds


def test_full_images_identity_and_closure():
    g = builtin_group("S3")
    hom = sample_hom(g, C2, 4, random.Random(3))
    imgs = full_images(g, C2, hom)
    assert imgs[0] == (tuple(range(4)), (0,) * 4)
    for gi, gen in enumerate(g.generators):
        assert imgs[gen] == (hom.perms[gi], hom.decors[gi])


def test_hom_json_shape():
    g = builtin_group("V4")
    hom = sample_hom(g, V4A, 3, random.Random(11))
    data = json.loads(hom.to_json())
    assert set(data) == {"perm", "decor"}
    assert len(data["perm"]) == len(g.generators)
    assert all(len(p) == 3 for p in data["perm"])
    assert all(len(d) == 3 for d in data["decor"])


@pytest.mark.parametrize("coeffs", [C2, C3A, AbelianGroup((4,)), V4A], ids=["C2", "C3", "C4", "V4"])
@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
def test_to_json_is_json_dumps_of_the_dict_form(name, coeffs):
    # n < |A| lets decoration indices reach n or past it, n <= 1 gives
    # vectors of one entry or none, and C1 has no generators
    g = builtin_group(name)
    for n in (0, 1, 2, 3, 17):
        for seed in range(3):
            hom = sample_hom(g, coeffs, n, random.Random(seed))
            assert hom.to_json() == json.dumps({"perm": hom.perms, "decor": hom.decors}), (n, seed)


@pytest.mark.parametrize(
    "n, perms, decors",
    [
        (1, ((0,),), ((3,),)),
        (1, ((0,), (0,)), ((12,), (5,))),  # a one-entry vector of two digits
        (2, ((1, 0), (0, 1)), ((0, 11), (12, 3))),
        (0, ((), ()), ((), ())),
        (3, (), ()),
    ],
)
def test_to_json_renders_decorations_past_n(n, perms, decors):
    hom = WreathHom(n=n, perms=perms, decors=decors)
    assert hom.to_json() == json.dumps({"perm": perms, "decor": decors})


def test_walk_tables_do_not_depend_on_earlier_queries():
    # the walk tables grow apart from the counter's cursor: built on a
    # counter whose cursor is ahead of them, or extended after the cursor
    # moved behind them, they match tables built on a fresh counter
    g = builtin_group("S3")
    fresh = BackwardWalk(WreathHomCounter(g, C2))
    fresh.extend_to(60)
    ahead_counter, behind_counter = WreathHomCounter(g, C2), WreathHomCounter(g, C2)
    ahead_counter.count(50)
    ahead, behind = BackwardWalk(ahead_counter), BackwardWalk(behind_counter)
    behind.extend_to(30)
    behind_counter.count(10)
    for walk in (ahead, behind):
        walk.extend_to(60)
        assert (walk.bits, walk.residues, walk.shifts, walk.tops) == (
            fresh.bits, fresh.residues, fresh.shifts, fresh.tops)


def test_corrupted_run_term_raises_stratum_error(monkeypatch):
    # a merged term b_2 one too large: the totals and the walk tables step
    # with it, but the class terms still sum to the true b_2, so the
    # exact scan's weights miss L t_s
    g = builtin_group("S3")
    counter = WreathHomCounter(g, C2)  # not the cached counter_for one
    terms = list(counter._total_terms)
    k, b = terms[2]
    assert k == 2
    terms[2] = (k, b + 1)
    counter._total_terms = tuple(terms)
    _exact_walk(monkeypatch, counter)
    with pytest.raises(InvariantError, match="stratum weights do not sum to the count at n=20"):
        sample_orbit_type(g, C2, 20, random.Random(0))


@pytest.mark.parametrize("coeffs", [C2, C3A, V4A], ids=["C2", "C3", "V4"])
@pytest.mark.parametrize("name", BUILTIN_GROUP_NAMES)
def test_walk_table_matches_class_weights(name, coeffs):
    # the one-pass table against the per-class weights: the bit length of
    # L t_s, and the top 64 bits of the cumulative weight after each run
    walk = BackwardWalk(counter_for(builtin_group(name), coeffs))
    walk.extend_to(300)
    width = len(walk.runs)
    for s in range(1, 301):
        bounds = list(accumulate(walk.weights(s)))
        bits = bounds[-1].bit_length()
        shift = max(0, bits - 64)
        assert walk.bits[s] == bits
        assert walk.shifts[s] == shift
        ends = [bounds[start + len(prefix) - 2] >> shift for start, prefix in walk.runs]
        assert list(walk.tops[s * width : (s + 1) * width]) == ends, s
