"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the package's own algorithms: subgroups by subset
enumeration, abelian invariants by order counting, hom counts by direct
solution counting, the counting recurrence class by class in Fraction,
subgroup classes by joining pairs of subgroups until nothing new appears,
the transfer evaluated on every element of G, centralizers by trying
every permutation, homomorphisms by trying every tuple of generator
images against every product, the elements of A wr S_n of each order by
listing them all and taking each one's power, group tables by composing
every pair of permutations, whether a table is a group by its axioms on
every element and every triple, commutator subgroups from every pair of
elements, the sampler on ``random``'s own
``randrange`` and ``shuffle``, Hom(B, A) by listing the elements of A
that each invariant factor of B kills, the basis of U/[U, U] by the
search that computes every power again, fold fibers by counting every
extension u by its fold value, counts at large n by multiplying out
the exponential formula instead of running its log-derivative, table
rows as dicts for ``json.dumps`` instead of the package's text builders,
and sums in A, the wreath product's included, on the mixed-radix vectors
of A's elements instead of the package's ``AbelianGroup.add_sub``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

from wreathhom import (
    AbelianGroup,
    OrbitTypeData,
    SizeCapError,
    SubgroupClass,
    WreathHom,
    abelianization,
    coset_action,
    delta_distribution,
    fixed_point_free_probability,
    hom_count_wreath,
    subgroup_classes,
    weyl_hom_count,
)
from wreathhom.homs import hom_group

DEFAULT_DEGREE_CAP = 8


def brute_subgroups(group) -> set[frozenset[int]]:
    """All subgroups by checking every subset containing the identity (d <= 10)."""
    d = group.order
    assert d <= 10, "subset enumeration oracle limited to tiny groups"
    others = [x for x in range(d) if x != 0]
    out = set()
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            subset = frozenset((0,) + combo)
            closed = all(
                group.mul(a, b) in subset for a in subset for b in subset
            ) and all(group.inv(a) in subset for a in subset)
            if closed:
                out.add(subset)
    return out


def _conjugate_partition(col_heights: list[int]) -> list[int]:
    """Partition from its conjugate (column heights)."""
    if not col_heights:
        return []
    out = []
    i = 1
    while True:
        row = sum(1 for c in col_heights if c >= i)
        if row == 0:
            return out
        out.append(row)
        i += 1


def invariant_factors_from_counts(elements, mul, identity) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group from solution counts of x^m = e.

    For each prime p, log_p of #(x : x^{p^j} = e) / #(x : x^{p^(j-1)} = e)
    is the j-th column height of the exponent partition.
    """
    n = len(elements)
    if n == 1:
        return ()

    def power(x, m):
        y = identity
        for _ in range(m):
            y = mul(y, x)
        return y

    primes = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)

    primary: dict[int, list[int]] = {}
    for p in primes:
        cols = []
        prev = 1
        j = 1
        while True:
            cur = sum(1 for x in elements if power(x, p**j) == identity)
            if cur == prev:
                break
            ratio = cur // prev
            col = round(math.log(ratio, p))
            assert p**col == ratio
            cols.append(col)
            prev = cur
            j += 1
        primary[p] = _conjugate_partition(cols)

    width = max(len(v) for v in primary.values())
    factors_desc = []
    for j in range(width):
        f = 1
        for p in primes:
            exps = primary[p]
            if j < len(exps):
                f *= p ** exps[j]
        factors_desc.append(f)
    return tuple(reversed(factors_desc))


def reference_abelian_decomposition(labels, mul, identity):
    """``groups._abelian_decomposition`` as it was before it listed each
    element's powers once: every order, power and span element computed
    again by repeated multiplication, the primes from the element orders.
    Its picks are the rule the package must keep, so it stays a test."""

    def power(a, m):
        x = identity
        for _ in range(m):
            x = mul(x, a)
        return x

    def element_order(a):
        order, x = 1, a
        while x != identity:
            x = mul(x, a)
            order += 1
        return order

    def prime_factors(m):
        out, p = [], 2
        while p * p <= m:
            if m % p == 0:
                out.append(p)
                while m % p == 0:
                    m //= p
            p += 1
        if m > 1:
            out.append(m)
        return out

    def is_prime_power(order, p):
        while order % p == 0:
            order //= p
        return order == 1

    n = len(labels)
    if n == 1:
        return (), (), {identity: ()}
    orders = {x: element_order(x) for x in labels}
    primes = sorted({p for x in labels for p in prime_factors(orders[x])})
    per_prime = {}
    for p in primes:
        component = [x for x in labels if is_prime_power(orders[x], p)]
        picked = []
        span = {identity}
        while len(span) < len(component):
            best = None
            for x in component:
                o = orders[x]
                if o == 1 or power(x, o // p) in span:
                    continue
                if best is None or o > orders[best]:
                    best = x
            assert best is not None, "abelian decomposition stalled"
            picked.append((best, orders[best]))
            span = {mul(s, power(best, t)) for s in span for t in range(orders[best])}
        per_prime[p] = picked
    width = max(len(v) for v in per_prime.values())
    factors_desc = []
    gens_desc = []
    for j in range(width):
        f = 1
        g = identity
        for p in primes:
            if j < len(per_prime[p]):
                gen, o = per_prime[p][j]
                f *= o
                g = mul(g, gen)
        factors_desc.append(f)
        gens_desc.append(g)
    factors = tuple(reversed(factors_desc))
    gens = tuple(reversed(gens_desc))
    vec_of = {}
    for combo in itertools.product(*(range(e) for e in factors)):
        x = identity
        for g, c in zip(gens, combo):
            x = mul(x, power(g, c))
        vec_of[x] = combo
    assert len(vec_of) == n, "invariant-factor coordinates are not a bijection"
    return factors, gens, vec_of


def zero(coeffs) -> tuple[int, ...]:
    """The zero vector of an AbelianGroup."""
    return (0,) * len(coeffs.invariant_factors)


def scalar_mul(coeffs, c, x) -> tuple[int, ...]:
    """``c * x`` in an AbelianGroup, in tuple arithmetic."""
    return tuple((c * a) % e for a, e in zip(x, coeffs.invariant_factors))


def add(coeffs, x, y) -> tuple[int, ...]:
    """``x + y`` in an AbelianGroup, in tuple arithmetic."""
    return tuple((a + b) % e for a, b, e in zip(x, y, coeffs.invariant_factors))


@functools.lru_cache(maxsize=None)
def vectors(coeffs) -> tuple[tuple[int, ...], ...]:
    """The elements of an AbelianGroup as mixed-radix vectors, in the order
    of their indices: lexicographic, the last factor fastest."""
    return tuple(itertools.product(*(range(e) for e in coeffs.invariant_factors)))


@functools.lru_cache(maxsize=None)
def index_sum(coeffs, *terms) -> int:
    """The A-index of sum c x over the (c, x) in ``terms``, each x an A-index,
    added as the vectors of ``vectors`` in tuple arithmetic; kept per terms,
    as the sampler's tests add the few elements of a small A many times."""
    out = zero(coeffs)
    for c, x in terms:
        out = add(coeffs, out, scalar_mul(coeffs, c, vectors(coeffs)[x]))
    return coeffs.index_of(out)


def brute_hom_count_abelian(source, coeffs) -> int:
    """|Hom(B, A)| as the product over B's cyclic generators of #(y : b*y = 0)."""
    count = 1
    for b in source.invariant_factors:
        count *= sum(1 for v in vectors(coeffs) if scalar_mul(coeffs, b, v) == zero(coeffs))
    return count


def reference_abelian_homs(source, coeffs) -> list[tuple[tuple[int, ...], ...]]:
    """All homomorphisms B -> A as images of B's cyclic generators: the
    image of the order-b generator ranges over the elements of A killed by
    b, and the homomorphisms are every combination, in lexicographic order."""
    per_factor = [
        [v for v in vectors(coeffs) if scalar_mul(coeffs, b, v) == zero(coeffs)]
        for b in source.invariant_factors
    ]
    return [tuple(combo) for combo in itertools.product(*per_factor)]


def compose(p, q):
    """Permutation composition, q first."""
    return tuple(p[q[i]] for i in range(len(p)))


def evaluate_abelian_hom(coeffs, images, vec) -> tuple[int, ...]:
    """Apply a hom given by generator images to a mixed-radix source vector,
    in tuple arithmetic."""
    out = zero(coeffs)
    for c, img in zip(vec, images):
        out = add(coeffs, out, scalar_mul(coeffs, c, img))
    return out


def reference_wreath_ops(coeffs):
    """(mul, fold) on elements of A wr S_n held as (permutation, decorations)
    pairs, decorations as A-indices, the format of ``WreathHom``: ``mul``
    composes the permutations and adds the left factor's decorations, moved
    by the right factor's permutation, to the right's; ``fold`` sums the
    decorations.  Every sum goes through ``index_sum``."""

    def mul(x, y):
        (p1, d1), (p2, d2) = x, y
        return compose(p1, p2), tuple(index_sum(coeffs, (1, d1[i]), (1, b)) for i, b in zip(p2, d2))

    def fold(x) -> int:
        return index_sum(coeffs, *((1, d) for d in x[1]))

    return mul, fold


def reference_wreath_elements(coeffs, n) -> tuple:
    """Every element of A wr S_n: permutations in lexicographic order and,
    within each, decorations (A-element indices) big-endian, so the identity
    comes first."""
    decors = tuple(itertools.product(range(coeffs.order), repeat=n))
    return tuple((p, d) for p in itertools.permutations(range(n)) for d in decors)


def fn_power(mul, identity, x, m):
    """x^m by m multiplications."""
    y = identity
    for _ in range(m):
        y = mul(y, x)
    return y


def full_images(group, coeffs, hom) -> tuple:
    """Image of every group element of a sampled ``WreathHom``, extended by
    ``reference_pushed_map`` and accepted on all |G|^2 products, as in
    ``reference_hom_images``; ValueError unless there is one permutation of
    0..n-1 and one vector of n A-indices per generator, and together they
    define a homomorphism."""
    n = hom.n
    shaped = len(hom.perms) == len(hom.decors) == len(group.generators) and all(
        sorted(p) == list(range(n)) and len(d) == n and all(0 <= x < coeffs.order for x in d)
        for p, d in zip(hom.perms, hom.decors)
    )
    mul, _ = reference_wreath_ops(coeffs)
    target = SimpleNamespace(mul=mul, identity=(tuple(range(n)), (0,) * n))
    full = reference_hom_images(group, target, tuple(zip(hom.perms, hom.decors))) if shaped else None
    if full is None:
        raise ValueError("generator images do not define a homomorphism")
    return full


def fold_values(group, coeffs, hom) -> tuple[int, ...]:
    """Fold (decoration sum) of every element's image, as A-element indices."""
    _, fold = reference_wreath_ops(coeffs)
    return tuple(fold(x) for x in full_images(group, coeffs, hom))


def probs(table) -> tuple[Fraction, ...]:
    """The fold-value probabilities f / total of a DistributionTable."""
    return tuple(Fraction(f, table.total) for f in table.fiber_counts)


def sup_distance_to_uniform(table) -> Fraction:
    """max |f / total - 1/h| over the fibers of a DistributionTable."""
    h = len(table.fiber_counts)
    return max(abs(p - Fraction(1, h)) for p in probs(table))


def reference_row(command, group, coeffs, n) -> dict:
    """The row that ``command`` (count, pfree, delta or weyl) prints at n,
    as the dict whose ``json.dumps`` is its text: the engine's values, each
    rendered through ``Fraction`` and ``str``.  ``weyl`` ignores ``coeffs``
    and counts into C2, as its subcommand does."""
    def ratio(x: Fraction) -> dict:
        return {"num": str(x.numerator), "den": str(x.denominator)}

    if command == "count":
        return {"n": n, "count": str(hom_count_wreath(group, coeffs, n))}
    if command == "pfree":
        return {"n": n, "p": str(fixed_point_free_probability(group, coeffs, n))}
    if command == "delta":
        table = delta_distribution(group, coeffs, n)
        return {
            "n": n,
            "fibers": [str(f) for f in table.fiber_counts],
            "probs": [ratio(p) for p in probs(table)],
            "supDistance": ratio(sup_distance_to_uniform(table)),
        }
    if command == "weyl":
        c2 = AbelianGroup((2,))
        count = weyl_hom_count(group, n)
        return {
            "n": n,
            "count": str(count),
            "ratio": str(Fraction(count, hom_count_wreath(group, c2, n))),
            "limit": str(Fraction(1, hom_group(group, c2).size)),
        }
    raise ValueError(f"no table subcommand {command!r}")


def orbit_data_to_json(data: OrbitTypeData) -> dict:
    """JSON form of one class's orbit data, with big integers as decimal
    strings and the fold subgroup as its sorted HomGroup indices."""
    return {
        "classId": data.class_id,
        "k": data.k,
        "c": data.c,
        "weight": str(data.weight),
        "fold": sorted(data.fold),
    }


def reference_add_table(homs) -> list[list[int]]:
    """The addition table of Hom(G, A), each sum found by its full values."""
    coeffs = homs.coeffs
    by_values = {v: i for i, v in enumerate(homs.elements)}
    return [
        [by_values[tuple(index_sum(coeffs, (1, x), (1, y)) for x, y in zip(a, b))] for b in homs.elements]
        for a in homs.elements
    ]


def reference_tables(orbit_data, homs, n):
    """Totals, fixed-point-free counts and fold fibers for 0..n, per class.

    The recurrence t_s = sum_i (k_i w_i / c_i) (s-1)_(k_i-1) t_(s-k_i) in
    Fraction, one term per subgroup class (no merging by orbit size), with
    a convolution in the group algebra of Hom(G, A) per class per step for
    the fibers and the U = G class (the only one with k = 1) left out of
    the free sequence.  ``orbit_data`` is ``reference_orbit_data``, whose
    fibers come from no code of the package's fold subgroups.
    """
    add_table = reference_add_table(homs)
    h = len(add_table)
    totals, free, fibers = [1], [1], [tuple(1 if i == 0 else 0 for i in range(h))]
    for s in range(1, n + 1):
        total = free_s = Fraction(0)
        fiber = [Fraction(0)] * h
        for od in orbit_data:
            if od.k > s:
                continue
            coef = Fraction(od.k * math.perm(s - 1, od.k - 1), od.c)
            total += coef * od.weight * totals[s - od.k]
            if od.k != 1:
                free_s += coef * od.weight * free[s - od.k]
            conv = [0] * h
            for i, a in enumerate(od.fiber):
                for j, b in enumerate(fibers[s - od.k]):
                    if a and b:
                        conv[add_table[i][j]] += a * b
            for psi, x in enumerate(conv):
                if x:
                    fiber[psi] += coef * x
        assert total.denominator == free_s.denominator == 1
        assert all(f.denominator == 1 for f in fiber)
        totals.append(int(total))
        free.append(int(free_s))
        fibers.append(tuple(int(f) for f in fiber))
    return totals, free, fibers


def exponential_formula(orbit_data, n, weight=lambda od: od.weight):
    """(t_n, free_n): n! [x^n] of the truncated product of exp(a_k x^k) over
    the orbit sizes k, with and without the factor k = 1, where a_k sums
    weight(od) / c over the classes of size k (Flajolet and Sedgewick,
    *Analytic Combinatorics*, ch. II).  No log-derivative recurrence.

    The running series over the factors k >= 2 holds n! [x^j] at j: an
    integer, as the product's denominators k^m m! divide j!.  Each factor's
    coefficients a_k^m / m! are scaled by one common denominator D, and
    each entry of a product is divided by D, checked exact.  The k = 1
    factor is applied to entry n alone: t_n = sum_j (n! [x^j] / (n-j)!) a_1^(n-j).
    """
    a: dict[int, Fraction] = {}
    for od in orbit_data:
        a[od.k] = a.get(od.k, 0) + Fraction(weight(od), od.c)
    series = [math.factorial(n)] + [0] * n
    for k, ak in a.items():
        if k == 1:
            continue
        coeffs = [Fraction(1)]
        for m in range(1, n // k + 1):
            coeffs.append(coeffs[-1] * ak / m)
        den = math.lcm(*(c.denominator for c in coeffs))
        scaled = [c.numerator * (den // c.denominator) for c in coeffs]
        product = []
        for i in range(n + 1):
            terms = (series[i - k * m] * x for m, x in enumerate(scaled[: i // k + 1]) if series[i - k * m])
            value, rest = divmod(sum(terms), den)
            assert rest == 0, f"n! [x^{i}] is not an integer"
            product.append(value)
        series = product
    a1 = a.get(1, Fraction(0))
    assert a1.denominator == 1
    total, factorial, power = 0, 1, 1  # (n-j)! and a_1^(n-j)
    for j in range(n, -1, -1):
        term, rest = divmod(series[j] * power, factorial)
        assert rest == 0, f"n! [x^{j}] / (n-{j})! is not an integer"
        total += term
        factorial *= n - j + 1
        power *= a1.numerator
    return total, series[n]


def exponential_formula_counts(orbit_data, homs, n):
    """(t_n, free_n, fibers) when H = Hom(G, A) has exponent 2 (A = C2, or
    D4 and Q8 with A = C4), all from ``exponential_formula``.

    The fiber of psi is (1/h) times the sum, over the characters chi of H,
    of chi(psi) T_chi, where T_chi is t_n with the weights chi(fiber_i);
    psi = 0, the trivial fold, gives |Hom(G, W_n)| for A = C2.  H has
    exponent 2, so its characters are the sign vectors that respect the
    addition table of ``reference_add_table``; the first one found is the
    trivial character, whose run gives t_n and free_n.  ``orbit_data`` is
    ``reference_orbit_data``, as for ``reference_tables``.
    """
    table = reference_add_table(homs)
    h = len(table)
    chars = [
        chi for chi in itertools.product((1, -1), repeat=h)
        if all(chi[table[x][y]] == chi[x] * chi[y] for x in range(h) for y in range(h))
    ]
    assert len(chars) == h and set(chars[0]) == {1}
    runs = [exponential_formula(orbit_data, n, lambda od: sum(map(operator.mul, chi, od.fiber))) for chi in chars]
    fibers = []
    for psi in range(h):
        acc = sum(chi[psi] * total for chi, (total, _) in zip(chars, runs))
        assert acc % h == 0
        fibers.append(acc // h)
    return (*runs[0], tuple(fibers))


def reference_orbit_type(orbit_data, totals, n, rng):
    """The backward walk as first written: every class weight at every step.

    At size s all weights (k_i w_i / c_i) (s-1)_(k_i-1) t_(s-k_i), scaled by
    L = lcm(c_i), are built and checked to sum to L t_s before one draw
    below L t_s picks a class in class order.
    """
    scale = math.lcm(*(od.c for od in orbit_data))
    m = [0] * len(orbit_data)
    s = n
    while s > 0:
        weights = [
            Fraction(od.k * math.perm(s - 1, od.k - 1) * od.weight, od.c) * scale * totals[s - od.k]
            if od.k <= s else 0
            for od in orbit_data
        ]
        assert sum(weights) == scale * totals[s]
        r = rng.randrange(scale * totals[s])
        for i, w in enumerate(weights):
            if r < w:
                m[i] += 1
                s -= orbit_data[i].k
                break
            r -= w
    return tuple(m)


def reference_sample_hom(group, coeffs, n, rng) -> WreathHom:
    """The sampler as first written, on ``random``'s own methods.

    The backward walk is ``reference_orbit_type`` over the totals of
    ``reference_tables``, both on ``reference_orbit_data``; ``rng.shuffle``
    places the points, and each orbit in turn draws its u and its free
    decorations by ``rng.randrange``, and writes its coordinates point by
    point from its row of ``reference_cocycle_table``.
    """
    orbit_data = reference_orbit_data(group, coeffs)
    totals, _, _ = reference_tables(orbit_data, hom_group(group, coeffs), n)
    m = reference_orbit_type(orbit_data, totals, n, rng)
    num_gens = len(group.generators)
    perms = [list(range(n)) for _ in range(num_gens)]
    decors = [[0] * n for _ in range(num_gens)]
    points = list(range(n))
    rng.shuffle(points)
    pos = 0
    for cls, count in zip(subgroup_classes(group), m):
        act_perms = coset_action(group, cls).perms
        u_eval = reference_cocycle_table(group, coeffs, cls)
        k = cls.index
        for _ in range(count):
            block = points[pos : pos + k]
            pos += k
            u_tab = u_eval[rng.randrange(len(u_eval))]
            xs = [0] + [rng.randrange(coeffs.order) for _ in range(k - 1)]
            for gi in range(num_gens):
                act = act_perms[gi]
                for j in range(k):
                    p = block[j]
                    perms[gi][p] = block[act[j]]
                    decors[gi][p] = index_sum(coeffs, (1, xs[act[j]]), (1, u_tab[gi][j]), (-1, xs[j]))
    return WreathHom(n=n, perms=tuple(tuple(p) for p in perms), decors=tuple(tuple(d) for d in decors))


def _conjugate(group, subgroup, g):
    gi = group.inv(g)
    return frozenset(group.mul(group.mul(g, u), gi) for u in subgroup)


def reference_permutation_group(perms):
    """The table, inverses, eval_order and parent_word ``group_from_permutations``
    gives, entry by entry: BFS closure of the permutations, every product
    composed and looked up, each inverse by scanning its row, and the BFS
    words along the table."""
    gens = [tuple(p) for p in perms]
    elems = [tuple(range(len(gens[0])))]
    index = {elems[0]: 0}
    for base in elems:
        for p in gens:
            prod = compose(base, p)
            if prod not in index:
                index[prod] = len(elems)
                elems.append(prod)
    d = len(elems)
    table = tuple(tuple(index[compose(a, b)] for b in elems) for a in elems)
    inv = tuple(next(x for x in range(d) if table[a][x] == 0 and table[x][a] == 0) for a in range(d))
    generators = list(dict.fromkeys(index[p] for p in gens))
    order, parent = [0], [(-1, -1)] * d
    for x in order:
        for gi, g in enumerate(generators):
            y = table[x][g]
            if y != 0 and parent[y] == (-1, -1):
                parent[y] = (x, gi)
                order.append(y)
    return table, inv, tuple(order), tuple(parent)


def reference_is_group(table) -> bool:
    """The group axioms on a square table over 0..d-1, by brute force:
    0 is a two-sided identity, every a has some x with a x = x a = 0, and
    (a b) c = a (b c) for all d^3 triples."""
    d = len(table)
    return (
        all(table[0][a] == a == table[a][0] for a in range(d))
        and all(any(table[a][x] == 0 == table[x][a] for x in range(d)) for a in range(d))
        and all(
            table[table[a][b]][c] == table[a][table[b][c]]
            for a, b, c in itertools.product(range(d), repeat=3)
        )
    )


def reference_commutator(group, elements) -> frozenset[int]:
    """[U, U] as the closure of all |U|^2 commutators a^-1 b^-1 a b."""
    return group.subgroup_closure(
        group.mul(group.mul(group.inv(a), group.inv(b)), group.mul(a, b)) for a in elements for b in elements
    )


def reference_all_subgroups(group) -> set[frozenset[int]]:
    """All subgroups: cyclic subgroups closed under pairwise joins."""
    subs = {group.subgroup_closure([a]) for a in range(group.order)}
    while True:
        new = set()
        current = sorted(subs, key=lambda s: (len(s), sorted(s)))
        for h, k in itertools.combinations(current, 2):
            if h <= k or k <= h:
                continue
            join = group.subgroup_closure(h | k)
            if join not in subs:
                new.add(join)
        if not new:
            return subs
        subs |= new


def reference_subgroup_classes(group) -> tuple:
    """``subgroup_classes`` from the whole lattice: each class's orbit under
    every element, its normalizer counted by conjugating the representative
    by every element, classes ordered by (order, sorted elements)."""
    d = group.order
    seen = set()
    classes = []
    for sub in sorted(reference_all_subgroups(group), key=lambda s: (len(s), sorted(s))):
        if sub in seen:
            continue
        orbit = {_conjugate(group, sub, g) for g in range(d)}
        seen |= orbit
        rep = min(orbit, key=sorted)
        normalizer = sum(1 for g in range(d) if _conjugate(group, rep, g) == rep)
        classes.append(
            SubgroupClass(
                elements=tuple(sorted(rep)),
                index=d // len(rep),
                normalizer_order=normalizer,
                centralizer_order=normalizer // len(rep),
                conjugate_count=d // normalizer,
                is_full_group=len(rep) == d,
            )
        )
    classes.sort(key=lambda c: (c.order, c.elements))
    return tuple(classes)


def reference_transfer(group, cls, transversal) -> tuple[tuple[int, ...], ...]:
    """The transfer G -> U/[U,U] on every element of G, as mixed-radix vectors.

    ``transversal[j]`` must represent the coset of ``coset_action``'s point j.
    For each g and j the coset of g t_j is found by trying every t_i, so the
    coset action's permutations are not used.
    """
    canonical = coset_action(group, cls).transversal
    ab = abelianization(group, cls)
    members = set(cls.elements)
    for j, t in enumerate(transversal):
        if group.mul(group.inv(canonical[j]), t) not in members:
            raise ValueError(f"transversal element {t} does not represent coset {j}")
    inverses = [group.inv(t) for t in transversal]
    values = []
    for g in range(group.order):
        acc = zero(ab.group)
        for t in transversal:
            gt = group.mul(g, t)
            (x,) = [y for y in (group.mul(ti, gt) for ti in inverses) if y in members]
            acc = add(ab.group, acc, ab.projection[x])
        values.append(acc)
    return tuple(values)


@functools.lru_cache(maxsize=None)
def reference_cocycle_table(group, coeffs, cls) -> tuple:
    """``table[u]``: ``orbits.cocycle_row`` of u, for every u in
    ``reference_abelian_homs`` order, with u(h_j(s)) evaluated once per
    (u, s, j), and the coset of s t_j found by trying every t_i."""
    transversal = coset_action(group, cls).transversal
    ab = abelianization(group, cls)
    members = set(cls.elements)
    cocycle = []
    for s in group.generators:
        row = []
        for t in transversal:
            st = group.mul(s, t)
            (x,) = [y for y in (group.mul(group.inv(ti), st) for ti in transversal) if y in members]
            row.append(ab.projection[x])
        cocycle.append(row)
    return tuple(
        tuple(tuple(coeffs.index_of(evaluate_abelian_hom(coeffs, images, v)) for v in row) for row in cocycle)
        for images in reference_abelian_homs(ab.group, coeffs)
    )


def reference_merged_terms(orbit_data) -> dict[int, int]:
    """b_k, the sum of k w / c over the classes of orbit size k in
    ``reference_orbit_data``, each sum checked to be an integer."""
    b: dict[int, Fraction] = {}
    for od in orbit_data:
        b[od.k] = b.get(od.k, 0) + Fraction(od.k * od.weight, od.c)
    assert all(x.denominator == 1 for x in b.values())
    return {k: int(x) for k, x in sorted(b.items())}


def binary_splitting_count(b: dict[int, int], n: int, leaf: int = 32) -> int:
    """t_n of t_s = sum_k (s-1)_(k-1) b_k t_(s-k), t_0 = 1, as the first
    entry of M(n) ... M(1) e_1, where the companion matrix M(s) has first row
    (s-1)_(k-1) b_k at column k - 1 and ones below its diagonal (Haible and
    Papanikolaou 1998; Brent and Zimmermann, *Modern Computer Arithmetic*,
    section 4.9).  t_n is the first row of M(n) ... M(n/2 + 1) times the
    column M(n/2) ... M(1) e_1.  Each half splits again into a vector and a
    matrix, and each matrix is multiplied out as a balanced tree, so the
    largest products join halves of a range.  Runs of ``leaf`` steps or
    fewer are applied one M(s) at a time."""
    m = max(b)

    def stepped(lo, hi, rows):  # M(hi) ... M(lo) rows, one step at a time
        for s in range(lo, hi + 1):
            first = [(math.perm(s - 1, k - 1) * bk, rows[k - 1]) for k, bk in b.items()]
            rows = [[sum(c * row[j] for c, row in first) for j in range(len(rows[0]))]] + rows[:-1]
        return rows

    def times(x, y):  # x y, for rows x of m entries and an m-row y
        cols = list(zip(*y))
        return [[sum(a * c for a, c in zip(row, col) if a and c) for col in cols] for row in x]

    def product(lo, hi):  # M(hi) ... M(lo)
        if hi - lo < leaf:
            return stepped(lo, hi, [[int(i == j) for j in range(m)] for i in range(m)])
        mid = (lo + hi) // 2
        return times(product(mid + 1, hi), product(lo, mid))

    def first_row(lo, hi):  # of M(hi) ... M(lo)
        if hi - lo < leaf:
            return product(lo, hi)[:1]
        mid = (lo + hi) // 2
        return times(first_row(mid + 1, hi), product(lo, mid))

    def column(lo, hi):  # M(hi) ... M(lo) e_1, as m rows of one entry
        if hi - lo < leaf:
            return stepped(lo, hi, [[int(i == 0)] for i in range(m)])
        mid = (lo + hi) // 2
        return times(product(mid + 1, hi), column(lo, mid))

    return times(first_row(n // 2 + 1, n), column(1, n // 2))[0][0]


class ReferenceOrbitData(NamedTuple):
    """One class's orbit data with its whole fiber vector: ``fiber[psi]``
    counts the decorated extensions over one orbit whose fold is psi."""

    class_id: int
    k: int
    c: int
    weight: int
    fiber: tuple[int, ...]


def reference_orbit_type_data(group, coeffs, cls, homs, class_id=0) -> ReferenceOrbitData:
    """``orbit_type_data`` with the fiber of every fold value, through the
    transfer on all of G: each u in ``reference_abelian_homs`` is composed
    with it, evaluated on every element and found in Hom(G, A) by its full
    values, and counted there |A|^(k-1) times."""
    k = cls.index
    ab = abelianization(group, cls)
    ver = reference_transfer(group, cls, coset_action(group, cls).transversal)
    by_values = {v: i for i, v in enumerate(homs.elements)}
    base = coeffs.order ** (k - 1)
    fiber = [0] * homs.size
    for images in reference_abelian_homs(ab.group, coeffs):
        values = tuple(coeffs.index_of(evaluate_abelian_hom(coeffs, images, v)) for v in ver)
        fiber[by_values[values]] += base
    return ReferenceOrbitData(class_id=class_id, k=k, c=cls.centralizer_order, weight=sum(fiber), fiber=tuple(fiber))


@functools.lru_cache(maxsize=None)
def reference_orbit_data(group, coeffs) -> tuple[ReferenceOrbitData, ...]:
    """``reference_orbit_type_data`` of every subgroup class, in class order:
    the orbit data of ``reference_tables`` and the exponential formula."""
    homs = hom_group(group, coeffs)
    return tuple(
        reference_orbit_type_data(group, coeffs, cls, homs, class_id=i) for i, cls in enumerate(subgroup_classes(group))
    )


def centralizer_order(action, degree_cap: int = DEFAULT_DEGREE_CAP) -> int:
    """Order of the centralizer of the action's image in the symmetric group.

    ``action.perms`` holds the generators' permutations; a permutation
    commuting with every generator image commutes with the whole image.
    """
    k = action.degree
    if k > degree_cap:
        raise SizeCapError(f"centralizer search degree {k} exceeds cap {degree_cap}")
    return sum(
        1
        for sigma in itertools.permutations(range(k))
        if all(sigma[p[i]] == p[sigma[i]] for p in action.perms for i in range(k))
    )


def is_homomorphism(group, coeffs, v) -> bool:
    """Exhaustive check that v[g*h] = v[g] + v[h] for all pairs, v a value tuple."""
    return all(
        v[group.mul(a, b)] == index_sum(coeffs, (1, v[a]), (1, v[b]))
        for a in range(group.order)
        for b in range(group.order)
    )


class TableTarget:
    """A FiniteGroup as a homomorphism target for ``enumerate_homs``, with
    ``elements`` 0..order-1 and ``roots`` by the power of each."""

    def __init__(self, group):
        self.order = group.order
        self.elements = range(group.order)
        self.identity = group.identity
        self.mul = group.mul

    def roots(self, o: int) -> list[int]:
        """The elements x with x^o the identity."""
        return [x for x in self.elements if fn_power(self.mul, self.identity, x, o) == self.identity]

    def counts(self, o: int) -> tuple[int, int]:
        """(elements ``roots(o)`` visits, how many it lists), from its listing."""
        return self.order, len(self.roots(o))


def reference_pushed_map(group, target, images) -> tuple[tuple, int]:
    """The image of every element under the generator images, extended by a
    breadth-first walk of its own from the identity and checked on nothing,
    and the element that walk reached last."""
    img = {0: target.identity}
    frontier, last = [0], 0
    while frontier:
        nxt = []
        for x in frontier:
            for s, t in zip(group.generators, images):
                y = group.mul(x, s)
                if y not in img:
                    img[y] = target.mul(img[x], t)
                    nxt.append(y)
                    last = y
        frontier = nxt
    return tuple(img[x] for x in range(group.order)), last


def reference_hom_images(group, target, images):
    """The full map of these generator images if it is a homomorphism,
    checked on all |G|^2 products, else None."""
    full, _ = reference_pushed_map(group, target, images)
    d = group.order
    if all(target.mul(full[a], full[b]) == full[group.mul(a, b)] for a in range(d) for b in range(d)):
        return full
    return None


def reference_enumerate_homs(group, target, elements) -> set[tuple]:
    """All homomorphisms into a target listed by ``elements``, as tuples of
    generator images: every tuple of those elements, no order pruning, each
    accepted by ``reference_hom_images``."""
    return {
        images
        for images in itertools.product(elements, repeat=len(group.generators))
        if reference_hom_images(group, target, images) is not None
    }
