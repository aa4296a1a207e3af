"""Exactly uniform random homomorphisms into A wr S_n.

Backward sampling on the counting recurrence picks an orbit-type multiset
with its exact stratum probability; orbits are then placed by a uniform
shuffle-and-cut and decorated through the per-orbit extension
parametrization.  All randomness flows through an injected Random
instance and integer draws, so results are exactly uniform and
reproducible per seed.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .counting import counter_for
from .groups import COEFF_ORDER_CAP, AbelianGroup, FiniteGroup, SubgroupClass, abelian_index_tables, coset_action
from .orbits import cocycle_row

# Per class, the sampler keeps the cocycle rows of the u it draws, first come,
# up to this many row entries (generators x orbit size per row); past it a
# drawn u's row is built for that orbit only.  A class whose every row fits
# stays fully cached; one whose Hom(U, A) is far larger than the draws holds
# a bounded sample of rows, so ``--samples`` does not grow memory.
ROW_CACHE_ENTRIES = 2**14


class WreathHom(NamedTuple):
    """A homomorphism G -> A wr S_n stored as generator images.

    Per generator: a permutation of 0..n-1 and a length-n vector of
    A-element indices.  The full map on G is derived on demand.
    """

    n: int
    perms: tuple[tuple[int, ...], ...]
    decors: tuple[tuple[int, ...], ...]

    def to_json(self) -> str:
        """The row as JSON line text: the bytes ``json.dumps`` writes for
        {"perm": perms, "decor": decors}, joined from a table of decimal
        strings that covers every entry: a point is below n, and an A-index
        below |A| <= ``COEFF_ORDER_CAP``."""
        names = _decimals(max(self.n, COEFF_ORDER_CAP))

        def vector(v) -> str:
            # one index makes itemgetter return a bare item, and none is refused
            return "[" + ", ".join(itemgetter(*v)(names) if len(v) > 1 else [names[i] for i in v]) + "]"

        perm, decor = ", ".join(map(vector, self.perms)), ", ".join(map(vector, self.decors))
        return '{"perm": [' + perm + '], "decor": [' + decor + "]}"


@lru_cache(maxsize=1)
def _decimals(size: int) -> tuple[str, ...]:
    return tuple(map(str, range(size)))


class _ClassAssembly(NamedTuple):
    """Per-class data for decorating one orbit."""

    cls: SubgroupClass
    k: int
    # gen_points[gen][j]: the coset point that generator gen sends j to
    gen_points: tuple[tuple[int, ...], ...]
    # |Hom(U, A)|, the range of each orbit's draw of u
    u_count: int
    # rows[u][gen][j]: A-index of u applied to the coset cocycle at (gen, j),
    # the ``cocycle_row`` of u, kept from u's first draw while the rows'
    # entries stay within ``ROW_CACHE_ENTRIES``
    rows: dict[int, tuple[tuple[int, ...], ...]]


@lru_cache(maxsize=None)
def _assemblies(group: FiniteGroup, coeffs: AbelianGroup) -> tuple[_ClassAssembly, ...]:
    counter = counter_for(group, coeffs)
    return tuple(  # an orbit's weight is |A|^(k-1) |Hom(U, A)|
        _ClassAssembly(cls, od.k, coset_action(group, cls).perms, od.weight // coeffs.order ** (od.k - 1), {})
        for cls, od in zip(counter.classes, counter.orbit_data)
    )


def sample_orbit_type(
    group: FiniteGroup, coeffs: AbelianGroup, n: int, rng: random.Random
) -> tuple[int, ...]:
    """Orbit-type multiset (m_1..m_l) with its exact stratum probability.

    Backward walk on the counting table: at size s, class i is chosen with
    probability k_i (s-1)_(k_i-1) (w_i / c_i) t_(s-k_i) / t_s, realized by
    one integer draw over the counter's common denominator, the draw that
    ``rng.randrange`` would make.  ``WreathHomCounter.choose_class`` turns
    it into a class, from its top bits where they suffice; the walk tables
    it reads are built once per counter and s, by ``extend_to`` with ``walk``.
    """
    counter = counter_for(group, coeffs)
    if len(counter.walk_bits) <= n:
        counter.extend_to(n, walk=True)
    bits, getrandbits = counter.walk_bits, rng.getrandbits
    sizes = [od.k for od in counter.orbit_data]
    m = [0] * len(sizes)
    s = n
    while s > 0:
        # _randbelow(L t_s): redraw as many bits until they fall below L t_s
        k = bits[s]
        i = counter.choose_class(s, getrandbits(k))
        while i is None:
            i = counter.choose_class(s, getrandbits(k))
        m[i] += 1
        s -= sizes[i]
    return tuple(m)


def sample_hom(
    group: FiniteGroup, coeffs: AbelianGroup, n: int, rng: random.Random
) -> WreathHom:
    """One uniform draw from Hom(G, A wr S_n).

    Samples a stratum, shuffles points into typed orbit blocks, then per
    orbit draws u in Hom(U, A) and free decorations x and assembles the
    coordinates x[g.j] + u(cocycle) - x[j].  The draws are those of
    ``rng.shuffle`` and ``rng.randrange``, made on ``rng.getrandbits`` by
    CPython's rejection loop, in the same order.

    The blocks are consecutive positions of the shuffled list.  Per class,
    the decorations of all its orbits form one flat list, negated once.
    Per generator, one strided slice per coset lists each point's image,
    and its decoration, in position order, and one comprehension over three
    flat lists forms the coordinates; a gather by the inverse of ``points``
    puts them in point order.
    """
    m = sample_orbit_type(group, coeffs, n, rng)
    assemblies = _assemblies(group, coeffs)
    add, neg = abelian_index_tables(coeffs)
    getrandbits = rng.getrandbits
    num_gens = len(group.generators)
    # rng.shuffle(points): the same swaps, each index drawn by _randbelow(i + 1),
    # in runs of i whose i + 1 has the same bit length k
    points = list(range(n))
    for k in range(n.bit_length(), 1, -1):
        for i in range(min(n, (1 << k) - 1) - 1, (1 << (k - 1)) - 2, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            points[i], points[j] = points[j], points[i]
    # per generator, in position order: each point's image and coordinate
    images: list[list[int]] = [[] for _ in range(num_gens)]
    coords: list[list[int]] = [[] for _ in range(num_gens)]
    a_order = coeffs.order
    a_bits = a_order.bit_length()
    pos = 0
    for asm, count in zip(assemblies, m):
        if not count:
            continue
        k = asm.k
        span = points[pos : pos + count * k]  # the class's blocks, one after another
        pos += count * k
        # per orbit, in this order: u, then the k - 1 free decorations, which
        # go into one flat list aligned with span, 0 at each block's first slot
        u_tabs, xs = [], []
        rows, u_count = asm.rows, asm.u_count
        u_bits = u_count.bit_length()
        for _ in range(count):
            u = getrandbits(u_bits)  # _randbelow(u_count), written out
            while u >= u_count:
                u = getrandbits(u_bits)
            row = rows.get(u)
            if row is None:
                row = cocycle_row(group, coeffs, asm.cls, u)
                if (len(rows) + 1) * num_gens * k <= ROW_CACHE_ENTRIES:
                    rows[u] = row
            u_tabs.append(row)
            xs.append(0)
            for _ in range(k - 1):
                x = getrandbits(a_bits)  # _randbelow(a_order)
                while x >= a_order:
                    x = getrandbits(a_bits)
                xs.append(x)
        negs = [neg[x] for x in xs]
        for gi, act in enumerate(asm.gen_points):
            image, moved = span[:], xs[:]
            for a, b in enumerate(act):  # slot a of every block gets that block's slot act[a]
                image[a::k] = span[b::k]
                moved[a::k] = xs[b::k]
            images[gi] += image
            # x[act[a]] + u(cocycle at a) - x[a], the cocycle column of every orbit's u in turn
            column = chain.from_iterable(map(itemgetter(gi), u_tabs))
            coords[gi] += [add[add[p][c]][q] for p, c, q in zip(moved, column, negs)]
    where = [0] * n
    for q, p in enumerate(points):
        where[p] = q
    # one index makes itemgetter return the item itself, and none is refused
    gather = itemgetter(*where) if n > 1 else tuple
    return WreathHom(n=n, perms=tuple(map(gather, images)), decors=tuple(map(gather, coords)))


def wreath_ops(coeffs: AbelianGroup):
    """(mul, fold) on elements of A wr S_n held as (permutation, decorations)
    pairs, with decorations as A-element indices, the format of ``WreathHom``.

    ``mul`` permutes the left factor's decorations by the right factor's
    permutation; ``fold`` sums the decorations, a homomorphism onto A.
    """
    add, _ = abelian_index_tables(coeffs)

    def mul(x, y):
        p1, d1 = x
        p2, d2 = y
        return tuple([p1[i] for i in p2]), tuple([add[d1[i]][b] for i, b in zip(p2, d2)])

    def fold(x) -> int:
        acc = 0
        for digit in x[1]:
            acc = add[acc][digit]
        return acc

    return mul, fold


def verify_wreath_hom(group: FiniteGroup, coeffs: AbelianGroup, hom: WreathHom) -> bool:
    """Check the generator images satisfy every relation of the group, by
    the Cayley edges of ``FiniteGroup.hom_images``."""
    mul, _ = wreath_ops(coeffs)
    identity = (tuple(range(hom.n)), (0,) * hom.n)
    return group.hom_images(mul, identity, list(zip(hom.perms, hom.decors))) is not None
