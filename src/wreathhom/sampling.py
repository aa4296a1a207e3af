"""Exactly uniform random homomorphisms into A wr S_n.

Backward sampling on the counting recurrence picks an orbit-type multiset
with its exact stratum probability; orbits are then placed by a uniform
shuffle-and-cut and decorated through the per-orbit extension
parametrization.  All randomness flows through an injected Random
instance and integer draws, so results are exactly uniform and
reproducible per seed.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from functools import lru_cache
from itertools import accumulate, chain
from operator import itemgetter
from typing import NamedTuple

from .counting import WreathHomCounter, counter_for
from .groups import COEFF_ORDER_CAP, AbelianGroup, FiniteGroup, InvariantError, coset_action, gather
from .orbits import cocycle_row

# How far, in units of the top 64 bits, a draw must sit from an estimated
# class bound before ``BackwardWalk.choose_class`` trusts the estimate; see there.
WALK_SLACK = 3
# The walk tables also hold L t_s modulo this prime, stepped from the earlier
# residues with no remainder of L t_s, so the exact scan checks them in every
# bit, not only the top 64; below 2^30, each residue is one CPython digit.
WALK_PRIME = 2**30 - 35
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
            return "[" + ", ".join(gather(v)(names)) + "]"

        perm, decor = ", ".join(map(vector, self.perms)), ", ".join(map(vector, self.decors))
        return '{"perm": [' + perm + '], "decor": [' + decor + "]}"


@lru_cache(maxsize=1)
def _decimals(size: int) -> tuple[str, ...]:
    return tuple(map(str, range(size)))


class BackwardWalk:
    """The backward walk's tables for one counter, extended on demand, and
    per class what ``sample_hom`` reads to decorate its orbits.

    The walk keeps no t_s, only a few machine words per s about L t_s,
    where L = lcm(c_i) is the draw denominator.  They grow by the counter's
    ``_scalar_step`` on its merged terms, apart from its cursor; the exact
    scan (``weights``) checks them against the class terms' step on totals
    it steps itself.
    """

    def __init__(self, counter: WreathHomCounter):
        self.counter = counter
        self.scale = math.lcm(*(od.c for od in counter.orbit_data))
        self.runs = counter.runs  # the class terms by orbit size, for choose_class
        group, coeffs = counter.group, counter.coeffs
        # Per class, in class order, what decorating one of its orbits reads:
        # (k, gen_points, u_count, rows, cls).  gen_points[gen][j] is the coset
        # point that generator gen sends j to; u_count is |Hom(U, A)|, the range
        # of each orbit's draw of u, as an orbit's weight is |A|^(k-1) |Hom(U, A)|;
        # rows[u][gen][j] is the ``cocycle_row`` of u, kept from u's first draw
        # while the rows' entries stay within ``ROW_CACHE_ENTRIES``.
        self.classes = [
            (od.k, coset_action(group, cls).perms, od.weight // coeffs.order ** (od.k - 1), {}, cls)
            for cls, od in zip(counter.classes, counter.orbit_data)
        ]
        # Per s the walk has reached: the bit length of L t_s, its residue
        # modulo WALK_PRIME, the shift that leaves 64 of its bits, and at
        # [s * runs + g] the cumulative weight through run g, shifted by it.
        self.bits = array("Q", [self.scale.bit_length()])
        self.residues = array("Q", [self.scale % WALK_PRIME])
        self.shifts = array("Q", [0])
        self.tops = array("Q", [0] * len(self.runs))
        # the walk's own window, of L t_s up to the last s in its tables
        self.window = deque([self.scale], maxlen=counter.group.order)

    def extend_to(self, n: int) -> None:
        """Extend the tables to n by the merged terms' step on the walk's
        window, seeded with L so that its sum ends at L t_s, and on the residues."""
        step, terms = self.counter._scalar_step, self.counter._total_terms
        window, residues, tops = self.window, self.residues, self.tops
        while (s := len(self.bits)) <= n:
            bounds = list(accumulate(step(terms, window, s)))
            bits = bounds[-1].bit_length()
            shift = max(0, bits - 64)
            self.bits.append(bits)
            self.shifts.append(shift)
            tops.extend([b >> shift for b in bounds])
            residues.append(sum(step(terms, residues, s)) % WALK_PRIME)
            window.append(bounds[-1])

    def weights(self, s: int) -> list[int]:
        """Per-class weights at size s, in class order: L times the products
        (s-1)_(k-1) b_i t_(s-k) of ``_scalar_step`` over the class terms, on
        t_(s-|G|) .. t_(s-1), stepped from t_0 in a window of the scan's own,
        so the counter's cursor stays where it is.  Their sum, L t_s, must
        have the top bits and the residue the tables hold for s."""
        counter = self.counter
        step, terms = counter._scalar_step, counter._total_terms
        prev = deque([1], maxlen=counter.group.order)
        for j in range(1, s):
            prev.append(sum(step(terms, prev, j)))
        weights = [self.scale * w for w in step(counter._class_terms, prev, s)]
        total = sum(weights)
        if (total % WALK_PRIME != self.residues[s]
                or total >> self.shifts[s] != self.tops[(s + 1) * len(self.runs) - 1]):
            raise InvariantError(f"stratum weights do not sum to the count at n={s}")
        return weights

    def choose_class(self, s: int, r: int) -> int | None:
        """The class whose stratum holds r at size s: the first i with
        r < w_0 + ... + w_i over ``weights(s)``, or None when r is at least
        their sum L t_s.  The walk draws r below 2 ** ``bits[s]`` until it
        gets a class.  The tables must already reach s (``extend_to``).

        Decided from r's top bits where they suffice.  A bisection over the
        run tops picks the orbit size; inside the run, every class weight
        carries the same factor L (s-1)_(k-1) t_(s-k), so a class bound is
        the run's lower bound plus the run's weight times P / A, where P is
        the prefix sum of the class terms before it and A the run's sum.
        At shift 0 the tops are exact, and so is each estimate, as the run's
        weight is A times that factor: the draw needs no slack.

        Why a slack of 3 is safe.  Put D = 2^shift, and let B' < B be the
        run's cumulative bounds, so lo = B' >> shift and hi = B >> shift
        are exact.  A class bound C = B' + (B - B') P / A is estimated as
        E = lo + (hi - lo) P // A.  As lo > B'/D - 1 and hi > B/D - 1,
        E > C/D - 2, and E <= C/D: so E is C >> shift or one less.  Then
        r >> shift >= E + 2 gives r >= ((C >> shift) + 1) D > C, and
        r >> shift < E gives r < (C >> shift) D <= C.  A draw at a nonzero
        shift whose top bits are not at least 3 above its class's lower
        estimate and 3 below its upper one takes the exact scan of
        ``weights`` instead.
        """
        top = r >> (shift := self.shifts[s])
        tops = self.tops
        base = s * len(self.runs)
        end = base + len(self.runs)
        last = tops[end - 1]  # L t_s >> shift
        if top >= last:
            if top > last or not shift:
                return None  # r >= top D >= ((L t_s >> shift) + 1) D > L t_s, or r = top >= L t_s
        else:
            g = bisect_right(tops, top, base, end)  # r's run is g - base
            lo = tops[g - 1] if g > base else 0
            hi = tops[g]  # > lo, as lo <= top < hi
            start, prefix = self.runs[g - base]
            if len(prefix) == 2:  # one class: its bounds are the run's
                if lo + WALK_SLACK <= top <= hi - WALK_SLACK or not shift:
                    return start
            else:
                width, a = hi - lo, prefix[-1]
                # the last class j with lo + width * prefix[j] // a <= top
                j = bisect_left(prefix, -(-(top - lo + 1) * a // width)) - 1
                if (lo + width * prefix[j] // a + WALK_SLACK <= top <= lo + width * prefix[j + 1] // a - WALK_SLACK
                        or not shift):
                    return start + j
        bounds = list(accumulate(self.weights(s)))
        i = bisect_right(bounds, r)
        return i if i < len(bounds) else None  # None: r >= L t_s, the weights' sum


# one walk per counter, built on its first draw and kept, as ``counter_for`` keeps the counter
_walk_of = lru_cache(maxsize=None)(BackwardWalk)


def sample_orbit_type(
    group: FiniteGroup, coeffs: AbelianGroup, n: int, rng: random.Random
) -> tuple[int, ...]:
    """Orbit-type multiset (m_1..m_l) with its exact stratum probability.

    Backward walk on the counting table: at size s, class i is chosen with
    probability k_i (s-1)_(k_i-1) (w_i / c_i) t_(s-k_i) / t_s, realized by
    one integer draw over the counter's common denominator L, the draw that
    ``rng.randrange`` would make.  ``BackwardWalk.choose_class`` turns it
    into a class, from its top bits where they suffice; the ``BackwardWalk``
    it reads is built once per counter, and its tables once per s.
    """
    walk = _walk_of(counter_for(group, coeffs))
    walk.extend_to(n)
    bits, choose_class, getrandbits = walk.bits, walk.choose_class, rng.getrandbits
    sizes = [k for k, *_ in walk.classes]
    m = [0] * len(sizes)
    s = n
    while s > 0:
        # _randbelow(L t_s): redraw as many bits until they fall below L t_s
        k = bits[s]
        i = choose_class(s, getrandbits(k))
        while i is None:
            i = choose_class(s, getrandbits(k))
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
    the decorations of all its orbits form one flat list.  Per generator,
    one strided slice per coset lists each point's image, and its
    decoration, in position order; ``AbelianGroup.add_sub`` adds the chained
    cocycle column and subtracts the decorations (one comprehension for a
    cyclic A), and a gather by the inverse of ``points`` orders them by point.
    """
    m = sample_orbit_type(group, coeffs, n, rng)
    walk = _walk_of(counter_for(group, coeffs))
    add_sub = coeffs.add_sub
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
    for (k, gen_points, u_count, rows, cls), count in zip(walk.classes, m):
        if not count:
            continue
        span = points[pos : pos + count * k]  # the class's blocks, one after another
        pos += count * k
        # per orbit, in this order: u, then the k - 1 free decorations, which
        # go into one flat list aligned with span, 0 at each block's first slot
        u_tabs, xs = [], []
        u_bits = u_count.bit_length()
        for _ in range(count):
            u = getrandbits(u_bits)  # _randbelow(u_count), written out
            while u >= u_count:
                u = getrandbits(u_bits)
            row = rows.get(u)
            if row is None:
                row = cocycle_row(group, coeffs, cls, u)
                if (len(rows) + 1) * num_gens * k <= ROW_CACHE_ENTRIES:
                    rows[u] = row
            u_tabs.append(row)
            xs.append(0)
            for _ in range(k - 1):
                x = getrandbits(a_bits)  # _randbelow(a_order)
                while x >= a_order:
                    x = getrandbits(a_bits)
                xs.append(x)
        for gi, act in enumerate(gen_points):
            image, moved = span[:], xs[:]
            for a, b in enumerate(act):  # slot a of every block gets that block's slot act[a]
                image[a::k] = span[b::k]
                moved[a::k] = xs[b::k]
            images[gi] += image
            # x[act[a]] + u(cocycle at a) - x[a], the cocycle column of every orbit's u in turn
            coords[gi] += add_sub(moved, chain.from_iterable(map(itemgetter(gi), u_tabs)), xs)
    where = [0] * n
    for q, p in enumerate(points):
        where[p] = q
    by_point = gather(where)
    return WreathHom(n=n, perms=tuple(map(by_point, images)), decors=tuple(map(by_point, coords)))


def verify_wreath_hom(group: FiniteGroup, coeffs: AbelianGroup, hom: WreathHom) -> bool:
    """Whether ``hom`` holds, per generator, n points of 0..n-1 and n
    A-element indices, and these images satisfy every relation of the group,
    by the Cayley edges of ``oracle.hom_images``; a map of the points that
    is not a permutation has no power equal to the identity, so it fails."""
    from .oracle import hom_images, wreath_ops

    points, indices = range(hom.n), range(coeffs.order)
    shaped = len(hom.perms) == len(hom.decors) == len(group.generators) and all(
        len(p) == len(d) == hom.n and all(i in points for i in p) and all(x in indices for x in d)
        for p, d in zip(hom.perms, hom.decors)
    )
    if not shaped:
        return False
    mul, _ = wreath_ops(coeffs)
    identity = (tuple(points), (0,) * hom.n)
    return hom_images(group, mul, identity, list(zip(hom.perms, hom.decors))) is not None
