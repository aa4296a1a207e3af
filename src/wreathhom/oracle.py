"""Ground truth at desk scale.

A wr S_n on (permutation, decorations) pairs, the format ``sample`` emits,
with the elements of each order listed by their cycles, and exhaustive
enumeration of homomorphisms, each kept as its generator images and
accepted by its Cayley edges.  Everything here is a verifier for the
counting engine, not a production path.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import cache, partial
from operator import xor
from typing import Optional, Sequence

from .groups import AbelianGroup, FiniteGroup, SizeCapError, gather
from .homs import hom_group
from .counting import DistributionTable

ORACLE_CAP = 2 * 10**6


def wreath_ops(coeffs: AbelianGroup):
    """(mul, fold) on elements of A wr S_n held as (permutation, decorations)
    pairs, with decorations as A-element indices, the format of ``WreathHom``.

    ``mul`` permutes the left factor's decorations by the right factor's
    permutation and adds them to the right factor's, as ``add_sub`` would;
    for A = C2^r, whose indices add by exclusive or, with one ``map``.
    ``fold`` sums the decorations, a homomorphism onto A.
    """
    if set(coeffs.invariant_factors) <= {2}:
        add = partial(map, xor)
    else:
        def add(d1, d2):
            return coeffs.add_sub(d1, d2, (0,) * len(d2))

    def mul(x, y):
        p1, d1 = x
        p2, d2 = y
        moved = gather(p2)
        return moved(p1), tuple(add(moved(d1), d2))

    return mul, lambda x: coeffs.total(x[1])


def _egf_count(m: int, o: int, weight) -> int:
    """m! [x^m] exp(sum over l | o of weight(l) x^l / l) by f_s = sum over l
    of (s-1)!/(s-l)! weight(l) f_(s-l), or the first f_s past ORACLE_CAP:
    with weight(1) >= 1, no f_s is below the one before."""
    f = [1]
    while len(f) <= m and f[-1] <= ORACLE_CAP:
        s = len(f)
        f.append(sum(math.perm(s - 1, l - 1) * weight(l) * f[s - l] for l in range(1, min(o, s) + 1) if o % l == 0))
    return f[-1]


class ExplicitWreath:
    """A wr S_n on (permutation, decorations) pairs, with ``wreath_ops``."""

    def __init__(self, coeffs: AbelianGroup, degree: int):
        self.coeffs, self.degree, self.order = coeffs, degree, coeffs.order**degree * math.factorial(degree)
        self.identity = (tuple(range(degree)), (0,) * degree)
        self.mul, self.fold = wreath_ops(coeffs)

    def roots(self, o: int) -> list[tuple]:
        """The elements x with x^o the identity: permutations in lexicographic
        order and, within each, decorations (A-element indices) big-endian.
        (p, d)^o is the identity iff every cycle length l of p divides o and,
        on each cycle, o/l times the sum of its decorations is 0 in A."""
        found, total, n = [], self.coeffs.total, self.degree
        for p in itertools.permutations(range(n)):
            cycles = {frozenset(itertools.accumulate(p, lambda j, _: p[j], initial=i)) for i in p}
            if all(o % len(c) == 0 for c in cycles):
                decors = itertools.product(range(self.coeffs.order), repeat=n)
                found += [(p, d) for d in decors if all(total([d[i] for i in c] * (o // len(c))) == 0 for c in cycles)]
        return found

    def counts(self, o: int) -> tuple[int, int]:
        """(elements ``roots(o)`` visits, how many it lists), each exact or past
        ORACLE_CAP: n! permutations, plus |A|^n decorations for each whose cycle
        lengths l all divide o; a cycle weighs 1 as a permutation and
        |A|^(l-1) |A[o/l]| as a root, |A[m]| being the product of gcd(m, e_i)."""
        a, n, factors = self.coeffs.order, self.degree, self.coeffs.invariant_factors
        roots = _egf_count(n, o, lambda l: a ** (l - 1) * math.prod(math.gcd(o // l, e) for e in factors))
        return math.factorial(n) + a**n * _egf_count(n, o, lambda l: 1), roots


def build_wreath_group(coeffs: AbelianGroup, degree: int) -> ExplicitWreath:
    return ExplicitWreath(coeffs, degree)


def _hom_plan(group: FiniteGroup) -> tuple[list, list]:
    """``hom_images``' schedule: the generator elements with their generator
    index, then blocks (edges, pushes).  The edges (x, x s, index of s) are
    the Cayley edges off the tree of the generator words, whose own edges
    hold for any pushed map; each sits in the first block at which both of
    its ends have images.  The pushes (x, parent, index of s), x = parent s,
    follow eval order."""
    generators, pushes, ready = [], [], [0] * group.order  # ready[x]: the pushes until x has its image
    for x in group.eval_order[1:]:
        parent, gi = group.parent_word[x]
        if parent:
            pushes.append((x, parent, gi))
            ready[x] = len(pushes)
        else:  # the words start at 0, so x is the generator itself
            generators.append((x, gi))
    edges_at: list[list[tuple[int, int, int]]] = [[] for _ in range(len(pushes) + 1)]
    for x, row in enumerate(group.mul_table):
        for gi, s in enumerate(group.generators):
            if group.parent_word[row[s]] != (x, gi):
                edges_at[max(ready[x], ready[row[s]])].append((x, row[s], gi))
    blocks: list[tuple[list, list]] = []
    for i, edges in enumerate(edges_at):
        if edges or not blocks:
            blocks.append((edges, []))
        blocks[-1][1].extend(pushes[i : i + 1])
    return generators, blocks


def hom_images(group: FiniteGroup, mul, identity, gen_images: Sequence) -> Optional[list]:
    """Images of all elements of the group under the map with these generator
    images, pushed along the generator words, or None if it is not a
    homomorphism.  It is one iff every Cayley edge x -> x s goes to right
    multiplication by the image of s (induction on word length); only the edges
    off the words' tree need checking, fewer than |G| |S| products, not |G|^2.
    Each is checked as soon as both of its ends have images, so a tuple that
    fails stops there.  The generators' images are taken as given."""
    return _pushed(_hom_plan(group), group.order, mul, identity, gen_images)


def _pushed(plan: tuple[list, list], order: int, mul, identity, gen_images: Sequence) -> Optional[list]:
    generators, blocks = plan
    img = [identity] * order
    for x, gi in generators:
        img[x] = gen_images[gi]
    for edges, pushes in blocks:
        for x, y, gi in edges:
            if img[y] != mul(img[x], gen_images[gi]):
                return None
        for x, parent, gi in pushes:
            img[x] = mul(img[parent], gen_images[gi])
    return img


def enumerate_homs(group: FiniteGroup, target) -> list[tuple]:
    """All homomorphisms from ``group`` into a target with ``roots``,
    ``counts``, ``mul`` and ``identity``, each as its tuple of generator
    images in ``group.generators`` order: for a wreath target, the
    (permutation, decorations) pairs of a ``WreathHom``.

    Every tuple of generator images, each a root of its generator's order,
    is pushed along the generator words and refused at its first failing
    Cayley edge (``hom_images``); no full map is kept.  Refused before any
    root is listed past ORACLE_CAP elements visited plus tuples tried.
    """
    orders = [group.element_order(g) for g in group.generators]
    counts = {o: target.counts(o) for o in orders}
    if sum(visited for visited, _ in counts.values()) + math.prod(counts[o][1] for o in orders) > ORACLE_CAP:
        raise SizeCapError(f"oracle work (elements visited for roots, plus tuples of them) exceeds cap {ORACLE_CAP}")
    roots = {o: target.roots(o) for o in counts}
    plan, order, mul, e = _hom_plan(group), group.order, target.mul, target.identity
    candidates = itertools.product(*(roots[o] for o in orders))
    return [images for images in candidates if _pushed(plan, order, mul, e, images) is not None]


def fold_indices(group: FiniteGroup, coeffs: AbelianGroup, target: ExplicitWreath, homs: list) -> list[int]:
    """The index in Hom(G, A) of each of ``homs`` folded, read on its
    generator images; each distinct image is folded once."""
    index_of, fold = hom_group(group, coeffs).index_of, cache(target.fold)
    return [index_of(tuple(map(fold, images))) for images in homs]


def oracle_delta(group: FiniteGroup, coeffs: AbelianGroup, target: ExplicitWreath, folds: list) -> DistributionTable:
    """Exact fold-value distribution of the enumerated homs, from their ``fold_indices``."""
    return DistributionTable(n=target.degree, fiber_counts=tuple(_fibers(hom_group(group, coeffs).size, folds)))


def _fibers(h: int, folds) -> list[int]:
    """How many of ``folds`` are each index 0 .. h-1 of Hom(G, A)."""
    return list(map(Counter(folds).__getitem__, range(h)))


def fixed_point_strata_uniform(
    group: FiniteGroup, coeffs: AbelianGroup, target: ExplicitWreath, homs: list, folds: list
) -> bool:
    """Whether every fixed-point stratum has exactly equal fold fibers.

    Homomorphisms are stratified by their active part; a stratum counts as
    fixed-point if some point is fixed by every generator image.  Within
    such a stratum the fold values, the ``fold_indices`` of its members,
    must hit each element of Hom(G, A) equally often.
    """
    strata: dict[tuple, list[int]] = {}
    for images, f in zip(homs, folds):
        strata.setdefault(tuple(p for p, _ in images), []).append(f)
    h = hom_group(group, coeffs).size
    return all(
        len(set(_fibers(h, members))) == 1
        for key, members in strata.items()
        if any(all(p[i] == i for p in key) for i in range(target.degree))
    )
