"""Ground truth at desk scale.

Explicit construction of A wr S_n as a list of (permutation, decorations)
pairs, the format ``sample`` emits, and exhaustive enumeration of
homomorphisms by generator images.  Everything here is a verifier for the
counting engine, not a production path.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, partial
from operator import itemgetter, xor

from .groups import AbelianGroup, FiniteGroup, SizeCapError
from .homs import hom_group
from .counting import DistributionTable

WREATH_ORDER_CAP = 10**6
TUPLE_CAP = 10**8


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
        # one index makes itemgetter return the item itself, and none is refused
        moved = itemgetter(*p2) if len(p2) > 1 else tuple
        return moved(p1), tuple(add(moved(d1), d2))

    return mul, lambda x: coeffs.total(x[1])


class ExplicitWreath:
    """A wr S_n with every element listed as a (permutation, decorations) pair.

    ``elements`` runs over permutations in lexicographic order and, within
    each, decorations (A-element indices) big-endian, so the identity comes
    first.  ``mul`` and ``fold`` are those of ``wreath_ops``.
    """

    def __init__(self, coeffs: AbelianGroup, degree: int):
        a = coeffs.order
        order = a**degree * math.factorial(degree)
        if order > WREATH_ORDER_CAP:
            raise SizeCapError(
                f"wreath product order {order} = {a}^{degree} * {degree}! exceeds cap {WREATH_ORDER_CAP}"
            )
        self.degree = degree
        self.order = order
        decors = tuple(itertools.product(range(a), repeat=degree))
        self.elements = tuple((p, d) for p in itertools.permutations(range(degree)) for d in decors)
        self.identity = self.elements[0]
        self.mul, self.fold = wreath_ops(coeffs)


def build_wreath_group(coeffs: AbelianGroup, degree: int) -> ExplicitWreath:
    return ExplicitWreath(coeffs, degree)


def _fn_power(mul, identity: int, a: int, m: int) -> int:
    x = identity
    for _ in range(m):
        x = mul(x, a)
    return x


def enumerate_homs(group: FiniteGroup, target) -> list[tuple]:
    """All homomorphisms from ``group`` into a target with ``elements``,
    ``mul``, ``identity`` and ``order``, as full maps.

    Every tuple of generator images, pruned by element order, is pushed
    along the generator words and refused at its first failing Cayley edge
    (``FiniteGroup.hom_images``).
    """
    gens = group.generators
    if target.order ** len(gens) > TUPLE_CAP:
        raise SizeCapError(
            f"search space {target.order}^{len(gens)} exceeds cap {TUPLE_CAP}"
        )
    mul, e = target.mul, target.identity
    candidates = []
    for g in gens:
        o = group.element_order(g)
        candidates.append([t for t in target.elements if _fn_power(mul, e, t, o) == e])
    homs: list[tuple] = []
    for images in itertools.product(*candidates):
        img = group.hom_images(mul, e, images)
        if img is not None:
            homs.append(tuple(img))
    return homs


def fold_indices(group: FiniteGroup, coeffs: AbelianGroup, target: ExplicitWreath, homs: list) -> list[int]:
    """The index in Hom(G, A) of each of ``homs`` folded, read on the
    generators; each generator image is folded once."""
    index_of, fold, gens = hom_group(group, coeffs).index_of, cache(target.fold), group.generators
    return [index_of([fold(img[s]) for s in gens]) for img in homs]


def oracle_delta(group: FiniteGroup, coeffs: AbelianGroup, target: ExplicitWreath, folds: list) -> DistributionTable:
    """Exact fold-value distribution of the enumerated homs, from their ``fold_indices``."""
    fibers = _fibers(hom_group(group, coeffs).size, folds)
    return DistributionTable(n=target.degree, fiber_counts=tuple(fibers))


def _fibers(h: int, folds) -> list[int]:
    """How many of ``folds`` are each index 0 .. h-1 of Hom(G, A)."""
    fibers = [0] * h
    for f in folds:
        fibers[f] += 1
    return fibers


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
    for img, f in zip(homs, folds):
        key = tuple(img[g][0] for g in group.generators)
        strata.setdefault(key, []).append(f)
    h = hom_group(group, coeffs).size
    for key, members in strata.items():
        has_fixed = any(all(p[i] == i for p in key) for i in range(target.degree))
        if not has_fixed:
            continue
        if len(set(_fibers(h, members))) != 1:
            return False
    return True
