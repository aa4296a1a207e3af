"""Ground truth at desk scale.

Explicit construction of A wr S_n as a list of (permutation, decorations)
pairs, the format ``sample`` emits, and exhaustive enumeration of
homomorphisms by generator images.  Everything here is a verifier for the
counting engine, not a production path.
"""

from __future__ import annotations

import itertools
import math

from .groups import AbelianGroup, FiniteGroup, SizeCapError
from .homs import HomGroup, hom_group
from .counting import DistributionTable
from .sampling import wreath_ops

WREATH_ORDER_CAP = 10**6
TUPLE_CAP = 10**8


class ExplicitWreath:
    """A wr S_n with every element listed as a (permutation, decorations) pair.

    ``elements`` runs over permutations in lexicographic order and, within
    each, decorations (A-element indices) big-endian, so the identity comes
    first.  ``mul`` and ``fold`` are those of ``sampling.wreath_ops``.
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

    Every tuple of generator images, pruned by element order, is pushed to
    a full map and accepted by its Cayley edges (``FiniteGroup.hom_images``).
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


def oracle_delta(
    group: FiniteGroup, coeffs: AbelianGroup, target: ExplicitWreath, homs: list
) -> DistributionTable:
    """Exact fold-value distribution of the enumerated ``homs`` into ``target``."""
    fibers = _fold_fibers(group, hom_group(group, coeffs), target, homs)
    return DistributionTable(n=target.degree, fiber_counts=fibers)


def _fold_fibers(group: FiniteGroup, hg: HomGroup, target: ExplicitWreath, homs) -> tuple[int, ...]:
    """How many of ``homs`` have each fold value, in the order of ``hg``, Hom(G, A)."""
    fibers = [0] * hg.size
    for img in homs:
        fibers[hg.index_of([target.fold(img[s]) for s in group.generators])] += 1
    return tuple(fibers)


def fixed_point_strata_uniform(
    group: FiniteGroup, coeffs: AbelianGroup, target: ExplicitWreath, homs: list
) -> bool:
    """Whether every fixed-point stratum has exactly equal fold fibers.

    Homomorphisms are stratified by their active part; a stratum counts as
    fixed-point if some point is fixed by every generator image.  Within
    such a stratum the fold values must hit each element of Hom(G, A)
    equally often.  Each member of such a stratum is folded once, and
    Hom(G, A) is looked up once per call.
    """
    strata: dict[tuple, list] = {}
    for img in homs:
        key = tuple(img[g][0] for g in group.generators)
        strata.setdefault(key, []).append(img)
    hg = hom_group(group, coeffs)
    for key, members in strata.items():
        has_fixed = any(all(p[i] == i for p in key) for i in range(target.degree))
        if not has_fixed:
            continue
        if len(set(_fold_fibers(group, hg, target, members))) != 1:
            return False
    return True

