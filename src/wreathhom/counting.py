"""Exact counting of homomorphisms into wreath products A wr S_n.

Two independent evaluations of the stratified orbit-type sum: direct
enumeration of weighted compositions, and a linear recurrence obtained as
the log-derivative of exp(sum_k a_k x^k), with the classes merged by orbit
size k.  Its coefficients b_k = k a_k are integers, since each class's
c_i = |N_G(U_i)/U_i| divides k_i = [G:U_i], so a step multiplies and adds
and divides by nothing.  Without the k = 1 term it gives the
fixed-point-free counts.  The same recurrence, with one integer term
vector per element of the lattice of fold subgroups of H = Hom(G, A),
inverted by Moebius inversion over that lattice, yields the exact
fold-value distribution; its trivial fold class counts the homomorphisms
with trivial fold (type-D Weyl groups for A = C2).
"""

from __future__ import annotations

import math
from collections import deque
from functools import cached_property, lru_cache
from operator import add, sub
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .groups import (
    AbelianGroup,
    FiniteGroup,
    InvariantError,
    SizeCapError,
    subgroup_classes,
)
from .homs import HomGroup, hom_group
from .orbits import OrbitTypeData, orbit_type_data

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_RECURRENCE_CAP = 10**5
DIRECT_CAP = 60


class _DistributionTableFields(NamedTuple):
    n: int
    fiber_counts: tuple[int, ...]


class DistributionTable(_DistributionTableFields):
    """Exact fold-value distribution at one n: the homomorphism count per
    fold value, indexed by HomGroup order."""

    __slots__ = ()

    def __new__(cls, n: int, fiber_counts: tuple[int, ...]) -> DistributionTable:
        self = super().__new__(cls, n, fiber_counts)
        if self.total <= 0 or any(f < 0 for f in self.fiber_counts):
            raise InvariantError(f"fold probabilities at n={self.n} are not a distribution")
        return self

    @property
    def total(self) -> int:
        return sum(self.fiber_counts)


class DecayConstant(NamedTuple):
    """Exponential decay rate for the fixed-point-free probability.

    ``reference_value`` is the real constant 1/(e * d * l * |A| * max|Hom(U,A)|);
    ``conservative`` is the strictly smaller rational obtained by replacing
    e with 3, safe for exact comparisons.
    """

    conservative: Fraction
    reference_value: float


class FiberLattice(NamedTuple):
    """The fiber recurrence of Z[H], H = Hom(G, A), run as integer sequences
    over the lattice of fold subgroups.

    Class i's fold map u -> u o V (V the transfer) is a homomorphism into
    H, so its fiber is uniform on the image K_i.  A character chi of H sees
    the class whole or not at all, so its part of the recurrence is the
    kernel's sequence T_L whose terms sum the b_i = (k_i // c_i) w_i of the
    K_i inside L, the largest sum of K_i's that chi kills.  These sums form
    a lattice from 0 (U = 1) to H (U = G).  The chi that kill L sum to
    (h / |L|) [psi in L], so Moebius inversion from the top down,
    e_L = (h / |L|) 1_L - sum over L' > L of e_L', gives
    h F_n(psi) = sum_L T_L(n) e_L(psi); e_L(0) counts the chi whose largest
    killed element is L.  T_H is the totals, and every other T_L lacks the
    U = G class, so 0 <= T_L(n) <= free(n), the paper's bound.  An L with
    e_L = 0 runs nothing; elements with equal terms share one sequence.

    ``subgroups``: the lattice, largest first.  ``seqs``: per sequence
    beyond the totals, its terms (k, w_k), w_k != 0.  ``classes``: per
    class of fold values with equal fibers at every n, the coefficients of
    (t_n, y_1, y_2, ...) that sum to h F(psi).  ``class_of[psi]``: psi's class.
    """

    subgroups: tuple[frozenset[int], ...]
    seqs: tuple[tuple[tuple[int, int], ...], ...]
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]


class WreathHomCounter:
    """Shared exact tables for one (G, A) pair, extended on demand.

    The totals t_n = |Hom(G, A wr S_n)|, the fixed-point-free counts
    (homomorphisms whose active permutation image has no fixed point) and
    the fibers (totals refined by fold value) are each n! [x^n] of
    exp(sum_k a_k x^k), where a_k sums w_i / c_i over the classes of orbit
    size k (for the fibers, in the group algebra of H, spread evenly over
    the fold subgroup K_i).  The constructor checks once per class
    that c_i divides k_i, so the merged b_k = k a_k sum the integers
    (k_i // c_i) w_i = [G:N_G(U_i)] w_i, and a step is
    t_s = sum_k (s-1)_(k-1) b_k t_(s-k), with no division.  Fibers run as
    the integer sequences of ``fiber_lattice``, one per distinct term
    vector of an element of the lattice of fold subgroups, through the
    same step; each must stay within 0 and the fixed-point-free count,
    which a fiber query steps too.

    A step reads only the last ``max k`` entries, so the tables live in one
    forward cursor: a window of that many entries of each table in use, all
    ending at the same n.  A query ahead of the cursor advances it; a query
    behind the window, or the first query of a table, restarts it from
    n = 0 with every window in use.
    """

    def __init__(self, group: FiniteGroup, coeffs: AbelianGroup):
        self.group = group
        self.coeffs = coeffs
        # Hom(G, A) first: past its cap the query is refused before any class work
        self.homs: HomGroup = hom_group(group, coeffs)
        self.classes = subgroup_classes(group)
        self.orbit_data: tuple[OrbitTypeData, ...] = tuple(
            orbit_type_data(group, coeffs, cls, self.homs, class_id=i)
            for i, cls in enumerate(self.classes)
        )
        for od in self.orbit_data:
            if od.k % od.c:
                raise InvariantError(f"c = {od.c} does not divide k = {od.k} in class {od.class_id}")
        # (k_i, b_i = (k_i // c_i) w_i) per class, in class order: the integer class terms.
        self._class_terms = tuple((od.k, od.k // od.c * od.weight) for od in self.orbit_data)
        # One run per orbit size k, in class order: its first class and the
        # prefix sums 0, b_1, b_1 + b_2, ... of its class terms, which the
        # sampler's walk bisects.  Classes come sorted by subgroup order, so
        # each k is one run.
        self.runs: list[tuple[int, list[int]]] = []
        for i, (k, b) in enumerate(self._class_terms):
            if i and self._class_terms[i - 1][0] == k:
                self.runs[-1][1].append(self.runs[-1][1][-1] + b)
            elif any(self._class_terms[start][0] == k for start, _ in self.runs):
                raise InvariantError(f"the classes of orbit size {k} are not contiguous")
            else:
                self.runs.append((i, [0, b]))
        # the merged b_k, one per run: its k and the run's sum
        self._total_terms = tuple((self._class_terms[start][0], prefix[-1]) for start, prefix in self.runs)
        # Only U = G has orbit size 1, so this drops exactly the fixed points.
        self._free_terms = tuple(term for term in self._total_terms if term[0] != 1)
        self._width = group.order  # the largest orbit size, that of U = 1
        self._restart(1)

    @cached_property
    def fiber_lattice(self) -> FiberLattice:
        """Built on the first fiber query, so other queries never pay for it."""
        homs, h = self.homs, self.homs.size
        folds = [od.fold for od in self.orbit_data]  # K_i, a span, so a subgroup
        distinct = set(folds)
        # closed under +, each L + K_i spanned from L by the elements of K_i not yet in it
        lattice, todo = set(distinct), list(distinct)
        while todo:
            low = todo.pop()
            for fold in distinct:
                if not fold <= low and (high := frozenset(homs.span(low, fold))) not in lattice:
                    lattice.add(high)
                    todo.append(high)
        subgroups = tuple(sorted(lattice, key=len, reverse=True))
        rows: list[list[int]] = []  # e_L, from the top down
        for high in subgroups:
            row = [h // len(high) if psi in high else 0 for psi in range(h)]
            for above, e in zip(subgroups, rows):
                if high < above:
                    row = list(map(sub, row, e))
            rows.append(row)
        if any(row[0] < 0 for row in rows) or sum(row[0] for row in rows) != h:
            raise InvariantError("the characters of Hom(G, A) do not each kill one largest lattice element")
        seqs: dict[tuple[tuple[int, int], ...], list[int]] = {}  # T_L's terms -> the sum of its rows e_L
        for high, row in zip(subgroups, rows):
            if any(row):  # else no character has L as its largest killed element
                inside = [(k, b) for (k, b), fold in zip(self._class_terms, folds) if fold <= high]
                terms = tuple((k, w) for k, _ in self._total_terms if (w := sum(b for j, b in inside if j == k)))
                acc = seqs.setdefault(terms, [0] * h)
                acc[:] = map(add, acc, row)
        (terms, ones), *chars = seqs.items()
        if terms != self._total_terms or ones != [1] * h:
            raise InvariantError("the top of the fold lattice does not carry the totals")
        index: dict[tuple[int, ...], int] = {}
        class_of = tuple(index.setdefault(column, len(index)) for column in zip(*seqs.values()))
        return FiberLattice(subgroups=subgroups, seqs=tuple(terms for terms, _ in chars),
                            classes=tuple(index), class_of=class_of)

    def _restart(self, width: int) -> None:
        """Put the cursor at n = 0 with the first ``width`` windows: the
        totals, the free count, then the fold lattice's sequences."""
        self._n = 0
        terms = (self._total_terms, self._free_terms) + (self.fiber_lattice.seqs if width > 2 else ())
        self._windows = [deque([1], maxlen=self._width) for _ in terms[:width]]
        self._steps = tuple(zip(terms, self._windows))  # each window with its term vector

    @staticmethod
    def _scalar_step(terms: tuple[tuple[int, int], ...], prev: Sequence[int], s: int) -> list[int]:
        """The products (s-1)_(k-1) b_k t_(s-k) of the log-derivative step
        t_s = sum_k (s-1)_(k-1) b_k t_(s-k), in the order of ``terms`` and
        0 where k > s; ``prev`` (a list or a window) ends at t_(s-1)."""
        return [math.perm(s - 1, k - 1) * b * prev[-k] if k <= s else 0 for k, b in terms]

    def extend_to(self, n: int, *, free: bool = False, fibers: bool = False) -> None:
        """Move the cursor to n, with the free and fiber windows if asked;
        every window in use advances with the totals, and the fibers' bound
        needs the free window."""
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        width = max(len(self._windows), 2 + len(self.fiber_lattice.seqs) if fibers else 2 if free else 1)
        if width > len(self._windows) or n <= self._n - self._width:
            self._restart(width)
        while self._n < n:
            # the check runs before any window moves, so a raised
            # InvariantError leaves the windows aligned
            s = self._n + 1
            values = [sum(self._scalar_step(terms, window, s)) for terms, window in self._steps]
            if len(values) > 2 and not all(0 <= y <= values[1] for y in values[2:]):
                raise InvariantError(f"a character part is outside [0, free count] at n={s}")
            for window, y in zip(self._windows, values):
                window.append(y)
            self._n = s

    def _at(self, window: deque, n: int):
        """Entry n of a window whose cursor has just been moved to n or past it."""
        return window[n - self._n - 1]

    def count(self, n: int) -> int:
        self.extend_to(n)
        return self._at(self._windows[0], n)

    def fixed_point_free_probability(self, n: int) -> Fraction:
        from fractions import Fraction
        self.extend_to(n, free=True)
        return Fraction(self._at(self._windows[1], n), self._at(self._windows[0], n))

    def _fiber_classes(self, n: int, classes: Sequence[int]) -> list[int]:
        """The fiber of each given class of fold values at n: h F divided
        exactly by h."""
        self.extend_to(n, fibers=True)
        values = [self._at(window, n) for window in self._windows[:1] + self._windows[2:]]
        out = []
        for i in classes:
            acc = sum(c * x for c, x in zip(self.fiber_lattice.classes[i], values))
            fiber, rest = divmod(acc, self.homs.size)
            if rest:
                raise InvariantError(f"non-integral fiber at n={n}")
            if fiber < 0:
                raise InvariantError(f"negative fiber at n={n}")
            out.append(fiber)
        return out

    def fiber_count(self, n: int, psi: int) -> int:
        """The homomorphisms whose fold is the HomGroup element psi."""
        (fiber,) = self._fiber_classes(n, [self.fiber_lattice.class_of[psi]])
        return fiber

    def fiber_counts(self, n: int) -> tuple[int, ...]:
        values = self._fiber_classes(n, range(len(self.fiber_lattice.classes)))
        return tuple(values[i] for i in self.fiber_lattice.class_of)

    def delta(self, n: int) -> DistributionTable:
        return DistributionTable(n=n, fiber_counts=self.fiber_counts(n))


@lru_cache(maxsize=None)
def counter_for(group: FiniteGroup, coeffs: AbelianGroup) -> WreathHomCounter:
    return WreathHomCounter(group, coeffs)


def hom_count_wreath(
    group: FiniteGroup, coeffs: AbelianGroup, n: int, cap: int = DEFAULT_RECURRENCE_CAP
) -> int:
    """|Hom(G, A wr S_n)| by the exact recurrence."""
    if n > cap:
        raise SizeCapError(f"n={n} exceeds recurrence cap {cap}")
    return counter_for(group, coeffs).count(n)


def hom_count_direct(group: FiniteGroup, coeffs: AbelianGroup, n: int) -> int:
    """|Hom(G, A wr S_n)| by direct enumeration of orbit-type multisets.

    Sums n! * prod_i w_i^{m_i} / (m_i! c_i^{m_i}) over all (m_i) whose orbit
    sizes tile n, in integers: each term is taken over the common
    denominator D = prod_i M_i! c_i^{M_i}, M_i = n // k_i, which has class i's
    factor (M_i! / m_i!) c_i^{M_i - m_i}, and the sum is divided by D once.
    Exponential in the number of classes; capped accordingly.
    """
    if n > DIRECT_CAP:
        raise SizeCapError(
            f"direct enumeration capped at n={DIRECT_CAP}; use hom_count_wreath for n={n}"
        )
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    data = counter_for(group, coeffs).orbit_data
    # per class, its factor (M! / m!) c^(M - m) w^m for m = 0..M, M = n // k;
    # at m = 0 that is the class's share M! c^M of D
    factors = [
        [math.factorial(top) // math.factorial(m) * od.c ** (top - m) * od.weight**m for m in range(top + 1)]
        for od in data
        for top in (n // od.k,)
    ]
    total = 0

    def recurse(idx: int, remaining: int, acc: int) -> None:
        nonlocal total
        if idx == len(data):
            if remaining == 0:
                total += acc
            return
        k = data[idx].k
        for m, factor in enumerate(factors[idx][: remaining // k + 1]):
            recurse(idx + 1, remaining - m * k, acc * factor)

    recurse(0, n, 1)
    result, rest = divmod(total * math.factorial(n), math.prod(f[0] for f in factors))
    if rest:
        raise InvariantError(f"non-integral direct count at n={n}")
    return result


def fixed_point_free_probability(group: FiniteGroup, coeffs: AbelianGroup, n: int) -> Fraction:
    """Probability that the active image of a uniform homomorphism has no fixed point."""
    return counter_for(group, coeffs).fixed_point_free_probability(n)


def delta_distribution(group: FiniteGroup, coeffs: AbelianGroup, n: int) -> DistributionTable:
    """Exact distribution of the fold value of a uniform homomorphism."""
    return counter_for(group, coeffs).delta(n)


def weyl_hom_count(group: FiniteGroup, n: int) -> int:
    """|Hom(G, W_n)| where W_n <= C2 wr S_n is the kernel of the fold map."""
    c2 = AbelianGroup((2,))
    return counter_for(group, c2).fiber_count(n, 0)


def weyl_limit_ratio(group: FiniteGroup) -> Fraction:
    """1 / |Hom(G, C2)|, the limiting fraction of homomorphisms with trivial fold."""
    from fractions import Fraction
    c2 = AbelianGroup((2,))
    return Fraction(1, hom_group(group, c2).size)


def decay_constant(group: FiniteGroup, coeffs: AbelianGroup) -> DecayConstant:
    """Decay rate of the fixed-point-free probability in exp(-c n^(1/d)).

    It reads the class count and the largest |Hom(U, A)|, an orbit's weight
    |A|^(k-1) |Hom(U, A)| over |A|^(k-1), off ``counter_for(group, coeffs)``,
    which it builds if no query has, so it shares the counter's caps.
    """
    from fractions import Fraction
    counter = counter_for(group, coeffs)
    a = coeffs.order
    max_homs = max(od.weight // a ** (od.k - 1) for od in counter.orbit_data)
    denominator = group.order * len(counter.classes) * a * max_homs
    return DecayConstant(
        conservative=Fraction(1, 3 * denominator),
        reference_value=1.0 / (math.e * denominator),
    )


# ---------------------------------------------------------------------------
# JSON text: big integers as decimal strings, rationals as num/den strings


def ratio_to_json(num: int, den: int) -> str:
    """num / den in lowest terms, for den > 0, as the JSON text of
    {"num": ..., "den": ...} holding the decimal strings of the numerator
    and denominator ``Fraction(num, den)`` would hold."""
    g = math.gcd(num, den)
    return f'{{"num": "{num // g}", "den": "{den // g}"}}'


def distribution_to_json(table: DistributionTable) -> str:
    """The row as JSON line text: the bytes ``json.dumps`` writes for
    {"n": n, "fibers": [...], "probs": [...], "supDistance": ...}, with each
    fiber as its decimal string and each ratio as ``ratio_to_json``.  Each
    distinct fiber value is rendered once, and the h entries join references
    to its texts; fold values in one class of the counter share theirs."""
    fibers, total = table.fiber_counts, table.total
    h = len(fibers)
    decimals = {f: f'"{f}"' for f in set(fibers)}
    ratios = {f: ratio_to_json(f, total) for f in decimals}
    sup = ratio_to_json(max(abs(h * f - total) for f in decimals), h * total)
    fiber_text = ", ".join(map(decimals.__getitem__, fibers))
    prob_text = ", ".join(map(ratios.__getitem__, fibers))
    return f'{{"n": {table.n}, "fibers": [{fiber_text}], "probs": [{prob_text}], "supDistance": {sup}}}'
