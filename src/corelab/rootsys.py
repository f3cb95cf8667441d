"""Exact root system data for the finite crystallographic families.

All vectors live in the basis of simple coroots, so coroot lattice points are
exactly the integer tuples.  The Cartan matrix convention is
``A[i][j] = <coroot_i, root_j>``; lengths are normalized so the highest root
has squared length 2.  Everything is computed over the rationals and validated
at construction time against independent identities (root counts, determinant,
exponent sums, the strange formula), so a successfully built ``RootSystem``
carries internally consistent tables.
"""

from __future__ import annotations

from copy import copy
from fractions import Fraction as Q
from functools import lru_cache
from math import factorial, lcm, prod
from operator import itemgetter, mul
from typing import Dict, List, Sequence, Tuple

Vector = Tuple[Q, ...]

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class Record:
    """A record of the values named in its ``__slots__``, equal to and hashed
    as another of its class with the same values."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s%r" % (type(self).__name__, self._values())


class RootSystemType(Record):
    """A family letter together with a rank, e.g. ``RootSystemType("D", 4)``."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int) -> None:
        self.family, self.rank = family, rank
        if self.family not in _RANK_RANGE:
            raise ValueError(f"unknown family {self.family!r}")
        lo, hi = _RANK_RANGE[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise ValueError(f"rank {self.rank} out of range for family {self.family}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class Root(Record):
    """A positive root, stored as its simple-root coefficients."""

    __slots__ = ("coeffs", "height")

    def __init__(self, coeffs: Tuple[int, ...], height: int) -> None:
        self.coeffs, self.height = coeffs, height
        assert all(c >= 0 for c in self.coeffs) and sum(self.coeffs) == self.height


def _cartan_matrix(family: str, n: int) -> List[List[int]]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if family in "ABCF":
        for i in range(n - 1):
            edge(i, i + 1)
    if family == "B":
        edge(n - 2, n - 1, -1, -2)
    elif family == "C":
        edge(n - 2, n - 1, -2, -1)
    elif family == "F":
        edge(1, 2, -1, -2)
    elif family == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 3, n - 1)
    elif family == "E":
        for i, j in [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]:
            edge(i, j)
        for i in range(5, n - 1):
            edge(i, i + 1)
    elif family == "G":
        edge(0, 1, -3, -1)
    return a


def _exponents(family: str, n: int) -> Tuple[int, ...]:
    if family == "A":
        return tuple(range(1, n + 1))
    if family in "BC":
        return tuple(range(1, 2 * n, 2))
    if family == "D":
        return tuple(sorted(list(range(1, 2 * n - 2, 2)) + [n - 1]))
    table = {
        ("E", 6): (1, 4, 5, 7, 8, 11),
        ("E", 7): (1, 5, 7, 9, 11, 13, 17),
        ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
        ("F", 4): (1, 5, 7, 11),
        ("G", 2): (1, 5),
    }
    return table[(family, n)]


def _weyl_order(family: str, n: int) -> int:
    if family == "A":
        return factorial(n + 1)
    if family in "BC":
        return 2**n * factorial(n)
    if family == "D":
        return 2 ** (n - 1) * factorial(n)
    return {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
            ("F", 4): 1152, ("G", 2): 12}[(family, n)]


def _expected_dual_coxeter(family: str, n: int) -> int:
    if family == "A":
        return n + 1
    if family == "B":
        return 2 * n - 1
    if family == "C":
        return n + 1
    if family == "D":
        return 2 * n - 2
    return {("E", 6): 12, ("E", 7): 18, ("E", 8): 30, ("F", 4): 9, ("G", 2): 4}[(family, n)]


def _expected_index(family: str, n: int) -> int:
    if family == "A":
        return n + 1
    if family in "BC":
        return 2
    if family == "D":
        return 4
    if family == "E":
        return 9 - n
    return 1


def adjugate(m: Sequence[Sequence[int]]) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """``(det m, adj m)`` of a square integer matrix, ``adj m = det m * m^-1``.

    Fraction-free Gauss-Jordan elimination on ``[m | I]`` (Bareiss, Math.
    Comp. 1968): after step ``k`` every entry is, up to sign, a minor of
    ``[m | I]`` of order ``k + 1``, so each division by the previous pivot
    is exact, and the left half ends as ``det m`` times the identity.  The
    leading principal minors must be nonzero, as they are for a finite-type
    Cartan matrix, its transpose and its Gram matrix; a zero pivot raises
    ``ValueError``.
    """
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        top = a[k]
        pivot = top[k]
        if pivot == 0:
            raise ValueError("zero leading principal minor")
        for i, row in enumerate(a):
            if i != k:
                c = row[k]
                a[i] = [(pivot * x - c * y) // prev for x, y in zip(row, top)]
        prev = pivot
    return prev, tuple(tuple(row[n:]) for row in a)


def clear_denominators(x: Sequence[Q | int]) -> Tuple[int, List[int]]:
    """The least ``d >= 1`` with ``d * x`` integral, and the integer vector ``d * x``."""
    if {int}.issuperset(map(type, x)):
        return 1, list(x)
    d = lcm(*(v.denominator for v in x))
    return d, [v.numerator * (d // v.denominator) for v in x]


class VerificationError(ArithmeticError):
    """A paper identity failed on exact data."""


def _require(ok: bool, message: str, *args) -> None:
    """Raise :class:`VerificationError` with ``message % args`` unless ``ok``, even under -O."""
    if not ok:
        raise VerificationError(message % args)


def _norm(gram: Sequence[Sequence[int]], y: Sequence[int]) -> int:
    """``<y, y>`` of an integer vector under an integer Gram matrix."""
    return sum(a * sum(map(mul, row, y)) for a, row in zip(y, gram))


def _close_roots(cartan: Sequence[Sequence[int]]) -> List[Root]:
    """All positive roots, by height and then coefficients: the closure of the
    simple roots under the simple reflections that raise them, ``s_i a = a - p
    alpha_i`` when ``p = <a, coroot_i> < 0`` (Humphreys, *Lie Algebras*, 10.2)."""
    n = len(cartan)
    rows = [[(j, c) for j, c in enumerate(row) if c] for row in cartan]  # at most 4 entries
    found = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    known = set(found)
    for a in found:  # grows as it is read
        for i, row in enumerate(rows):
            p = sum(c * a[j] for j, c in row)
            if p < 0:
                up = a[:i] + (a[i] - p,) + a[i + 1:]
                if up not in known:
                    known.add(up)
                    found.append(up)
    return [Root(c, h) for h, c in sorted((sum(c), c) for c in found)]


class RootSystem:
    """Immutable bundle of exact data for one irreducible root system.

    Attributes of note (all tuples, all exact):

    - ``cartan``: integer Cartan matrix, ``cartan[i][j] = <coroot_i, root_j>``
    - ``gram``: Gram matrix of the simple coroots, integral in every type
    - ``positive_roots`` / ``roots_by_height`` / ``highest_root``
    - ``marks`` / ``comarks``: highest-root coefficients on roots / coroots
    - ``coxeter_number`` (h), ``dual_coxeter_number`` (g), ``exponents``,
      ``weyl_order``, ``index_f`` (connection index, = det of ``cartan``)
    - ``adj_cartan_t``: the integer adjugate ``index_f * (A^T)^-1`` of the
      transposed Cartan matrix; ``inv_cartan_t`` is the inverse itself
    - ``fund_coweights``: coroot-basis coordinates of the fundamental coweights
    - ``rho`` / ``rho_check``: half-sums of positive roots / coroots
    - ``rho_norm24``: the integer ``24 <rho, rho>``, by the strange formula ``2 g n (h + 1)``

    A failed identity among these, checked in ints, raises :class:`VerificationError`.
    """

    def __init__(self, rstype: RootSystemType) -> None:
        self.rstype = rstype
        self._hash = hash(rstype)  # every lru_cache keyed on a root system reads it
        self.family = rstype.family
        n = self.rank = rstype.rank
        self.cartan = tuple(tuple(row) for row in _cartan_matrix(self.family, n))

        roots = _close_roots(self.cartan)
        self.positive_roots = tuple(roots)
        by_height: Dict[int, List[Root]] = {}
        for r in roots:
            by_height.setdefault(r.height, []).append(r)
        self.roots_by_height = {h: tuple(v) for h, v in by_height.items()}

        top_height = max(self.roots_by_height)
        top = self.roots_by_height[top_height]
        _require(len(top) == 1, "%s has %d highest roots", rstype, len(top))
        self.highest_root = top[0]
        self.marks = c = self.highest_root.coeffs
        self.coxeter_number = h = top_height + 1
        _require(2 * len(roots) == n * h, "%s has %d positive roots, not n h / 2",
                 rstype, len(roots))

        # Simple root squared lengths / 2, from the symmetry l_i A_ij = l_j A_ji,
        # normalized so the highest root has squared length 2.
        lengths: List[Q] = [Q(0)] * n
        lengths[0] = Q(1)
        todo = [0]
        seen = {0}
        while todo:
            i = todo.pop()
            for j in range(n):
                if j not in seen and self.cartan[i][j] != 0:
                    lengths[j] = lengths[i] * self.cartan[i][j] / self.cartan[j][i]
                    seen.add(j)
                    todo.append(j)
        _require(len(seen) == n, "the Dynkin diagram of %s is not connected", rstype)
        top_norm = sum(
            c[i] * c[j] * lengths[i] * self.cartan[i][j]
            for i in range(n) for j in range(n)
        )
        scale = 2 / top_norm
        self.simple_lengths = tuple(l * scale for l in lengths)

        gram = [[Q(a) / l for a, l in zip(row, self.simple_lengths)] for row in self.cartan]
        comarks = [m * l for m, l in zip(c, self.simple_lengths)]
        _require(all(v.denominator == 1 for v in comarks + sum(gram, [])),
                 "the comarks or the simple coroot pairings of %s are not integers", rstype)
        _require(gram == [list(col) for col in zip(*gram)],
                 "the Gram matrix of %s is not symmetric", rstype)
        self.gram = tuple(tuple(map(int, row)) for row in gram)
        self.comarks = tuple(map(int, comarks))
        self.dual_coxeter_number = g = 1 + sum(self.comarks)
        _require(g == _expected_dual_coxeter(self.family, n), "%s has g = %d", rstype, g)

        self.exponents = e = _exponents(self.family, n)
        _require(len(e) == n and sum(e) == len(roots),
                 "the exponents of %s sum to %d, not |Phi+| = %d", rstype, sum(e), len(roots))
        _require(all(e[i] + e[n - 1 - i] == h for i in range(n)),
                 "the exponents of %s do not pair to h = %d", rstype, h)
        self.weyl_order = _weyl_order(self.family, n)
        _require(prod(v + 1 for v in e) == self.weyl_order, "prod(e_i + 1) on %s is not |W| = %d",
                 rstype, self.weyl_order)

        self.index_f, self.adj_cartan_t = f, adj = adjugate(tuple(zip(*self.cartan)))
        _require(f == _expected_index(self.family, n), "%s has det A = %d", rstype, f)
        self.inv_cartan_t = tuple(tuple(Q(v, f) for v in row) for row in adj)
        self.fund_coweights = tuple(zip(*self.inv_cartan_t))
        self.rho_check = tuple(map(sum, self.inv_cartan_t))

        sums = map(sum, zip(*(r.coeffs for r in roots)))
        self.rho = tuple(Q(s, 2) * l for s, l in zip(sums, self.simple_lengths))

        # the pairings and the strange formula, on the integer vectors d rho and e rho_check
        d, y = clear_denominators(self.rho)
        _require(all(sum(map(mul, row, y)) == d for row in self.gram),
                 "rho does not pair to 1 with every simple coroot of %s", rstype)
        e, z = clear_denominators(self.rho_check)
        heights = [sum(map(mul, col, z)) for col in zip(*self.cartan)]  # e <rho_check, alpha_j>
        _require(all(sum(map(mul, heights, r.coeffs)) == e * r.height for r in roots),
                 "<rho_check, alpha> is not the height of alpha on %s", rstype)
        self.rho_norm24, rest = divmod(24 * _norm(self.gram, y), d * d)
        _require(not rest and self.rho_norm24 == 2 * g * n * (h + 1),
                 "strange formula fails on %s", rstype)

    def __repr__(self) -> str:
        return f"RootSystem({self.rstype})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RootSystem) and self.rstype == other.rstype

    def __hash__(self) -> int:
        return self._hash


@lru_cache(maxsize=None)
def build_root_system(family: str | RootSystemType, rank: int | None = None) -> RootSystem:
    """Construct and validate the root system, e.g. ``build_root_system("E", 6)``;
    built once per family and rank and shared by every caller."""
    if isinstance(family, RootSystemType):
        return build_root_system(family.family, family.rank)
    if rank is None:
        raise ValueError("rank required")
    return RootSystem(RootSystemType(family, rank))


def exponent_product(rs: RootSystem, b: int) -> int:
    """``prod_i (b + e_i)`` over the exponents; ``|W|`` times the coroot point
    count of ``b * A`` when ``b`` is coprime to ``h``."""
    return prod(b + e for e in rs.exponents)


def is_simply_laced(rs: RootSystem) -> bool:
    """Whether all simple roots have the same length."""
    return all(l == 1 for l in rs.simple_lengths)


@lru_cache(maxsize=None)
def _square_terms(rs: RootSystem) -> Tuple[itemgetter, itemgetter, Tuple[int, ...]]:
    """Getters of ``y_i`` and ``y_j`` and coefficients ``G_ii`` or ``2 G_ij`` over the nonzero
    Gram entries ``i <= j``, whose products sum to ``<y, y>``; rank 1 adds a zero term."""
    g, n = rs.gram, rs.rank
    rows, cols, coeffs = zip(*[(i, j, g[i][j] * (1 + (i < j))) for i in range(n)
                               for j in range(i, n) if g[i][j]] + [(0, 0, 0)] * (n == 1))
    return itemgetter(*rows), itemgetter(*cols), coeffs


class QuadraticForm:
    """``F(x) = g/2 <x, x> + l . x + c`` in coroot coordinates, with ``l`` and
    ``24 c`` integral.  ``QuadraticForm(rs, b)`` is the size form at dilation
    ``b``, ``F_b(x) = g/2 <x, x> - b <x, rho> + (b^2 - 1) n (h + 1)/24``, so
    ``l = -b (1, ..., 1)``.  ``F_1`` is size (the box count of the matching
    core in type A), ``F_0`` the centered form, and zise at dilation ``b`` is
    ``F_1`` pulled back through ``w_b^{-1}`` (:meth:`pullback`), which is
    ``F_b`` on simply-laced systems.  For an integer vector ``y`` and ``d >= 1``
    the scaled value ``24 d^2 F(y / d)`` is an integer; every evaluation goes
    through it.
    """

    def __init__(self, rs: RootSystem, b: int) -> None:
        self.gram = rs.gram
        self.terms = _square_terms(rs)
        self.g = rs.dual_coxeter_number
        self.linear = (-b,) * rs.rank
        self.const = (b * b - 1) * rs.rank * (rs.coxeter_number + 1)  # 24 c

    def pullback(self, element) -> "QuadraticForm":
        """``F(M x + t)`` for an element with integer ``linear`` rows ``M``,
        which preserve ``G``, and integer ``translation`` ``t``: ``l`` becomes
        ``M^T (g G t + l)`` and ``24 c`` gains ``12 g <t, t> + 24 l . t``."""
        t = element.translation
        shifted = [self.g * sum(map(mul, row, t)) + li for row, li in zip(self.gram, self.linear)]
        out = copy(self)
        out.linear = tuple(sum(map(mul, col, shifted)) for col in zip(*element.linear))
        out.const = self.const + 12 * self.g * self.square(t) + 24 * self.dot(t)
        return out

    def square(self, y: Sequence[int]) -> int:
        """``<y, y>`` of an integer vector."""
        left, right, coeffs = self.terms
        return sum(map(mul, coeffs, map(mul, left(y), right(y))))

    def dot(self, y: Sequence[int]) -> int:
        """``l . y`` of an integer vector."""
        return sum(map(mul, self.linear, y))

    def scaled(self, square: int, linear: int, d: int = 1, count: int = 1) -> int:
        """``24 d^2`` times the sum of ``F(y / d)`` over ``count`` integer
        vectors ``y`` whose ``<y, y>`` add up to ``square`` and whose
        ``l . y`` add up to ``linear``."""
        return 12 * self.g * square + 24 * d * linear + count * d * d * self.const

    def scaled_at(self, y: Sequence[int], d: int = 1) -> int:
        """``24 d^2 F(y / d)`` for one integer vector ``y``."""
        return self.scaled(self.square(y), self.dot(y), d)

    def __call__(self, x: Sequence[Q | int]) -> Q:
        """The exact value ``F(x)`` at a rational point."""
        d, y = clear_denominators(x)
        return Q(self.scaled_at(y, d), 24 * d * d)


def roots_of_height(rs: RootSystem, height: int) -> Tuple[Root, ...]:
    """All positive roots of the given height (empty tuple if none)."""
    return rs.roots_by_height.get(height, ())
