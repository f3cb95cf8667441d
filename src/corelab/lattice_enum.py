"""Lattice point enumeration for dilated alcoves and related regions.

Coweight points of ``b * A`` are the solutions of the mark knapsack
``sum_i c_i x_i <= b`` in nonnegative integers, written in coroot
coordinates as ``sum_i x_i omega_check_i``.  Coroot points are the subset
with integer coroot coordinates.  Enumeration is lexicographic in the
coweight coefficients so output is deterministic.  Points leave the knapsack
as integer vectors scaled by the coweight denominator; the coroot point sets
are int tuples, and only the coweight point sets build Fractions, through
``coeffs_to_point``.  Large folds go through either the integer point stream
or an exact dynamic program that never materializes the point set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from corelab.affine import compute_w_b, in_dilated_alcove, sommers_contains
from corelab.rootsys import (
    QuadraticForm,
    RootSystem,
    Vector,
    exponent_product,
    invert_matrix,
    is_simply_laced,
)


@dataclass(frozen=True)
class LatticePointSet:
    """An immutable set of lattice points, sorted by coroot coordinates
    (int tuples for the coroot points of ``b * A``, Fractions otherwise)."""

    rs: RootSystem
    b: int
    lattice: str
    points: Tuple[Vector, ...]

    def __post_init__(self):
        assert self.lattice in ("coweight", "coroot")
        assert list(self.points) == sorted(self.points)

    @property
    def count(self) -> int:
        return len(self.points)


def iter_coweight_coeffs(rs: RootSystem, b: int) -> Iterator[Tuple[int, ...]]:
    """Knapsack solutions ``sum c_i x_i <= b`` in lexicographic order."""
    if b < 0:
        raise ValueError("dilation must be nonnegative")
    n = rs.rank
    marks = rs.marks
    coeffs = [0] * n

    def rec(i: int, budget: int) -> Iterator[Tuple[int, ...]]:
        if i == n:
            yield tuple(coeffs)
            return
        for v in range(budget // marks[i] + 1):
            coeffs[i] = v
            yield from rec(i + 1, budget - v * marks[i])
        coeffs[i] = 0

    yield from rec(0, b)


@lru_cache(maxsize=None)
def _scaled_coweight_rows(rs: RootSystem) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """Common denominator and integer rows of the coweight coordinate matrix."""
    n = rs.rank
    den = 1
    for w in rs.fund_coweights:
        for v in w:
            den = lcm(den, v.denominator)
    rows = tuple(
        tuple(int(rs.fund_coweights[i][k] * den) for i in range(n)) for k in range(n)
    )
    return den, rows


def lattice_scale(rs: RootSystem, lattice: str) -> int:
    """The factor ``d`` of :func:`iter_scaled_points`: 1 on the coroot lattice,
    the least ``d`` with every ``d * omega_check_i`` integral on the coweight lattice."""
    if lattice not in ("coweight", "coroot"):
        raise ValueError(f"unknown lattice {lattice!r}")
    return _scaled_coweight_rows(rs)[0] if lattice == "coweight" else 1


def coeffs_to_point(rs: RootSystem, coeffs: Sequence[int]) -> Vector:
    """Coroot coordinates of ``sum_i coeffs[i] * omega_check_i``."""
    den, rows = _scaled_coweight_rows(rs)
    return tuple(Q(sum(c * r for c, r in zip(coeffs, row)), den) for row in rows)


def is_coroot_point(x: Sequence[Q]) -> bool:
    return all(v.denominator == 1 for v in x)


def iter_scaled_points(rs: RootSystem, b: int, lattice: str) -> Iterator[Tuple[int, ...]]:
    """Every lattice point ``x`` of ``b * A`` as the integer vector ``d * x``,
    ``d = lattice_scale(rs, lattice)``, in knapsack order.

    A coweight point, scaled by the coweight denominator, is a coroot point
    when every coordinate is divisible by that denominator.
    """
    den, rows = _scaled_coweight_rows(rs)
    step = den // lattice_scale(rs, lattice)
    for coeffs in iter_coweight_coeffs(rs, b):
        y = [sum(map(mul, coeffs, row)) for row in rows]
        if step == 1:
            yield tuple(y)
        elif all(v % step == 0 for v in y):
            yield tuple(v // step for v in y)


def coweight_points_in_bA(rs: RootSystem, b: int) -> LatticePointSet:
    """All coweight lattice points of the closed dilated alcove ``b * A``."""
    points = tuple(sorted(coeffs_to_point(rs, c) for c in iter_coweight_coeffs(rs, b)))
    for x in points[: min(len(points), 64)]:
        assert in_dilated_alcove(rs, b, x)
    return LatticePointSet(rs, b, "coweight", points)


def coroot_points_in_bA(rs: RootSystem, b: int) -> LatticePointSet:
    """Coroot lattice points of ``b * A`` as integer tuples; counts follow the
    exponent product rule."""
    points = tuple(sorted(iter_scaled_points(rs, b, "coroot")))
    if gcd(b, rs.coxeter_number) == 1:
        expected, rest = divmod(exponent_product(rs, b), rs.weyl_order)
        assert rest == 0
        assert len(points) == expected
    return LatticePointSet(rs, b, "coroot", points)


def core_points_in_sommers(rs: RootSystem, b: int) -> LatticePointSet:
    """Coroot points of the height-``b`` region, as the ``w_b`` transport of ``b * A``."""
    h = rs.coxeter_number
    if gcd(b, h) != 1:
        raise ValueError("b not coprime to Coxeter number")
    winv = compute_w_b(rs, b).inverse()
    moved = [winv.apply(x) for x in coroot_points_in_bA(rs, b).points]
    for x in moved:
        assert is_coroot_point(x)
        assert sommers_contains(rs, b, x)
    return LatticePointSet(rs, b, "coroot", tuple(sorted(moved)))


def coroot_points_in_size_ellipsoid(
    rs: RootSystem, N: int
) -> List[Tuple[Tuple[int, ...], Q]]:
    """All coroot lattice points with size at most ``N``, with their sizes.

    The size form is ``g/2 ||x - rho/g||^2`` minus a constant, so points live
    in an ellipsoid around ``rho/g``; each coordinate is bounded through the
    inverse Gram matrix with exact integer square roots, then candidates are
    filtered.
    """
    if N < 0:
        raise ValueError("size bound must be nonnegative")
    n = rs.rank
    g = rs.dual_coxeter_number
    h = rs.coxeter_number
    center = tuple(Q(v, g) for v in rs.rho)
    radius_sq = Q(2, g) * (N + Q(n * (h + 1), 24))
    ginv = invert_matrix([list(row) for row in rs.gram])
    ranges = []
    for i in range(n):
        bound = radius_sq * ginv[i][i]
        # smallest integer s with s^2 >= bound
        s = isqrt(bound.numerator // bound.denominator) + 1
        lo = (center[i].numerator - s * center[i].denominator) // center[i].denominator
        hi = -((-center[i].numerator - s * center[i].denominator) // center[i].denominator)
        ranges.append(range(lo, hi + 1))

    form = QuadraticForm(rs, 1)
    gram = rs.gram
    limit = 24 * N
    out: List[Tuple[Tuple[int, ...], Q]] = []

    # carry <x, x> and sum(x) incrementally, coordinate by coordinate
    def rec(i: int, prefix: List[int], square: int, total: int):
        if i == n:
            s = form.scaled(square, total)
            if s <= limit:
                assert s % 24 == 0
                out.append((tuple(prefix), Q(s // 24)))
            return
        row = gram[i]
        cross = sum(row[j] * prefix[j] for j in range(i))
        for v in ranges[i]:
            prefix.append(v)
            rec(i + 1, prefix, square + row[i] * v * v + 2 * v * cross, total + v)
            prefix.pop()

    rec(0, [], 0, 0)
    out.sort(key=lambda item: item[0])
    return out


def alcove_size_sums(rs: RootSystem, b: int, lattice: str) -> Tuple[int, Optional[Q]]:
    """Count and size-sum over ``b * A`` lattice points, by exact dynamic programming.

    Returns ``(S0, S1)`` where ``S0`` is the number of points and ``S1`` the
    sum of the dilation-``b`` form ``F_b`` (:class:`QuadraticForm`) over them,
    the closed form of zise on simply-laced systems; for other systems ``S1``
    is ``None`` and only the count is meaningful.
    The program runs over knapsack budgets and coroot-residue classes,
    carrying exact zeroth, first, and second moments of the point
    coordinates, and never materializes the point set.
    """
    if lattice not in ("coweight", "coroot"):
        raise ValueError(f"unknown lattice {lattice!r}")
    if b < 0:
        raise ValueError("dilation must be nonnegative")
    n = rs.rank
    f = rs.index_f
    # integer coweight vectors: D * omega_check_i
    D, rows = _scaled_coweight_rows(rs)
    w_vecs = [tuple(row[i] for row in rows) for i in range(n)]
    # residue class of sum x_i omega_check_i modulo the coroot lattice:
    # adj(A^T) y mod f, where adj = f * inv(A^T)
    adj = [
        [int(rs.inv_cartan_t[r][c] * f) for c in range(n)] for r in range(n)
    ]
    for r in range(n):
        for c in range(n):
            assert rs.inv_cartan_t[r][c] * f == adj[r][c]

    zero_cls = tuple(0 for _ in range(n))
    zero_m1 = tuple(0 for _ in range(n))
    zero_m2 = tuple(0 for _ in range(n * n))
    # state[budget][cls] = (M0, M1, M2) exact integer moment sums of D*x
    state: List[Dict[Tuple[int, ...], Tuple[int, Tuple[int, ...], Tuple[int, ...]]]] = [
        dict() for _ in range(b + 1)
    ]
    state[0][zero_cls] = (1, zero_m1, zero_m2)
    items = [(rs.marks[i], w_vecs[i], tuple(adj[r][i] % f for r in range(n)))
             for i in range(n)]
    items.append((1, tuple(0 for _ in range(n)), zero_cls))  # slack node
    for weight, w, cls_shift in items:
        for budget in range(weight, b + 1):
            src = state[budget - weight]
            if not src:
                continue
            dst = state[budget]
            for cls, (m0, m1, m2) in list(src.items()):
                new_cls = tuple((cls[r] + cls_shift[r]) % f for r in range(n))
                nm1 = tuple(m1[r] + w[r] * m0 for r in range(n))
                nm2 = tuple(
                    m2[r * n + c] + w[r] * m1[c] + m1[r] * w[c] + w[r] * w[c] * m0
                    for r in range(n)
                    for c in range(n)
                )
                if new_cls in dst:
                    o0, o1, o2 = dst[new_cls]
                    dst[new_cls] = (
                        o0 + m0,
                        tuple(a + bb for a, bb in zip(o1, nm1)),
                        tuple(a + bb for a, bb in zip(o2, nm2)),
                    )
                else:
                    dst[new_cls] = (m0, nm1, nm2)
    final = state[b]
    if lattice == "coroot":
        picked = [final.get(zero_cls, (0, zero_m1, zero_m2))]
    else:
        picked = list(final.values())
    s0 = sum(m0 for m0, _, _ in picked)
    if s0 == 0:
        return 0, Q(0)
    if not is_simply_laced(rs):
        return s0, None
    total = sum(sum(p[1]) for p in picked)
    square = sum(
        rs.gram[r][c] * sum(p[2][r * n + c] for p in picked)
        for r in range(n)
        for c in range(n)
    )
    return s0, Q(QuadraticForm(rs, b).scaled(square, total, D, s0), 24 * D * D)


def streamed_size_sums(rs: RootSystem, b: int, lattice: str) -> Tuple[int, Q]:
    """Reference implementation of alcove_size_sums by direct streaming."""
    d = lattice_scale(rs, lattice)
    form = QuadraticForm(rs, b)
    s0 = s1 = 0
    for y in iter_scaled_points(rs, b, lattice):
        s0 += 1
        s1 += form.scaled_at(y, d)
    return s0, Q(s1, 24 * d * d)
