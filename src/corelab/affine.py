"""Affine Weyl group elements, alcove walks, and inversion sets.

Elements act on coroot coordinates as ``x -> M x + tau`` with an integer
linear part ``M`` (a finite Weyl group matrix) and a translation ``tau``,
stored as ints on the affine Weyl group ``W ⋉ Q^∨``; elements of the
extended group translate by coweights, as Fractions.  Words are composed
letter by letter on the rows of ``[M | t]``; an element acts on a point
``x = y / d`` through its integer vector ``y`` (:meth:`AffineElement.apply_int`),
and walks and inversion sets run in ``int`` arithmetic too.

The fundamental alcove is ``A = {x : <x, alpha_i> >= 0, <x, alpha~> <= 1}``
and the base point used to pin down elements from alcoves is ``rho_check/h``,
the unique point of ``(1/h) * coweight lattice`` interior to ``A``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from math import gcd
from operator import mul
from typing import List, Sequence, Tuple

from corelab.rootsys import (
    RootSystem,
    VerificationError,
    Vector,
    adjugate,
    clear_denominators,
    roots_of_height,
)

Word = Tuple[int, ...]

IntMatrix = Tuple[Tuple[int, ...], ...]


def _mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@lru_cache(maxsize=None)
def _scaled_gram_inverse(rs: RootSystem) -> Tuple[int, IntMatrix]:
    """The least ``den`` with ``den * G^{-1}`` integral, and that integer
    matrix: the adjugate of ``G`` reduced by the gcd of ``det G`` and its entries."""
    det, adj = adjugate(rs.gram)
    g = gcd(det, *(v for row in adj for v in row))
    return det // g, tuple(tuple(v // g for v in row) for row in adj)


@dataclass(frozen=True)
class AffineElement:
    """An element ``x -> linear @ x + translation`` of the (extended) affine group."""

    linear: IntMatrix
    translation: Vector

    @classmethod
    def identity(cls, rank: int) -> "AffineElement":
        return cls(_identity_matrix(rank), (0,) * rank)

    def apply_int(self, y: Sequence[int], d: int = 1) -> Tuple[int, ...]:
        """``d * self(y / d)`` for an integer vector ``y``, in ``int`` arithmetic;
        the translation must be ints, as on every element of ``W ⋉ Q^∨``."""
        return tuple(
            sum(map(mul, row, y)) + d * t for row, t in zip(self.linear, self.translation)
        )

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        return AffineElement(
            _mat_mul(self.linear, other.linear),
            tuple(sum(map(mul, row, other.translation)) + t
                  for row, t in zip(self.linear, self.translation)),
        )

    def inverse(self, rs: RootSystem) -> "AffineElement":
        """The inverse element, in ``int`` arithmetic on the linear part.

        A Weyl group matrix ``M`` preserves the Gram form ``G``, so its
        inverse is ``G^{-1} M^T G``, an integer matrix (checked).
        """
        den, ginv = _scaled_gram_inverse(rs)
        scaled = _mat_mul(ginv, _mat_mul(tuple(zip(*self.linear)), rs.gram))
        if any(v % den for row in scaled for v in row):
            raise ValueError("linear part does not preserve the Gram form")
        rows = tuple(tuple(v // den for v in row) for row in scaled)
        tau = tuple(-sum(map(mul, row, self.translation)) for row in rows)
        return AffineElement(rows, tau)

    def is_identity(self) -> bool:
        n = len(self.linear)
        return self.linear == _identity_matrix(n) and all(t == 0 for t in self.translation)


@dataclass(frozen=True)
class AffineRoot:
    """A real affine root ``alpha + level * delta``.

    ``coeffs`` are the simple-root coefficients of the finite part (all of one
    sign); ``level`` is the delta coefficient.
    """

    coeffs: Tuple[int, ...]
    level: int


def element_from_word(rs: RootSystem, word: Sequence[int]) -> AffineElement:
    """Compose ``s_{word[0]} o s_{word[1]} o ...`` (rightmost letter acts first).

    Each letter, right to left, acts on the rows of ``[M | t]``: ``s_j``
    (``j >= 1``) subtracts the pairing with ``alpha_j`` from row ``j - 1``
    alone, and ``s_0`` moves every row along ``theta_check`` (the comarks)
    by the pairing with ``theta`` (the marks), less one on ``t``.
    """
    n = rs.rank
    A = rs.cartan
    # the nonzero pairings <alpha_k^vee, alpha_j> and <alpha_k^vee, theta>, as (k, value)
    cols = [[(k, row[j]) for k, row in enumerate(A) if row[j]] for j in range(n)]
    theta = [(k, c) for k, c in enumerate(sum(map(mul, row, rs.marks)) for row in A) if c]
    rows = [[int(i == j) for j in range(n)] + [0] for i in range(n)]
    for j in reversed(word):
        if not 0 <= j <= n:
            raise ValueError(f"reflection index {j} out of range")
        if j:
            new = rows[j - 1]
            for k, c in cols[j - 1]:
                new = [a - c * r for a, r in zip(new, rows[k])]
            rows[j - 1] = new
        else:
            p = [0] * n + [-1]
            for k, c in theta:
                p = [a + c * r for a, r in zip(p, rows[k])]
            rows = [[a - d * v for a, v in zip(row, p)] for d, row in zip(rs.comarks, rows)]
    return AffineElement(tuple(tuple(row[:n]) for row in rows), tuple(row[n] for row in rows))


@lru_cache(maxsize=None)
def _walk_tables(rs: RootSystem) -> Tuple[IntMatrix, Tuple[int, ...], Tuple]:
    """For :func:`_walk`: the Cartan columns (pairings are their products with ``y``), the
    pairing change of the affine reflection, and per row the nonzero ``(k, A_jk)``."""
    columns = tuple(zip(*rs.cartan))
    edges = tuple(tuple((k, a) for k, a in enumerate(row) if a) for row in rs.cartan)
    return columns, tuple(sum(map(mul, col, rs.comarks)) for col in columns), edges


def _walk(rs: RootSystem, d: int, y: List[int], affine: bool) -> Tuple[List[int], Word]:
    """Reflect ``y / d`` through the lowest-index violated wall until none is
    left (the list ``y`` may change); return the scaled point and the word.

    Wall ``i`` of ``1..n`` is violated by a negative pairing with ``alpha_i``;
    with ``affine``, once those hold, wall ``0`` is violated by
    ``<x, theta> > 1``, and a point on any wall raises
    ``ValueError("point not regular")``.
    """
    columns, shift, edges = _walk_tables(rs)
    pair = [sum(map(mul, col, y)) for col in columns]
    word: List[int] = []
    while True:
        if affine and 0 in pair:
            raise ValueError("point not regular")
        for j, v in enumerate(pair):
            if v < 0:
                y[j] -= v
                for k, a in edges[j]:
                    pair[k] -= v * a
                word.append(j + 1)
                break
        else:
            v = d - sum(map(mul, rs.marks, pair))
            if not affine or v > 0:
                return y, tuple(word)
            if v == 0:
                raise ValueError("point not regular")
            y = [a + v * c for a, c in zip(y, rs.comarks)]
            pair = [p + v * a for p, a in zip(pair, shift)]
            word.append(0)


def alcove_walk(rs: RootSystem, x: Sequence[Q]) -> Tuple[Vector, Word]:
    """Walk ``x`` into the fundamental alcove; return the point reached and the word.

    Repeatedly reflects through the lowest-index violated wall (walls
    ``1..n`` in order, then the affine wall ``0``) until no wall is violated.
    Letters are recorded in discovery order, so the element
    ``s_{i_1} o ... o s_{i_k}`` of the word (see :func:`element_from_word`)
    maps the final interior point back to ``x``.  A point on any wall
    encountered during the walk raises ``ValueError("point not regular")``.
    """
    d, y = clear_denominators(x)
    y, word = _walk(rs, d, y, True)
    return tuple(Q(v, d) for v in y), word


def base_point(rs: RootSystem) -> Vector:
    """The regular point ``rho_check / h`` interior to the fundamental alcove."""
    return tuple(v / rs.coxeter_number for v in rs.rho_check)


def separating_walls(rs: RootSystem, y: Sequence[int], d: int) -> List[AffineRoot]:
    """The walls ``<x, alpha> = k`` between ``rho_check/h`` and ``x = y / d``, as
    the positive affine roots negative at ``x``: ``-alpha + k delta`` for
    ``1 <= k <= <x, alpha>`` and ``alpha + k delta`` for ``0 <= k <= -<x, alpha>``.

    Each positive root ``alpha`` costs one integer pairing ``<y, alpha>``; a
    point on a wall raises ``ValueError("point not regular")``.
    """
    out: List[AffineRoot] = []
    for height in range(1, rs.coxeter_number):
        for root, f in zip(roots_of_height(rs, height), _root_forms(rs, height)):
            v = sum(map(mul, f, y))
            if v % d == 0:
                raise ValueError("point not regular")
            if v > 0:
                neg = tuple(-c for c in root.coeffs)
                out.extend(AffineRoot(neg, k) for k in range(1, v // d + 1))
            else:
                out.extend(AffineRoot(root.coeffs, k) for k in range(-v // d + 1))
    return out


def escaped_walls(rs: RootSystem, y: Sequence[int], d: int, b: int) -> int:
    """How many walls between ``rho_check/h`` and ``x = y / d`` (:func:`separating_walls`,
    whose ``ValueError`` it keeps) are not among those up to ``b rho_check/h``, the
    ``-alpha + k delta`` with ``k <= t = floor(b ht(alpha) / h)``: per positive root,
    ``max(0, floor(<x, alpha>) - t)`` if ``<x, alpha> > 0``, else ``floor(-<x, alpha>) + 1``."""
    h, out = rs.coxeter_number, 0
    for height in range(1, h):
        for f in _root_forms(rs, height):
            v = sum(map(mul, f, y))
            if v % d == 0:
                raise ValueError("point not regular")
            out += max(0, v // d - b * height // h) if v > 0 else -v // d + 1
    return out


def inversions_of_inverse(rs: RootSystem, w: AffineElement) -> List[AffineRoot]:
    """The inversion set of ``w^{-1}``, the walls between ``A`` and ``w^{-1}(A)``.

    The elements of ``Omega`` fix ``A``, so ``w`` must lie in ``W ⋉ Q^∨``: a
    translation that is not integral raises ``ValueError``.
    """
    if clear_denominators(w.translation)[0] != 1:
        raise ValueError("inversion sets need an element of W ⋉ Q^∨, not of Omega")
    d, y = clear_denominators(base_point(rs))
    return separating_walls(rs, w.inverse(rs).apply_int(y, d), d)


def size_of_element(rs: RootSystem, w: AffineElement) -> int:
    """Sum of the delta levels over the inversion set of ``w^{-1}``."""
    return sum(ar.level for ar in inversions_of_inverse(rs, w))


@lru_cache(maxsize=None)
def _root_forms(rs: RootSystem, height: int) -> Tuple[Tuple[int, ...], ...]:
    """``f = A c`` for every root ``alpha`` of this height with coefficients ``c``:
    ``<x, alpha> = sum_i f_i x_i``."""
    return tuple(
        tuple(sum(map(mul, row, root.coeffs)) for row in rs.cartan)
        for root in roots_of_height(rs, height)
    )


def sommers_contains(rs: RootSystem, b: int, x: Sequence[Q | int]) -> bool:
    """Membership in the closed region cut out by the affine roots of height ``b``.

    Writing ``b = t h + r`` with ``0 < r < h``, the region is bounded below by
    ``<x, alpha> >= -t`` over roots of height ``r`` and above by
    ``<x, alpha> <= t + 1`` over roots of height ``h - r``.  A rational point
    is scaled to the integer vector ``d x`` and the bounds by ``d``.
    """
    h = rs.coxeter_number
    if b <= 0 or gcd(b, h) != 1:
        raise ValueError("b not coprime to Coxeter number")
    t, r = divmod(b, h)
    d, y = clear_denominators(x)
    return all(sum(map(mul, f, y)) >= -t * d for f in _root_forms(rs, r)) and all(
        sum(map(mul, f, y)) <= (t + 1) * d for f in _root_forms(rs, h - r)
    )


def alcove_vertices(rs: RootSystem, b: int) -> List[Vector]:
    """Vertices of ``b * A``: the origin and ``(b / c_i) * omega_check_i``."""
    return [tuple(Q(0) for _ in range(rs.rank))] + [
        tuple(Q(b, m) * v for v in w) for m, w in zip(rs.marks, rs.fund_coweights)]


def compute_w_b(rs: RootSystem, b: int) -> AffineElement:
    """The unique element mapping ``rho_check/h`` to ``b rho_check/h``.

    Its inverse carries ``b * A`` onto the height-``b`` bounded region, which
    is checked here on the vertex set (a ``VerificationError`` if it fails).
    """
    h = rs.coxeter_number
    if b <= 0 or gcd(b, h) != 1:
        raise ValueError("b not coprime to Coxeter number")
    d, y = clear_denominators(base_point(rs))
    target = [b * v for v in y]
    elem = element_from_word(rs, alcove_walk(rs, [Q(v, d) for v in target])[1])
    if list(elem.apply_int(y, d)) != target:
        raise VerificationError("w_b does not map rho_check/h to %d rho_check/h" % b)
    winv = elem.inverse(rs)
    if not all(sommers_contains(rs, b, [Q(v, e) for v in winv.apply_int(z, e)])
               for e, z in map(clear_denominators, alcove_vertices(rs, b))):
        raise VerificationError("w_b^-1 moves a vertex of %dA off the height-%d region" % (b, b))
    return elem


@lru_cache(maxsize=None)
def w_b_inverse(rs: RootSystem, b: int) -> AffineElement:
    """The inverse of ``w_b``, which carries ``b * A`` onto the height-``b`` region.

    ``w_b`` lies in ``W ⋉ Q^∨``, so the translation is integral (checked), as
    :meth:`AffineElement.apply_int` needs.
    """
    winv = compute_w_b(rs, b).inverse(rs)
    if not all(isinstance(t, int) for t in winv.translation):
        raise VerificationError("w_b^-1 translates by a non-integral vector at b=%d" % b)
    return winv


def to_dominant(rs: RootSystem, x: Sequence, d: int = 1) -> Tuple[int, Tuple[int, ...], Word]:
    """Walk ``x / d`` into the closed dominant chamber; return a denominator
    ``e`` (``d`` for integer ``x``), the point reached scaled by ``e`` to
    integers, and the word, whose element maps it back (as in :func:`alcove_walk`).

    Reflects through the lowest-index wall with a negative pairing until none
    is left, on the scaled point and its integer pairings.
    """
    e, y = clear_denominators(x)
    y, word = _walk(rs, d * e, y, False)
    return d * e, tuple(y), word
