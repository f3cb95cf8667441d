"""Affine Weyl group elements, alcove walks, and inversion sets.

Elements act on coroot coordinates as ``x -> M x + tau`` with an integer
linear part ``M`` (a finite Weyl group matrix) and an integer translation
``tau``: elements of ``W ⋉ Q^∨``.  Every element is composed from a word,
letter by letter on the rows of ``[M | t]`` (:func:`element_from_word`), and
the inverse of ``s_{i_1} ... s_{i_k}`` is the reversed word, so no matrix is
multiplied or inverted.  Points enter as an integer vector ``y`` over a
denominator ``d`` (``x = y / d``): an element acts through
:meth:`AffineElement.apply_int`, and walks, region checks and inversion sets
run in ``int`` arithmetic too.

The fundamental alcove is ``A = {x : <x, alpha_i> >= 0, <x, alpha~> <= 1}``
and the base point used to pin down elements from alcoves is ``rho_check/h``,
the unique point of ``(1/h) * coweight lattice`` interior to ``A``.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from math import gcd
from operator import mul
from typing import List, Sequence, Tuple

from corelab.rootsys import (
    Record,
    RootSystem,
    VerificationError,
    Vector,
    clear_denominators,
    roots_of_height,
)

Word = Tuple[int, ...]

IntMatrix = Tuple[Tuple[int, ...], ...]


class AffineElement(Record):
    """An element ``x -> linear @ x + translation`` of the affine Weyl group."""

    __slots__ = ("linear", "translation")

    def __init__(self, linear: IntMatrix, translation: Vector) -> None:
        self.linear, self.translation = linear, translation

    def apply_int(self, y: Sequence[int], d: int = 1) -> Tuple[int, ...]:
        """``d * self(y / d)`` for an integer vector ``y``, in ``int`` arithmetic."""
        return tuple(
            sum(map(mul, row, y)) + d * t for row, t in zip(self.linear, self.translation)
        )

    def is_identity(self) -> bool:
        return not any(self.translation) and all(
            v == (i == j) for i, row in enumerate(self.linear) for j, v in enumerate(row))


class AffineRoot(Record):
    """A real affine root ``alpha + level * delta``.

    ``coeffs`` are the simple-root coefficients of the finite part (all of one
    sign); ``level`` is the delta coefficient.
    """

    __slots__ = ("coeffs", "level")

    def __init__(self, coeffs: Tuple[int, ...], level: int) -> None:
        self.coeffs, self.level = coeffs, level


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


def inversions_of_inverse(rs: RootSystem, word: Sequence[int]) -> List[AffineRoot]:
    """The inversion set of ``w^{-1}``, ``w`` spelled by ``word``: the walls
    between ``A`` and ``w^{-1}(A)``, at the base point moved by the reversed word."""
    d, y = clear_denominators(base_point(rs))
    return separating_walls(rs, element_from_word(rs, tuple(word)[::-1]).apply_int(y, d), d)


def size_of_element(rs: RootSystem, word: Sequence[int]) -> int:
    """Sum of the delta levels over the inversion set of ``w^{-1}``, ``w`` spelled by ``word``."""
    return sum(ar.level for ar in inversions_of_inverse(rs, word))


@lru_cache(maxsize=None)
def _root_forms(rs: RootSystem, height: int) -> Tuple[Tuple[int, ...], ...]:
    """``f = A c`` for every root ``alpha`` of this height with coefficients ``c``:
    ``<x, alpha> = sum_i f_i x_i``."""
    return tuple(
        tuple(sum(map(mul, row, root.coeffs)) for row in rs.cartan)
        for root in roots_of_height(rs, height)
    )


@lru_cache(maxsize=None)
def sommers_walls(rs: RootSystem, b: int) -> IntMatrix:
    """The forms ``f`` with ``f . (y, d) <= 0`` at every point ``x = y / d`` of the closed
    region cut out by the affine roots of height ``b = t h + r``, ``0 < r < h``:
    ``<x, alpha> >= -t`` over roots of height ``r``, ``<x, alpha> <= t + 1`` over ``h - r``."""
    h = rs.coxeter_number
    if b <= 0 or gcd(b, h) != 1:
        raise ValueError("b not coprime to Coxeter number")
    t, r = divmod(b, h)
    return tuple(tuple(-v for v in f) + (-t,) for f in _root_forms(rs, r)) + tuple(
        f + (-t - 1,) for f in _root_forms(rs, h - r))


def sommers_contains(rs: RootSystem, b: int, y: Sequence[int], d: int = 1) -> bool:
    """Membership of ``x = y / d`` in the height-``b`` region (:func:`sommers_walls`)."""
    return all(sum(map(mul, f, (*y, d))) <= 0 for f in sommers_walls(rs, b))


def alcove_vertices(rs: RootSystem, b: int) -> List[Vector]:
    """Vertices of ``b * A``: the origin and ``(b / c_i) * omega_check_i``."""
    return [tuple(Q(0) for _ in range(rs.rank))] + [
        tuple(Q(b, m) * v for v in w) for m, w in zip(rs.marks, rs.fund_coweights)]


def compute_w_b(rs: RootSystem, b: int) -> AffineElement:
    """``w_b^{-1}``, for the unique ``w_b`` mapping ``rho_check/h`` to ``b rho_check/h``.

    The walk of ``b rho_check/h`` into ``A`` spells ``w_b``, so its reversed
    word composes ``w_b^{-1}``.  That element must carry ``b rho_check/h`` back
    to ``rho_check/h`` and every vertex of ``b * A`` into the height-``b``
    region (a ``VerificationError`` if either fails).
    """
    h = rs.coxeter_number
    if b <= 0 or gcd(b, h) != 1:
        raise ValueError("b not coprime to Coxeter number")
    d, y = clear_denominators(base_point(rs))
    target = [b * v for v in y]
    winv = element_from_word(rs, alcove_walk(rs, [Q(v, d) for v in target])[1][::-1])
    if list(winv.apply_int(target, d)) != y:
        raise VerificationError("w_b does not map rho_check/h to %d rho_check/h" % b)
    if not all(sommers_contains(rs, b, winv.apply_int(z, e), e)
               for e, z in map(clear_denominators, alcove_vertices(rs, b))):
        raise VerificationError("w_b^-1 moves a vertex of %dA off the height-%d region" % (b, b))
    return winv


@lru_cache(maxsize=None)
def w_b_inverse(rs: RootSystem, b: int) -> AffineElement:
    """``w_b^{-1}``, which carries ``b * A`` onto the height-``b`` region:
    :func:`compute_w_b`, once per ``(rs, b)``."""
    return compute_w_b(rs, b)


def to_dominant(rs: RootSystem, y: Sequence[int], d: int) -> Tuple[Tuple[int, ...], Word]:
    """Walk ``x = y / d`` into the closed dominant chamber; return the point
    reached, scaled by ``d``, and the word, whose element maps it back (as in
    :func:`alcove_walk`).

    Reflects through the lowest-index wall with a negative pairing until none
    is left, on the integer vector and its pairings.
    """
    y, word = _walk(rs, d, list(y), False)
    return tuple(y), word
