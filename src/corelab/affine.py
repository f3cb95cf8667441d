"""Affine Weyl group elements, alcove walks, and inversion sets.

Elements act on coroot coordinates as ``x -> M x + tau`` with an integer
linear part ``M`` (a finite Weyl group matrix) and an exact rational
translation ``tau``, integral on the affine Weyl group ``W ⋉ Q^∨``.
Elements of the extended group (nontrivial coweight translations) carry
``extended=True``; the same composition engine serves both groups.

The fundamental alcove is ``A = {x : <x, alpha_i> >= 0, <x, alpha~> <= 1}``
and the base point used to pin down elements from alcoves is ``rho_check/h``,
the unique point of ``(1/h) * coweight lattice`` interior to ``A``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import List, Sequence, Tuple

from corelab.rootsys import (
    RootSystem,
    Vector,
    clear_denominators,
    mat_vec,
    pairing,
    root_vector,
    roots_of_height,
    vec_scale,
    vec_sub,
    vector_to_root_coeffs,
)

Word = Tuple[int, ...]

IntMatrix = Tuple[Tuple[int, ...], ...]


def _freeze_vec(v: Sequence[Q | int]) -> Vector:
    return tuple(Q(x) for x in v)


def _mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class AffineElement:
    """An element ``x -> linear @ x + translation`` of the (extended) affine group."""

    linear: IntMatrix
    translation: Vector
    extended: bool = field(default=False, compare=False)

    @classmethod
    def identity(cls, rank: int) -> "AffineElement":
        return cls(_identity_matrix(rank), tuple(Q(0) for _ in range(rank)))

    def apply(self, x: Sequence[Q]) -> Vector:
        return tuple(m + t for m, t in zip(mat_vec(self.linear, x), self.translation))

    def apply_int(self, y: Sequence[int], d: int = 1) -> Tuple[int, ...]:
        """``d * self(y / d)`` for an integer vector ``y``, in ``int`` arithmetic;
        the translation must be stored as ints, as :func:`w_b_inverse` does."""
        return tuple(
            sum(map(mul, row, y)) + d * t for row, t in zip(self.linear, self.translation)
        )

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        return AffineElement(
            _mat_mul(self.linear, other.linear),
            tuple(m + t for m, t in zip(mat_vec(self.linear, other.translation),
                                        self.translation)),
            self.extended or other.extended,
        )

    def inverse(self) -> "AffineElement":
        n = len(self.linear)
        from corelab.rootsys import invert_matrix

        inv_q = invert_matrix([[Q(x) for x in row] for row in self.linear])
        inv = tuple(tuple(int(x) for x in row) for row in inv_q)
        tau = tuple(-x for x in mat_vec(inv, self.translation))
        return AffineElement(inv, tau, self.extended)

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

    def is_positive(self) -> bool:
        if self.level != 0:
            return self.level > 0
        return all(c >= 0 for c in self.coeffs)


@lru_cache(maxsize=None)
def _root_coeff_set(rs: RootSystem) -> frozenset:
    return frozenset(r.coeffs for r in rs.positive_roots)


def simple_reflection(rs: RootSystem, i: int) -> AffineElement:
    """Reflection in wall ``i``; ``i = 0`` is the affine wall ``<x, alpha~> = 1``."""
    n = rs.rank
    if not 0 <= i <= n:
        raise ValueError(f"reflection index {i} out of range")
    if i == 0:
        u = [sum(rs.cartan[k][j] * rs.marks[j] for j in range(n)) for k in range(n)]
        d = rs.comarks
        mat = tuple(
            tuple(int(r == c) - d[r] * u[c] for c in range(n)) for r in range(n)
        )
        return AffineElement(mat, _freeze_vec(d))
    j = i - 1
    mat = tuple(
        tuple(int(r == c) - (rs.cartan[c][j] if r == j else 0) for c in range(n))
        for r in range(n)
    )
    return AffineElement(mat, tuple(Q(0) for _ in range(n)))


@lru_cache(maxsize=None)
def _walk_data(rs: RootSystem):
    """Precomputed sparse data for walks and reflection products.

    ``u = A c`` gives the highest-root pairing as a linear form in the
    coordinates, ``ad = A^T d`` the pairing shift under the affine
    reflection, and the nonzero patterns of the Cartan matrix keep the
    per-step updates proportional to the diagram valence.
    """
    n = rs.rank
    A = rs.cartan
    c = rs.marks
    d = rs.comarks
    u = tuple(sum(A[k][j] * c[j] for j in range(n)) for k in range(n))
    ad = tuple(sum(A[j][k] * d[j] for j in range(n)) for k in range(n))
    nz_row = tuple(
        tuple(k for k in range(n) if A[j][k] != 0) for j in range(n)
    )
    nz_col = tuple(
        tuple(l for l in range(n) if A[l][j] != 0) for j in range(n)
    )
    nz_u = tuple(l for l in range(n) if u[l] != 0)
    return u, ad, nz_row, nz_col, nz_u


def _rmul_simple(rs: RootSystem, elem: AffineElement, j: int) -> AffineElement:
    """``elem * s_j`` using the sparsity of the reflection, without a full product."""
    n = rs.rank
    A = rs.cartan
    u, _ad, _nr, nz_col, nz_u = _walk_data(rs)
    M = [list(row) for row in elem.linear]
    if j == 0:
        d = rs.comarks
        ed = [sum(M[i][k] * d[k] for k in range(n)) for i in range(n)]
        for i in range(n):
            if ed[i]:
                for l in nz_u:
                    M[i][l] -= ed[i] * u[l]
        tau = tuple(t + e for t, e in zip(elem.translation, ed))
    else:
        jj = j - 1
        for i in range(n):
            eij = M[i][jj]
            if eij:
                for l in nz_col[jj]:
                    M[i][l] -= eij * A[l][jj]
        tau = elem.translation
    return AffineElement(tuple(tuple(row) for row in M), tau, elem.extended)


def element_from_word(rs: RootSystem, word: Sequence[int]) -> AffineElement:
    """Compose ``s_{word[0]} o s_{word[1]} o ...`` (rightmost letter acts first)."""
    out = AffineElement.identity(rs.rank)
    for i in word:
        if not 0 <= i <= rs.rank:
            raise ValueError(f"reflection index {i} out of range")
        out = _rmul_simple(rs, out, i)
    return out


def alcove_walk(rs: RootSystem, x: Sequence[Q]) -> Tuple[AffineElement, Word]:
    """Walk ``x`` into the fundamental alcove; return the element whose alcove held it.

    Repeatedly reflects through the lowest-index violated wall (walls
    ``1..n`` in order, then the affine wall ``0``) until no wall is violated.
    Letters are recorded in discovery order, so the returned element is
    ``s_{i_1} o ... o s_{i_k}`` and it maps the final interior point back to
    ``x``.  A point on any wall encountered during the walk raises
    ``ValueError("point not regular")``.
    """
    n = rs.rank
    A = rs.cartan
    xq = _freeze_vec(x)
    denom = lcm(*(v.denominator for v in xq)) if n else 1
    xi = [int(v * denom) for v in xq]
    u, ad, nz_row, _nc, _nu = _walk_data(rs)
    # pair[i] = denom * <x, alpha_{i+1}>, hr = denom * <x, highest root>
    pair = [sum(A[k][i] * xi[k] for k in range(n)) for i in range(n)]
    hr = sum(rs.marks[j] * pair[j] for j in range(n))
    word: List[int] = []
    while True:
        hit = None
        for i in range(n):
            v = pair[i]
            if v == 0:
                raise ValueError("point not regular")
            if v < 0:
                hit = (i + 1, v)
                break
        if hit is None:
            v0 = denom - hr
            if v0 == 0:
                raise ValueError("point not regular")
            if v0 < 0:
                hit = (0, v0)
        if hit is None:
            break
        idx, val = hit
        if idx == 0:
            for k in range(n):
                xi[k] += val * rs.comarks[k]
                pair[k] += val * ad[k]
            hr += 2 * val
        else:
            j = idx - 1
            xi[j] -= val
            for k in nz_row[j]:
                pair[k] -= val * A[j][k]
            hr -= val * u[j]
        word.append(idx)
    elem = element_from_word(rs, word)
    final = tuple(Q(v, denom) for v in xi)
    assert elem.apply(final) == xq
    return elem, tuple(word)


def base_point(rs: RootSystem) -> Vector:
    """The regular point ``rho_check / h`` interior to the fundamental alcove."""
    return vec_scale(Q(1, rs.coxeter_number), rs.rho_check)


def word_of(rs: RootSystem, w: AffineElement) -> Word:
    """A reduced word for a (non-extended) element, recovered by an alcove walk."""
    assert not w.extended
    elem, word = alcove_walk(rs, w.apply(base_point(rs)))
    assert elem == w
    return word


def simple_affine_root(rs: RootSystem, i: int) -> AffineRoot:
    if i == 0:
        return AffineRoot(tuple(-c for c in rs.marks), 1)
    return AffineRoot(tuple(int(j == i - 1) for j in range(rs.rank)), 0)


def apply_to_affine_root(rs: RootSystem, g: AffineElement, ar: AffineRoot) -> AffineRoot:
    """Image of a real affine root under ``g``: ``alpha + k delta`` maps to
    ``g(alpha) + (k - <tau, g(alpha)>) delta``."""
    vec = root_vector(rs, ar.coeffs)
    new_vec = mat_vec(g.linear, vec)
    coeffs = vector_to_root_coeffs(rs, new_vec)
    abs_coeffs = tuple(abs(c) for c in coeffs)
    assert abs_coeffs in _root_coeff_set(rs)
    shift = pairing(rs, g.translation, coeffs)
    assert shift.denominator == 1
    return AffineRoot(coeffs, ar.level - int(shift))


def inversions_of_word(rs: RootSystem, word: Sequence[int]) -> List[AffineRoot]:
    """Left inversion set of the element with the given reduced word, in word order."""
    g = AffineElement.identity(rs.rank)
    out: List[AffineRoot] = []
    for i in word:
        out.append(apply_to_affine_root(rs, g, simple_affine_root(rs, i)))
        g = _rmul_simple(rs, g, i)
    return out


def inversions_of_inverse(rs: RootSystem, w: AffineElement) -> List[AffineRoot]:
    """The inversion set of ``w^{-1}``, computed from a reduced word of ``w``.

    For ``w`` with reduced word ``(i_1, ..., i_k)`` the reversed word is
    reduced for ``w^{-1}`` and the inversions are the prefix images of the
    simple affine roots.  All returned roots are positive and pairwise
    distinct.
    """
    word = word_of(rs, w)
    out = inversions_of_word(rs, tuple(reversed(word)))
    assert all(ar.is_positive() for ar in out)
    assert len(set(out)) == len(out)
    return out


def size_of_element(rs: RootSystem, w: AffineElement) -> int:
    """Sum of the delta levels over the inversion set of ``w^{-1}``."""
    return sum(ar.level for ar in inversions_of_inverse(rs, w))


def in_dilated_alcove(rs: RootSystem, b: int, x: Sequence[Q]) -> bool:
    """Membership in the closed dilated alcove ``b * A`` (``b >= 0``)."""
    if b < 0:
        raise ValueError("dilation factor must be nonnegative")
    xq = _freeze_vec(x)
    for i in range(rs.rank):
        simple = tuple(int(j == i) for j in range(rs.rank))
        if pairing(rs, xq, simple) < 0:
            return False
    return pairing(rs, xq, rs.highest_root.coeffs) <= b


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
    verts = [tuple(Q(0) for _ in range(rs.rank))]
    for i in range(rs.rank):
        verts.append(vec_scale(Q(b, rs.marks[i]), rs.fund_coweights[i]))
    return verts


def compute_w_b(rs: RootSystem, b: int) -> AffineElement:
    """The unique element mapping ``rho_check/h`` to ``b rho_check/h``.

    Its inverse carries ``b * A`` onto the height-``b`` bounded region, which
    is checked here on the vertex set.
    """
    h = rs.coxeter_number
    if b <= 0 or gcd(b, h) != 1:
        raise ValueError("b not coprime to Coxeter number")
    base = base_point(rs)
    target = vec_scale(Q(b), base)
    elem, _word = alcove_walk(rs, target)
    assert elem.apply(base) == target
    winv = elem.inverse()
    for v in alcove_vertices(rs, b):
        assert sommers_contains(rs, b, winv.apply(v))
    return elem


@lru_cache(maxsize=None)
def w_b_inverse(rs: RootSystem, b: int) -> AffineElement:
    """The inverse of ``w_b``, which carries ``b * A`` onto the height-``b`` region.

    ``w_b`` lies in ``W ⋉ Q^∨``, so the translation is integral (asserted) and
    is stored as ints for :meth:`AffineElement.apply_int`.
    """
    winv = compute_w_b(rs, b).inverse()
    assert all(t.denominator == 1 for t in winv.translation)
    return AffineElement(winv.linear, tuple(t.numerator for t in winv.translation))


def to_dominant(rs: RootSystem, x: Sequence[Q]) -> AffineElement:
    """A finite Weyl element ``u`` with ``u(x)`` in the closed dominant chamber."""
    n = rs.rank
    xq = list(_freeze_vec(x))
    out = AffineElement.identity(n)
    while True:
        for i in range(n):
            v = sum(rs.cartan[k][i] * xq[k] for k in range(n))
            if v < 0:
                xq[i] -= v
                out = simple_reflection(rs, i + 1) * out
                break
        else:
            return out


def omega_group(rs: RootSystem) -> List[AffineElement]:
    """The stabilizer of the fundamental alcove in the extended affine group.

    One element per coset of the coroot lattice in the coweight lattice: the
    identity plus, for each mark-1 node, the element translating by that
    fundamental coweight composed with the finite Weyl part that returns the
    alcove to itself.  Every element fixes ``rho_check/h`` and permutes the
    alcove's vertex set; the group is abelian of order ``index_f``.
    """
    n = rs.rank
    base = base_point(rs)
    verts = alcove_vertices(rs, 1)
    elements = [AffineElement.identity(n)]
    for i in range(n):
        if rs.marks[i] != 1:
            continue
        mu = rs.fund_coweights[i]
        u = to_dominant(rs, vec_sub(base, mu))
        assert u.apply(vec_sub(base, mu)) == base
        g = AffineElement(u.inverse().linear, mu, extended=True)
        assert g.apply(base) == base
        assert {g.apply(v) for v in verts} == set(verts)
        elements.append(g)
    assert len(elements) == rs.index_f
    return [elements[0]] + sorted(elements[1:], key=lambda g: g.translation)


def b_omega_action(rs: RootSystem, b: int, g: AffineElement, x: Sequence[Q]) -> Vector:
    """Action of the alcove stabilizer rescaled to ``b * A``: ``x -> M x + b tau``."""
    return tuple(
        m + b * t for m, t in zip(mat_vec(g.linear, x), g.translation)
    )
