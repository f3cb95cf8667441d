"""Slow reference implementations that the tests hold the fast paths to.

Nothing in corelab reads these.  Each one builds every point, cell or corner
it needs and evaluates it on its own, in Fractions where the fast path works
in integers, except the centered class fit, which interpolates one class at
a time.  ``det_int`` (integer elimination with row swaps) and
``invert_matrix`` (Gauss-Jordan in Fractions) are what ``rootsys.adjugate``
is held to, and ``root_string_closure`` (each root string probed one tuple
at a time) what ``rootsys._close_roots`` is held to.  ``fit_quasi``
assembles a whole quasipolynomial for the tests, and ``omega_group`` builds the alcove's stabilizer for the Omega-symmetry
tests, with ``compose``, the product of two elements by matrix products,
which corelab never forms: it composes every element from a word.
``core_by_beads`` reads a core off the abacus with a Python loop per
bead, for ``cores.core_from_coroot``.  The Fraction vector helpers
(``mat_vec``, ``inner``, ``pairing``, ``apply``, ``in_dilated_alcove``,
``size_point``) are the rational arithmetic that corelab's integer vectors
``y = d x`` are held to.  ``swept_core_product`` and ``swept_macdonald``
expand the q-series with one quadratic in-place sweep per factor
(``divide_by_binomial``, ``multiply_at_power``), for the sparse eta products
of ``genfun``.
"""

from collections import Counter
from fractions import Fraction as Q
from functools import lru_cache
from math import isqrt
from operator import mul
from typing import Collection, Dict, Iterator, List, Optional, Sequence, Tuple

from corelab.affine import (
    AffineElement,
    AffineRoot,
    alcove_vertices,
    alcove_walk,
    base_point,
    element_from_word,
    to_dominant,
    w_b_inverse,
)
from corelab.cores import Partition, is_a_core
from corelab.ehrhart import (
    HoldoutError,
    QuasiPolynomial,
    _lagrange_fit,
    fit_residues,
    quasi_period,
    weighted_lattice_sum,
)
from corelab.genfun import coxeter_char_poly, poly_add, poly_eval, poly_mul, poly_trim
from corelab.lattice_enum import (
    LatticePointSet,
    coroot_points_in_bA,
    iter_scaled_points,
    lattice_scale,
)
from corelab.rootsys import (
    QuadraticForm,
    Root,
    RootSystem,
    Vector,
    clear_denominators,
    roots_of_height,
)


def vec_add(x: Sequence[Q], y: Sequence[Q]) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def vec_scale(c: Q, x: Sequence[Q]) -> Vector:
    return tuple(c * a for a in x)


# each scales its vector argument to integers: one Fraction per result, not per product


def mat_vec(m: Sequence[Sequence[Q]], v: Sequence[Q]) -> Vector:
    d, y = clear_denominators(v)
    return tuple(Q(sum(map(mul, row, y)), d) for row in m)


def inner(rs: RootSystem, x: Sequence[Q], y: Sequence[Q]) -> Q:
    """Invariant inner product of two vectors in coroot coordinates."""
    d, a = clear_denominators(x)
    e, b = clear_denominators(y)
    return Q(sum(ai * sum(map(mul, row, b)) for ai, row in zip(a, rs.gram)), d * e)


def pairing(rs: RootSystem, x: Sequence[Q], root_coeffs: Sequence[int]) -> Q:
    """``<x, alpha>`` for ``alpha`` given by simple-root coefficients."""
    d, y = clear_denominators(x)
    return Q(sum(yi * sum(map(mul, row, root_coeffs)) for yi, row in zip(y, rs.cartan)), d)


def apply(g: AffineElement, x: Sequence[Q]) -> Vector:
    """``g(x) = M x + tau`` at a rational point."""
    return tuple(m + t for m, t in zip(mat_vec(g.linear, x), g.translation))


def compose(g: AffineElement, h: AffineElement) -> AffineElement:
    """``g o h``, ``x -> g(h(x))``: the product of the linear parts, and
    ``h``'s translation moved by ``g`` (Fractions allowed, for ``Omega``)."""
    n = len(g.linear)
    return AffineElement(
        tuple(tuple(sum(g.linear[i][k] * h.linear[k][j] for k in range(n)) for j in range(n))
              for i in range(n)),
        tuple(sum(map(mul, row, h.translation)) + t for row, t in zip(g.linear, g.translation)),
    )


def in_dilated_alcove(rs: RootSystem, b: int, x: Sequence[Q]) -> bool:
    """Membership in the closed dilated alcove ``b * A`` (``b >= 0``)."""
    simples = (tuple(int(j == i) for j in range(rs.rank)) for i in range(rs.rank))
    return (all(pairing(rs, x, simple) >= 0 for simple in simples)
            and pairing(rs, x, rs.highest_root.coeffs) <= b)


def fraction_points(points: LatticePointSet) -> List[Vector]:
    """The points ``x`` of a point set, which holds the integer vectors ``d * x``."""
    d = lattice_scale(points.rs, points.lattice)
    return [tuple(Q(v, d) for v in y) for y in points.points]


def size_point(rs: RootSystem, x: Sequence[Q]) -> Q:
    """Size by its definition ``g/2 <x, x> - <x, rho>``, in Fractions."""
    return Q(rs.dual_coxeter_number, 2) * inner(rs, x, x) - inner(rs, x, rs.rho)


def det_int(m: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Gaussian elimination."""
    n = len(m)
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                assert num % prev == 0
                a[i][j] = num // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def invert_matrix(m: Sequence[Sequence[Q]]) -> Tuple[Vector, ...]:
    """Exact inverse of a square matrix over the rationals (Gauss-Jordan)."""
    n = len(m)
    a = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def root_string_closure(cartan: Sequence[Sequence[int]]) -> List[Root]:
    """Generate all positive roots from the simples by root strings.

    Builds height by height: ``a + alpha_i`` is a root exactly when the
    downward string length through ``a`` in direction ``i`` exceeds the
    pairing ``<a, coroot_i>``.
    """
    n = len(cartan)
    known = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    layer = sorted(known)
    height = 1
    roots: List[Root] = [Root(c, 1) for c in layer]
    while layer:
        nxt = set()
        for a in layer:
            for i in range(n):
                pairing = sum(cartan[i][j] * a[j] for j in range(n))
                down = 0
                probe = list(a)
                while True:
                    probe[i] -= 1
                    if probe[i] < 0 or tuple(probe) not in known:
                        break
                    down += 1
                if down - pairing > 0:
                    up = list(a)
                    up[i] += 1
                    nxt.add(tuple(up))
        height += 1
        layer = sorted(nxt)
        known.update(nxt)
        roots.extend(Root(c, height) for c in layer)
    return roots


def root_vector(rs: RootSystem, coeffs: Sequence[int]) -> Vector:
    """Coroot-basis coordinates of the root with the given coefficients."""
    return tuple(coeffs[i] * rs.simple_lengths[i] for i in range(rs.rank))


def vector_to_root_coeffs(rs: RootSystem, vec: Sequence[Q]) -> Tuple[int, ...]:
    """Inverse of :func:`root_vector`; the result must be integral."""
    out = []
    for i in range(rs.rank):
        c = vec[i] / rs.simple_lengths[i]
        assert c.denominator == 1
        out.append(int(c))
    return tuple(out)


def q_form_point(rs: RootSystem, x: Sequence[Q]) -> Q:
    """The centered form ``F_0(x) = g/2 ||x||^2 - n (h+1)/24``; minimal value of size."""
    return QuadraticForm(rs, 0)(x)


def streamed_size_sums(rs: RootSystem, b: int, lattice: str) -> Tuple[int, Q]:
    """``alcove_size_sums`` by streaming every lattice point through ``F_b``."""
    d = lattice_scale(rs, lattice)
    form = QuadraticForm(rs, b)
    s0 = s1 = 0
    for y in iter_scaled_points(rs, b, lattice):
        s0 += 1
        s1 += form.scaled_at(y, d)
    return s0, Q(s1, 24 * d * d)


@lru_cache(maxsize=8)  # a form is keyed by identity, so one form's powers share a stream
def _streamed_values(rs: RootSystem, b: int, lattice: str, form: QuadraticForm) -> Tuple[int, ...]:
    d = lattice_scale(rs, lattice)
    return tuple(form.scaled_at(y, d) for y in iter_scaled_points(rs, b, lattice))


def streamed_value_counts(
    rs: RootSystem, b: int, lattice: str, form: QuadraticForm
) -> Counter:
    """``scaled_value_counts``: every point of the integer stream, evaluated on its own."""
    return Counter(_streamed_values(rs, b, lattice, form))


def streamed_power_sum(
    rs: RootSystem, b: int, k: int, lattice: str, form: QuadraticForm, center: int
) -> int:
    """The sum of ``(24 d^2 F(x) - center)^k`` over the stream, point by point."""
    return sum((v - center) ** k for v in _streamed_values(rs, b, lattice, form))


def zise_by_transport(rs: RootSystem, b: int, x: Sequence[Q]) -> Q:
    """Zise at one point: move it by ``w_b^{-1}`` in Fractions, then take its size."""
    return QuadraticForm(rs, 1)(apply(w_b_inverse(rs, b), x))


def folded_moments(rs: RootSystem, b: int) -> Dict[str, object]:
    """The moments of zise over the coroot points of ``b * A``, from every
    point moved by ``w_b^{-1}`` and folded as Fractions, with the central
    moments both from the power sums and from two centered folds."""
    values = [zise_by_transport(rs, b, x) for x in coroot_points_in_bA(rs, b).points]
    s0 = len(values)
    s1, s2, s3 = (sum(v**k for v in values) for k in (1, 2, 3))
    mean = Q(s1, s0)
    best = max(values)
    return {
        "count": s0,
        "max": best,
        "multiplicity": values.count(best),
        "mean": mean,
        "m2": s2 / s0 - mean * mean,
        "m3": s3 / s0 - 3 * mean * (s2 / s0) + 2 * mean**3,
        "centered_m2": sum((v - mean) ** 2 for v in values) / s0,
        "centered_m3": sum((v - mean) ** 3 for v in values) / s0,
    }


def truncated_product(c, f, s, truncation):
    """The series ``c`` times f(q^s), truncated: a plain convolution."""
    spread = [0] * (truncation + 1)
    for j, fj in enumerate(f):
        if j * s <= truncation:
            spread[j * s] = fj
    return [
        sum(c[i] * spread[k - i] for i in range(k + 1)) for k in range(truncation + 1)
    ]


def divide_by_binomial(c: List[int], s: int) -> None:
    """Divide the series ``c`` by 1 - q^s in place: ascending k reads the
    coefficients already divided."""
    for k in range(s, len(c)):
        c[k] += c[k - s]


def multiply_at_power(c: List[int], f: Sequence[int], s: int) -> None:
    """Multiply the series ``c`` by f(q^s) in place, for f(0) = 1: descending
    k reads only lower coefficients, which the sweep has not changed yet."""
    for k in range(len(c) - 1, s - 1, -1):
        c[k] += sum(f[j] * c[k - j * s] for j in range(1, min(len(f), k // s + 1)))


def swept_core_product(a: int, truncation: int) -> Tuple[int, ...]:
    """prod_{i >= 1} (1 - q^(a i))^a / (1 - q^i) to q^truncation, one
    quadratic sweep per factor."""
    c = [1] + [0] * truncation
    for i in range(1, truncation + 1):
        divide_by_binomial(c, i)
    for i in range(1, truncation // a + 1):
        for _ in range(a):
            multiply_at_power(c, (1, -1), a * i)
    return tuple(c)


def swept_macdonald(rs: RootSystem, truncation: int) -> Tuple[int, ...]:
    """prod_{i >= 1} f(q^i) (1 - q^(h i))^n to q^truncation for the Coxeter
    polynomial f, one quadratic sweep per factor."""
    c = [1] + [0] * truncation
    f, h = coxeter_char_poly(rs), rs.coxeter_number
    for i in range(1, truncation + 1):
        multiply_at_power(c, f, i)
    for i in range(1, truncation // h + 1):
        for _ in range(rs.rank):
            multiply_at_power(c, (1, -1), h * i)
    return tuple(c)


def box_size_ellipsoid(rs: RootSystem, N: int) -> List[Tuple[Tuple[int, ...], Q]]:
    """``coroot_points_in_size_ellipsoid`` by filtering the ellipsoid's whole
    bounding box: coordinate ``i`` lies within ``sqrt(R (G^-1)_ii)`` of
    ``rho_i / g``, ``R = 2/g (N + n(h+1)/24)``, and every box point whose
    size is at most ``N`` is kept, in coordinate order."""
    n = rs.rank
    g = rs.dual_coxeter_number
    center = tuple(Q(v, g) for v in rs.rho)
    radius_sq = Q(2, g) * (N + Q(n * (rs.coxeter_number + 1), 24))
    ginv = invert_matrix([list(row) for row in rs.gram])
    ranges = []
    for i in range(n):
        bound = radius_sq * ginv[i][i]
        s = isqrt(bound.numerator // bound.denominator) + 1  # s^2 >= bound
        num, den = center[i].numerator, center[i].denominator
        ranges.append(range((num - s * den) // den, -((-num - s * den) // den) + 1))
    form = QuadraticForm(rs, 1)
    out = []

    # carry <x, x> and l . x = -sum(x) incrementally, coordinate by coordinate
    def rec(i: int, prefix: List[int], square: int, linear: int):
        if i == n:
            s = form.scaled(square, linear)
            if s <= 24 * N:
                assert s % 24 == 0
                out.append((tuple(prefix), Q(s // 24)))
            return
        row = rs.gram[i]
        cross = sum(row[j] * prefix[j] for j in range(i))
        for v in ranges[i]:
            prefix.append(v)
            rec(i + 1, prefix, square + row[i] * v * v + 2 * v * cross, linear - v)
            prefix.pop()

    rec(0, [], 0, 0)
    return out


def simple_affine_root(rs: RootSystem, i: int) -> AffineRoot:
    """``alpha_i`` for ``1 <= i <= n``, and ``-theta + delta`` for ``i = 0``."""
    if i == 0:
        return AffineRoot(tuple(-c for c in rs.marks), 1)
    return AffineRoot(tuple(int(j == i - 1) for j in range(rs.rank)), 0)


def apply_to_affine_root(rs: RootSystem, g: AffineElement, ar: AffineRoot) -> AffineRoot:
    """``alpha + k delta`` maps to ``g(alpha) + (k - <tau, g(alpha)>) delta``: the
    root as a Fraction vector through the linear part, the shift a Fraction pairing."""
    coeffs = vector_to_root_coeffs(rs, mat_vec(g.linear, root_vector(rs, ar.coeffs)))
    shift = pairing(rs, g.translation, coeffs)
    assert shift.denominator == 1
    return AffineRoot(coeffs, ar.level - int(shift))


def inversions_by_word(rs: RootSystem, w: AffineElement) -> List[AffineRoot]:
    """``inversions_of_inverse`` from a reduced word.  The alcove walk of
    ``w(rho_check/h)`` gives a reduced word of ``w``; its reverse is reduced
    for ``w^{-1}``, whose inversions are the simple affine roots moved by the
    prefix before each letter."""
    base = base_point(rs)
    final, word = alcove_walk(rs, apply(w, base))
    assert final == base
    g = element_from_word(rs, ())
    out = []
    for i in reversed(word):
        out.append(apply_to_affine_root(rs, g, simple_affine_root(rs, i)))
        g = compose(g, element_from_word(rs, (i,)))
    return out


def affine_reflection_by_definition(rs: RootSystem) -> AffineElement:
    """``s_0(x) = x - (<x, theta> - 1) theta^vee`` as a dense element in
    Fractions, with ``theta^vee = 2 theta / (theta, theta)``."""
    n = rs.rank
    theta = rs.highest_root.coeffs
    vec = root_vector(rs, theta)
    check = tuple(2 * v / inner(rs, vec, vec) for v in vec)
    pairs = [pairing(rs, tuple(int(j == k) for j in range(n)), theta) for k in range(n)]
    mat = tuple(tuple(int(i == k) - check[i] * pairs[k] for k in range(n)) for i in range(n))
    return AffineElement(mat, check)


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
    elements = [element_from_word(rs, ())]
    for i in range(n):
        if rs.marks[i] != 1:
            continue
        mu = rs.fund_coweights[i]
        d, y = clear_denominators([a - m for a, m in zip(base, mu)])
        word = to_dominant(rs, y, d)[1]
        g = AffineElement(element_from_word(rs, word).linear, mu)
        assert apply(g, base) == base
        assert {apply(g, v) for v in verts} == set(verts)
        elements.append(g)
    assert len(elements) == rs.index_f
    return [elements[0]] + sorted(elements[1:], key=lambda g: g.translation)


def b_omega_action(rs: RootSystem, b: int, g: AffineElement, x: Sequence[Q]) -> Vector:
    """Action of the alcove stabilizer rescaled to ``b * A``: ``x -> M x + b tau``."""
    return tuple(m + b * t for m, t in zip(mat_vec(g.linear, x), g.translation))


def alcove_walk_by_fractions(rs: RootSystem, x: Sequence[Q]) -> Tuple[Vector, Tuple[int, ...]]:
    """``alcove_walk`` in Fractions: every wall's pairing recomputed at each
    step, ``s_i(x) = x - <x, alpha_i> alpha_i^vee`` applied as defined, and
    ``s_0`` as :func:`affine_reflection_by_definition`."""
    n = rs.rank
    s0 = affine_reflection_by_definition(rs)
    x = list(x)
    word: List[int] = []
    while True:
        pairs = [pairing(rs, x, tuple(int(j == i) for j in range(n))) for i in range(n)]
        top = pairing(rs, x, rs.highest_root.coeffs)
        if 0 in pairs or top == 1:
            raise ValueError("point not regular")
        i = next((i for i, v in enumerate(pairs) if v < 0), None)
        if i is not None:
            x[i] -= pairs[i]
            word.append(i + 1)
        elif top > 1:
            x = list(apply(s0, x))
            word.append(0)
        else:
            return tuple(x), tuple(word)


def fraction_lagrange_fit(xs: Sequence[int], ys: Sequence[Q]) -> Tuple[Q, ...]:
    """Lagrange interpolation term by term in Fractions: the routine
    :func:`corelab.ehrhart._lagrange_fit` is held to."""
    assert len(xs) == len(ys) and len(set(xs)) == len(xs)
    total: Tuple[Q, ...] = (Q(0),)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if yi == 0:
            continue
        num: Tuple[Q, ...] = (Q(1),)
        den = Q(1)
        for j, xj in enumerate(xs):
            if j != i:
                num = poly_mul(num, (Q(-xj), Q(1)))
                den *= xi - xj
        total = poly_add(total, tuple(yi / den * c for c in num))
    return poly_trim(total)


def centered_class_fit(rs: RootSystem, k: int, residue: int) -> Tuple[Q, ...]:
    """Coroot class ``residue`` of the sum of (F_b - mean)^k, the mean being
    n(b-1)(h+b+1)/24, interpolated alone at the class's n + 2k + 1 smallest
    dilations and checked at the next two: the per-class fit that the
    centered :func:`corelab.ehrhart.coprime_polynomial` must equal."""
    m = quasi_period(rs, "coroot")
    samples = [residue + m * t for t in range(rs.rank + 2 * k + 3)]
    values = [weighted_lattice_sum(rs, b, k, "coroot", True) for b in samples]
    poly = _lagrange_fit(samples[:-2], values[:-2])
    assert [poly_eval(poly, b) for b in samples[-2:]] == values[-2:]
    return poly


def fit_quasi(
    rs: RootSystem,
    k: int,
    lattice: str,
    residues: Optional[Sequence[int]] = None,
) -> QuasiPolynomial:
    """Fit components for the given residue classes (all classes by default)
    through :func:`corelab.ehrhart.fit_residues`; a missed holdout raises its
    HoldoutError."""
    m = quasi_period(rs, lattice)
    chosen = tuple(range(m) if residues is None else residues)
    components: List[Optional[Tuple[Q, ...]]] = [None] * m
    for residue, poly in fit_residues(rs, k, lattice, chosen):
        if isinstance(poly, HoldoutError):
            raise poly
        components[residue] = poly
    return QuasiPolynomial(m, tuple(components), rs.rank + 2 * k)


def floor_sums_by_terms(rs: RootSystem, b: int) -> List[Q]:
    """The floor sums of ``floor_identity_check`` term by term in Fractions:
    the general sum over 0 < i < b and 0 < j <= floor(i h / b) of (b - i)
    times the number of roots of height h - j, then the type A or D
    specialization over 0 < i < b."""
    n, h = rs.rank, rs.coxeter_number
    general = Q(0)
    for i in range(1, b):
        for j in range(1, (i * h) // b + 1):
            general += (b - i) * len(roots_of_height(rs, h - j))
    sums = [general]
    if rs.family == "A":
        a_sum = Q(0)
        for i in range(1, b):
            fl = (i * (n + 1)) // b
            a_sum += Q(b - i, 2) * fl * (1 + fl)
        sums.append(a_sum)
    if rs.family == "D":
        d_sum = Q(0)
        for i in range(1, b):
            fl = (i * (2 * n - 2)) // b
            low = sum((j + 1) // 2 for j in range(1, min(fl, n - 2) + 1))
            high = sum(-((-(j + 3)) // 2) for j in range(n - 2, fl))
            d_sum += (b - i) * (low + high)
        sums.append(d_sum)
    return sums


def hook_lengths(p: Partition) -> List[int]:
    """Hook lengths of every cell, in row-major order."""
    conj = p.conjugate().parts
    out = []
    for r, row_len in enumerate(p.parts, start=1):
        for c in range(1, row_len + 1):
            out.append(row_len - c + conj[c - 1] - r + 1)
    return out


def core_by_beads(a: int, lam: Sequence[int]) -> Tuple[int, ...]:
    """The parts of the ``a``-core at the coroot point ``lam``, read off the
    abacus one bead at a time: pad ``lam`` to ``(0, lam_1, ..., 0)``; runner
    ``i < a`` holds a bead at ``i + a k`` for ``min gap <= k < lam_{i+1} - lam_i``,
    and every position below holds one too; part ``r`` is ``beta_r + r``, ``beta_r``
    the ``r``-th largest bead, while that is positive."""
    coords = [0] + [int(v) for v in lam] + [0]
    gaps = [coords[i + 1] - coords[i] for i in range(a)]
    low = min(gaps)
    beads = (i + a * k for i, top in enumerate(gaps) for k in range(low, top))
    out = []
    for r, beta in enumerate(sorted(beads, reverse=True), 1):
        if beta + r <= 0:
            break
        out.append(beta + r)
    return tuple(out)


def corners(parts: Sequence[int]) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """Addable and removable corners as (1-indexed row, content) pairs."""
    addable = []
    removable = []
    rows = len(parts)
    for r in range(rows + 1):
        here = parts[r] if r < rows else 0
        above = parts[r - 1] if r > 0 else None
        if above is None or above > here:
            addable.append((r + 1, here + 1 - (r + 1)))
        if r < rows and parts[r] > 0 and (r + 1 >= rows or parts[r + 1] < parts[r]):
            removable.append((r + 1, parts[r] - (r + 1)))
    return addable, removable


def toggle_corners_by_scan(
    parts: Tuple[int, ...], m: int, residues: Collection[int]
) -> Tuple[int, ...]:
    """``toggle_corners`` from a scan of the corners: add every addable
    corner whose content mod ``m`` lies in ``residues``, or, if there is
    none, remove every such removable corner; the two never coexist."""
    addable, removable = corners(parts)
    add_hits = [r for r, c in addable if c % m in residues]
    rem_hits = [r for r, c in removable if c % m in residues]
    assert not (add_hits and rem_hits)
    out = list(parts)
    if add_hits:
        for r in add_hits:
            if r - 1 < len(out):
                out[r - 1] += 1
            else:
                out.append(1)
    elif rem_hits:
        for r in rem_hits:
            out[r - 1] -= 1
        while out and out[-1] == 0:
            out.pop()
    return tuple(out)


def partitions_of(k: int, max_part: int) -> Iterator[Tuple[int, ...]]:
    """Every partition of ``k`` with parts at most ``max_part``."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, max_part), 0, -1):
        for rest in partitions_of(k - first, first):
            yield (first,) + rest


def core_counting_coefficients(a: int, N: int) -> List[int]:
    """Number of a-cores of each size ``0..N``, by direct partition search."""
    if a < 2:
        raise ValueError("modulus must be at least 2")
    if N < 0:
        raise ValueError("need N >= 0")
    return [
        sum(1 for parts in partitions_of(k, k) if is_a_core(Partition(parts), a))
        for k in range(N + 1)
    ]
