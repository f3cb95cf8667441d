"""Lattice point enumeration for dilated alcoves and related regions.

Coweight points of ``b * A`` are the solutions of the mark knapsack ``sum_i c_i x_i <= b``
in nonnegative integers, written in coroot coordinates as ``sum_i x_i omega_check_i``;
coroot points are those with integer coordinates.  Every walk of the knapsack steps the
class of each prefix (:func:`_class_steps`), so it visits the lattice's points alone, in
lexicographic order.  Every point list comes from one walk (:func:`_knapsack_walk`) of an
integer vector linear in ``x``: ``x`` itself, ``d * x`` (``d = lattice_scale(rs,
lattice)``), or its image under ``w_b^{-1}`` with the region's wall forms.  Folds build no
point: a walk counts the points at each value of a quadratic form
(:func:`scaled_value_counts`), and a dynamic program over budgets and classes, grown one
budget at a time, gives counts and powers of ``F_b`` (:func:`alcove_size_sums`).  Both read
one table of per-item data, :func:`_knapsack_items`."""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from itertools import combinations_with_replacement, islice, product
from math import gcd, isqrt, lcm
from operator import add, attrgetter, mul
from typing import Dict, List, Optional, Sequence, Tuple

from corelab.affine import sommers_walls, w_b_inverse
from corelab.rootsys import (
    QuadraticForm,
    Record,
    RootSystem,
    Vector,
    VerificationError,
    adjugate,
    clear_denominators,
    exponent_product,
    is_simply_laced,
)


class LatticePointSet(Record):
    """A set of lattice points ``x``, as the integer vectors ``d * x``,
    ``d = lattice_scale(rs, lattice)``, sorted by coroot coordinates."""

    __slots__ = ("rs", "b", "lattice", "points")

    def __init__(self, rs: RootSystem, b: int, lattice: str,
                 points: Tuple[Tuple[int, ...], ...]) -> None:
        self.rs, self.b, self.lattice, self.points = rs, b, lattice, points
        assert self.lattice in ("coweight", "coroot")
        assert list(self.points) == sorted(self.points)

    @property
    def count(self) -> int:
        return len(self.points)


def _knapsack_walk(rs: RootSystem, b: int, lattice: str, columns: Sequence[Sequence[int]],
                   origin: Sequence[int], den: int) -> Tuple[list, bool]:
    """The first ``n = rs.rank`` entries of ``(origin + sum_i x_i columns[i]) / den`` over
    the lattice's knapsack solutions ``x`` in lexicographic order, and whether the other entries
    stay at most 0.  A prefix carries its class and vector; along the last coefficient's
    progression a point adds one vector, so the other entries are bounded by its two ends."""
    if b < 0:
        raise ValueError("dilation must be nonnegative")
    steps, start, stride = _class_steps(rs, lattice)
    n, marks, last, columns = rs.rank, rs.marks, rs.rank - 1, list(columns)
    firsts = [None if t is None else tuple(t * v for v in columns[last]) for t in start]
    hop = tuple(stride * v // den for v in columns[last])
    kept, rest = hop[:n], hop[n:]
    cut, out, inside = den.__rfloordiv__, [], True

    def rec(i: int, budget: int, cls: int, vec: List[int]) -> None:
        nonlocal inside
        if i < last:
            step, column = steps[i], columns[i]
            for _ in range(budget // marks[i] + 1):
                rec(i + 1, budget, cls, vec)
                budget -= marks[i]
                vec = list(map(add, vec, column))  # a list: spent tuples stay on a free list
                cls = step[cls]
        elif firsts[cls] is not None and start[cls] * marks[i] <= budget:
            count = (budget // marks[i] - start[cls]) // stride
            full = map(cut, map(add, vec, firsts[cls]))
            y, s = tuple(islice(full, n)), list(full)
            if s and (max(s) > 0 or count and max(map(add, s, map(count.__mul__, rest))) > 0):
                inside = False
            out.append(y)
            for _ in range(count):
                y = tuple(map(add, y, kept))
                out.append(y)

    rec(0, b, 0, list(origin))
    del rec  # it refers to itself: free its working set now, not at a collection
    return out, inside


def iter_coweight_coeffs(rs: RootSystem, b: int, lattice: str) -> List[Tuple[int, ...]]:
    """The knapsack solutions ``sum c_i x_i <= b`` on the lattice, in lexicographic order."""
    unit = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    return _knapsack_walk(rs, b, lattice, unit, (0,) * rs.rank, 1)[0]


@lru_cache(maxsize=None)
def _scaled_coweight_rows(rs: RootSystem) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """Common denominator and integer rows of the coweight coordinate matrix
    ``(A^T)^-1``: its adjugate reduced by the gcd of ``f`` and its entries."""
    adj = rs.adj_cartan_t
    g = gcd(rs.index_f, *(v for row in adj for v in row))
    return rs.index_f // g, tuple(tuple(v // g for v in row) for row in adj)


KnapsackItem = Tuple[int, Tuple[int, ...], Tuple[int, ...], int, Tuple[int, ...]]


@lru_cache(maxsize=None)
def _knapsack_items(rs: RootSystem) -> Tuple[KnapsackItem, ...]:
    """Per fundamental coweight ``i``: ``(c_i, w, 2 G w, <w, w>, class shift)``.

    ``w = D * omega_check_i`` is the integer vector that taking the item once
    adds to ``y = D * x``, so ``<y + w, y + w> = <y, y> + <2 G w, y> + <w, w>``.
    The class shift is ``omega_check_i`` modulo the coroot lattice, as
    column ``i`` of the adjugate ``f * (A^T)^-1`` mod ``f``; a point is a
    coroot point exactly when its shifts add up to zero mod ``f``.
    """
    f = rs.index_f
    rows = _scaled_coweight_rows(rs)[1]
    items = []
    for i in range(rs.rank):
        w = tuple(row[i] for row in rows)
        gw2 = tuple(2 * sum(map(mul, grow, w)) for grow in rs.gram)
        cls_shift = tuple(row[i] % f for row in rs.adj_cartan_t)
        items.append((rs.marks[i], w, gw2, sum(map(mul, w, gw2)) // 2, cls_shift))
    return tuple(items)


@lru_cache(maxsize=None)
def _class_steps(
    rs: RootSystem, lattice: str
) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Optional[int], ...], int]:
    """The classes of knapsack prefixes that the lattice tells apart, by id.

    Returns ``(steps, start, stride)``: ``steps[i][c]`` is the class of a
    prefix of class ``c`` after item ``i`` is taken once more, and the
    prefixes of class ``c`` whose last coefficient ``t`` completes a lattice
    point are those with ``t = start[c] (mod stride)`` (none when ``start[c]``
    is ``None``).  The coweight lattice has one class and stride 1; on the
    coroot lattice the classes are the coweight lattice modulo the coroot
    lattice, class 0 the coroot points, and the stride the order of the last
    item's class shift.
    """
    items = _knapsack_items(rs)
    if lattice == "coweight":
        return tuple((0,) for _ in items), (0,), 1
    if lattice != "coroot":
        raise ValueError(f"unknown lattice {lattice!r}")
    f = rs.index_f
    zero = tuple(0 for _ in items)
    classes = [zero]
    ids = {zero: 0}
    for cls in classes:  # grows to the group the shifts generate
        for item in items:
            new = tuple((c + s) % f for c, s in zip(cls, item[4]))
            if new not in ids:
                ids[new] = len(classes)
                classes.append(new)
    if len(classes) != f:
        raise VerificationError("|P^vee/Q^vee| = %d, not f = %d" % (len(classes), f))
    steps = tuple(
        tuple(ids[tuple((c + s) % f for c, s in zip(cls, item[4]))] for cls in classes)
        for item in items
    )
    # a prefix of class c plus t last shifts is zero exactly when c = -t * shift
    negated = [ids[tuple(-c % f for c in cls)] for cls in classes]
    start: List[Optional[int]] = [None] * f
    multiple = stride = 0
    while start[negated[multiple]] is None:
        start[negated[multiple]] = stride
        multiple = steps[-1][multiple]
        stride += 1
    return steps, tuple(start), stride


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
    return {1}.issuperset(map(attrgetter("denominator"), x))


def iter_scaled_points(rs: RootSystem, b: int, lattice: str) -> List[Tuple[int, ...]]:
    """Every lattice point ``x`` of ``b * A`` as the integer vector ``d * x``,
    ``d = lattice_scale(rs, lattice)``, in knapsack order."""
    den, rows = _scaled_coweight_rows(rs)
    step = den // lattice_scale(rs, lattice)
    return _knapsack_walk(rs, b, lattice, list(zip(*rows)), (0,) * rs.rank, step)[0]


def scaled_value_counts(rs: RootSystem, b: int, lattice: str,
                        form: QuadraticForm) -> Dict[int, int]:
    """How many lattice points ``x`` of ``b * A`` take each value ``24 d^2 F(x)``,
    ``d = lattice_scale(rs, lattice)``, for any form ``F`` of ``rs`` (``F_b``
    for the fits, zise for the moments); no point is built.  Every power sum,
    the maximum and its multiplicity are read from this one count.

    The knapsack is walked coefficient by coefficient, carrying for the prefix
    ``y = D * x`` its lattice class and its value ``V = 24 D^2 F(y / D)``,
    which is linear in ``<y, y>`` and ``l . y``.  Taking item ``i`` ``v``
    more times adds ``v * (2 <w_i, y>) + v^2 <w_i, w_i>`` to ``<y, y>``, where
    ``2 <w_i, y> = sum_j 2 M_ij x_j`` over the prefix's coefficients ``x_j``,
    with ``M`` the integer Gram matrix of the scaled coweights ``w_i``.  So
    ``V`` is a quadratic in each coefficient; along the last one it is stepped
    by finite differences over the arithmetic progression that the lattice
    keeps, and a point costs O(1).
    """
    if b < 0:
        raise ValueError("dilation must be nonnegative")
    D = _scaled_coweight_rows(rs)[0]
    # V is (D / d)^2 times the counted value 24 d^2 F(x), exactly on the lattice
    e2 = (D // lattice_scale(rs, lattice)) ** 2
    items = _knapsack_items(rs)
    steps, start, stride = _class_steps(rs, lattice)
    last = len(items) - 1
    marks = [item[0] for item in items]
    # V's change for one more item i: v * (sum_j cross[i][j] x_j + linear[i]) + v^2 quad[i]
    unit = form.scaled(1, 0, D, 0)  # V per unit of <y, y>
    cross = [
        [unit * sum(map(mul, item[2], items[j][1])) for j in range(i)]
        for i, item in enumerate(items)
    ]
    linear = [form.scaled(0, form.dot(item[1]), D, 0) for item in items]
    quad = [unit * item[3] for item in items]
    x = [0] * len(items)
    # along the last coefficient: its second difference at steps of stride;
    # the prefix carries the sum over its coefficients of cross[last]
    mark, lin, a = marks[last], linear[last], quad[last]
    dd, rest = divmod(2 * stride * stride * a, e2)
    assert rest == 0
    counts: Dict[int, int] = {}
    get = counts.get

    def rec(i: int, budget: int, value: int, cls: int, tail: int) -> None:
        if i == last:
            t = start[cls]
            if t is not None and t * mark <= budget:
                slope = tail + lin
                delta = stride * (slope + (2 * t + stride) * a) // e2
                value = (value + t * (slope + t * a)) // e2
                for _ in range((budget // mark - t) // stride + 1):
                    counts[value] = get(value, 0) + 1
                    value += delta
                    delta += dd
            return
        weight, q, step, c = marks[i], quad[i], steps[i], cross[last][i]
        slope = sum(map(mul, cross[i], x)) + linear[i]
        for v in range(budget // weight + 1):
            x[i] = v
            rec(i + 1, budget - v * weight, value + v * (slope + v * q), cls, tail + v * c)
            cls = step[cls]

    rec(0, b, form.scaled(0, 0, D), 0, 0)
    del rec  # as in _knapsack_walk
    return counts


def coweight_points_in_bA(rs: RootSystem, b: int) -> LatticePointSet:
    """All coweight lattice points of the closed dilated alcove ``b * A``, scaled to ints."""
    points = _point_set(rs, b, "coweight", iter_scaled_points(rs, b, "coweight"))
    bound, columns = b * lattice_scale(rs, "coweight"), tuple(zip(*rs.cartan))
    for y in points.points[:64]:  # <x, alpha_i> >= 0 and <x, theta> <= b
        pairs = [sum(map(mul, col, y)) for col in columns]
        assert min(pairs) >= 0 and sum(map(mul, rs.marks, pairs)) <= bound
    return points


def _point_set(rs: RootSystem, b: int, lattice: str, points: list) -> LatticePointSet:
    """``points`` sorted.  On the coroot lattice, for ``b`` coprime to ``h``, they
    must be as many as Haiman's ``prod (b + e_i) / |W|`` coroot points of ``b * A``."""
    if (lattice == "coroot" and gcd(b, rs.coxeter_number) == 1
            and len(points) * rs.weyl_order != exponent_product(rs, b)):
        raise VerificationError("%d coroot points in %dA, not prod(b + e_i)/|W| = %s"
                                % (len(points), b, Q(exponent_product(rs, b), rs.weyl_order)))
    points.sort()
    return LatticePointSet(rs, b, lattice, tuple(points))


def coroot_points_in_bA(rs: RootSystem, b: int) -> LatticePointSet:
    """Coroot lattice points of ``b * A`` as integer tuples, counted by :func:`_point_set`."""
    return _point_set(rs, b, "coroot", iter_scaled_points(rs, b, "coroot"))


def core_points_in_sommers(rs: RootSystem, b: int, lattice: str = "coroot") -> LatticePointSet:
    """Lattice points ``d * x`` (``d = lattice_scale``) of the height-``b`` region, ``b``
    coprime to ``h``, carried from ``b * A`` by ``w_b^{-1} = M x + tau``: the coroot points
    are the cores.  One walk gives each ``(D tau + sum_i x_i M w_i) / (D / d)``, ``w_i = D
    omega_check_i``, with its wall forms (:func:`~corelab.affine.sommers_walls`), none > 0;
    :func:`_point_set` counts them."""
    n, winv, d = rs.rank, w_b_inverse(rs, b), lattice_scale(rs, lattice)
    D, rows = _scaled_coweight_rows(rs)
    # the columns M w_i and the origin D tau, each with the last coordinate the walls read
    moved = [winv.apply_int(w, 0) + (0,) for w in zip(*rows)] + [winv.apply_int((0,) * n, D) + (D,)]
    moved = [z[:n] + tuple(sum(map(mul, f, z)) for f in sommers_walls(rs, b)) for z in moved]
    points, inside = _knapsack_walk(rs, b, lattice, moved[:n], moved[n], D // d)
    if not inside:
        raise VerificationError("w_b^-1 moves a point of %dA off the height-%d region" % (b, b))
    return _point_set(rs, b, lattice, points)


def _ellipsoid_split(gram: Sequence[Sequence[int]]) -> List[Tuple[List[int], int]]:
    """Per coordinate ``i`` of a positive definite integer ``G``, the integers
    ``a_ij = T_{i+1} G_ij - G[i, i+1:] adj(G[i+1:, i+1:]) G[i+1:, j]``, ``j <= i``, and
    ``T_i T_{i+1}``, ``T_i = det G[i:, i:] = a_ii`` (``T_n = 1``), which make Fincke–Pohst's
    ``L^T D L`` fraction-free: ``z^T G z = sum_i (sum_j a_ij z_j)^2 / (T_i T_{i+1})``."""
    split = []
    for i, top in enumerate(gram):
        t, adj = adjugate([row[i + 1:] for row in gram[i + 1:]])
        left = [sum(map(mul, top[i + 1:], col)) for col in adj]  # adj and G are symmetric
        a = [t * top[j] - sum(map(mul, left, gram[j][i + 1:])) for j in range(i + 1)]
        split.append((a, a[i] * t))
    return split


def coroot_points_in_size_ellipsoid(rs: RootSystem, N: int) -> List[Tuple[Tuple[int, ...], int]]:
    """All coroot lattice points with size at most ``N``, with their sizes as
    ints, in coordinate order.

    Size is ``g/2 ||x - c||^2 - n(h+1)/24``, ``c = rho/g``.  Fincke–Pohst in ints:
    ``z = s (x - c)`` is integral and ``z^T G z`` a sum of terms ``u_i^2 / (T_i T_{i+1})``,
    ``u_i`` linear in ``x_0 .. x_i`` (:func:`_ellipsoid_split`); scaled by ``lcm T_i T_{i+1}``,
    each bounds ``x_i`` to the room its prefix leaves.  Leaves are checked against ``24 N``.
    """
    if N < 0:
        raise ValueError("size bound must be nonnegative")
    n, g, gram = rs.rank, rs.dual_coxeter_number, rs.gram
    s, e = clear_denominators([Q(v, g) for v in rs.rho])
    split = _ellipsoid_split(gram)
    scale = lcm(*(p for _, p in split))
    terms = [([s * v for v in a], -sum(map(mul, a, e)), scale // p) for a, p in split]
    radius = scale * (s * s * (24 * N + n * (rs.coxeter_number + 1)) // (12 * g))
    form = QuadraticForm(rs, 1)
    out: List[Tuple[Tuple[int, ...], int]] = []

    # carry the used radius, <x, x> and l . x = -sum(x), coordinate by coordinate
    def rec(i: int, prefix: List[int], used: int, square: int, linear: int):
        if i == n:
            size = form.scaled(square, linear)
            if size <= 24 * N:
                if size % 24:
                    raise VerificationError("size %d/24 of %s is not an integer" % (size, prefix))
                out.append((tuple(prefix), size // 24))
            return
        row, (a, shift, weight) = gram[i], terms[i]
        rest = sum(map(mul, a, prefix)) + shift  # u_i = a[i] x_i + rest
        reach = isqrt((radius - used) // weight)  # weight = scale / (T_i T_{i+1})
        cross = sum(map(mul, row, prefix))
        for v in range(-((reach + rest) // a[i]), (reach - rest) // a[i] + 1):
            prefix.append(v)
            rec(i + 1, prefix, used + weight * (a[i] * v + rest) ** 2,
                square + row[i] * v * v + 2 * v * cross, linear - v)
            prefix.pop()

    rec(0, [], 0, 0, 0)
    del rec  # as in _knapsack_walk
    return out


# per (system, lattice, K): the rows computed so far, and per knapsack item,
# slack last, its DP states at the last c_i budgets, that of budget B at B mod c_i
_SIZE_SUM_TABLES: Dict[Tuple[RootSystem, str, int], Tuple[List[List[int]], List[List[Dict]]]] = {}


def alcove_size_sums(rs: RootSystem, b: int, lattice: str, K: int = 1) -> Tuple[Optional[Q], ...]:
    """Power sums of ``F_b`` over ``b * A`` lattice points, by exact dynamic programming.

    Returns ``(S_0, ..., S_K)``: ``S_0`` is the number of points and ``S_k``
    the sum over them of the k-th power of the dilation-``b`` form ``F_b``
    (:class:`QuadraticForm`), the closed form of zise on simply-laced
    systems; on other systems only the count is given, the rest is ``None``.
    Each ``S_k`` is read off the row of ``b`` in a table, one per ``K``, of
    every dilation up to the largest one read so far for this system and
    lattice; a read past it extends the program by exactly the missing
    budgets (:func:`_grow_size_sums`), so every row is computed once, however
    the reads are ordered.  ``K = 0``, the count alone, runs cheapest.
    """
    if b < 0:
        raise ValueError("dilation must be nonnegative")
    key = (rs, lattice, K)
    rows, layers = _SIZE_SUM_TABLES.setdefault(key, ([], [[{}] * c for c in rs.marks + (1,)]))
    if b >= len(rows):
        _grow_size_sums(rs, lattice, K, rows, layers, b)
    sums = rows[b]
    if K == 0 or not is_simply_laced(rs):
        return (sums[0],) + (None,) * K
    index, D, form = _moment_maps(rs, K)[0], _scaled_coweight_rows(rs)[0], QuadraticForm(rs, b)
    value = _affine(form.scaled(0, 0, D), [form.scaled(1, 0, D, 0)]
                    + [form.scaled(0, v, D, 0) for v in form.linear])
    power: Poly = {(): 1}
    out = [sums[0]]
    for k in range(1, K + 1):
        power = _poly_mul(power, value)
        out.append(Q(sum(c * sums[index[m]] for m, c in power.items()), (24 * D * D) ** k))
    return tuple(out)


Poly = Dict[Tuple[int, ...], int]  # the sorted variable ids of a monomial -> its coefficient


def _poly_mul(p: Poly, r: Poly) -> Poly:
    out: Poly = {}
    for (a, u), (e, v) in product(p.items(), r.items()):
        key = tuple(sorted(a + e))
        out[key] = out.get(key, 0) + u * v
    return out


def _affine(const: int, coeffs: Sequence[int]) -> Poly:
    """``const + sum_j coeffs[j] v_j`` in the variables ``v = (q, y_1, ..., y_n)``, ids from 1."""
    return {(): const, **{(j,): c for j, c in enumerate(coeffs, 1) if c}}


@lru_cache(maxsize=None)
def _moment_maps(rs: RootSystem, K: int) -> Tuple[Dict[Tuple[int, ...], int], Tuple]:
    """The monomials ``q^a y^m``, ``a + |m| <= K``, by index, in rising degree;
    then per knapsack item, for each monomial the indices and coefficients of
    the sums that make its sum once the item is taken, as ``q -> q + <2 G w,
    y> + <w, w>`` and ``y -> y + w``, or ``None`` if the item moves no sum."""
    # the multisets of K of the ids 0 .. n + 1, with the placeholder 0 for degree < K dropped
    index = {tuple(v for v in c if v): i
             for i, c in enumerate(combinations_with_replacement(range(rs.rank + 2), K))}
    maps = []
    for _, w, gw2, ww, _ in _knapsack_items(rs):
        images = {1: _affine(ww, (1,) + gw2), **{j: {(): v, (j,): 1} for j, v in enumerate(w, 2)}}
        image_of: Dict[Tuple[int, ...], Poly] = {}
        rows = []
        for m in index:  # a monomial's image is that of its first factors times its last's
            image_of[m] = _poly_mul(image_of[m[:-1]], images[m[-1]]) if m else {(): 1}
            rows.append(tuple(zip(*((index[u], c) for u, c in image_of[m].items() if c))))
        maps.append(None if all(row == ((i,), (1,)) for i, row in enumerate(rows)) else rows)
    return index, tuple(maps)


def _grow_size_sums(rs: RootSystem, lattice: str, K: int, rows: List[List[int]],
                    layers: List[List[Dict]], top: int) -> None:
    """Append the rows of :func:`alcove_size_sums` up to ``top`` to ``rows``.

    The program runs over knapsack budgets and the lattice's classes of
    prefixes (:func:`_class_steps`), carrying the sums over the points of
    every monomial of :func:`_moment_maps`, and never materializes the point
    set.  Budget by budget, the state of item ``i`` is that of item ``i - 1``
    plus the item taken once more on its own state ``c_i`` budgets back, which
    ``layers[i]`` keeps.  The slack item comes last and keeps the class, so
    its state at ``beta`` holds every point of ``beta * A``, and class 0 of it
    the lattice points.
    """
    index, maps = _moment_maps(rs, K)
    steps = _class_steps(rs, lattice)[0]
    items = list(zip(maps, steps)) + [(None, range(len(steps[0])))]
    for budget in range(len(rows), top + 1):
        # state[cls]: the sums of the monomials, in the order of their index
        state: Dict[int, List[int]] = {0: [1] + [0] * (len(index) - 1)} if budget == 0 else {}
        for (images, step), ring in zip(items, layers):
            state = dict(state)
            for cls, sums in ring[budget % len(ring)].items():
                moved = sums if images is None else [
                    sum(map(mul, coeffs, map(sums.__getitem__, src))) for src, coeffs in images]
                old = state.get(step[cls])
                state[step[cls]] = moved if old is None else list(map(add, old, moved))
            ring[budget % len(ring)] = state
        # every budget holds the origin, so class 0 is never empty
        rows.append(state[0])
