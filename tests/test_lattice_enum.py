"""Tests for alcove lattice point enumeration and the exact size-sum fold."""

import gc
import io
import itertools
from fractions import Fraction as Q
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corelab import lattice_enum
from corelab.cli import main
from corelab.ehrhart import coprime_fit_classes, fit_plan, weighted_lattice_sum
from corelab.lattice_enum import (
    alcove_size_sums,
    coroot_points_in_bA,
    coroot_points_in_size_ellipsoid,
    core_points_in_sommers,
    coeffs_to_point,
    coweight_points_in_bA,
    is_coroot_point,
    iter_coweight_coeffs,
    iter_scaled_points,
    lattice_scale,
    scaled_value_counts,
)
from corelab.affine import sommers_contains, w_b_inverse
from corelab.rootsys import QuadraticForm, build_root_system
from corelab.stats import zise_form
from oracles import (
    b_omega_action,
    box_size_ellipsoid,
    det_int,
    fit_quasi,
    fraction_points,
    in_dilated_alcove,
    omega_group,
    size_point,
    streamed_power_sum,
    streamed_size_sums,
    streamed_value_counts,
)


A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
D4 = build_root_system("D", 4)


def series_product_counts(factors, N):
    """Coefficients of prod 1/(1 - q^m) over m in factors, up to degree N."""
    coeffs = [0] * (N + 1)
    coeffs[0] = 1
    for m in factors:
        for k in range(m, N + 1):
            coeffs[k] += coeffs[k - m]
    return coeffs


def knapsack_solutions(marks, b):
    """Every nonnegative solution of ``sum c_i m_i <= b``, in lexicographic order."""
    if not marks:
        return [()]
    return [(v,) + rest for v in range(b // marks[0] + 1)
            for rest in knapsack_solutions(marks[1:], b - v * marks[0])]


def test_b_zero_is_origin():
    for rs in (A2, D4):
        for fn in (coweight_points_in_bA, coroot_points_in_bA):
            ps = fn(rs, 0)
            assert ps.points == (tuple(Q(0) for _ in range(rs.rank)),)


def test_coweight_counts_match_product_series():
    N = 40
    for rs in (A2, A3, build_root_system("C", 3), D4, build_root_system("G", 2)):
        factors = [1] + list(rs.marks)
        expected = series_product_counts(factors, N)
        for b in range(N + 1):
            assert len(list(iter_coweight_coeffs(rs, b, "coweight"))) == expected[b]


def test_type_a_coweight_counts_binomial():
    for a in (2, 3, 4, 5):
        rs = build_root_system("A", a - 1)
        for b in range(10):
            assert coweight_points_in_bA(rs, b).count == comb(a + b - 1, b)


def test_type_d_coweight_counts_at_three():
    for n in (4, 5, 6):
        rs = build_root_system("D", n)
        assert coweight_points_in_bA(rs, 3).count == 4 * (n + 2)


def test_coroot_counts_exponent_product():
    # the count assertion runs inside coroot_points_in_bA for coprime b
    assert coroot_points_in_bA(A2, 4).count == 5
    assert coroot_points_in_bA(D4, 3).count == 6
    assert coroot_points_in_bA(build_root_system("E", 6), 5).count == 26
    for rs in (A2, A3, D4, build_root_system("B", 3)):
        assert coroot_points_in_bA(rs, 1).count == 1


def test_points_are_sorted_and_integral():
    ps = coroot_points_in_bA(A3, 5)
    assert list(ps.points) == sorted(ps.points)
    for x in ps.points:
        assert all(type(v) is int for v in x)


def test_sommers_points_a2_b4():
    ps = core_points_in_sommers(A2, 4)
    assert ps.count == 5
    assert (Q(-1), Q(-1)) in ps.points
    with pytest.raises(ValueError, match="coprime"):
        core_points_in_sommers(A2, 6)


def test_sommers_points_match_rejection_oracle():
    # independent oracle: enumerate a size ball and keep the region's points
    for rs, bs in ((A2, (2, 4, 5, 7)), (A3, (3, 5, 7))):
        n = rs.rank
        h = rs.coxeter_number
        for b in bs:
            bound = n * (b * b - 1) * (h + 1) // 24
            ball = coroot_points_in_size_ellipsoid(rs, bound)
            expected = sorted(x for x, _ in ball if sommers_contains(rs, b, x))
            assert list(core_points_in_sommers(rs, b).points) == expected


def test_ellipsoid_small_cases():
    assert coroot_points_in_size_ellipsoid(A2, 0) == [((Q(0), Q(0)), Q(0))]
    ones = [x for x, s in coroot_points_in_size_ellipsoid(A2, 1) if s == 1]
    assert ones == [(Q(1), Q(1))]


@pytest.mark.parametrize(
    "family, rank, N, R",
    [("B", 3, 20, 6), ("C", 3, 20, 6), ("F", 4, 8, 6), ("G", 2, 30, 8)],
)
def test_ellipsoid_matches_box_filter_off_simply_laced(family, rank, N, R):
    rs = build_root_system(family, rank)
    box = itertools.product(range(-R, R + 1), repeat=rank)
    expected = []
    for x in box:
        s = size_point(rs, x)
        if s <= N:
            expected.append((tuple(Q(v) for v in x), s))
    # two empty outer shells show the box is not cut short of the ellipsoid
    assert all(max(abs(v) for v in x) <= R - 2 for x, _ in expected)
    assert coroot_points_in_size_ellipsoid(rs, N) == expected


ELLIPSOID_TYPES = [("A", n) for n in range(1, 7)] + [
    ("D", 4), ("D", 5), ("E", 6), ("B", 3), ("C", 3), ("F", 4), ("G", 2)
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ELLIPSOID_TYPES), st.data())
def test_ellipsoid_matches_box_walk(case, data):
    # the box walk filters every point of the bounding box: 0.6 s on E6 at N=20
    N = data.draw(st.integers(0, 12 if case == ("E", 6) else 30))
    rs = build_root_system(*case)
    got = coroot_points_in_size_ellipsoid(rs, N)
    assert got == box_size_ellipsoid(rs, N)
    assert all(type(v) is int for x, _ in got for v in x)
    assert all(type(size) is int for _, size in got)


SPLIT_TYPES = (
    [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
    + [("E", n) for n in (6, 7, 8)] + [("B", 3), ("C", 3), ("F", 4), ("G", 2)]
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SPLIT_TYPES), st.data())
def test_ellipsoid_split_reproduces_the_form(case, data):
    # z^T G z = sum_i u_i^2 / (T_i T_{i+1}) exactly, u_i = sum_{j <= i} a_ij z_j
    rs = build_root_system(*case)
    n = rs.rank
    z = data.draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n))
    split = lattice_enum._ellipsoid_split(rs.gram)
    assert [len(a) for a, _ in split] == list(range(1, n + 1))
    assert all(type(v) is int for a, _ in split for v in a)
    minors = [a[i] for i, (a, _) in enumerate(split)] + [1]  # T_i = a_ii, T_n = 1
    assert minors == [det_int([row[i:] for row in rs.gram[i:]]) for i in range(n)] + [1]
    assert [p for _, p in split] == [minors[i] * minors[i + 1] for i in range(n)]
    terms = sum(Q(sum(a_ij * z_j for a_ij, z_j in zip(a, z)) ** 2, p) for a, p in split)
    assert terms == sum(z[i] * rs.gram[i][j] * z[j] for i in range(n) for j in range(n))


def test_ellipsoid_histogram_matches_core_product():
    # number of 3-cores of k = coefficient of q^k in prod (1-q^{3i})^3 / (1-q^i)
    N = 12
    hist = [0] * (N + 1)
    for _, s in coroot_points_in_size_ellipsoid(A2, N):
        hist[int(s)] += 1
    # numerator (1-q^{3i})^3, denominator prod 1/(1-q^i)
    num = [0] * (N + 1)
    num[0] = 1
    for i in range(1, N // 3 + 1):
        for _ in range(3):
            nxt = num[:]
            for k in range(3 * i, N + 1):
                nxt[k] -= num[k - 3 * i]
            num = nxt
    den = series_product_counts(range(1, N + 1), N)
    expected = [sum(num[j] * den[k - j] for j in range(k + 1)) for k in range(N + 1)]
    assert hist == expected


def test_size_sum_dp_non_simply_laced_reads_every_sum():
    # off the simply-laced types F_b is not zise, and the DP reads either form
    rs = build_root_system("C", 3)
    s0, s1 = alcove_size_sums(rs, 4, "coweight")
    assert (s0, s1) == streamed_size_sums(rs, 4, "coweight")
    assert s0 == sum(1 for _ in iter_coweight_coeffs(rs, 4, "coweight"))
    form = zise_form(rs, 5)
    assert vars(form) != vars(QuadraticForm(rs, 5))
    s0, s1 = alcove_size_sums(rs, 5, "coroot", 1, form)
    assert s1 == Q(sum(map(form.scaled_at, iter_scaled_points(rs, 5, "coroot"))), 24)


def test_size_sum_dp_scales_to_large_dilations():
    s0, s1 = alcove_size_sums(A3, 40, "coroot")
    assert s0 > 1000
    assert s1 is not None


def test_omega_orbits_partition_coweight_points():
    # orbits of the rescaled stabilizer action all have size f and hold one
    # coroot point each, whenever gcd(b, f) = 1
    for rs, b in ((A2, 4), (A3, 5), (D4, 3)):
        f = rs.index_f
        assert gcd(b, f) == 1
        omega = omega_group(rs)
        points = set(fraction_points(coweight_points_in_bA(rs, b)))
        coroot = set(coroot_points_in_bA(rs, b).points)
        seen = set()
        orbits = 0
        for x in sorted(points):
            if x in seen:
                continue
            orbit = {b_omega_action(rs, b, g, x) for g in omega}
            assert orbit <= points
            assert len(orbit) == f
            assert len(orbit & coroot) == 1
            seen |= orbit
            orbits += 1
        assert orbits * f == len(points)


STREAM_TYPES = (
    [("A", n) for n in range(1, 7)]
    + [("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4)]
    + [("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(STREAM_TYPES),
    st.integers(0, 8),
    st.sampled_from(("coweight", "coroot")),
)
def test_scaled_stream_matches_fraction_oracle(case, b, lattice):
    rs = build_root_system(*case)
    d = lattice_scale(rs, lattice)
    stream = list(iter_scaled_points(rs, b, lattice))
    assert all(type(v) is int for y in stream for v in y)
    # the class-stepped walk lists the coweight solutions that are lattice points, in order
    kept = [
        c for c in knapsack_solutions(rs.marks, b)
        if lattice == "coweight" or is_coroot_point(coeffs_to_point(rs, c))
    ]
    assert list(iter_coweight_coeffs(rs, b, lattice)) == kept
    oracle = [coeffs_to_point(rs, c) for c in kept]
    # same points in the same knapsack order
    assert [tuple(Q(v, d) for v in y) for y in stream] == oracle
    points = (coroot_points_in_bA if lattice == "coroot" else coweight_points_in_bA)(rs, b)
    assert all(type(v) is int for y in points.points for v in y)
    assert fraction_points(points) == sorted(oracle)
    assert all(in_dilated_alcove(rs, b, x) for x in oracle)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(STREAM_TYPES), st.sampled_from(("coweight", "coroot")), st.data())
def test_sommers_walk_matches_transported_points(case, lattice, data):
    # the slow path: every point of bA moved by w_b^-1 on its own, then sorted and checked
    rs = build_root_system(*case)
    b = data.draw(st.sampled_from([b for b in range(1, 14) if gcd(b, rs.coxeter_number) == 1]))
    winv, d = w_b_inverse(rs, b), lattice_scale(rs, lattice)
    points_in = coroot_points_in_bA if lattice == "coroot" else coweight_points_in_bA
    moved = sorted(winv.apply_int(y, d) for y in points_in(rs, b).points)
    assert all(sommers_contains(rs, b, z, d) for z in moved)
    assert list(core_points_in_sommers(rs, b, lattice).points) == moved


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(STREAM_TYPES),
    st.lists(st.integers(0, 8), min_size=1, max_size=12),
    st.sampled_from(("coweight", "coroot")),
)
def test_size_sum_table_matches_streaming(case, bs, lattice):
    # a fresh table per example; the dilations are read in a random order, so
    # reads below, at and past the top of the table all occur
    lattice_enum._SIZE_SUM_TABLES.clear()
    rs = build_root_system(*case)
    for b in bs:
        assert alcove_size_sums(rs, b, lattice) == streamed_size_sums(rs, b, lattice), b


POWER_SUM_TYPES = [("A", n) for n in range(1, 7)] + [("D", 4), ("D", 5), ("E", 6)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(POWER_SUM_TYPES),
    st.sampled_from(("coweight", "coroot")),
    st.integers(0, 4),
    st.booleans(),
    st.data(),
)
def test_power_sum_matches_streamed_points(case, lattice, k, centered, data):
    rs = build_root_system(*case)
    n, h = rs.rank, rs.coxeter_number
    b = data.draw(st.integers(0, 2 * h))
    d = lattice_scale(rs, lattice)
    center = d * d * n * (b - 1) * (h + b + 1) if centered else 0
    form = QuadraticForm(rs, b)
    counts = scaled_value_counts(rs, b, lattice, form)
    assert counts == streamed_value_counts(rs, b, lattice, form)
    got = sum(m * (v - center) ** k for v, m in counts.items())
    assert got == streamed_power_sum(rs, b, k, lattice, form, center)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(POWER_SUM_TYPES + [("B", 3), ("C", 3), ("F", 4), ("G", 2)]),
    st.sampled_from(("coweight", "coroot")),
    st.integers(0, 3),
    st.lists(st.integers(0, 12), min_size=1, max_size=4),
)
def test_power_sum_table_matches_streamed_points(case, lattice, K, bs):
    # a fresh table per example; the dilations are read in a random order, so
    # reads below, at and past the top of the table all occur
    lattice_enum._SIZE_SUM_TABLES.clear()
    rs = build_root_system(*case)
    n, h, d = rs.rank, rs.coxeter_number, lattice_scale(rs, lattice)
    for b in bs:
        sums = alcove_size_sums(rs, b, lattice, K)
        assert len(sums) == K + 1
        form = QuadraticForm(rs, b)
        for center in (0, d * d * n * (b - 1) * (h + b + 1)):
            # F_b less center / (24 d^2), the centered form when center is not 0
            shifted = QuadraticForm(rs, b)
            shifted.const -= center // (d * d)
            read = alcove_size_sums(rs, b, lattice, K, shifted)
            for k in range(K + 1):
                # the sum of (24 d^2 F_b - center)^k, from the sums of F_b^j, j <= k
                got = sum(comb(k, j) * (24 * d * d) ** j * sums[j] * (-center) ** (k - j)
                          for j in range(k + 1))
                assert got == streamed_power_sum(rs, b, k, lattice, form, center), (b, k)
                assert (24 * d * d) ** k * read[k] == got, (b, k)


ZISE_DP_TYPES = [("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("F", 4), ("G", 2)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ZISE_DP_TYPES), st.sampled_from(("coweight", "coroot")),
       st.integers(0, 3), st.data())
def test_zise_power_sums_from_the_dp_match_the_walk(case, lattice, K, data):
    # off the simply-laced types zise is not F_b: the DP reads it through its own form
    rs = build_root_system(*case)
    b = data.draw(st.sampled_from([b for b in range(1, 14) if gcd(b, rs.coxeter_number) == 1]))
    form, d = zise_form(rs, b), lattice_scale(rs, lattice)
    counts = scaled_value_counts(rs, b, lattice, form)
    walked = tuple(Q(sum(m * v**k for v, m in counts.items()), (24 * d * d) ** k)
                   for k in range(K + 1))
    assert alcove_size_sums(rs, b, lattice, K, form) == walked


ZISE_TYPES = [("B", 3), ("C", 3), ("F", 4), ("G", 2), ("A", 4), ("D", 4)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ZISE_TYPES), st.integers(0, 3), st.integers(-50, 50), st.data())
def test_power_sum_of_zise_matches_streamed_points(case, k, center, data):
    # the pulled-back form has a linear part off the -b (1, ..., 1) line on B, C, F and G
    rs = build_root_system(*case)
    h = rs.coxeter_number
    b = data.draw(st.integers(1, 2 * h).filter(lambda b: gcd(b, h) == 1))
    form = zise_form(rs, b)
    counts = scaled_value_counts(rs, b, "coroot", form)
    assert counts == streamed_value_counts(rs, b, "coroot", form)
    got = sum(m * (v - center) ** k for v, m in counts.items())
    assert got == streamed_power_sum(rs, b, k, "coroot", form, center)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(POWER_SUM_TYPES + ZISE_TYPES), st.sampled_from(("coweight", "coroot")),
       st.data())
def test_power_sum_maximum_of_any_form(case, lattice, data):
    # F_c with c < 0 grows along the last coefficient; equal counts give an equal
    # largest value and multiplicity
    rs = build_root_system(*case)
    h = rs.coxeter_number
    b, c = data.draw(st.integers(0, 2 * h)), data.draw(st.integers(-2 * h, 2 * h))
    form = QuadraticForm(rs, c)
    assert scaled_value_counts(rs, b, lattice, form) == streamed_value_counts(rs, b, lattice, form)


def test_power_sum_rejects_negative_dilation():
    with pytest.raises(ValueError):
        scaled_value_counts(A2, -1, "coroot", QuadraticForm(A2, 1))


def test_size_sum_rows_are_computed_once(monkeypatch, capsys):
    grown = []
    grow = lattice_enum._grow_size_sums

    def counted(rs, lattice, K, rows, layers, top):
        grown.append((K, top + 1 - len(rows)))
        grow(rs, lattice, K, rows, layers, top)

    monkeypatch.setattr(lattice_enum, "_grow_size_sums", counted)
    monkeypatch.setattr(lattice_enum, "_SIZE_SUM_TABLES", {})
    argv = "verify --type E --rank 8 --b-range 1..240 count".split()
    assert main(argv, out=io.StringIO()) == 0
    # rows 0..239: the rows past b = 239, the last b coprime to h = 30, are never read
    assert sum(n for _, n in grown) == 240 and {K for K, _ in grown} == {0}
    grown.clear()
    assert main(argv, out=io.StringIO()) == 0
    assert grown == []
    # a fit reads its samples in no fixed order, and computes each row up to the largest once
    monkeypatch.setattr(lattice_enum, "_SIZE_SUM_TABLES", {})
    weighted_lattice_sum.cache_clear()
    e8 = build_root_system("E", 8)
    classes = coprime_fit_classes(e8)
    fit_quasi(e8, 1, "coroot", residues=classes)
    top = max(b for fit in fit_plan(e8, 1, "coroot", False, classes) for b in fit.dilations)
    assert sum(n for _, n in grown) == top + 1 and {K for K, _ in grown} == {1}
    # the fit is charged those rows' DP sums, f C(8 + 1 + 1, 1) = 10 a row (f = 1)
    charge = (top + 1) * e8.index_f * comb(10, 1)
    argv = "fit --type E --rank 8 --k 1 --lattice coroot --max-points".split()
    out = io.StringIO()
    assert main(argv + [str(charge - 1)], out=out) == 3 and out.getvalue() == ""
    assert capsys.readouterr().err == (
        "error: estimated %d DP sums exceeds --max-points %d\n" % (charge, charge - 1))
    assert main(argv + [str(charge)], out=io.StringIO()) == 0


def test_scaled_stream_rejects_unknown_lattice():
    with pytest.raises(ValueError):
        list(iter_scaled_points(A2, 2, "weight"))
    with pytest.raises(ValueError, match="unknown lattice"):
        list(iter_coweight_coeffs(A2, 2, "weight"))


def test_walk_checks_both_ends_of_each_progression():
    # an extra entry x_2 - u is checked at every point: u = 1 passes the first point
    # of a progression (x_2 = 0) and fails its last
    for u, inside in ((4, True), (1, False)):
        points, ok = lattice_enum._knapsack_walk(A2, 4, "coweight", [(1, 0, 0), (0, 1, 1)],
                                                 (0, 0, -u), 1)
        assert points == knapsack_solutions(A2.marks, 4) and ok is inside


def test_walks_leave_no_reference_cycle():
    # each walk's recursive closure would otherwise keep its working set until a collection
    e6 = build_root_system("E", 6)
    walks = [
        lambda: iter_coweight_coeffs(e6, 5, "coroot"),
        lambda: iter_scaled_points(e6, 5, "coweight"),
        lambda: core_points_in_sommers(e6, 5, "coweight"),
        lambda: scaled_value_counts(e6, 7, "coroot", zise_form(e6, 7)),
        lambda: coroot_points_in_size_ellipsoid(e6, 4),
    ]
    for walk in walks:
        walk()  # fill the caches first
    gc.collect()
    gc.disable()
    try:
        for walk in walks:
            walk()
            assert gc.collect() == 0
    finally:
        gc.enable()
