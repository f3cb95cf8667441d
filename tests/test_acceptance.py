"""Acceptance gate: ten primary criteria, one test and one verdict line each.

Every check is exact; nothing is compared with a tolerance.  Each test
prints one ``CRITERION n: PASS`` line (visible with ``pytest -s``) and the
pytest verdict line itself serves as the per-criterion pass/fail record.
Each criterion also enforces its own wall-clock budget.
"""

from __future__ import annotations

import time
from collections import Counter
from fractions import Fraction as Q
from math import comb, gcd

from corelab.affine import (
    AffineRoot,
    alcove_vertices,
    alcove_walk,
    base_point,
    compute_w_b,
    inversions_of_inverse,
    sommers_contains,
)
from corelab.cores import core_from_coroot, enumerate_simultaneous_cores
from corelab.ehrhart import (
    leading_coefficient_checks,
    reciprocity_check,
    verify_expected_size_polynomial,
    weighted_lattice_sum,
)
from corelab.genfun import core_product_series, macdonald_series
from corelab.lattice_enum import (
    alcove_size_sums,
    core_points_in_sommers,
    coroot_points_in_bA,
    coroot_points_in_size_ellipsoid,
    coweight_points_in_bA,
)
from corelab.rootsys import build_root_system, clear_denominators
from corelab.stats import (
    closed_mean,
    closed_variance,
    experiment_cn_fuss,
    experiment_weak_order_maximality,
    floor_identity_check,
    haiman_count,
    moments,
    verify_max,
)
from oracles import (
    apply,
    b_omega_action,
    core_counting_coefficients,
    fit_quasi,
    fraction_points,
    inner,
    omega_group,
    size_point,
)

BUDGETS = {1: 10, 2: 5, 3: 60, 4: 300, 5: 30, 6: 600, 7: 60, 8: 300, 9: 120, 10: 600}


def _finish(num: int, t0: float, detail: str) -> None:
    elapsed = time.monotonic() - t0
    budget = BUDGETS[num]
    assert elapsed < budget, f"criterion {num}: {elapsed:.1f}s over the {budget}s budget"
    print(f"CRITERION {num}: PASS ({elapsed:.1f}s) {detail}")


def test_criterion_01_anderson_counts():
    t0 = time.monotonic()
    pairs = 0
    for a in range(2, 10):
        for b in range(2, 10):
            if gcd(a, b) != 1:
                continue
            cores = enumerate_simultaneous_cores(a, b)
            assert len(cores) == comb(a + b, b) // (a + b)
            pairs += 1
    _finish(1, t0, f"{pairs} coprime pairs fully enumerated and counted")


def test_criterion_02_three_four_ground_truth():
    t0 = time.monotonic()
    cores = enumerate_simultaneous_cores(3, 4)
    assert {c.partition.parts for c in cores} == {
        (),
        (1,),
        (2,),
        (1, 1),
        (3, 1, 1),
    }
    assert sorted(c.size for c in cores) == [0, 1, 2, 2, 5]
    rs = build_root_system("A", 2)
    report = moments(rs, 4)
    assert report["count"] == 5
    assert report["mean"] == 2
    assert report["variance"] == Q(14, 5)
    assert report["m3"] == Q(18, 5)
    assert report["grade"] == "match"
    best, mult, _, verdict = verify_max(rs, 4)
    assert (best, mult, verdict) == (5, 1, "match")
    _finish(2, t0, "five (3,4)-cores with mean 2, max 5, variance 14/5, m3 18/5")


def test_criterion_03_type_a_moment_formulas():
    t0 = time.monotonic()
    checked = 0
    for a in range(2, 7):
        rs = build_root_system("A", a - 1)
        for b in range(1, 10):
            if gcd(a, b) != 1:
                continue
            report = moments(rs, b)
            assert report["grade"] == "match", (a, b, report["verdicts"])
            checked += 1
    _finish(3, t0, f"count/max/mean/variance/m3 verified on {checked} (a,b) pairs")


def test_criterion_04_simply_laced_formulas():
    t0 = time.monotonic()
    grids = [
        ("D", 4, (3, 5, 7, 9, 11)),
        ("D", 5, (3, 5, 7, 9, 11)),
        ("E", 6, (5, 7, 11, 13)),
        ("E", 7, (5, 7, 11, 13)),
        ("E", 8, (7, 11, 13)),
    ]
    coprime_checked = 0
    closed_checked = 0
    for family, rank, dilations in grids:
        rs = build_root_system(family, rank)
        h = rs.coxeter_number
        for b in dilations:
            if gcd(b, h) == 1:
                report = moments(rs, b)
                assert report["grade"] == "match", (family, rank, b, report["verdicts"])
                best, mult, _, verdict = verify_max(rs, b)
                assert (mult, verdict) == (1, "match")
                assert best == Q(rank * (b * b - 1) * (h + 1), 24)
                coprime_checked += 1
            else:
                # no height-b cores here, so check the closed forms on the
                # dilated alcove sums directly
                count, total = alcove_size_sums(rs, b, "coroot")
                expected = 1
                for e in rs.exponents:
                    expected *= b + e
                assert count == expected // rs.weyl_order
                assert total == closed_mean(rs, b) * count
                centered = weighted_lattice_sum(rs, b, 2, "coroot", centered=True)
                assert centered == closed_variance(rs, b) * count
                closed_checked += 1
    e8 = moments(build_root_system("E", 8), 7)
    assert e8["count"] == 39
    assert e8["mean"] == 76
    _finish(
        4,
        t0,
        f"{coprime_checked} coprime dilations, {closed_checked} closed-sum "
        "dilations; E8 b=7 has 39 cores of mean size 76",
    )


def test_criterion_05_haiman_count_beyond_simply_laced():
    t0 = time.monotonic()
    checked = 0
    for family, rank in [
        ("B", 2),
        ("B", 3),
        ("B", 4),
        ("C", 2),
        ("C", 3),
        ("C", 4),
        ("F", 4),
        ("G", 2),
    ]:
        rs = build_root_system(family, rank)
        for b in range(1, 10):
            if gcd(b, rs.coxeter_number) != 1:
                continue
            count, _ = alcove_size_sums(rs, b, "coroot")
            assert Q(count) == haiman_count(rs, b), (family, rank, b)
            checked += 1
    _finish(5, t0, f"exponent-product count matches enumeration on {checked} cases")


def test_criterion_06_e6_expected_size_quasipolynomial():
    t0 = time.monotonic()
    e6 = build_root_system("E", 6)
    report = verify_expected_size_polynomial(e6)
    assert report["match"] is True
    assert report["displayed_product_matches"] is True
    types = [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
    types += [("E", 7), ("E", 8)]
    for family, rank in types:
        fitted = verify_expected_size_polynomial(build_root_system(family, rank))
        assert fitted["mode"] == "fit"
        assert fitted["match"] is True, (family, rank)
    _finish(
        6,
        t0,
        "the coprime polynomial reproduces the degree-8 product; "
        "A1-A8, D4-D8 and E6-E8 fitted with a holdout in every coprime class",
    )


def test_criterion_07_weighted_ehrhart_cross_checks():
    t0 = time.monotonic()
    for n in range(1, 7):
        rs = build_root_system("A", n)
        value = weighted_lattice_sum(rs, 2, 2, "coweight")
        expected = Q(
            (3 * n * n + 12 * n + 4) * (n + 4) * (n + 2) * (n + 1) * n, 1920
        )
        assert value == expected, (n, value)
    for n in range(3, 7):
        rs = build_root_system("D", n)
        value = weighted_lattice_sum(rs, 3, 1, "coweight")
        assert value == Q(4 * n * (n + 1) * (n + 2), 6), (n, value)
    probed = 0
    for n in range(1, 7):
        rs = build_root_system("A", n)
        fitted = fit_quasi(rs, 2, "coweight")
        assert reciprocity_check(rs, 2, fitted, range(1, rs.coxeter_number + 4))
        probed += 1
    for n in range(3, 7):
        rs = build_root_system("D", n)
        fitted = fit_quasi(rs, 1, "coweight")
        assert reciprocity_check(rs, 1, fitted, range(1, rs.coxeter_number + 4))
        probed += 1
    _finish(
        7,
        t0,
        "squared-size sums at b=2 (A1..A6), size sums at b=3 (D3..D6), "
        f"and parity-signed reciprocity on {probed} coweight fits",
    )


def test_criterion_08_generating_functions():
    t0 = time.monotonic()
    for a in range(2, 6):
        series = core_product_series(a, 30)
        assert list(series.coeffs) == core_counting_coefficients(a, 30)
    grids = [
        ("A", 2, 30),
        ("A", 3, 30),
        ("A", 4, 30),
        ("D", 4, 30),
        ("D", 5, 20),
        ("E", 6, 15),
    ]
    for family, rank, cutoff in grids:
        rs = build_root_system(family, rank)
        series = macdonald_series(rs, cutoff)
        histogram = Counter()
        for _, size in coroot_points_in_size_ellipsoid(rs, cutoff):
            histogram[size] += 1
        assert list(series.coeffs) == [histogram[k] for k in range(cutoff + 1)], (
            family,
            rank,
        )
    _finish(
        8,
        t0,
        "core products match partition search to q^30; ellipsoid histograms "
        "match the Macdonald product on six systems",
    )


def test_criterion_09_structural_invariants():
    t0 = time.monotonic()
    # strange formula, rechecked on top of the constructor's check
    systems = [("A", n) for n in range(1, 9)]
    systems += [("B", n) for n in range(2, 9)]
    systems += [("C", n) for n in range(2, 9)]
    systems += [("D", n) for n in range(3, 9)]
    systems += [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    for family, rank in systems:
        rs = build_root_system(family, rank)
        g = rs.dual_coxeter_number
        h = rs.coxeter_number
        assert inner(rs, rs.rho, rs.rho) * 24 == 2 * g * rs.rank * (h + 1) == rs.rho_norm24

    # index-of-connection orbit partition of the coweight points
    for family, rank, b in [
        ("A", 2, 4),
        ("A", 3, 5),
        ("D", 4, 5),
        ("D", 5, 3),
        ("E", 6, 5),
    ]:
        rs = build_root_system(family, rank)
        f = rs.index_f
        assert gcd(b, f) == 1
        omega = omega_group(rs)
        assert len(omega) == f
        coweights = fraction_points(coweight_points_in_bA(rs, b))
        coroots = set(coroot_points_in_bA(rs, b).points)
        assert f * len(coroots) == len(coweights)
        seen = set()
        for x in coweights:
            if x in seen:
                continue
            orbit = {b_omega_action(rs, b, gel, x) for gel in omega}
            assert len(orbit) == f, (family, rank, b, x)
            assert len(orbit & coroots) == 1, (family, rank, b, x)
            assert orbit <= set(coweights)
            seen |= orbit
        assert len(seen) == len(coweights)

    # transport of the dilated alcove onto the height-b simplex
    for family, rank, b in [("A", 2, 4), ("A", 3, 5), ("D", 4, 5), ("B", 3, 5), ("G", 2, 5)]:
        rs = build_root_system(family, rank)
        h = rs.coxeter_number
        winv = compute_w_b(rs, b)
        center = tuple(Q(v, h) for v in rs.rho_check)
        assert apply(winv, tuple(Q(b * v, h) for v in rs.rho_check)) == center
        for vertex in alcove_vertices(rs, b):
            e, y = clear_denominators(apply(winv, vertex))
            assert sommers_contains(rs, b, y, e)
        transported = sorted(
            apply(winv, x) for x in coroot_points_in_bA(rs, b).points
        )
        assert tuple(transported) == core_points_in_sommers(rs, b).points

    # inversion sets of the transporting element match the height thresholds
    systems = [("A", n) for n in range(2, 6)] + [("D", 4), ("D", 5)]
    for family, rank in systems:
        rs = build_root_system(family, rank)
        h = rs.coxeter_number
        for b in range(1, 12):
            if gcd(b, h) != 1:
                continue
            word = alcove_walk(rs, tuple(b * v for v in base_point(rs)))[1]  # spells w_b
            got = set(inversions_of_inverse(rs, word[::-1]))
            expected = set()
            for root in rs.positive_roots:
                neg = tuple(-c for c in root.coeffs)
                k = 1
                while k * h < b * root.height:
                    expected.add(AffineRoot(neg, k))
                    k += 1
            assert got == expected, (family, rank, b)
            assert len(got) == len(word)

    # floor identities in both simply-laced families
    for family, lo in (("A", 1), ("D", 3)):
        for rank in range(lo, 9):
            rs = build_root_system(family, rank)
            for b in range(1, 13):
                if gcd(b, rs.coxeter_number) != 1:
                    continue
                assert floor_identity_check(rs, b) is True, (family, rank, b)

    # box count of every constructed core equals the size form
    for a, b in [(2, 9), (3, 4), (4, 3), (5, 4), (4, 7)]:
        rs = build_root_system("A", a - 1)
        winv = compute_w_b(rs, b)
        for x in coroot_points_in_bA(rs, b).points:
            lam = apply(winv, x)
            core = core_from_coroot(a, lam)
            assert core.size == size_point(rs, lam)
    _finish(
        9,
        t0,
        "strange formula, orbit partition, simplex transport, inversion "
        "sets, floor identities, and size preservation all exact",
    )


def test_criterion_10_conjecture_experiments():
    t0 = time.monotonic()
    verdicts = []
    for family, rank, dilations in [
        ("A", 2, (4, 5)),
        ("A", 3, (3, 5)),
        ("A", 4, (2, 3, 4)),
        ("D", 4, (5, 7)),
    ]:
        rs = build_root_system(family, rank)
        for b in dilations:
            report = experiment_weak_order_maximality(rs, b)
            assert report["verdict"] == "consistent", report
            assert report["contained"] == report["total"]
            verdicts.append(report["verdict"])

    for family, rank in [("A", 2), ("A", 3), ("D", 4)]:
        rs = build_root_system(family, rank)
        for k in (1, 2, 3):
            report = leading_coefficient_checks(rs, k)
            assert report["verdict"] == "consistent", report
            expected_grade = "theorem" if k <= 2 else "conjecture"
            assert report["grade"] == expected_grade
            verdicts.append(report["verdict"])

    for rank in (2, 3, 4):
        rs = build_root_system("A", rank)
        for k in (4, 5):
            report = leading_coefficient_checks(rs, k)
            assert report["grade"] == "conjecture"
            assert report["verdict"] == "consistent", report
            verdicts.append(report["verdict"])

    for n in (2, 3):
        report = experiment_cn_fuss(n, 1)
        assert report["verdict"] == "consistent", report
        assert report["mean"] == report["conjecture"]
        verdicts.append(report["verdict"])

    _finish(
        10,
        t0,
        f"{len(verdicts)} experiment verdicts emitted, all in agreement",
    )
