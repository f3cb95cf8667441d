"""Tests for quasipolynomial fitting, reciprocity, and closed-form checks."""

from fractions import Fraction as Q
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corelab import ehrhart
from corelab.ehrhart import (
    HoldoutError,
    coprime_fit_classes,
    coprime_polynomial,
    coprime_samples,
    fit_component,
    fit_sample_count,
    fit_samples,
    leading_coefficient_checks,
    quasi_period,
    reciprocity_check,
    verify_expected_size_polynomial,
    weighted_lattice_sum,
)
from corelab.genfun import poly_eval, poly_trim
from corelab.lattice_enum import coroot_points_in_bA, coweight_points_in_bA
from corelab.rootsys import QuadraticForm, build_root_system
from corelab.stats import closed_mean, closed_variance
from oracles import centered_class_fit, fit_quasi, fraction_lagrange_fit, fraction_points

A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
D4 = build_root_system("D", 4)
D5 = build_root_system("D", 5)
E6 = build_root_system("E", 6)

SIMPLY_LACED = [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)] + [
    ("E", 6), ("E", 7), ("E", 8)
]


class TestQuasiPeriod:
    def test_coweight_period_is_lcm_of_marks(self):
        assert quasi_period(A2, "coweight") == 1
        assert quasi_period(A3, "coweight") == 1
        assert quasi_period(D4, "coweight") == 2
        assert quasi_period(E6, "coweight") == 6
        assert quasi_period(build_root_system("C", 3), "coweight") == 2

    def test_coroot_period_sees_vertex_denominators(self):
        assert quasi_period(A2, "coroot") == 3
        assert quasi_period(A3, "coroot") == 4
        assert quasi_period(D4, "coroot") == 2
        assert quasi_period(D5, "coroot") == 4
        assert quasi_period(E6, "coroot") == 6

    def test_unknown_lattice(self):
        with pytest.raises(ValueError):
            quasi_period(A2, "weight")


class TestLagrangeFit:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_integer_fit_matches_the_fraction_oracle(self, data):
        xs = data.draw(st.lists(st.integers(-40, 40), min_size=1, max_size=14, unique=True))
        value = st.fractions(max_denominator=10**6)
        ys = data.draw(st.one_of(
            st.lists(value, min_size=len(xs), max_size=len(xs)),
            st.just([Q(0)] * len(xs)),
        ))
        fitted = ehrhart._lagrange_fit(xs, ys)
        assert fitted == fraction_lagrange_fit(xs, ys)
        assert all(type(c) is Q for c in fitted)
        assert [poly_eval(fitted, x) for x in xs] == ys


class TestWeightedLatticeSum:
    def test_count_matches_binomial(self):
        for b in range(7):
            assert weighted_lattice_sum(A2, b, 0, "coweight") == comb(2 + b, b)

    def test_type_a_square_sum_at_two(self):
        for n in range(1, 7):
            rs = build_root_system("A", n)
            got = weighted_lattice_sum(rs, 2, 2, "coweight")
            assert got == Q((3 * n * n + 12 * n + 4) * (n + 4) * (n + 2) * (n + 1) * n, 1920)

    def test_type_d_linear_sum_at_three(self):
        for n in range(3, 7):
            rs = build_root_system("D", n)
            assert weighted_lattice_sum(rs, 3, 1, "coweight") == Q(
                4 * n * (n + 1) * (n + 2), 6
            )

    def test_zero_dilation_square(self):
        for rs in (A3, D4, E6):
            h = rs.coxeter_number
            expected = Q(rs.rank * (h + 1), 24) ** 2
            assert weighted_lattice_sum(rs, 0, 2, "coweight") == expected

    def test_centered_first_power_sums_to_zero_on_coprime(self):
        for b in (2, 4, 5):
            assert weighted_lattice_sum(A2, b, 1, "coweight", centered=True) == 0

    def test_rejects_non_simply_laced_weights(self):
        C2 = build_root_system("C", 2)
        assert weighted_lattice_sum(C2, 3, 0, "coweight") > 0
        with pytest.raises(ValueError):
            weighted_lattice_sum(C2, 3, 1, "coweight")

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5),
                         ("E", 6), ("E", 7), ("E", 8)]),
        st.integers(0, 6),
        st.integers(2, 4),
        st.sampled_from(("coweight", "coroot")),
        st.booleans(),
    )
    def test_matches_fraction_oracle(self, case, b, k, lattice, centered):
        rs = build_root_system(*case)
        points = (coweight_points_in_bA if lattice == "coweight" else coroot_points_in_bA)(rs, b)
        form = QuadraticForm(rs, b)
        mu = closed_mean(rs, b) if centered else 0
        expected = sum(((form(x) - mu) ** k for x in fraction_points(points)), Q(0))
        assert weighted_lattice_sum(rs, b, k, lattice, centered) == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            weighted_lattice_sum(A2, -1, 1, "coweight")
        with pytest.raises(ValueError):
            weighted_lattice_sum(A2, 2, -1, "coweight")
        with pytest.raises(ValueError):
            weighted_lattice_sum(A2, 2, 1, "weight")


class TestFitComponent:
    def test_count_polynomial_type_a(self):
        poly = fit_component(A2, 0, "coweight", 0)
        assert poly == (Q(1), Q(3, 2), Q(1, 2))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fit_component(A2, 0, "badlattice", 0)
        with pytest.raises(ValueError):
            fit_component(A2, -1, "coweight", 0)
        with pytest.raises(ValueError):
            fit_component(A2, 0, "coweight", 1)
        with pytest.raises(ValueError):
            fit_component(A2, 0, "coroot", 3)
        with pytest.raises(ValueError):
            fit_component(A2, 0, "coroot", -1)

    def test_holdout_miss_raises(self, monkeypatch):
        # the count of A2 is fitted at b = 0, 1, 2 and held out at b = 3, 4
        exact = ehrhart.weighted_lattice_sum
        for holdout in (3, 4):
            def off(rs, b, k, lattice, centered=False):
                return exact(rs, b, k, lattice, centered) + (b == holdout)

            monkeypatch.setattr(ehrhart, "weighted_lattice_sum", off)
            with pytest.raises(HoldoutError, match="period/degree assumption violated"):
                fit_component(A2, 0, "coweight", 0)

    def test_underestimated_degree_is_detected(self, monkeypatch):
        # linear-weight sums, of degree n + 2, passed off as counts of degree n
        exact = ehrhart.weighted_lattice_sum

        def linear(rs, b, k, lattice, centered=False):
            return exact(rs, b, 1, lattice, centered)

        monkeypatch.setattr(ehrhart, "weighted_lattice_sum", linear)
        with pytest.raises(HoldoutError, match="period/degree assumption violated"):
            fit_component(A2, 0, "coweight", 0)

    def test_wrong_period_is_detected(self, monkeypatch):
        # Type A coroot counts have period 3; a period-1 pretence must fail
        # the holdout validation once samples cross residue classes.
        exact = ehrhart.weighted_lattice_sum

        def coroot(rs, b, k, lattice, centered=False):
            return exact(rs, b, k, "coroot", centered)

        monkeypatch.setattr(ehrhart, "weighted_lattice_sum", coroot)
        with pytest.raises(HoldoutError, match="period/degree assumption violated"):
            fit_component(A2, 0, "coweight", 0)


class TestQuasiPolynomial:
    def test_component_dispatch_and_missing_class(self):
        qp = fit_quasi(A2, 1, "coroot", residues=(1, 2))
        assert qp.period == 3 and qp.degree == 4
        assert qp.evaluate(4) == weighted_lattice_sum(A2, 4, 1, "coroot")
        with pytest.raises(ValueError, match="not fitted"):
            qp.evaluate(3)

    def test_json_round_trip_fields(self):
        qp = fit_quasi(A2, 0, "coweight")
        data = qp.as_json_dict()
        assert data["period"] == 1 and data["degree"] == 2
        assert data["components"][0] == [[1, 1], [3, 2], [1, 2]]


class TestReciprocity:
    def test_type_a_first_and_second_powers(self):
        lam1 = fit_quasi(A2, 1, "coweight")
        assert lam1.evaluate(1) == 0 and lam1.evaluate(-4) == 0
        assert reciprocity_check(A2, 1, lam1, range(1, A2.coxeter_number + 4))
        lam2 = fit_quasi(A2, 2, "coweight")
        assert lam2.evaluate(2) == lam2.evaluate(-5)
        assert reciprocity_check(A2, 2, lam2, range(1, 7))

    def test_probe_grid_rank_at_most_four(self):
        for rs in (A2, A3, D4):
            for k in (1, 2):
                fitted = fit_quasi(rs, k, "coweight")
                probes = range(1, rs.coxeter_number + 4)
                assert reciprocity_check(rs, k, fitted, probes)

    def test_odd_rank_carries_the_parity_sign(self):
        fitted = fit_quasi(A3, 1, "coweight")
        h = A3.coxeter_number
        assert fitted.evaluate(2) != fitted.evaluate(-h - 2)
        assert fitted.evaluate(-h - 2) == -fitted.evaluate(2)

    def test_d4_residue_one(self):
        fitted = fit_quasi(D4, 1, "coweight")
        assert fitted.evaluate(3) == fitted.evaluate(-9)

    def test_e6_linear_weight(self):
        fitted = fit_quasi(E6, 1, "coweight")
        assert reciprocity_check(E6, 1, fitted, range(1, E6.coxeter_number + 4))

    def test_reports_false_on_unfitted_class(self):
        fitted = fit_quasi(A2, 1, "coroot", residues=(1,))
        assert not reciprocity_check(A2, 1, fitted, [1])


class TestZeroStructure:
    def test_type_a_linear_weight_zeros(self):
        for rs in (A2, A3, build_root_system("A", 4)):
            poly = fit_quasi(rs, 1, "coweight").component(0)
            roots = list(range(-1, -rs.rank - 1, -1)) + [1, -rs.coxeter_number - 1]
            assert all(poly_eval(poly, r) == 0 for r in roots)

    def test_type_a_square_weight_zeros(self):
        poly = fit_quasi(A2, 2, "coweight").component(0)
        assert all(poly_eval(poly, r) == 0 for r in (-1, -2, 1, -4))

    def test_type_d_residue_one_zeros(self):
        for rs in (D4, D5):
            n = rs.rank
            poly = fit_quasi(rs, 1, "coweight", residues=(1,)).component(1)
            roots = [-(2 * i - 1) for i in range(1, n)] + [1, -(2 * n - 1)]
            assert len(roots) == n + 1
            assert all(poly_eval(poly, r) == 0 for r in roots)


class TestLatticeRatio:
    def test_coroot_component_is_index_fraction_of_coweight(self):
        f = A2.index_f
        lam = fit_quasi(A2, 2, "coweight").component(0)
        qp = fit_quasi(A2, 2, "coroot", residues=(1, 2))
        for j in (1, 2):
            assert poly_trim(qp.component(j)) == poly_trim(tuple(c / f for c in lam))

    def test_d4_linear_ratio(self):
        lam = fit_quasi(D4, 1, "coweight", residues=(1,)).component(1)
        qp = fit_quasi(D4, 1, "coroot", residues=(1,)).component(1)
        assert poly_trim(qp) == poly_trim(tuple(c / D4.index_f for c in lam))


class TestExpectedSizePolynomial:
    def test_coprime_classes(self):
        assert coprime_fit_classes(A2) == (1, 2)
        assert coprime_fit_classes(D4) == (1,)
        assert coprime_fit_classes(D5) == (1, 3)
        assert coprime_fit_classes(E6) == (1, 5)

    def test_type_a_and_d(self):
        for family, rank in SIMPLY_LACED:
            if family == "E":
                continue
            rs = build_root_system(family, rank)
            report = verify_expected_size_polynomial(rs)
            assert report["mode"] == "fit"
            assert report["classes"] == coprime_fit_classes(rs)
            assert report["match"] is True, (family, rank)

    def test_e6_matches_displayed_product(self):
        report = verify_expected_size_polynomial(E6)
        assert report["mode"] == "fit"
        assert report["classes"] == (1, 5)
        assert report["match"] is True
        assert report["displayed_product_matches"] is True

    def test_e7_e8_fit(self):
        for rank, classes in [(7, 4), (8, 16)]:
            report = verify_expected_size_polynomial(build_root_system("E", rank))
            assert report["mode"] == "fit"
            assert len(report["classes"]) == classes
            assert report["match"] is True

    def test_rejects_non_simply_laced(self):
        with pytest.raises(ValueError):
            verify_expected_size_polynomial(build_root_system("B", 3))


class TestVariancePolynomial:
    def test_variance_is_a_polynomial_identity(self):
        # the sum of (F_b - mu_b)^2 over the coroot points of bA is the closed
        # variance times the count; both sides have degree n + 4 in b, so they
        # are the same polynomial once they agree at n + 5 dilations
        for case in SIMPLY_LACED:
            rs = build_root_system(*case)
            classes = coprime_fit_classes(rs)
            count = coprime_polynomial(rs, 0, False, classes)
            centered = coprime_polynomial(rs, 2, True, classes)
            assert len(centered) == rs.rank + 5, case
            for b in range(rs.rank + 5):
                assert poly_eval(centered, b) == closed_variance(rs, b) * poly_eval(count, b), case


class TestLeadingCoefficients:
    def test_theorem_grade_first_two(self):
        for rs in (A2, A3, D4):
            n, h = rs.rank, rs.coxeter_number
            one = leading_coefficient_checks(rs, 1)
            assert one["grade"] == "theorem" and one["verdict"] == "consistent"
            assert one["ratio"] == Q(n, 24)
            two = leading_coefficient_checks(rs, 2)
            assert two["grade"] == "theorem" and two["verdict"] == "consistent"
            assert two["ratio"] == Q(n * h, 1440)

    def test_third_moment_conjecture(self):
        for rs in (A2, A3, D4):
            n, h = rs.rank, rs.coxeter_number
            out = leading_coefficient_checks(rs, 3)
            assert out["grade"] == "conjecture" and out["verdict"] == "consistent"
            assert out["ratio"] == Q(n * h * (2 * h - 3), 60480)

    def test_d4_second_moment_example_value(self):
        assert leading_coefficient_checks(D4, 2)["ratio"] == Q(1, 60)

    def test_higher_conjecture_tables_type_a(self):
        for k in (4, 5, 6, 7):
            assert leading_coefficient_checks(A2, k)["verdict"] == "consistent"
        assert leading_coefficient_checks(A3, 4)["verdict"] == "consistent"

    def test_higher_conjecture_tables_type_d(self):
        assert leading_coefficient_checks(D4, 4)["verdict"] == "consistent"

    def test_d_type_k6_ratio_is_half_the_table(self):
        # the data disagree with the conjectured D-type k=6 entry by exactly
        # a factor of two; the table stays under test, not corrected
        out = leading_coefficient_checks(D4, 6)
        assert out["ratio"] == Q(5561, 11211200) == out["expected"] / 2
        assert out["verdict"].startswith("counterexample(")
        weight = centered_class_fit(D4, 6, 1)
        count = fit_component(D4, 0, "coroot", 1)
        assert weight[-1] / count[-1] == out["ratio"]
        # the per-class fit of D5 samples up to b = 77 and takes minutes
        out = leading_coefficient_checks(D5, 6)
        assert out["ratio"] == Q(1620161, 467026560) == out["expected"] / 2

    def test_no_table_beyond_type_bounds(self):
        out = leading_coefficient_checks(A2, 8)
        assert out["expected"] is None
        assert out["verdict"] == "no closed form"

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            leading_coefficient_checks(A2, 0)
        with pytest.raises(ValueError):
            leading_coefficient_checks(build_root_system("C", 2), 1)


# Per-class fits of A4 stream every point of 9-13 dilations per class, up to
# b = 64, and take 11-65 s per case at k = 1..3 on a 2-core machine, so the
# oracle comparison keeps A4 to its DP-backed sums: k <= 2, centered or not.
# The moment DP carries second powers, so the A4 k = 2 cases are among them.
ORACLE_CASES = [
    (family, rank, k, centered)
    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)]
    for k in range(5)
    for centered in (False, True)
    if rank < 4 or family == "D" or ehrhart.dp_backed(k)
]


class TestCoprimePolynomial:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(ORACLE_CASES))
    def test_matches_per_class_fits(self, case):
        family, rank, k, centered = case
        rs = build_root_system(family, rank)
        classes = coprime_fit_classes(rs)
        poly = coprime_polynomial(rs, k, centered, classes)
        for j in classes:
            if centered:
                assert poly == centered_class_fit(rs, k, j)
            else:
                assert poly == fit_component(rs, k, "coroot", j)

    def test_count_matches_per_class_fits_beyond_simply_laced(self):
        for family, rank in [("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4),
                             ("F", 4), ("G", 2)]:
            rs = build_root_system(family, rank)
            classes = coprime_fit_classes(rs)
            poly = coprime_polynomial(rs, 0, False, classes)
            for j in classes:
                assert poly == fit_component(rs, 0, "coroot", j), (family, rank, j)
        with pytest.raises(ValueError):
            coprime_polynomial(build_root_system("B", 3), 1, False, (1,))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SIMPLY_LACED), st.integers(0, 4), st.booleans(), st.data())
    def test_samples_cover_every_requested_class(self, case, k, centered, data):
        rs = build_root_system(*case)
        h = rs.coxeter_number
        m = quasi_period(rs, "coroot")
        allowed = coprime_fit_classes(rs)
        classes = data.draw(st.lists(st.sampled_from(allowed), min_size=1, unique=True))
        samples = coprime_samples(rs, k, centered, classes)
        assert len(set(samples)) == len(samples)
        assert all(b >= 1 and gcd(b, h) == 1 for b in samples)
        for j in classes:
            own = [b for b in range(1, max(samples) + 1) if b % m == j and gcd(b, h) == 1]
            assert own[0] in samples

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SIMPLY_LACED), st.integers(0, 6), st.booleans(),
           st.sampled_from(("coweight", "coroot")), st.data())
    def test_sample_count_is_fit_samples_in_closed_form(self, case, k, centered, lattice, data):
        # the cli budget charges the count before any sample is listed: the
        # samples are distinct dilations from 0 up, at most one more per coprime
        # class than the closed form counts
        rs = build_root_system(*case)
        m = quasi_period(rs, lattice)
        classes = data.draw(st.lists(st.integers(0, m - 1), min_size=1, unique=True))
        coprime = set(classes) & set(coprime_fit_classes(rs)) if lattice == "coroot" else set()
        samples = fit_samples(rs, k, lattice, centered, classes)
        assert len(set(samples)) == len(samples) and min(samples) >= 0
        count = fit_sample_count(rs, k, lattice, centered, classes)
        assert len(samples) - len(coprime) <= count <= len(samples)
        if not coprime:
            assert count == len(samples)

    def test_samples_are_the_smallest_coprime_dilations(self):
        # one polynomial for every class, pinned by the smallest coprime b
        assert coprime_samples(A3, 4, False, (1, 3)) == (1, 3, 5, 7, 9, 11, 13)
        assert coprime_samples(D4, 3, False, (1,)) == (1, 5, 7, 11, 13, 17, 19)
        # three samples fix the count polynomial of A4; class 4 adds a holdout
        A4 = build_root_system("A", 4)
        assert coprime_samples(A4, 0, False, (1, 2, 3, 4)) == (1, 2, 3, 4)
        with pytest.raises(ValueError):
            coprime_samples(A3, 2, False, (2,))
        with pytest.raises(ValueError):
            coprime_samples(build_root_system("B", 3), 2, False, (1,))

    def test_holdout_miss_raises(self, monkeypatch):
        poly = coprime_polynomial(A3, 4, False, (1, 3))
        assert poly_eval(poly, 15) == weighted_lattice_sum(A3, 15, 4, "coroot")
        exact = ehrhart.weighted_lattice_sum

        def off_at_eleven(rs, b, k, lattice, centered=False):
            return exact(rs, b, k, lattice, centered) + (b == 11)

        monkeypatch.setattr(ehrhart, "weighted_lattice_sum", off_at_eleven)
        with pytest.raises(HoldoutError, match="period/degree assumption violated"):
            coprime_polynomial(A3, 4, False, (1, 3))
