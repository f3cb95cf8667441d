"""Tests for the size statistics, moment reports, and conjecture experiments."""

from fractions import Fraction as Q
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corelab import affine, lattice_enum, stats
from corelab.affine import w_b_inverse
from corelab.lattice_enum import coeffs_to_point, coroot_points_in_bA, coweight_points_in_bA
from corelab.rootsys import QuadraticForm, build_root_system
from corelab.stats import (
    closed_m3_type_a,
    closed_max,
    closed_mean,
    closed_variance,
    experiment_cn_fuss,
    experiment_cn_selfconjugate_weighting,
    experiment_weak_order_maximality,
    floor_identity_check,
    haiman_count,
    moments,
    sc_core_from_word,
    sc_weighted_size,
    verify_max,
    zise_form,
    zise_point,
)
from oracles import (
    apply,
    b_omega_action,
    floor_sums_by_terms,
    folded_moments,
    fraction_points,
    inner,
    omega_group,
    q_form_point,
    size_point,
    zise_by_transport,
)


A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
C2 = build_root_system("C", 2)
D4 = build_root_system("D", 4)

ZERO2 = (Q(0), Q(0))


def test_size_point_anchors():
    size = QuadraticForm(A2, 1)
    for x, value in ((ZERO2, 0), ((Q(-1), Q(-1)), 5), ((Q(1), Q(1)), 1), ((Q(1), Q(0)), 2)):
        assert size(x) == size_point(A2, x) == value


def test_q_form_minimum():
    assert q_form_point(A2, ZERO2) == Q(-1, 3)
    for rs in (A2, A3, D4):
        n, h = rs.rank, rs.coxeter_number
        assert q_form_point(rs, tuple(Q(0) for _ in range(n))) == -Q(n * (h + 1), 24)
        # size never goes below the q-form floor on sample lattice points
        for x in coroot_points_in_bA(rs, 3).points:
            assert size_point(rs, x) >= -Q(n * (h + 1), 24)


def test_zise_anchors():
    assert zise_point(A2, 4, ZERO2) == 5
    assert zise_point(build_root_system("D", 4), 5, tuple(Q(0) for _ in range(4))) == 28
    # b = 1 reduces zise to size
    for x in coroot_points_in_bA(A2, 4).points:
        assert zise_point(A2, 1, x) == size_point(A2, x)
    with pytest.raises(ValueError, match="coprime"):
        zise_point(A2, 6, ZERO2)


TYPES = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3),
    ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
)


@lru_cache(maxsize=None)
def _system(family, rank):
    return build_root_system(family, rank)


@st.composite
def _form_cases(draw, types=TYPES, dilations=st.integers(-12, 40)):
    family, rank = draw(st.sampled_from(types))
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=rank, max_size=rank))
    return _system(family, rank), coeffs, draw(dilations)


@settings(max_examples=150, deadline=None)
@given(_form_cases(), st.integers(1, 3))
def test_form_scaled_value_is_exact(case, extra):
    rs, coeffs, b = case
    x = coeffs_to_point(rs, coeffs)
    n, g, h = rs.rank, rs.dual_coxeter_number, rs.coxeter_number
    exact = Q(g, 2) * inner(rs, x, x) - b * sum(x) + Q((b * b - 1) * n * (h + 1), 24)
    form = QuadraticForm(rs, b)
    assert form(x) == exact
    # any common denominator of x gives the same integer-scaled value
    d = extra
    for v in x:
        d = d * v.denominator // gcd(d, v.denominator)
    y = [int(v * d) for v in x]
    assert form.scaled_at(y, d) == 24 * d * d * exact


@settings(max_examples=60, deadline=None)
@given(_form_cases([t for t in TYPES if t[0] in "ADE"], st.integers(1, 25)))
def test_form_is_size_pulled_back_through_w_b(case):
    rs, coeffs, b = case
    assume(gcd(b, rs.coxeter_number) == 1)
    x = coeffs_to_point(rs, coeffs)
    assert QuadraticForm(rs, b)(x) == size_point(rs, apply(w_b_inverse(rs, b), x))


ORACLE_TYPES = [("A", n) for n in range(1, 7)] + [
    ("D", 4), ("D", 5), ("E", 6), ("B", 3), ("C", 3), ("F", 4), ("G", 2)
]


@st.composite
def _coprime_cases(draw):
    rs = _system(*draw(st.sampled_from(ORACLE_TYPES)))
    h = rs.coxeter_number
    return rs, draw(st.integers(1, 2 * h).filter(lambda b: gcd(b, h) == 1))


@settings(max_examples=25, deadline=None)
@given(_coprime_cases())
def test_moments_match_the_fraction_fold(case):
    rs, b = case
    report = moments.__wrapped__(rs, b)
    oracle = folded_moments(rs, b)
    assert report["count"] == oracle["count"]
    assert (report["max"], report["max_multiplicity"]) == (oracle["max"], oracle["multiplicity"])
    assert report["mean"] == oracle["mean"]
    assert report["variance"] == oracle["m2"] == oracle["centered_m2"]
    assert report["m3"] == oracle["m3"] == oracle["centered_m3"]


@settings(max_examples=25, deadline=None)
@given(_coprime_cases(), st.sampled_from(("coweight", "coroot")))
def test_zise_form_matches_the_transported_size(case, lattice):
    rs, b = case
    form = zise_form(rs, b)
    if lattice == "coroot":
        points = coroot_points_in_bA(rs, b)
    else:
        points = coweight_points_in_bA(rs, b)
    assert all(form(x) == zise_by_transport(rs, b, x) for x in fraction_points(points))


def test_moments_build_no_point(monkeypatch):
    cases = [(A3, 5), (D4, 7), (_system("B", 3), 7), (_system("G", 2), 7)]
    expected = [moments.__wrapped__(rs, b) for rs, b in cases]
    maxima = [verify_max(rs, b) for rs, b in cases[:2]]
    fuss = experiment_cn_fuss(3, 1)

    def refuse(*args):
        raise AssertionError("a point was built")

    monkeypatch.setattr(lattice_enum, "coroot_points_in_bA", refuse)
    monkeypatch.setattr(lattice_enum, "iter_scaled_points", refuse)
    monkeypatch.setattr(stats, "zise_point", refuse)
    moments.cache_clear()
    try:
        assert [moments(rs, b) for rs, b in cases] == expected
        assert [verify_max(rs, b) for rs, b in cases[:2]] == maxima
        assert experiment_cn_fuss(3, 1) == fuss
    finally:
        moments.cache_clear()


def test_moments_a2_b4_ground_truth():
    report = moments(A2, 4)
    assert report["count"] == 5
    assert report["mean"] == 2
    assert report["max"] == 5
    assert report["max_multiplicity"] == 1
    assert report["variance"] == Q(14, 5)
    assert report["m3"] == Q(18, 5)
    assert report["grade"] == "match"
    assert all(v == "match" for v in report["verdicts"].values())
    sizes = sorted(zise_point(A2, 4, x) for x in coroot_points_in_bA(A2, 4).points)
    assert sizes == [0, 1, 2, 2, 5]


def test_moments_type_a_grid():
    for rank in (1, 2, 3):
        rs = build_root_system("A", rank)
        for b in range(2, 8):
            if gcd(b, rs.coxeter_number) != 1:
                continue
            report = moments(rs, b)
            assert report["grade"] == "match"
            assert report["verdicts"]["m3"] == "match"


def test_moments_simply_laced_outside_a():
    report = moments(D4, 5)
    verdicts = report["verdicts"]
    assert verdicts["count"] == "match"
    assert verdicts["max"] == "match"
    assert verdicts["mean"] == "match"
    assert verdicts["m2"] == "match"
    assert verdicts["m3"] == "no closed form"
    assert report["grade"] == "match"


def test_moments_non_simply_laced():
    report = moments(C2, 5)
    verdicts = report["verdicts"]
    assert verdicts["count"] == "match"
    assert verdicts["max"] == "no closed form"
    assert verdicts["mean"] == "no closed form"
    assert verdicts["m2"] == "no closed form"


def test_moments_rejects_bad_input():
    with pytest.raises(ValueError):
        moments(A2, 3)


def test_closed_form_values():
    assert haiman_count(A2, 4) == 5
    assert closed_max(A2, 4) == 5
    assert closed_mean(A2, 4) == 2
    assert closed_variance(A2, 4) == Q(14, 5)
    assert closed_m3_type_a(A2, 4) == Q(18, 5)


def test_verify_max_a2_b4():
    best, mult, argmax, verdict = verify_max(A2, 4)
    assert (best, mult, verdict) == (5, 1, "match")
    assert argmax == (Q(-1), Q(-1))


def test_verify_max_with_two_maximisers_is_a_mismatch(monkeypatch):
    exact = stats.scaled_value_counts

    def second_maximiser(*args):
        counts = exact(*args)
        return {**counts, max(counts): counts[max(counts)] + 1}

    monkeypatch.setattr(stats, "scaled_value_counts", second_maximiser)
    moments.cache_clear()
    try:
        report = moments(A2, 4)
        assert report["verdicts"]["max"] == "mismatch(multiplicity 2)"
        assert report["grade"] == "mismatch"
        assert verify_max(A2, 4) == (5, 2, (-1, -1), "mismatch(multiplicity 2)")
    finally:
        moments.cache_clear()


def test_verify_max_on_simply_laced_grid():
    for rs, bs in ((A3, (3, 5)), (D4, (5, 7))):
        for b in bs:
            best, mult, _, verdict = verify_max(rs, b)
            assert best == closed_max(rs, b)
            assert (mult, verdict) == (1, "match")


def test_floor_identities():
    assert floor_identity_check(A2, 4)
    assert floor_identity_check(D4, 5)
    for b in (2, 3, 5, 7, 9, 11):
        if gcd(b, A3.coxeter_number) == 1:
            assert floor_identity_check(A3, b)
        if gcd(b, D4.coxeter_number) == 1:
            assert floor_identity_check(D4, b)
    with pytest.raises(ValueError):
        floor_identity_check(C2, 3)
    with pytest.raises(ValueError):
        floor_identity_check(A2, 6)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([("A", 1), ("A", 2), ("A", 5), ("D", 4), ("D", 6), ("E", 6), ("E", 8)]),
    st.integers(1, 120),
)
def test_floor_sums_match_term_by_term(system, b):
    # any dilation: the exchange of the two sums does not need b coprime to h
    rs = build_root_system(*system)
    assert [value for value, _ in stats._floor_sums(rs, b)] == floor_sums_by_terms(rs, b)


def test_zise_constant_on_stabilizer_orbits():
    for rs, b in ((A2, 4), (A3, 5), (D4, 5)):
        omega = omega_group(rs)
        for x in fraction_points(coweight_points_in_bA(rs, b)):
            vals = {zise_point(rs, b, b_omega_action(rs, b, g, x)) for g in omega}
            assert len(vals) == 1


def test_coweight_power_sums_are_f_times_coroot_power_sums():
    for rs, b in ((A2, 4), (A3, 5), (D4, 5)):
        assert gcd(b, rs.index_f) == 1
        cw = [zise_point(rs, b, x) for x in fraction_points(coweight_points_in_bA(rs, b))]
        cr = [zise_point(rs, b, x) for x in coroot_points_in_bA(rs, b).points]
        for k in range(4):
            assert sum(v**k for v in cw) == rs.index_f * sum(v**k for v in cr)


def test_fuss_experiment_small_cases():
    r2 = experiment_cn_fuss(2, 1)
    assert r2["b"] == 5
    assert r2["mean"] == Q(11, 3)
    assert r2["conjecture"] == Q(11, 3)
    assert r2["verdict"] == "consistent"
    r3 = experiment_cn_fuss(3, 1)
    assert r3["conjecture"] == Q(23, 2)
    assert r3["verdict"] == "consistent"
    with pytest.raises(ValueError):
        experiment_cn_fuss(1, 1)


def test_moments_and_fuss_walk_once_and_read_no_dp(monkeypatch):
    # an empty table: any DP read, even of a row read before, would grow it
    monkeypatch.setattr(lattice_enum, "_SIZE_SUM_TABLES", {})
    walks = []
    walk = stats.scaled_value_counts

    def counted(rs, b, lattice, form):
        walks.append((rs.family, rs.rank, b, lattice))
        return walk(rs, b, lattice, form)

    monkeypatch.setattr(stats, "scaled_value_counts", counted)
    moments.cache_clear()
    try:
        for rs, b in ((A2, 4), (D4, 5), (build_root_system("G", 2), 5)):
            moments(rs, b)
        assert experiment_cn_fuss(2, 1)["verdict"] == "consistent"
    finally:
        moments.cache_clear()
    assert walks == [("A", 2, 4, "coroot"), ("D", 4, 5, "coroot"), ("G", 2, 5, "coroot"),
                     ("C", 2, 5, "coroot")]
    assert lattice_enum._SIZE_SUM_TABLES == {}


def test_weak_order_experiment_a2_b4():
    report = experiment_weak_order_maximality(A2, 4)
    assert report["total"] == 5
    assert report["contained"] == 5
    assert report["verdict"] == "consistent"


def test_weak_order_builds_no_element(monkeypatch):
    E6 = build_root_system("E", 6)
    w_b_inverse(E6, 7)

    def refuse(*args):
        raise AssertionError("an element was composed")

    monkeypatch.setattr(affine, "element_from_word", refuse)
    assert experiment_weak_order_maximality(E6, 7) == {
        "experiment": "weak_order_maximality", "family": "E", "rank": 6, "b": 7,
        "total": 77, "contained": 77, "violations": [], "verdict": "consistent",
    }


def test_weak_order_experiment_d4_b5():
    report = experiment_weak_order_maximality(D4, 5)
    assert report["total"] == 20
    assert report["contained"] == 20
    assert report["violations"] == []
    assert report["verdict"] == "consistent"


def test_selfconjugate_core_anchor():
    core = sc_core_from_word(2, (0, 1, 0, 1, 2, 1, 0))
    assert core == (6, 3, 3, 1, 1, 1)
    assert sum(core) == 15
    assert sc_weighted_size(core, 2) == 11
    assert sc_core_from_word(2, ()) == ()
    assert sc_weighted_size((), 2) == 0


def test_selfconjugate_experiment():
    report = experiment_cn_selfconjugate_weighting(2, 50, seed=7)
    assert report["agreements"] + len(report["mismatches"]) == 50
    assert report["verdict"] == "consistent"
    report3 = experiment_cn_selfconjugate_weighting(3, 25, seed=11)
    assert report3["verdict"] == "consistent"


def test_experiment_counterexample_verdicts(monkeypatch):
    exact_size = stats.sc_weighted_size
    monkeypatch.setattr(stats, "sc_weighted_size", lambda core, n: exact_size(core, n) + 1)
    report = experiment_cn_selfconjugate_weighting(2, 10, seed=7)
    assert report["verdict"] == "counterexample(10 mismatches)"

    exact_escapes = stats.escaped_walls
    # every point's inversion set gains one wall beyond the height-b element's
    monkeypatch.setattr(stats, "escaped_walls", lambda rs, y, d, b: exact_escapes(rs, y, d, b) + 1)
    report = experiment_weak_order_maximality(A2, 4)
    assert report["verdict"] == "counterexample(5 of 5 escape)"

    exact_counts = stats.scaled_value_counts

    def shifted(rs, b, lattice, form):
        # the smallest value's points lose one, which comes back 24 higher: the sum gains 24
        counts = exact_counts(rs, b, lattice, form)
        low = min(counts)
        counts[low] -= 1
        counts[low + 24] = counts.get(low + 24, 0) + 1
        return counts

    monkeypatch.setattr(stats, "scaled_value_counts", shifted)
    report = experiment_cn_fuss(2, 1)
    assert report["mean"] == Q(11, 3) + Q(1, 6)
    assert report["verdict"] == "counterexample(mean 23/6 != 11/3)"
