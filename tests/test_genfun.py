"""Tests for the eta-power q-series kernel, its quadratic oracles, the Coxeter polynomial
and the product identities."""

from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corelab import genfun
from corelab.genfun import (
    _char_poly_coeffs,
    _eta_power,
    core_product_factors,
    core_product_series,
    coxeter_char_poly,
    eta_updates,
    macdonald_factors,
    macdonald_series,
    poly_eval,
)
from corelab.affine import element_from_word
from corelab.lattice_enum import coroot_points_in_size_ellipsoid
from corelab.rootsys import VerificationError, build_root_system
from oracles import (
    core_counting_coefficients,
    divide_by_binomial,
    multiply_at_power,
    swept_core_product,
    swept_macdonald,
    truncated_product,
)

SIMPLY_LACED = (["A%d" % n for n in range(1, 9)] + ["D%d" % n for n in range(4, 9)]
                + ["E6", "E7", "E8"])


def rs_named(name):
    return build_root_system(name[0], int(name[1:]))


def size_histogram(family, cutoff):
    rs = rs_named(family)
    counts = Counter()
    for _, size in coroot_points_in_size_ellipsoid(rs, cutoff):
        counts[int(size)] += 1
    return [counts[k] for k in range(cutoff + 1)]


class TestInPlaceHelpers:
    """The quadratic sweeps of the oracles, each held to a plain convolution."""

    def test_divide_by_one_minus_q_is_geometric(self):
        c = [1, 0, 0, 0, 0, 0]
        divide_by_binomial(c, 1)
        assert c == [1, 1, 1, 1, 1, 1]
        c = [1, 0, 0, 0, 0, 0]
        divide_by_binomial(c, 2)
        assert c == [1, 0, 1, 0, 1, 0]

    def test_multiply_at_power_spreads_the_polynomial(self):
        c = [1, 0, 0, 0, 0, 0]
        multiply_at_power(c, (1, 1, 1), 2)
        assert c == [1, 0, 1, 0, 1, 0]
        c = [1, 0, 0, 0, 0]
        multiply_at_power(c, (1, 1, 1), 3)
        assert c == [1, 0, 0, 1, 0]

    def test_multiply_drops_terms_past_truncation(self):
        c = [1, 1, 0]
        multiply_at_power(c, (1, 1), 1)
        assert c == [1, 2, 1]
        multiply_at_power(c, (1, 1), 1)
        assert c == [1, 3, 3]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), min_size=0, max_size=6),
        st.lists(st.integers(-9, 9), min_size=0, max_size=31),
        st.integers(1, 5),
        st.integers(0, 30),
    )
    def test_helpers_match_truncated_convolution(self, tail, series, s, truncation):
        f = (1,) + tuple(tail)
        c = (series + [0] * (truncation + 1))[: truncation + 1]
        multiplied = list(c)
        multiply_at_power(multiplied, f, s)
        assert multiplied == truncated_product(c, f, s, truncation)
        # dividing by 1 - q^s undoes the product with it, and is that convolution's inverse
        divided = list(c)
        divide_by_binomial(divided, s)
        assert truncated_product(divided, (1, -1), s, truncation) == c
        multiply_at_power(divided, (1, -1), s)
        assert divided == c


class CountingList(list):
    """A list that counts the reads and writes of its items."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = self.writes = 0

    def __getitem__(self, k):
        self.reads += 1
        return super().__getitem__(k)

    def __setitem__(self, k, value):
        self.writes += 1
        super().__setitem__(k, value)


@lru_cache(maxsize=None)
def swept(name):
    """The quadratic oracle's series to q^200: a type's Macdonald series, or the a-cores' for "cA"."""
    if name.startswith("c"):
        return swept_core_product(int(name[1:]), 200)
    return swept_macdonald(rs_named(name), 200)


class TestEtaPower:
    def test_first_power_is_eulers_pentagonal_series(self):
        pentagonal = {k * (3 * k - 1) // 2: (-1) ** k for k in range(-8, 9)}
        for d in (1, 2, 5):
            c = [1] + [0] * 60
            _eta_power(c, d, 1)
            assert c == [pentagonal.get(k // d, 0) if k % d == 0 else 0 for k in range(61)]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=41),
        st.integers(1, 12),
        st.integers(-4, 4),
    )
    def test_power_then_its_inverse_restores_the_series(self, series, d, e):
        c = list(series)
        _eta_power(c, d, e)
        _eta_power(c, d, -e)
        assert c == series

    def test_step_above_the_truncation_changes_nothing(self):
        for e in (-3, -1, 1, 4):
            c = CountingList([1, 2, 3, 4, 5])
            _eta_power(c, 5, e)
            assert c == [1, 2, 3, 4, 5] and c.reads == c.writes == 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=41),
        st.integers(1, 6),
        st.integers(-3, 3),
    )
    def test_matches_one_quadratic_sweep_per_factor(self, series, d, e):
        fast, slow = list(series), list(series)
        _eta_power(fast, d, e)
        for i in range(1, (len(slow) - 1) // d + 1):
            for _ in range(abs(e)):
                if e > 0:
                    multiply_at_power(slow, (1, -1), d * i)
                else:
                    divide_by_binomial(slow, d * i)
        assert fast == slow

    @pytest.mark.parametrize("name", ["A1", "A2", "A8", "D4", "D7", "E6", "E8", "c3", "c7"])
    def test_updates_are_the_terms_each_sweep_reads(self, name):
        factors = (core_product_factors(int(name[1:])) if name.startswith("c")
                   else macdonald_factors(rs_named(name)))
        for truncation in (0, 1, 2, 5, 7, 12, 29, 30, 31, 100, 347):
            reads = writes = 0
            for d, e in factors:
                c = CountingList([1] + [0] * truncation)
                _eta_power(c, d, e)
                reads, writes = reads + c.reads - c.writes, writes + c.writes
            assert eta_updates(factors, truncation) == reads >= writes


class TestCoxeterCharPoly:
    def test_a2_cyclotomic(self):
        rs = rs_named("A2")
        assert coxeter_char_poly(rs) == (1, 1, 1)

    def test_value_at_one_is_lattice_index(self):
        for family, expected in [
            ("A2", 3),
            ("A3", 4),
            ("D4", 4),
            ("D5", 4),
            ("E6", 3),
            ("E7", 2),
            ("E8", 1),
            ("B3", 2),
            ("C4", 2),
            ("F4", 1),
            ("G2", 1),
        ]:
            rs = rs_named(family)
            poly = coxeter_char_poly(rs)
            assert poly_eval(poly, 1) == expected == rs.index_f

    def test_monic_with_unit_constant(self):
        for family in ["A4", "B2", "D6", "E6"]:
            rs = rs_named(family)
            poly = coxeter_char_poly(rs)
            assert len(poly) == rs.rank + 1
            assert poly[-1] == 1
            assert poly[0] in (1, -1)

    def test_order_independence(self):
        for family, word in [("A3", (2, 3, 1)), ("D4", (3, 1, 4, 2))]:
            rs = rs_named(family)
            elem = element_from_word(rs, word)
            assert _char_poly_coeffs(elem.linear) == coxeter_char_poly(rs)


    @pytest.mark.parametrize(
        "family",
        ["A%d" % n for n in range(1, 9)]
        + ["B%d" % n for n in range(2, 7)]
        + ["C%d" % n for n in range(2, 7)]
        + ["D%d" % n for n in range(4, 9)]
        + ["E6", "E7", "E8", "F4", "G2"],
    )
    def test_cayley_hamilton(self, family):
        rs = rs_named(family)
        n = rs.rank
        m = element_from_word(rs, tuple(range(1, n + 1))).linear
        power = [[int(i == j) for j in range(n)] for i in range(n)]
        total = [[0] * n for _ in range(n)]
        for fk in coxeter_char_poly(rs):
            for i in range(n):
                for j in range(n):
                    total[i][j] += fk * power[i][j]
            power = [
                [sum(power[i][k] * m[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
        assert total == [[0] * n for _ in range(n)]

    def test_failed_identities_raise(self, monkeypatch):
        rs = rs_named("A2")
        coxeter_char_poly.cache_clear()  # computed by earlier tests
        monkeypatch.setattr(genfun, "_char_poly_coeffs", lambda matrix: (1, 2, 1))
        with pytest.raises(VerificationError, match="at 1 is 4, not the index 3"):
            coxeter_char_poly(rs)
        monkeypatch.setattr(genfun, "_char_poly_coeffs", lambda matrix: (2, 0, 1))
        with pytest.raises(VerificationError, match="palindrome"):
            coxeter_char_poly(rs)
        monkeypatch.undo()
        monkeypatch.setattr(rs, "coxeter_number", 4)
        with pytest.raises(VerificationError, match="order h=4"):
            coxeter_char_poly(rs)

    def test_faddeev_leverrier_small_matrices(self):
        assert _char_poly_coeffs(()) == (1,)
        assert _char_poly_coeffs(((3,),)) == (-3, 1)
        # det(qI - M) = q^2 - 5q - 2 for M = [[1, 2], [3, 4]]
        assert _char_poly_coeffs(((1, 2), (3, 4))) == (-2, -5, 1)


class TestCoreProductSeries:
    def test_constant_term(self):
        for a in [2, 3, 7]:
            assert core_product_series(a, 10).coeffs[0] == 1

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            core_product_series(1, 10)

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            core_product_series(3, -1)
        with pytest.raises(ValueError, match="nonnegative"):
            macdonald_series(rs_named("A2"), -1)
        assert core_product_series(3, 0).coeffs == macdonald_series(rs_named("A2"), 0).coeffs == (1,)

    def test_two_cores_are_staircases(self):
        series = core_product_series(2, 40)
        triangulars = {k * (k + 1) // 2 for k in range(10)}
        for size in range(41):
            assert series.coeffs[size] == (1 if size in triangulars else 0)

    def test_matches_partition_search(self):
        for a in range(2, 6):
            series = core_product_series(a, 30)
            assert list(series.coeffs) == core_counting_coefficients(a, 30)

    @pytest.mark.parametrize("a", range(2, 9))
    def test_matches_quadratic_oracle_to_q200(self, a):
        assert core_product_series(a, 200).coeffs == swept("c%d" % a)


class TestMacdonaldSeries:
    def test_requires_simply_laced(self):
        with pytest.raises(ValueError):
            macdonald_series(rs_named("C2"), 10)
        with pytest.raises(ValueError):
            macdonald_series(rs_named("G2"), 10)

    def test_type_a_matches_core_product(self):
        for a in [3, 4, 5]:
            rs = rs_named("A%d" % (a - 1))
            assert macdonald_series(rs, 30).coeffs == core_product_series(a, 30).coeffs

    def test_matches_ellipsoid_histogram_rank_at_most_four(self):
        for family in ["A2", "A3", "A4", "D4"]:
            series = macdonald_series(rs_named(family), 30)
            assert list(series.coeffs) == size_histogram(family, 30)

    def test_matches_ellipsoid_histogram_higher_rank(self):
        for family in ["D5", "E6"]:
            series = macdonald_series(rs_named(family), 20)
            assert list(series.coeffs) == size_histogram(family, 20)

    def test_e8_factors_from_the_exponents(self):
        assert sorted(macdonald_factors(rs_named("E8"))[:-1]) == [
            (1, -1), (2, 1), (3, 1), (5, 1), (6, -1), (10, -1), (15, -1), (30, 1)]
        assert macdonald_factors(rs_named("E8"))[-1] == (30, 8)

    @pytest.mark.parametrize("name", SIMPLY_LACED)
    def test_matches_quadratic_oracle_to_q200(self, name):
        assert macdonald_series(rs_named(name), 200).coeffs == swept(name)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SIMPLY_LACED + ["c%d" % a for a in range(2, 9)]),
           st.integers(0, 200))
    def test_every_truncation_is_the_oracle_prefix(self, name, truncation):
        if name.startswith("c"):
            series = core_product_series(int(name[1:]), truncation)
        else:
            series = macdonald_series(rs_named(name), truncation)
        assert series.coeffs == swept(name)[: truncation + 1]

    def test_factors_that_miss_the_coxeter_polynomial_raise(self, monkeypatch):
        rs = rs_named("D4")
        monkeypatch.setattr(rs, "exponents", (1, 2, 4, 5))  # Phi_6 Phi_3, not Phi_6 Phi_2^2
        with pytest.raises(VerificationError, match="do not expand to f"):
            macdonald_series(rs, 10)
        monkeypatch.undo()
        monkeypatch.setattr(genfun, "macdonald_factors", lambda rs: ((1, -1), (2, 1), (3, 2)))
        with pytest.raises(VerificationError, match="do not expand to f"):
            macdonald_series(rs_named("A2"), 10)
