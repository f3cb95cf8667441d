"""Construction-time tables and identities for every supported family."""

import re
import time
from fractions import Fraction as Q
from math import lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corelab.affine import AffineRoot
from corelab.cores import CorePartition, Partition
from corelab.lattice_enum import coeffs_to_point
from corelab import rootsys
from corelab.rootsys import (
    Root,
    RootSystem,
    RootSystemType,
    VerificationError,
    adjugate,
    build_root_system,
    clear_denominators,
    roots_of_height,
)
from oracles import (
    det_int,
    inner,
    invert_matrix,
    pairing,
    root_string_closure,
    root_vector,
    vector_to_root_coeffs,
)

# Every type exercised anywhere in the test suite, kept to rank <= 8.
GRID = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 7)]
    + [("C", n) for n in range(2, 7)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.fixture(scope="module")
def systems():
    return {key: build_root_system(*key) for key in GRID}


def test_bad_types_rejected():
    with pytest.raises(ValueError):
        RootSystemType("H", 3)
    with pytest.raises(ValueError):
        RootSystemType("E", 9)
    with pytest.raises(ValueError):
        RootSystemType("D", 2)


def test_records_compare_by_value_and_check_their_values():
    root, again = AffineRoot((-1, 0), 1), AffineRoot((-1, 0), 1)
    assert root == again and hash(root) == hash(again) and len({root, again}) == 1
    assert root != AffineRoot((-1, 0), 2) and root != ((-1, 0), 1)
    assert Partition([2, 1]) == Partition((2, 1))
    assert hash(Partition([2, 1])) == hash(Partition((2, 1)))
    assert repr(root) == "AffineRoot((-1, 0), 1)"
    assert build_root_system(RootSystemType("E", 6)) is build_root_system("E", 6)
    with pytest.raises(ValueError, match="parts must be weakly decreasing"):
        Partition((1, 2))
    with pytest.raises(ValueError, match="unknown family 'Z'"):
        RootSystemType("Z", 1)
    with pytest.raises(ValueError, match=re.escape("(2,) has a hook divisible by 2")):
        CorePartition(Partition((2,)), 2)


def test_cartan_samples(systems):
    assert systems[("A", 2)].cartan == ((2, -1), (-1, 2))
    assert systems[("C", 2)].cartan == ((2, -2), (-1, 2))
    assert systems[("B", 2)].cartan == ((2, -1), (-2, 2))
    assert systems[("G", 2)].cartan == ((2, -3), (-1, 2))
    assert systems[("F", 4)].cartan == (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -2, 2, -1),
        (0, 0, -1, 2),
    )


def test_marks_and_comarks(systems):
    assert systems[("A", 3)].marks == (1, 1, 1)
    assert systems[("B", 3)].marks == (1, 2, 2)
    assert systems[("B", 3)].comarks == (1, 2, 1)
    assert systems[("C", 3)].marks == (2, 2, 1)
    assert systems[("C", 3)].comarks == (1, 1, 1)
    assert systems[("D", 4)].marks == (1, 2, 1, 1)
    assert systems[("E", 6)].marks == (1, 2, 2, 3, 2, 1)
    assert systems[("E", 7)].marks == (2, 2, 3, 4, 3, 2, 1)
    assert systems[("E", 8)].marks == (2, 3, 4, 6, 5, 4, 3, 2)
    assert systems[("F", 4)].marks == (2, 3, 4, 2)
    assert systems[("F", 4)].comarks == (2, 3, 2, 1)
    assert systems[("G", 2)].marks == (3, 2)
    assert systems[("G", 2)].comarks == (1, 2)


def test_coxeter_numbers(systems):
    expected_h = {"A": lambda n: n + 1, "B": lambda n: 2 * n, "C": lambda n: 2 * n,
                  "D": lambda n: 2 * n - 2}
    for (fam, n), rs in systems.items():
        if fam in expected_h:
            assert rs.coxeter_number == expected_h[fam](n)
    assert systems[("E", 6)].coxeter_number == 12
    assert systems[("E", 7)].coxeter_number == 18
    assert systems[("E", 8)].coxeter_number == 30
    assert systems[("F", 4)].coxeter_number == 12
    assert systems[("G", 2)].coxeter_number == 6


def test_root_counts_and_heights(systems):
    for rs in systems.values():
        n, h = rs.rank, rs.coxeter_number
        assert len(rs.positive_roots) == n * h // 2
        assert len(roots_of_height(rs, 1)) == n
        assert roots_of_height(rs, h) == ()
        assert len(roots_of_height(rs, h - 1)) == 1
        # Height level sizes weakly decrease (they form a partition conjugate
        # to the exponents).
        sizes = [len(roots_of_height(rs, l)) for l in range(1, h)]
        assert sizes == sorted(sizes, reverse=True)
        # Levels are conjugate to the exponent partition.
        for l in range(1, h):
            assert sizes[l - 1] == sum(1 for e in rs.exponents if e >= l)


def test_gram_positive_definite(systems):
    for rs in systems.values():
        denom = 1
        for row in rs.gram:
            for x in row:
                denom = denom * x.denominator // __import__("math").gcd(denom, x.denominator)
        scaled = [[int(x * denom) for x in row] for row in rs.gram]
        for k in range(1, rs.rank + 1):
            minor = det_int([row[:k] for row in scaled[:k]])
            assert minor > 0


def test_fundamental_coweights_pair_to_deltas(systems):
    for rs in systems.values():
        for i, w in enumerate(rs.fund_coweights):
            for j in range(rs.rank):
                simple = tuple(int(j == k) for k in range(rs.rank))
                assert pairing(rs, w, simple) == (1 if i == j else 0)


def test_coeffs_to_point_example(systems):
    rs = systems[("A", 2)]
    assert coeffs_to_point(rs, (1, 0)) == (Q(2, 3), Q(1, 3))
    assert coeffs_to_point(rs, (0, 1)) == (Q(1, 3), Q(2, 3))
    assert coeffs_to_point(rs, (1, 1)) == (Q(1), Q(1))


def test_rho_properties(systems):
    for rs in systems.values():
        n, h, g = rs.rank, rs.coxeter_number, rs.dual_coxeter_number
        # Strange formula, re-checked here independently of the constructor.
        assert inner(rs, rs.rho, rs.rho) == Q(2 * g * n * (h + 1), 24)
        assert 24 * inner(rs, rs.rho, rs.rho) == rs.rho_norm24
        # rho_check pairs with every positive root to its height.
        for r in rs.positive_roots:
            assert pairing(rs, rs.rho_check, r.coeffs) == r.height
        if rs.family in "ADE":
            assert rs.rho == rs.rho_check


def test_highest_root_and_dual(systems):
    for rs in systems.values():
        assert inner(
            rs,
            root_vector(rs, rs.highest_root.coeffs),
            root_vector(rs, rs.highest_root.coeffs),
        ) == 2
        # Comarks are the coroot coordinates of the highest root.
        assert root_vector(rs, rs.highest_root.coeffs) == tuple(
            Q(d) for d in rs.comarks
        )


def test_root_vector_roundtrip(systems):
    for rs in systems.values():
        for r in rs.positive_roots:
            assert vector_to_root_coeffs(rs, root_vector(rs, r.coeffs)) == r.coeffs


def test_index_and_weyl_order(systems):
    expected_f = {("A", 5): 6, ("B", 4): 2, ("C", 4): 2, ("D", 5): 4,
                  ("E", 6): 3, ("E", 7): 2, ("E", 8): 1, ("F", 4): 1, ("G", 2): 1}
    for key, f in expected_f.items():
        assert systems[key].index_f == f
    assert systems[("A", 3)].weyl_order == 24
    assert systems[("D", 4)].weyl_order == 192
    assert systems[("E", 8)].weyl_order == 696729600


def test_exact_linear_algebra_helpers():
    m = [[Q(2), Q(-1)], [Q(-1), Q(2)]]
    inv = invert_matrix(m)
    assert inv == ((Q(2, 3), Q(1, 3)), (Q(1, 3), Q(2, 3)))
    assert det_int([[2, -1], [-1, 2]]) == 3
    assert det_int([[1, 2], [2, 4]]) == 0


def check_adjugate(m):
    det, adj = adjugate(m)
    assert det == det_int(m)
    inv = invert_matrix(m)
    assert adj == tuple(tuple(det * v for v in row) for row in inv)
    assert all(type(v) is int for row in adj for v in row)


@st.composite
def diagonally_dominant(draw):
    # every leading principal submatrix is strictly diagonally dominant too,
    # so every leading principal minor is nonzero
    n = draw(st.integers(1, 8))
    rows = []
    for i in range(n):
        row = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
        excess = draw(st.integers(1, 6))
        sign = draw(st.sampled_from((1, -1)))
        row[i] = sign * (sum(abs(v) for j, v in enumerate(row) if j != i) + excess)
        rows.append(row)
    return rows


@settings(max_examples=100, deadline=None)
@given(diagonally_dominant())
def test_adjugate_matches_fraction_oracles(m):
    check_adjugate(m)


def test_adjugate_of_cartan_and_gram_matrices(systems):
    for rs in systems.values():
        check_adjugate(rs.cartan)
        check_adjugate(tuple(zip(*rs.cartan)))
        check_adjugate(rs.gram)


def test_adjugate_rejects_zero_pivot():
    with pytest.raises(ValueError):
        adjugate([[0, 1], [1, 0]])


def test_root_system_matches_oracles(systems):
    for rs in systems.values():
        cartan_t = [list(col) for col in zip(*rs.cartan)]
        inv = invert_matrix(cartan_t)
        assert rs.inv_cartan_t == inv
        assert rs.index_f == det_int(rs.cartan)
        assert rs.adj_cartan_t == tuple(tuple(rs.index_f * v for v in row) for row in inv)
        rho = [Q(0)] * rs.rank
        for r in rs.positive_roots:
            for i in range(rs.rank):
                rho[i] += Q(1, 2) * r.coeffs[i] * rs.simple_lengths[i]
        assert rs.rho == tuple(rho)


@pytest.mark.parametrize(
    "family, rank",
    [(f, n) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 21)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)],
)
def test_reflection_closure_matches_root_strings(family, rank):
    # the same roots, heights and order as the root-string probe
    rs = build_root_system(family, rank)
    assert list(rs.positive_roots) == root_string_closure(rs.cartan)


def test_a84_builds_in_under_a_second():
    start = time.perf_counter()
    rs = RootSystem(RootSystemType("A", 84))
    assert time.perf_counter() - start < 1
    assert len(rs.positive_roots) == 84 * 85 // 2


_exact_close_roots, _exact_norm = rootsys._close_roots, rootsys._norm


@pytest.mark.parametrize(
    "table, corrupt, rank, message",
    [
        ("_exponents", lambda family, n: (1, 3), 2,
         "the exponents of A2 sum to 4, not |Phi+| = 3"),
        ("_exponents", lambda family, n: (1, 1, 4), 3, "the exponents of A3 do not pair to h = 4"),
        ("_weyl_order", lambda family, n: 7, 2, "prod(e_i + 1) on A2 is not |W| = 7"),
        ("_expected_dual_coxeter", lambda family, n: 5, 2, "A2 has g = 3"),
        ("_expected_index", lambda family, n: 4, 2, "A2 has det A = 3"),
        ("_close_roots", lambda cartan: _exact_close_roots(cartan) + [Root((0, 2), 2)], 2,
         "A2 has 2 highest roots"),
        ("_norm", lambda gram, y: _exact_norm(gram, y) + 1, 2, "strange formula fails on A2"),
    ],
)
def test_corrupted_tables_raise_verification_errors(table, corrupt, rank, message):
    # raised, not asserted, so python -O keeps every identity check
    with mock.patch.object(rootsys, table, corrupt):
        with pytest.raises(VerificationError, match="^%s$" % re.escape(message)):
            RootSystem(RootSystemType("A", rank))


def spy_on_lcm():
    return mock.patch("corelab.rootsys.lcm", wraps=lcm)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**30, 10**30), max_size=8))
@example([])
def test_clear_denominators_of_ints_matches_the_lcm_path(ints):
    # an int vector skips the lcm; the same values as Fractions take it
    with spy_on_lcm() as spy:
        got = clear_denominators(ints)
        assert not spy.called
        assert got == clear_denominators([Q(v) for v in ints])
        assert spy.call_count == (1 if ints else 0)
    assert got == (1, ints)
    assert all(type(v) is int for v in got[1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), max_size=7), st.fractions(max_denominator=60),
       st.data())
def test_clear_denominators_of_mixed_vectors_takes_the_lcm_path(ints, frac, data):
    x = list(ints)
    x.insert(data.draw(st.integers(0, len(ints))), frac)
    with spy_on_lcm() as spy:
        d, y = clear_denominators(x)
    assert spy.call_count == 1
    assert d == lcm(*(Q(v).denominator for v in x))
    assert all(type(v) is int for v in y)
    assert [Q(v, d) for v in y] == x
