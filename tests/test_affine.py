"""Tests for affine group elements, walks, inversion sets, and the alcove stabilizer."""

import itertools
from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corelab import affine, lattice_enum
from corelab.affine import (
    AffineElement,
    AffineRoot,
    alcove_vertices,
    alcove_walk,
    base_point,
    compute_w_b,
    element_from_word,
    escaped_walls,
    inversions_of_inverse,
    separating_walls,
    size_of_element,
    sommers_contains,
    to_dominant,
    w_b_inverse,
)
from corelab.rootsys import (
    VerificationError,
    build_root_system,
    clear_denominators,
    roots_of_height,
)
from oracles import (
    affine_reflection_by_definition,
    alcove_walk_by_fractions,
    apply,
    apply_to_affine_root,
    b_omega_action,
    compose,
    in_dilated_alcove,
    inversions_by_word,
    invert_matrix,
    mat_vec,
    omega_group,
    pairing,
    simple_affine_root,
    vec_add,
    vec_scale,
)


A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
C2 = build_root_system("C", 2)
D4 = build_root_system("D", 4)


def test_simple_reflections_are_involutions():
    for rs in (A2, C2, D4, build_root_system("G", 2)):
        for i in range(rs.rank + 1):
            s = element_from_word(rs, (i,))
            assert compose(s, s).is_identity()
            assert not s.is_identity()


def test_braid_relation_a2():
    s1 = element_from_word(A2, (1,))
    s2 = element_from_word(A2, (2,))
    assert compose(compose(s1, s2), s1) == compose(compose(s2, s1), s2)
    assert element_from_word(A2, (1, 2, 1)) == element_from_word(A2, (2, 1, 2))


def test_reflection_index_out_of_range():
    with pytest.raises(ValueError):
        element_from_word(A2, (3,))


def test_affine_reflection_fixes_wall_and_moves_origin():
    s0 = element_from_word(A2, (0,))
    # the origin reflects to the highest coroot
    assert apply(s0, (Q(0), Q(0))) == (Q(1), Q(1))
    # a point on the affine wall is fixed
    wall_point = vec_scale(Q(1, 2), (Q(1), Q(1)))
    assert apply(s0, wall_point) == wall_point


def test_walk_at_base_point_is_trivial():
    final, word = alcove_walk(A2, base_point(A2))
    assert word == ()
    assert final == base_point(A2)


def test_walk_word_a2_b4():
    x = vec_scale(Q(4), base_point(A2))
    final, word = alcove_walk(A2, x)
    assert word == (0, 1, 2, 1)
    assert final == base_point(A2)
    elem = element_from_word(A2, word)
    assert elem.linear == ((1, 0), (0, 1))
    assert elem.translation == (Q(1), Q(1))
    assert apply(elem, final) == x


def test_walk_rejects_wall_points():
    with pytest.raises(ValueError, match="not regular"):
        alcove_walk(A2, (Q(0), Q(0)))
    with pytest.raises(ValueError, match="not regular"):
        alcove_walk(A2, (Q(1, 2), Q(1, 2)))


def test_compute_w_b_a2_b4_is_translation_by_rho_check():
    # w_4 translates by rho_check, so compute_w_b returns the translation by -rho_check
    w4_inverse = compute_w_b(A2, 4)
    assert w4_inverse.linear == ((1, 0), (0, 1))
    assert w4_inverse.translation == (-1, -1)


def test_compute_w_b_rejects_non_coprime():
    with pytest.raises(ValueError, match="coprime"):
        compute_w_b(A2, 3)
    with pytest.raises(ValueError, match="coprime"):
        compute_w_b(D4, 2)


def test_failed_w_b_transport_raises(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(affine, "element_from_word", lambda rs, word: element_from_word(rs, ()))
        with pytest.raises(VerificationError, match="does not map"):
            compute_w_b(A2, 4)
    with monkeypatch.context() as patch:
        patch.setattr(affine, "sommers_contains", lambda rs, b, y, d=1: False)
        with pytest.raises(VerificationError, match="vertex of 4A"):
            compute_w_b(A2, 4)
    # w_b^-1 translated by one more coroot carries some points of 4A off the region
    def moved(rs, b):
        winv = w_b_inverse(rs, b)
        shift = (winv.translation[0] + 1,) + winv.translation[1:]
        return AffineElement(winv.linear, shift)

    for lattice in ("coroot", "coweight"):
        with monkeypatch.context() as patch:
            patch.setattr(lattice_enum, "w_b_inverse", moved)
            with pytest.raises(VerificationError, match="point of 4A"):
                lattice_enum.core_points_in_sommers(A2, 4, lattice)


def test_inversions_of_inverse_a2_example():
    # the element s1 s2 s1 s0, whose inverse moves the base point to 4/3 rho_check
    w = (1, 2, 1, 0)
    inv = set(inversions_of_inverse(A2, w))
    assert inv == {
        AffineRoot((-1, 0), 1),
        AffineRoot((0, -1), 1),
        AffineRoot((-1, -1), 1),
        AffineRoot((-1, -1), 2),
    }
    assert size_of_element(A2, w) == 5


def test_inversion_set_of_w_b_matches_height_formula():
    # inv(w_b) = {-alpha + k delta : alpha positive, 0 < k < b ht(alpha) / h}
    for rs in (A2, A3, C2, D4):
        h = rs.coxeter_number
        for b in range(2, 8):
            if gcd(b, h) != 1:
                continue
            word = alcove_walk(rs, vec_scale(Q(b), base_point(rs)))[1]
            # the walk spells w_b; compute_w_b composes its inverse from the reversed word
            assert compute_w_b(rs, b) == inverse_by_fractions(element_from_word(rs, word))
            got = set(inversions_of_inverse(rs, word[::-1]))
            expected = set()
            for root in rs.positive_roots:
                neg = tuple(-c for c in root.coeffs)
                k = 1
                while k * h < b * root.height:
                    expected.add(AffineRoot(neg, k))
                    k += 1
            assert got == expected
            assert len(got) == len(word)


def test_size_of_c2_word():
    assert size_of_element(C2, (0, 1, 0, 1, 2, 1, 0)) == 11


def test_word_roundtrip_short_words():
    for word in [(1,), (0,), (1, 2), (0, 1, 0), (2, 1, 0, 1)]:
        w = element_from_word(A2, word)
        recovered = element_from_word(A2, alcove_walk(A2, apply(w, base_point(A2)))[1])
        assert recovered == w


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), max_size=10))
def test_walk_recovers_element_from_any_word(word):
    w = element_from_word(A3, word)
    final, walked = alcove_walk(A3, apply(w, base_point(A3)))
    assert final == base_point(A3)
    assert element_from_word(A3, walked) == w


def test_apply_to_affine_root_levels():
    # the word oracle's root action
    s0 = element_from_word(A2, (0,))
    a0 = simple_affine_root(A2, 0)
    assert a0 == AffineRoot((-1, -1), 1)
    # s0 negates its own root
    assert apply_to_affine_root(A2, s0, a0) == AffineRoot((1, 1), -1)
    # and sends alpha1 to -alpha2 + delta
    assert apply_to_affine_root(A2, s0, simple_affine_root(A2, 1)) == AffineRoot(
        (0, -1), 1
    )


ORACLE_SYSTEMS = [build_root_system("A", n) for n in range(1, 7)] + [
    build_root_system(family, rank)
    for family, rank in (("B", 3), ("C", 3), ("D", 4), ("E", 6), ("F", 4), ("G", 2))
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inversions_match_word_oracle(data):
    rs = data.draw(st.sampled_from(ORACLE_SYSTEMS))
    word = data.draw(st.lists(st.integers(0, rs.rank), max_size=12))
    got = inversions_of_inverse(rs, word)
    expected = inversions_by_word(rs, element_from_word(rs, word))
    assert len(set(got)) == len(got)
    assert set(got) == set(expected)
    assert size_of_element(rs, word) == sum(ar.level for ar in expected)


def test_separating_walls_reject_wall_points():
    with pytest.raises(ValueError, match="not regular"):
        separating_walls(A2, (0, 0), 1)
    with pytest.raises(ValueError, match="not regular"):
        separating_walls(A2, (1, 1), 2)  # on the affine wall <x, theta> = 1
    assert separating_walls(A2, (1, 1), 3) == []


WITH_D5_E7 = ORACLE_SYSTEMS + [build_root_system("D", 5), build_root_system("E", 7)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_escaped_walls_count_the_set_difference(data):
    # c rho_check/h - lam is regular for c coprime to h, and has negative
    # pairings once lam is large; k scales it off its least denominator
    rs = data.draw(st.sampled_from(WITH_D5_E7))
    h = rs.coxeter_number
    d0, y0 = clear_denominators(base_point(rs))
    coprime = [c for c in range(1, 3 * h) if gcd(c, h) == 1]
    b, c = data.draw(st.sampled_from(coprime)), data.draw(st.sampled_from(coprime))
    lam = data.draw(st.lists(st.integers(-4, 4), min_size=rs.rank, max_size=rs.rank))
    k = data.draw(st.integers(1, 3))
    y, d = [k * (c * v - d0 * l) for v, l in zip(y0, lam)], k * d0
    big = set(separating_walls(rs, [b * v for v in y0], d0))
    assert escaped_walls(rs, y, d, b) == len(set(separating_walls(rs, y, d)) - big)


def test_escaped_walls_reject_wall_points():
    with pytest.raises(ValueError, match="not regular"):
        escaped_walls(A2, (1, 1), 2, 2)  # on the affine wall <x, theta> = 1
    assert escaped_walls(A2, (1, 1), 3, 2) == 0
    assert escaped_walls(A2, (-2, -2), 3, 2) == 4  # alpha_i + 0 delta, theta + 0, 1 delta


def inverse_by_fractions(g):
    """The oracle: the linear part inverted by Gauss-Jordan over the rationals."""
    inv = invert_matrix(g.linear)
    assert all(v.denominator == 1 for row in inv for v in row)
    linear = tuple(tuple(int(v) for v in row) for row in inv)
    return AffineElement(linear, tuple(-v for v in mat_vec(inv, g.translation)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inverse_matches_fraction_inverse(data):
    # the reversed word composes the inverse, in ints
    rs = data.draw(st.sampled_from(WITH_D5_E7))
    word = data.draw(st.lists(st.integers(0, rs.rank), max_size=16))
    g = element_from_word(rs, word)
    inv = element_from_word(rs, word[::-1])
    assert inv == inverse_by_fractions(g)
    assert compose(g, inv).is_identity() and compose(inv, g).is_identity()
    assert all(type(v) is int for row in inv.linear for v in row)
    assert all(type(v) is int for v in inv.translation)


def test_sommers_region_a2_b4():
    # b = 4 = 1*3 + 1: height-1 roots bounded below by -1, height-2 by 2
    assert sommers_contains(A2, 4, (-1, -1))
    assert sommers_contains(A2, 4, (1, 1))
    assert not sommers_contains(A2, 4, (-2, -1))
    assert not sommers_contains(A2, 4, (2, 1))
    assert sommers_contains(A2, 4, (-2, -2), 2) and not sommers_contains(A2, 4, (-5, -2), 2)
    with pytest.raises(ValueError, match="coprime"):
        sommers_contains(A2, 3, (0, 0))


def sommers_by_pairing(rs, b, x):
    """The height-``b`` region by its definition, one Fraction pairing per root."""
    t, r = divmod(b, rs.coxeter_number)
    return all(pairing(rs, x, root.coeffs) >= -t for root in roots_of_height(rs, r)) and all(
        pairing(rs, x, root.coeffs) <= t + 1
        for root in roots_of_height(rs, rs.coxeter_number - r)
    )


SOMMERS_SYSTEMS = [build_root_system("A", n) for n in range(2, 7)] + [
    D4,
    build_root_system("E", 6),
]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sommers_contains_matches_root_pairings(data):
    rs = data.draw(st.sampled_from(SOMMERS_SYSTEMS))
    h = rs.coxeter_number
    b = data.draw(st.integers(1, 3 * h).filter(lambda b: gcd(b, h) == 1))
    # a rational point of the region, carried from b * A, then moved off it
    verts = alcove_vertices(rs, b)
    weights = data.draw(st.lists(st.integers(0, 3), min_size=len(verts),
                                 max_size=len(verts)).filter(any))
    inside = tuple(sum(w * v[i] for w, v in zip(weights, verts)) / sum(weights)
                   for i in range(rs.rank))
    shift = [data.draw(st.fractions(-1, 1, max_denominator=3)) for _ in range(rs.rank)]
    x = vec_add(apply(w_b_inverse(rs, b), inside), shift)
    d, y = clear_denominators(x)
    assert sommers_contains(rs, b, y, d) == sommers_by_pairing(rs, b, x)
    # an integer point needs no denominator
    y = tuple(v.numerator for v in x)
    assert sommers_contains(rs, b, y) == sommers_by_pairing(rs, b, tuple(map(Q, y)))


def test_in_dilated_alcove():
    assert in_dilated_alcove(A2, 4, (Q(1), Q(1)))
    assert in_dilated_alcove(A2, 2, (Q(1), Q(1)))
    assert not in_dilated_alcove(A2, 1, (Q(1), Q(1)))
    assert not in_dilated_alcove(A2, 4, (Q(-1), Q(0)))
    assert in_dilated_alcove(A2, 0, (Q(0), Q(0)))


def test_to_dominant():
    for x in [(-3, 2), (0, -5), (7, 1)]:
        y, word = to_dominant(A2, x, 1)
        assert apply(element_from_word(A2, word), y) == x
        for i in range(2):
            simple = tuple(int(j == i) for j in range(2))
            assert pairing(A2, y, simple) >= 0


def test_to_dominant_of_an_integer_vector_over_d():
    # the walk of y / d from ints reaches the point and element of the Fraction products
    for rs in (A2, D4, build_root_system("G", 2)):
        d0, y0 = clear_denominators(base_point(rs))
        for lam in itertools.product(range(-1, 2), repeat=rs.rank):
            x = [Q(v - d0 * l, d0) for v, l in zip(y0, lam)]
            scaled, word = to_dominant(rs, [v - d0 * l for v, l in zip(y0, lam)], d0)
            u = to_dominant_by_products(rs, x)
            assert element_from_word(rs, word[::-1]) == u
            assert apply(u, x) == tuple(Q(v, d0) for v in scaled)


def dense_reflection(rs, i):
    """The finite reflection ``s_i`` (``1 <= i <= n``) as a dense matrix."""
    n = rs.rank
    mat = tuple(
        tuple(int(r == c) - (rs.cartan[c][i - 1] if r == i - 1 else 0) for c in range(n))
        for r in range(n)
    )
    return AffineElement(mat, (0,) * n)


def to_dominant_by_products(rs, x):
    """The oracle: left products of dense reflections, one Fraction pairing per wall."""
    n = rs.rank
    xq = list(x)
    out = element_from_word(rs, ())
    while True:
        for i in range(n):
            v = pairing(rs, xq, tuple(int(j == i) for j in range(n)))
            if v < 0:
                xq[i] -= v
                out = compose(dense_reflection(rs, i + 1), out)
                break
        else:
            return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_to_dominant_matches_dense_reflection_products(data):
    rs = data.draw(st.sampled_from(ORACLE_SYSTEMS))
    n = rs.rank
    x = tuple(data.draw(st.lists(st.fractions(-6, 6, max_denominator=7), min_size=n,
                                 max_size=n)))
    d, y = clear_denominators(x)
    scaled, word = to_dominant(rs, y, d)
    u = to_dominant_by_products(rs, x)
    assert element_from_word(rs, word[::-1]) == u
    y = tuple(Q(v, d) for v in scaled)
    assert apply(u, x) == y
    assert all(pairing(rs, y, tuple(int(j == i) for j in range(n))) >= 0 for i in range(n))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_composition_and_walk_match_fraction_oracles(data):
    rs = data.draw(st.sampled_from(ORACLE_SYSTEMS))
    n = rs.rank
    letters = [affine_reflection_by_definition(rs)] + [
        dense_reflection(rs, j) for j in range(1, n + 1)
    ]
    word = data.draw(st.lists(st.integers(0, n), max_size=16))
    product = element_from_word(rs, ())
    for j in word:
        product = compose(product, letters[j])
    assert element_from_word(rs, word) == product
    # a prime denominator keeps most points off the walls
    x = tuple(Q(v, 211) for v in data.draw(st.lists(st.integers(-633, 633), min_size=n,
                                                     max_size=n)))
    try:
        expected = alcove_walk_by_fractions(rs, x)
    except ValueError:
        with pytest.raises(ValueError, match="not regular"):
            alcove_walk(rs, x)
    else:
        assert alcove_walk(rs, x) == expected


def test_omega_group_orders():
    expected = {
        ("A", 2): 3,
        ("A", 3): 4,
        ("B", 3): 2,
        ("C", 3): 2,
        ("D", 4): 4,
        ("D", 5): 4,
        ("E", 6): 3,
        ("E", 7): 2,
        ("E", 8): 1,
        ("F", 4): 1,
        ("G", 2): 1,
    }
    for (fam, rank), order in expected.items():
        rs = build_root_system(fam, rank)
        omega = omega_group(rs)
        assert len(omega) == order
        assert omega[0].is_identity()


def test_omega_group_is_closed_and_abelian():
    for rs in (A2, A3, D4, build_root_system("D", 5)):
        omega = omega_group(rs)
        for g in omega:
            for k in omega:
                gk = compose(g, k)
                assert gk in omega
                assert gk == compose(k, g)


def test_omega_group_element_orders_d4_vs_d5():
    # even rank D gives the Klein group, odd rank the cyclic group of order 4
    d4 = omega_group(D4)
    assert all(compose(g, g).is_identity() for g in d4)
    d5 = omega_group(build_root_system("D", 5))
    orders = set()
    for g in d5:
        k, power = 1, g
        while not power.is_identity():
            power = compose(power, g)
            k += 1
        orders.add(k)
    assert orders == {1, 2, 4}


def test_b_omega_action_preserves_dilated_alcove():
    b = 4
    for g in omega_group(A2):
        for v in alcove_vertices(A2, b):
            assert in_dilated_alcove(A2, b, b_omega_action(A2, b, g, v))
        assert b_omega_action(A2, b, g, vec_scale(Q(b), base_point(A2))) == vec_scale(
            Q(b), base_point(A2)
        )


def test_alcove_vertices():
    verts = alcove_vertices(A2, 3)
    assert verts[0] == (Q(0), Q(0))
    assert (Q(2), Q(1)) in verts
    assert (Q(1), Q(2)) in verts
