"""Tests for partitions, a-cores, the letter action on cores, and core enumeration."""

from collections import Counter
from fractions import Fraction as Q
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corelab.affine import alcove_walk, base_point, element_from_word
from corelab.cores import (
    CorePartition,
    Partition,
    core_from_coroot,
    enumerate_simultaneous_cores,
    is_a_core,
    toggle_corners,
)
from corelab.rootsys import build_root_system
from oracles import (
    apply,
    core_by_beads,
    core_counting_coefficients,
    hook_lengths,
    partitions_of,
    size_point,
    toggle_corners_by_scan,
    vec_add,
)


def test_partition_validation():
    assert Partition().size == 0
    assert Partition((3, 1, 1)).size == 5
    assert Partition([2, 2]).parts == (2, 2)
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((-1,))


@pytest.mark.parametrize("parts, message", [
    ((0,), "parts must be positive"),
    ((-1,), "parts must be positive"),
    ((1, 2), "parts must be weakly decreasing"),
    ((2, 0, 1), "parts must be positive"),  # positivity is checked first
])
def test_partition_validation_messages(parts, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        Partition(parts)


def test_conjugate():
    assert Partition((3, 1, 1)).conjugate() == Partition((3, 1, 1))
    assert Partition((4, 2)).conjugate() == Partition((2, 2, 1, 1))
    assert Partition().conjugate() == Partition()


def test_hook_lengths():
    assert hook_lengths(Partition()) == []
    assert Counter(hook_lengths(Partition((2, 1)))) == Counter({3: 1, 1: 2})
    assert Counter(hook_lengths(Partition((3, 1, 1)))) == Counter(
        {5: 1, 2: 2, 1: 2}
    )


def test_is_a_core():
    assert is_a_core(Partition(), 2)
    assert is_a_core(Partition((2, 1)), 2)
    assert is_a_core(Partition((3, 1, 1)), 3)
    assert not is_a_core(Partition((2,)), 2)
    assert not is_a_core(Partition((3, 1, 1)), 5)
    with pytest.raises(ValueError):
        is_a_core(Partition(), 1)


def test_core_partition_validates():
    CorePartition(Partition((2, 1)), 2)
    with pytest.raises(ValueError):
        CorePartition(Partition((2,)), 2)


def letter(a, i, core):
    """Affine letter ``i`` on an a-core."""
    return CorePartition(Partition(toggle_corners(core.partition.parts, a, (i,))), a)


def test_simple_action_first_step():
    assert toggle_corners((), 3, (0,)) == (1,)
    # the other residues fix the empty core
    assert toggle_corners((), 3, (1,)) == ()
    assert toggle_corners((), 3, (2,)) == ()


def test_simple_action_word_example():
    # s1 s2 s1 s0 applied to the empty core, rightmost letter first
    parts = ()
    for i in reversed((1, 2, 1, 0)):
        parts = toggle_corners(parts, 3, (i,))
    assert parts == (3, 1, 1)


def test_simple_action_is_involutive():
    for a, b in ((3, 4), (4, 5)):
        for core in enumerate_simultaneous_cores(a, b):
            for i in range(a):
                assert letter(a, i, letter(a, i, core)) == core


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bead_toggle_matches_corner_scan(data):
    # a random word over the letters of one modulus: a-cores for a = 2..9,
    # or self-conjugate 2n-cores under the residue pairs {i, -i mod 2n}
    if data.draw(st.booleans()):
        m = data.draw(st.integers(2, 9))
        classes = [(i,) for i in range(m)]
    else:
        n = data.draw(st.integers(2, 5))
        m = 2 * n
        classes = [{i % m, -i % m} for i in range(n + 1)]
    parts = ()
    for residues in data.draw(st.lists(st.sampled_from(classes), max_size=40)):
        expected = toggle_corners_by_scan(parts, m, residues)
        assert toggle_corners(parts, m, residues) == expected
        parts = expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 12), max_size=12), st.integers(2, 9))
def test_bead_core_test_matches_hooks(parts, a):
    p = Partition(sorted(parts, reverse=True))
    assert is_a_core(p, a) == all(h % a for h in hook_lengths(p))


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 9), st.lists(st.integers(-9, 9), min_size=8, max_size=8))
@example(2, [0] * 8)
@example(9, [0] * 8)
@example(9, [-9, -9, -9, -9, -9, -9, -9, -9])
@example(5, [3, -4, 0, 7, 0, 0, 0, 0])
def test_abacus_core_matches_bead_by_bead_reading(a, coords):
    lam = coords[:a - 1]
    assert core_from_coroot(a, lam).partition.parts == core_by_beads(a, lam)


def test_core_from_coroot_anchors():
    assert core_from_coroot(3, (0, 0)).partition == Partition()
    assert core_from_coroot(3, (-1, -1)).partition == Partition((3, 1, 1))
    with pytest.raises(ValueError, match="not a coroot point"):
        core_from_coroot(3, (Q(1, 2), Q(0)))
    with pytest.raises(ValueError):
        core_from_coroot(3, (1, 1, 1))


def test_core_from_coroot_preserves_size():
    rs = build_root_system("A", 2)
    for x in range(-2, 3):
        for y in range(-2, 3):
            core = core_from_coroot(3, (x, y))
            assert core.size == size_point(rs, (Q(x), Q(y)))


def test_core_from_coroot_equivariance():
    # acting by an affine letter on the coroot matches the letter action on cores
    for a in (3, 4):
        rs = build_root_system("A", a - 1)
        refl = [element_from_word(rs, (i,)) for i in range(a)]
        points = [
            tuple(Q(v) for v in vec)
            for vec in (
                [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
                if a == 3
                else [
                    (x, y, z)
                    for x in range(-1, 2)
                    for y in range(-1, 2)
                    for z in range(-1, 2)
                ]
            )
        ]
        for lam in points:
            core = core_from_coroot(a, lam)
            for i in range(a):
                moved = apply(refl[i], lam)
                assert core_from_coroot(a, moved) == letter(a, i, core)


def walk_core(a, lam):
    """The oracle: toggle corners along a reduced word of the translation by
    ``lam``, read off the alcove walk of ``lam`` plus the base point."""
    rs = build_root_system("A", a - 1)
    lam_q = tuple(Q(v) for v in lam)
    final, word = alcove_walk(rs, vec_add(lam_q, base_point(rs)))
    assert final == base_point(rs)
    elem = element_from_word(rs, word)
    assert elem.translation == lam_q
    assert all(elem.linear[r][c] == int(r == c) for r in range(a - 1) for c in range(a - 1))
    parts = ()
    for i in reversed(word):
        parts = toggle_corners_by_scan(parts, a, (i,))
    return parts


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_abacus_core_matches_walk_oracle(data):
    a = data.draw(st.integers(2, 9))
    lam = data.draw(st.lists(st.integers(-6, 6), min_size=a - 1, max_size=a - 1))
    assert core_from_coroot(a, lam).partition.parts == walk_core(a, lam)


def test_enumerate_34():
    cores = enumerate_simultaneous_cores(3, 4)
    assert [c.partition.parts for c in cores] == [
        (),
        (1,),
        (1, 1),
        (2,),
        (3, 1, 1),
    ]


def test_enumerate_small_and_errors():
    assert [c.partition.parts for c in enumerate_simultaneous_cores(2, 3)] == [
        (),
        (1,),
    ]
    assert [c.partition.parts for c in enumerate_simultaneous_cores(5, 1)] == [()]
    with pytest.raises(ValueError):
        enumerate_simultaneous_cores(4, 6)


def test_enumerate_counts():
    for a in range(2, 7):
        for b in range(1, 7):
            if gcd(a, b) != 1:
                continue
            cores = enumerate_simultaneous_cores(a, b)
            assert len(cores) == comb(a + b, b) // (a + b)


def brute_force_simultaneous(a, b, max_size):
    found = []
    for k in range(max_size + 1):
        for parts in partitions_of(k, k):
            p = Partition(parts)
            if is_a_core(p, a) and is_a_core(p, b):
                found.append(parts)
    return sorted(found)


def test_enumerate_matches_brute_force():
    for a, b in ((2, 5), (3, 4), (3, 5), (4, 5)):
        bound = (a * a - 1) * (b * b - 1) // 24
        expected = brute_force_simultaneous(a, b, bound)
        got = sorted(c.partition.parts for c in enumerate_simultaneous_cores(a, b))
        assert got == expected


def test_max_size_attained_once():
    for a, b in ((3, 4), (3, 5), (4, 5), (2, 9)):
        bound = (a * a - 1) * (b * b - 1) // 24
        sizes = [c.size for c in enumerate_simultaneous_cores(a, b)]
        assert max(sizes) == bound
        assert sizes.count(bound) == 1


def test_core_counting_coefficients_two():
    coeffs = core_counting_coefficients(2, 21)
    triangular = {k * (k + 1) // 2 for k in range(7)}
    for k, c in enumerate(coeffs):
        assert c == (1 if k in triangular else 0)


def test_core_counting_coefficients_three():
    N = 25
    coeffs = core_counting_coefficients(3, N)
    # oracle: coefficients of (1-q^{3i})^3 / prod (1-q^i)
    num = [0] * (N + 1)
    num[0] = 1
    for i in range(1, N // 3 + 1):
        for _ in range(3):
            nxt = num[:]
            for k in range(3 * i, N + 1):
                nxt[k] -= num[k - 3 * i]
            num = nxt
    den = [0] * (N + 1)
    den[0] = 1
    for m in range(1, N + 1):
        for k in range(m, N + 1):
            den[k] += den[k - m]
    expected = [sum(num[j] * den[k - j] for j in range(k + 1)) for k in range(N + 1)]
    assert coeffs == expected
