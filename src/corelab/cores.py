"""Partitions, hooks, a-cores, and the coroot-to-core dictionary in type A.

An a-core is a partition with no hook length divisible by a.  The rank
``a - 1`` affine letters act on a-cores through box contents: letter ``i``
toggles every addable or removable corner whose content is congruent to
``i`` modulo ``a``.  The classical bijection between the coroot lattice and
a-cores is read off an ``a``-runner abacus whose bead counts are the
differences of consecutive coroot coordinates; it intertwines the action of
the affine letters on coroots with the letter action on cores.  The
simultaneous (a,b)-cores are the cores of the coroot points of the
height-``b`` region, which the inverse height-``b`` element carries there
from the dilated alcove in integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import comb, gcd
from typing import Collection, Iterator, List, Sequence, Tuple

from corelab.lattice_enum import core_points_in_sommers
from corelab.rootsys import QuadraticForm, build_root_system


@dataclass(frozen=True)
class Partition:
    """A partition stored as its weakly decreasing tuple of positive parts."""

    parts: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if any(p <= 0 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(
            self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)
        ):
            raise ValueError("parts must be weakly decreasing")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        return Partition(
            tuple(
                sum(1 for p in self.parts if p >= c)
                for c in range(1, self.parts[0] + 1)
            )
        )


def hook_lengths(p: Partition) -> List[int]:
    """Hook lengths of every cell, in row-major order."""
    conj = p.conjugate().parts
    out = []
    for r, row_len in enumerate(p.parts, start=1):
        for c in range(1, row_len + 1):
            out.append(row_len - c + conj[c - 1] - r + 1)
    return out


def is_a_core(p: Partition, a: int) -> bool:
    """True iff no hook length of ``p`` is divisible by ``a``."""
    if a < 2:
        raise ValueError("modulus must be at least 2")
    return all(h % a != 0 for h in hook_lengths(p))


@dataclass(frozen=True)
class CorePartition:
    """A partition certified to be an ``a``-core."""

    partition: Partition
    modulus: int

    def __post_init__(self):
        if not is_a_core(self.partition, self.modulus):
            raise ValueError(
                f"{self.partition.parts} has a hook divisible by {self.modulus}"
            )

    @property
    def size(self) -> int:
        return self.partition.size


def _corners(parts: Sequence[int]) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
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


def toggle_corners(
    parts: Tuple[int, ...], m: int, residues: Collection[int]
) -> Tuple[int, ...]:
    """Add every addable corner whose content mod ``m`` lies in ``residues``,
    or, if there is none, remove every such removable corner.

    The two kinds are asserted never to coexist; hooks are not re-certified.
    """
    addable, removable = _corners(parts)
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


def simple_action_on_core(a: int, i: int, core: CorePartition) -> CorePartition:
    """Letter ``i`` toggles the corners of content congruent to ``i`` mod ``a``.

    For an a-core, addable and removable corners of one content class never
    coexist (asserted); the letter adds all corners of its class if any are
    addable, removes all if any are removable, and otherwise fixes the core.
    Applying the same letter twice returns the original core.
    """
    if not 0 <= i < a:
        raise ValueError(f"residue {i} out of range for modulus {a}")
    assert core.modulus == a
    return CorePartition(Partition(toggle_corners(core.partition.parts, a, (i,))), a)


def core_from_coroot(a: int, lam: Sequence[Q | int]) -> CorePartition:
    """The a-core matched to a coroot lattice point, read off an abacus.

    Pad ``lam`` to ``(0, lam_1, ..., lam_{a-1}, 0)``.  Runner ``i < a`` holds
    a bead at ``i + a k`` for every integer ``k < lam_{i+1} - lam_i``; with
    the beads in decreasing order ``beta_1 > beta_2 > ...``, part ``j`` is
    ``beta_j + j`` while that is positive.  This is the core that a reduced
    word of the translation by ``lam`` builds from the empty partition.  The
    box count always equals the size form at ``lam``; that is asserted.
    """
    if a < 2:
        raise ValueError("modulus must be at least 2")
    rs = build_root_system("A", a - 1)
    if len(lam) != rs.rank:
        raise ValueError(f"expected {rs.rank} coordinates")
    if any(Q(v).denominator != 1 for v in lam):
        raise ValueError("not a coroot point")
    coords = [0] + [int(v) for v in lam] + [0]
    gaps = [coords[i + 1] - coords[i] for i in range(a)]
    # every position below a * low holds a bead, and parts end there
    low = min(gaps)
    beads = sorted(
        (i + a * k for i, top in enumerate(gaps) for k in range(low, top)), reverse=True
    )
    parts = tuple(p for p in (beta + j for j, beta in enumerate(beads, 1)) if p > 0)
    core = CorePartition(Partition(parts), a)
    assert 24 * core.size == QuadraticForm(rs, 1).scaled_at(coords[1:-1])
    return core


def enumerate_simultaneous_cores(a: int, b: int) -> List[CorePartition]:
    """All simultaneous (a,b)-cores, sorted lexicographically by parts.

    The coroot points of the height-``b`` region go through the
    coroot-to-core map.  Every output is checked to be a ``b``-core as well,
    and the count is checked against ``C(a+b, b) / (a+b)``.
    """
    if a < 2 or b < 1:
        raise ValueError("need a >= 2 and b >= 1")
    if gcd(a, b) != 1:
        raise ValueError("a and b must be coprime")
    cores = []
    for x in core_points_in_sommers(build_root_system("A", a - 1), b).points:
        core = core_from_coroot(a, x)
        # a 1-core has no boxes at all; larger b get the hook test
        assert core.partition.parts == () if b == 1 else is_a_core(core.partition, b)
        cores.append(core)
    expected = comb(a + b, b) // (a + b)
    assert comb(a + b, b) % (a + b) == 0
    assert len(cores) == expected
    return sorted(cores, key=lambda c: c.partition.parts)


def _partitions_of(k: int, max_part: int) -> Iterator[Tuple[int, ...]]:
    if k == 0:
        yield ()
        return
    for first in range(min(k, max_part), 0, -1):
        for rest in _partitions_of(k - first, first):
            yield (first,) + rest


def core_counting_coefficients(a: int, N: int) -> List[int]:
    """Number of a-cores of each size ``0..N``, by direct partition search."""
    if a < 2:
        raise ValueError("modulus must be at least 2")
    if N < 0:
        raise ValueError("need N >= 0")
    counts = []
    for k in range(N + 1):
        counts.append(
            sum(1 for parts in _partitions_of(k, k) if is_a_core(Partition(parts), a))
        )
    return counts
