"""Partitions, a-cores, and the coroot-to-core dictionary in type A.

Every corner operation reads a partition as its bead set (Maya diagram)
``{lambda_r - r}``.  A box of content ``c`` is added or removed by moving a
bead between ``c - 1`` and ``c``, and a hook of length ``k`` is a bead with a
gap ``k`` places below it, so an a-core (no hook length divisible by ``a``)
is a bead set flush on every runner of the ``a``-runner abacus.  Affine
letter ``i`` acts on a-cores by toggling the corners of content ``i`` mod
``a``.  The bijection from coroot points to a-cores reads the runners' bead
counts off consecutive coordinate differences and intertwines the two
actions; the (a,b)-cores are the cores of the height-``b`` region's points.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from itertools import chain, count, takewhile
from math import comb, gcd
from operator import add, ge, sub
from typing import Collection, Iterable, List, Sequence, Set, Tuple

from corelab.lattice_enum import core_points_in_sommers, is_coroot_point
from corelab.rootsys import QuadraticForm, Record, RootSystem, VerificationError, build_root_system


class Partition(Record):
    """A partition stored as its weakly decreasing tuple of positive parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int] = ()) -> None:
        self.parts = tuple(parts)
        if self.parts and min(self.parts) <= 0:
            raise ValueError("parts must be positive")
        if not all(map(ge, self.parts, self.parts[1:])):
            raise ValueError("parts must be weakly decreasing")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        top = self.parts[0] if self.parts else 0
        return Partition(tuple(sum(1 for p in self.parts if p >= c) for c in range(1, top + 1)))


def _beads(parts: Sequence[int], pad: int = 0) -> Set[int]:
    """The beads ``lambda_r - r`` of ``parts`` followed by ``pad`` zero parts;
    every position below ``-len(parts) - pad`` holds a bead too."""
    return set(map(sub, parts, count(1))).union(range(-len(parts) - pad, -len(parts)))


def _parts(beads: Iterable[int]) -> Tuple[int, ...]:
    """The partition whose beads are ``beads`` and every position below some
    point under them, normalized so that its ``r``-th largest bead
    ``beta_r`` is ``lambda_r - r``: part ``r`` is ``beta_r + r`` while that
    is positive."""
    return tuple(takewhile((0).__lt__, map(add, sorted(beads, reverse=True), count(1))))


def is_a_core(p: Partition, a: int) -> bool:
    """True iff no hook length of ``p`` is divisible by ``a``: every bead
    has a bead ``a`` places below it.  A hook of length ``k a`` is a bead
    with a gap ``k a`` places below it, and the walk down from one to the
    other in steps of ``a`` passes a bead with a gap ``a`` below it."""
    if a < 2:
        raise ValueError("modulus must be at least 2")
    beads = _beads(p.parts)
    return beads.issuperset(filter((-len(p.parts)).__le__, map((-a).__add__, beads)))


class CorePartition(Record):
    """A partition certified to be an ``a``-core."""

    __slots__ = ("partition", "modulus")

    def __init__(self, partition: Partition, modulus: int) -> None:
        self.partition, self.modulus = partition, modulus
        if not is_a_core(self.partition, self.modulus):
            raise ValueError(
                f"{self.partition.parts} has a hook divisible by {self.modulus}"
            )

    @property
    def size(self) -> int:
        return self.partition.size


def toggle_corners(
    parts: Tuple[int, ...], m: int, residues: Collection[int]
) -> Tuple[int, ...]:
    """Add every addable corner whose content mod ``m`` lies in ``residues``
    and remove every such removable corner.

    Each such content ``c`` swaps the bead positions ``c - 1`` and ``c``; one
    zero part of padding keeps the lowest swap on the set.  On an ``m``-core
    with one residue, and on a self-conjugate ``2n``-core with the residues
    ``{i, -i}``, addable and removable corners of the class never coexist, so
    this is the letter action; applying it twice returns ``parts``.
    """
    beads = _beads(parts, 1)
    for c in range(-len(parts), (parts[0] if parts else 0) + 1):
        if c % m in residues and (c - 1 in beads) != (c in beads):
            beads ^= {c - 1, c}
    return _parts(beads)


@lru_cache(maxsize=None)
def _size_form(a: int) -> Tuple[RootSystem, QuadraticForm]:
    """The type A root system of rank ``a - 1`` and its size form ``F_1``."""
    rs = build_root_system("A", a - 1)
    return rs, QuadraticForm(rs, 1)


def core_from_coroot(a: int, lam: Sequence[Q | int]) -> CorePartition:
    """The a-core matched to a coroot lattice point, read off an abacus.

    Pad ``lam`` to ``(0, lam_1, ..., lam_{a-1}, 0)``.  Runner ``i < a`` holds
    a bead at ``i + a k`` for every integer ``k < lam_{i+1} - lam_i``.  This
    is the core that a reduced word of the translation by ``lam`` builds
    from the empty partition.  It must be an a-core whose box count is the
    size form at ``lam``; a failure raises :class:`~corelab.rootsys.VerificationError`.
    """
    if a < 2:
        raise ValueError("modulus must be at least 2")
    rs, size = _size_form(a)
    if len(lam) != rs.rank:
        raise ValueError(f"expected {rs.rank} coordinates")
    if not is_coroot_point(lam):
        raise ValueError("not a coroot point")
    coords = [0, *map(int, lam), 0]
    gaps = list(map(sub, coords[1:], coords))
    # every position below low holds a bead
    low = a * min(gaps)
    parts = _parts(chain.from_iterable(range(i + low, i + a * g, a) for i, g in enumerate(gaps)))
    try:
        core = CorePartition(Partition(parts), a)
    except ValueError:  # a bead set flush on every runner is an a-core
        raise VerificationError("the abacus of %s reads %s, not a %d-core"
                                % (coords[1:-1], list(parts), a)) from None
    scaled = size.scaled_at(coords[1:-1])
    if 24 * core.size != scaled:
        raise VerificationError("the %d-core of %s has %d boxes, not F_1 = %s"
                                % (a, coords[1:-1], core.size, Q(scaled, 24)))
    return core


def enumerate_simultaneous_cores(a: int, b: int) -> List[CorePartition]:
    """All simultaneous (a,b)-cores, sorted lexicographically by parts.

    The coroot points of the height-``b`` region go through the
    coroot-to-core map.  Every output must be a ``b``-core as well, and the
    count must be Anderson's ``C(a+b, b) / (a+b)``; a failure raises
    :class:`~corelab.rootsys.VerificationError`.
    """
    if a < 2 or b < 1:
        raise ValueError("need a >= 2 and b >= 1")
    if gcd(a, b) != 1:
        raise ValueError("a and b must be coprime")
    cores = []
    for x in core_points_in_sommers(_size_form(a)[0], b).points:
        core = core_from_coroot(a, x)
        # a 1-core has no boxes at all
        if not (core.partition.parts == () if b == 1 else is_a_core(core.partition, b)):
            raise VerificationError("the %d-core %s is not a %d-core"
                                    % (a, list(core.partition.parts), b))
        cores.append(core)
    if (a + b) * len(cores) != comb(a + b, b):
        raise VerificationError("%d (%d,%d)-cores, not C(%d,%d)/%d"
                                % (len(cores), a, b, a + b, b, a + b))
    return sorted(cores, key=lambda c: c.partition.parts)
