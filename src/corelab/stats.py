"""Size statistics on lattice points: exact moments, experiments.

``size`` is the form ``F_1`` of :class:`~corelab.rootsys.QuadraticForm` on
coroot coordinates; ``zise`` at dilation ``b`` is its pullback through ``w_b``,
one form per system and dilation (:func:`zise_form`).  Moments over the coroot
points of ``b * A`` are read from one walk that counts the points at each of
its values, and are compared against closed formulas where those exist (count
for every type; maximum, mean, and variance for simply-laced systems; the
third central moment for type A only).
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from math import gcd
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from corelab.affine import (
    base_point,
    escaped_walls,
    size_of_element,
    to_dominant,
    w_b_inverse,
)
from corelab.cores import Partition, toggle_corners
from corelab.lattice_enum import alcove_size_sums, core_points_in_sommers, scaled_value_counts
from corelab.rootsys import (
    QuadraticForm,
    RootSystem,
    VerificationError,
    build_root_system,
    clear_denominators,
    exponent_product,
    is_simply_laced,
    roots_of_height,
)


@lru_cache(maxsize=None)
def zise_form(rs: RootSystem, b: int) -> QuadraticForm:
    """Zise at dilation ``b``, ``x -> F_1(w_b^{-1} x)``, built once per system
    and dilation.  On simply-laced systems it is checked, exactly, to be the
    closed form ``F_b`` (the zise identity); a failure raises
    :class:`~corelab.rootsys.VerificationError`."""
    if b < 1 or gcd(b, rs.coxeter_number) != 1:
        raise ValueError("b not positive and coprime to Coxeter number")
    form = QuadraticForm(rs, 1).pullback(w_b_inverse(rs, b))
    if is_simply_laced(rs) and vars(form) != vars(QuadraticForm(rs, b)):
        raise VerificationError("zise identity F_1(w_b^-1 x) = F_b(x) fails at b=%d" % b)
    return form


def zise_point(rs: RootSystem, b: int, x: Sequence[Q | int]) -> Q:
    """Size pulled back through ``w_b``, at one point (:func:`zise_form`)."""
    return zise_form(rs, b)(x)


def haiman_count(rs: RootSystem, b: int) -> Q:
    """Number of coroot points of ``b * A`` for ``b`` coprime to ``h``."""
    return Q(exponent_product(rs, b), rs.weyl_order)


def closed_max(rs: RootSystem, b: int) -> Q:
    return Q(rs.rank * (b * b - 1) * (rs.coxeter_number + 1), 24)


def closed_mean(rs: RootSystem, b: int) -> Q:
    h = rs.coxeter_number
    return Q(rs.rank * (b - 1) * (h + b + 1), 24)


def closed_variance(rs: RootSystem, b: int) -> Q:
    n, h = rs.rank, rs.coxeter_number
    return Q(n * h * b * (b - 1) * (h + b) * (h + b + 1), 1440)


def closed_m3_type_a(rs: RootSystem, b: int) -> Q:
    a = rs.rank + 1
    poly = 2 * a * a * b - 3 * a * a + 2 * a * b * b - 3 * a * b - 3 * b * b - 3
    return Q(a * b * (a - 1) * (b - 1) * (a + b) * (a + b + 1) * poly, 60480)


def verdict_of(enumerated: Optional[Q], closed: Optional[Q]) -> str:
    if closed is None:
        return "no closed form"
    if enumerated == closed:
        return "match"
    return f"mismatch({enumerated}!={closed})"


@lru_cache(maxsize=None)
def moments(rs: RootSystem, b: int) -> Dict[str, object]:
    """Exact moments of zise over the coroot points of ``b * A`` next to their
    closed forms and verdicts, as the row ``stat`` prints, computed once per
    argument list however many callers read it.

    One walk of the knapsack, which builds no point, counts the points at
    each value of ``24 zise`` (:func:`~corelab.lattice_enum.scaled_value_counts`);
    the count, the power sums ``k = 1..3``, the maximum (the largest value)
    and its multiplicity are read from it, and the mean and central moments
    follow exactly.  Closed forms fill in per type as available; the maximum
    matches its closed form only if it is attained once.
    """
    counts = scaled_value_counts(rs, b, "coroot", zise_form(rs, b))
    s0, s1, s2, s3 = (sum(m * v**k for v, m in counts.items()) for k in range(4))
    top = max(counts)
    best, mult = Q(top, 24), counts[top]
    mean = Q(s1, 24 * s0)
    square = Q(s2, 24**2 * s0)
    m2 = square - mean * mean
    m3 = Q(s3, 24**3 * s0) - 3 * mean * square + 2 * mean**3
    simply = is_simply_laced(rs)
    closed = {"count": haiman_count(rs, b),
              "m3": closed_m3_type_a(rs, b) if rs.family == "A" else None}
    for key, form in (("max", closed_max), ("mean", closed_mean), ("m2", closed_variance)):
        closed[key] = form(rs, b) if simply else None
    values = {"count": Q(s0), "max": best, "mean": mean, "m2": m2, "m3": m3}
    verdicts = {key: verdict_of(value, closed[key]) for key, value in values.items()}
    if verdicts["max"] == "match" and mult != 1:
        verdicts["max"] = "mismatch(multiplicity %d)" % mult
    failed = any(v.startswith("mismatch") for v in verdicts.values())
    return {"family": rs.family, "rank": rs.rank, "b": b, "count": s0, "max": best,
            "max_multiplicity": mult, "mean": mean, "variance": m2, "m3": m3,
            "closed_forms": closed, "verdicts": verdicts,
            "grade": "mismatch" if failed else "match"}


def verify_max(rs: RootSystem, b: int) -> Tuple[Q, int, Tuple[int, ...], str]:
    """Maximum of size over the height-``b`` core points on a simply-laced
    system, with its multiplicity, its argmax and its verdict, ``match`` or
    ``mismatch(...)``, all read from :func:`moments`: the maximum must be the
    closed value ``F_b(0) = n (b^2-1)(h+1)/24``, attained once.  Zise at the
    origin is ``F_b(0)`` (checked by :func:`zise_form`), so the origin is then
    the unique maximiser, and the argmax is its image ``w_b^{-1}(0)``.
    """
    row = moments(rs, b)
    argmax = tuple(w_b_inverse(rs, b).translation)
    return row["max"], row["max_multiplicity"], argmax, row["verdicts"]["max"]


def _floor_sum(b: int, h: int, weight: Callable[[int], int]) -> int:
    """``sum_{0<i<b} (b - i) sum_{0<j<=floor(i h / b)} weight(j)`` in ``h - 1``
    terms: the ``i`` with ``floor(i h / b) >= j`` run from ``ceil(j b / h)``
    to ``b - 1``, so term ``j`` is ``weight(j) T(b - ceil(j b / h))`` with
    ``T(t) = t (t + 1) / 2``."""
    total = 0
    for j in range(1, h):
        t = b + (-j * b // h)
        total += weight(j) * t * (t + 1) // 2
    return total


def _floor_sums(rs: RootSystem, b: int) -> List[Tuple[int, int]]:
    """Each floor sum of :func:`floor_identity_check` with the value 24 times
    it must take: the general one, whose inner terms count the roots of
    height ``h - j``, then the displayed type A or D specialization."""
    n, h = rs.rank, rs.coxeter_number
    scale = n * (b * b - 1)
    sums = [(_floor_sum(b, h, lambda j: len(roots_of_height(rs, h - j))), scale * (h + 1))]
    if rs.family == "A":
        # (b - i)/2 fl (1 + fl) is (b - i) times the sum of j up to fl
        sums.append((_floor_sum(b, h, lambda j: j), scale * (n + 2)))
    if rs.family == "D":
        # ceil(j/2) up to n - 2, then ceil((j + 2)/2)
        d_sum = _floor_sum(b, h, lambda j: (j + 1) // 2 + (j > n - 2))
        sums.append((d_sum, scale * (2 * n - 1)))
    return sums


def floor_identity_check(rs: RootSystem, b: int) -> bool:
    """Exact floor-sum identities for the total size of the height-``b`` core set.

    The general rank-by-rank sum is compared to ``n (b^2-1)(h+1)/24``; for
    types A and D the displayed floor/ceiling specializations are compared
    as well, each in ``h - 1`` integer terms.  Returns True iff every
    evaluated form agrees.
    """
    if not is_simply_laced(rs):
        raise ValueError("floor identities apply to simply-laced systems")
    if gcd(b, rs.coxeter_number) != 1:
        raise ValueError("b not coprime to Coxeter number")
    return all(24 * value == target for value, target in _floor_sums(rs, b))


def experiment_cn_fuss(n: int, m: int) -> Dict[str, object]:
    """Mean size over the height-``(2mn+1)`` core set of C_n vs the conjectured value,
    the count and the sum of zise over ``b * A`` read from the moment DP, which
    enumerates no point (:func:`~corelab.lattice_enum.alcove_size_sums`)."""
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    rs = build_root_system("C", n)
    b = m * rs.coxeter_number + 1
    count, total = alcove_size_sums(rs, b, "coroot", 1, zise_form(rs, b))
    mean = total / count
    conjecture = Q(m * n * (2 * (m + 1) * n * n + (m + 3) * n - (m + 1)), 12)
    verdict = "consistent"
    if mean != conjecture:
        verdict = "counterexample(mean %d/%d != %d/%d)" % (
            mean.numerator, mean.denominator, conjecture.numerator, conjecture.denominator)
    return {"experiment": "fuss_mean", "family": "C", "rank": n, "m": m, "b": b,
            "count": count, "mean": mean, "conjecture": conjecture, "verdict": verdict}


def experiment_weak_order_maximality(rs: RootSystem, b: int) -> Dict[str, object]:
    """Check inversion-set containment in the height-``b`` element.

    For every coroot point ``lam`` of the bounded region, the dominant
    representative ``w`` with ``w^{-1}(0) = lam`` is ``x -> u(x - lam)``, ``u``
    the chamber walk of ``rho_check/h - lam``.  Its inversion set, the walls
    at ``u(rho_check/h - lam)``, is compared against the inversions of
    ``w_b``, the walls at ``b rho_check/h``, by counting the levels of the
    first beyond the second root by root (:func:`~corelab.affine.escaped_walls`).
    No element or wall is built.  Containment for all points is the conjectured
    behavior; violations are reported, never raised.
    """
    if gcd(b, rs.coxeter_number) != 1:
        raise ValueError("b not coprime to Coxeter number")
    d, base = clear_denominators(base_point(rs))
    contained = 0
    violations: List[Tuple[Tuple[int, ...], int]] = []
    points = core_points_in_sommers(rs, b).points
    for lam in points:
        y = to_dominant(rs, [v - d * l for v, l in zip(base, lam)], d)[0]
        extra = escaped_walls(rs, y, d, b)
        if extra:
            violations.append((lam, extra))
        else:
            contained += 1
    return {
        "experiment": "weak_order_maximality",
        "family": rs.family,
        "rank": rs.rank,
        "b": b,
        "total": len(points),
        "contained": contained,
        "violations": violations,
        "verdict": "consistent" if not violations
        else "counterexample(%d of %d escape)" % (len(violations), len(points)),
    }


def sc_core_from_word(n: int, word: Sequence[int]) -> Tuple[int, ...]:
    """Apply a word (rightmost letter first) to the empty self-conjugate core;
    a result that is not self-conjugate raises :class:`~corelab.rootsys.VerificationError`."""
    m = 2 * n
    parts: Tuple[int, ...] = ()
    for i in reversed(tuple(word)):
        if not 0 <= i <= n:
            raise ValueError(f"letter {i} out of range")
        # letter i toggles the corners of content i or -i mod 2n
        parts = toggle_corners(parts, m, {i % m, -i % m})
    if Partition(parts).conjugate().parts != parts:
        raise VerificationError("the core of the word %s is not self-conjugate" % (tuple(word),))
    return parts


def sc_weighted_size(parts: Sequence[int], n: int) -> int:
    """Box weights 2 / 1 / 0: strictly-above-diagonal boxes with content divisible
    by ``n`` count twice, other boxes on or above the diagonal once, the rest zero."""
    return sum(2 if c > r and (c - r) % n == 0 else 1
               for r, p in enumerate(parts, start=1) for c in range(r, p + 1))


def experiment_cn_selfconjugate_weighting(
    n: int, trials: int, seed: int = 0
) -> Dict[str, object]:
    """Compare element size against the weighted box count of the matching core.

    Random short words in the rank-``n`` C-type affine group are applied to
    the empty self-conjugate core; the weighted box sum is compared with the
    inversion-level size of the element.  Agreement statistics are reported.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rs = build_root_system("C", n)
    import random  # here, so that no other request imports it
    rng = random.Random(seed)
    agree = 0
    mismatches: List[Dict[str, object]] = []
    for _ in range(trials):
        length = rng.randint(0, 10)
        word = tuple(rng.randint(0, n) for _ in range(length))
        elem_size = size_of_element(rs, word)
        core = sc_core_from_word(n, word)
        weighted = sc_weighted_size(core, n)
        if weighted == elem_size:
            agree += 1
        else:
            mismatches.append(
                {"word": word, "element_size": elem_size, "weighted": weighted}
            )
    return {
        "experiment": "selfconjugate_weighting",
        "family": "C",
        "rank": n,
        "trials": trials,
        "agreements": agree,
        "mismatches": mismatches,
        "verdict": "consistent" if not mismatches
        else "counterexample(%d mismatches)" % len(mismatches),
    }
