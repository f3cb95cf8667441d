"""Exact quasipolynomial fitting for size statistics of dilated alcoves.

Sums of powers of the dilation statistic over lattice points of the dilated
fundamental alcove are quasipolynomials in the dilation factor.  This module
fits their components by Lagrange interpolation over exact rationals,
validates the fits on holdout dilations, checks the reciprocity symmetry,
and reproduces the closed-form expected-size polynomials and the
leading-coefficient tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .genfun import poly_add, poly_eval, poly_mul, poly_trim
from .lattice_enum import alcove_size_sums, iter_scaled_points, lattice_scale
from .rootsys import QuadraticForm, RootSystem, is_simply_laced
from .stats import verdict_of

__all__ = [
    "QuasiPolynomial",
    "FitSpec",
    "quasi_period",
    "default_spec",
    "dp_backed",
    "weighted_lattice_sum",
    "fit_component",
    "fit_quasi",
    "reciprocity_check",
    "verify_expected_size_polynomial",
    "leading_coefficient_checks",
]

PolyQ = Tuple[Q, ...]

LATTICES = ("coweight", "coroot")


def _pscale(factor: Q, p: Sequence[Q]) -> PolyQ:
    return tuple(factor * c for c in p)


def _pcoeff(p: Sequence[Q], k: int) -> Q:
    return p[k] if k < len(p) else Q(0)


def _lagrange_fit(xs: Sequence[int], ys: Sequence[Q]) -> PolyQ:
    assert len(xs) == len(ys) and len(set(xs)) == len(xs)
    total: PolyQ = (Q(0),)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if yi == 0:
            continue
        num: PolyQ = (Q(1),)
        den = Q(1)
        for j, xj in enumerate(xs):
            if j != i:
                num = poly_mul(num, (Q(-xj), Q(1)))
                den *= xi - xj
        total = poly_add(total, _pscale(yi / den, num))
    return poly_trim(total)


@dataclass(frozen=True)
class QuasiPolynomial:
    """Periodic polynomial; component choice dispatches on ``b mod period``."""

    period: int
    components: Tuple[Optional[PolyQ], ...]
    degree: int

    def __post_init__(self) -> None:
        assert self.period >= 1
        assert len(self.components) == self.period
        for comp in self.components:
            assert comp is None or len(comp) <= self.degree + 1

    def component(self, b: int) -> PolyQ:
        comp = self.components[b % self.period]
        if comp is None:
            raise ValueError("residue class %d not fitted" % (b % self.period))
        return comp

    def evaluate(self, b: int) -> Q:
        return poly_eval(self.component(b), b)

    def as_json_dict(self) -> Dict:
        return {
            "period": self.period,
            "degree": self.degree,
            "components": [
                None
                if comp is None
                else [[c.numerator, c.denominator] for c in comp]
                for comp in self.components
            ],
        }


def quasi_period(rs: RootSystem, lattice: str) -> int:
    """A priori period of lattice-point quasipolynomials of the dilated alcove.

    For the coweight lattice this is the usual bound, the lcm of the marks.
    The coroot lattice is coarser and sees the alcove vertices at rational
    coroot coordinates, so the period is the lcm of the coordinate
    denominators of all vertices.
    """
    if lattice not in LATTICES:
        raise ValueError("unknown lattice %r" % lattice)
    if lattice == "coweight":
        return lcm(*rs.marks)
    dens = [1]
    for mark, coweight in zip(rs.marks, rs.fund_coweights):
        for coord in coweight:
            dens.append((Q(coord) / mark).denominator)
    return lcm(*dens)


def dp_backed(k: int, centered: bool) -> bool:
    """Whether :func:`weighted_lattice_sum` reads the moment DP, which
    enumerates no point, rather than streaming every lattice point."""
    return k == 0 or (k == 1 and not centered)


@lru_cache(maxsize=None)
def weighted_lattice_sum(
    rs: RootSystem, b: int, k: int, lattice: str, centered: bool = False
) -> Q:
    """Sum of the k-th power of the dilation statistic over lattice points.

    The statistic is the form ``F_b`` (:class:`QuadraticForm`), the closed
    form of zise, evaluated on every lattice point of the closed dilated
    alcove; ``centered`` subtracts the closed-form mean n(b-1)(h+b+1)/24
    before raising to the k-th power.
    """
    if lattice not in LATTICES:
        raise ValueError("unknown lattice %r" % lattice)
    if k < 0:
        raise ValueError("weight exponent must be nonnegative")
    if b < 0:
        raise ValueError("dilation must be nonnegative")
    if k and not is_simply_laced(rs):
        raise ValueError("weighted sums require a simply-laced root system")
    if dp_backed(k, centered):
        return Q(alcove_size_sums(rs, b, lattice)[k])
    n = rs.rank
    h = rs.coxeter_number
    form = QuadraticForm(rs, b)
    # the form is summed as the integer 24 d^2 F_b(y / d) on points y scaled by d
    d = lattice_scale(rs, lattice)
    mu_scaled = d * d * n * (b - 1) * (h + b + 1) if centered else 0
    total = 0
    for y in iter_scaled_points(rs, b, lattice):
        total += (form.scaled_at(y, d) - mu_scaled) ** k
    return Q(total, (24 * d * d) ** k)


@dataclass(frozen=True)
class FitSpec:
    """One residue-class fit of a weighted lattice-point quasipolynomial."""

    rs: RootSystem
    k: int
    lattice: str
    residue: int
    degree: int
    samples: Tuple[int, ...]
    centered: bool = False

    def __post_init__(self) -> None:
        if self.lattice not in LATTICES:
            raise ValueError("unknown lattice %r" % self.lattice)
        if self.k < 0:
            raise ValueError("weight exponent must be nonnegative")
        m = quasi_period(self.rs, self.lattice)
        if not 0 <= self.residue < m:
            raise ValueError("residue out of range for period %d" % m)
        if len(set(self.samples)) != len(self.samples):
            raise ValueError("sample dilations must be distinct")
        if any(b < 0 or b % m != self.residue for b in self.samples):
            raise ValueError("samples must be nonnegative and in the residue class")
        if len(self.samples) < self.degree + 1:
            raise ValueError("need at least degree+1 samples")

    @property
    def period(self) -> int:
        return quasi_period(self.rs, self.lattice)


def default_spec(
    rs: RootSystem,
    k: int,
    lattice: str,
    residue: int,
    centered: bool = False,
    holdouts: int = 2,
) -> FitSpec:
    """Smallest nonnegative representatives of the class, none skipped."""
    degree = rs.rank + 2 * k
    m = quasi_period(rs, lattice)
    count = degree + 1 + holdouts
    samples = tuple(residue + m * t for t in range(count))
    return FitSpec(rs, k, lattice, residue, degree, samples, centered)


def fit_component(spec: FitSpec) -> PolyQ:
    """Interpolate one quasipolynomial component and verify it on holdouts."""
    cut = spec.degree + 1
    if len(spec.samples) < cut + 2:
        raise ValueError("need at least two holdout samples")
    xs = spec.samples[:cut]
    ys = [
        weighted_lattice_sum(spec.rs, b, spec.k, spec.lattice, spec.centered)
        for b in xs
    ]
    poly = _lagrange_fit(xs, ys)
    for b in spec.samples[cut:]:
        expected = weighted_lattice_sum(spec.rs, b, spec.k, spec.lattice, spec.centered)
        if poly_eval(poly, b) != expected:
            raise ValueError("period/degree assumption violated")
    return poly


def fit_quasi(
    rs: RootSystem,
    k: int,
    lattice: str,
    residues: Optional[Sequence[int]] = None,
    centered: bool = False,
) -> QuasiPolynomial:
    """Fit components for the given residue classes (all classes by default)."""
    m = quasi_period(rs, lattice)
    chosen = range(m) if residues is None else residues
    components: List[Optional[PolyQ]] = [None] * m
    for residue in chosen:
        components[residue] = fit_component(
            default_spec(rs, k, lattice, residue, centered)
        )
    return QuasiPolynomial(m, tuple(components), rs.rank + 2 * k)


def reciprocity_check(
    rs: RootSystem, k: int, fitted: QuasiPolynomial, probes: Sequence[int]
) -> bool:
    """Whether fitted(-h-b) equals (-1)^rank fitted(b) at every probe dilation.

    Reflecting the dilation through -h pairs closed-alcove sums with
    open-alcove sums, which the rho-check shift carries back to closed ones,
    so the only trace left is the parity sign of the ambient dimension.  For
    even rank this is the sign-free statement fitted(b) = fitted(-h-b).
    """
    h = rs.coxeter_number
    sign = -1 if rs.rank % 2 else 1
    for b in probes:
        try:
            if fitted.evaluate(-h - b) != sign * fitted.evaluate(b):
                return False
        except ValueError:
            return False
    return True


def _closed_count_poly(rs: RootSystem) -> PolyQ:
    """(1/|W|) prod (b + e_i) as a polynomial in b."""
    poly: PolyQ = (Q(1, rs.weyl_order),)
    for e in rs.exponents:
        poly = poly_mul(poly, (Q(e), Q(1)))
    return poly


def _expected_size_poly(rs: RootSystem) -> PolyQ:
    """(n/24)(b-1)(b+h+1) times the count polynomial."""
    n = rs.rank
    h = rs.coxeter_number
    mean = _pscale(Q(n, 24), poly_mul((Q(-1), Q(1)), (Q(h + 1), Q(1))))
    return poly_mul(mean, _closed_count_poly(rs))


def coprime_fit_classes(rs: RootSystem, lattice: str) -> Tuple[int, ...]:
    """Residue classes containing infinitely many b coprime to h.

    The class of j modulo the period m contains such b exactly when j shares
    no prime with gcd(m, h); only these classes support the count and
    expected-size identities.
    """
    m = quasi_period(rs, lattice)
    shared = gcd(m, rs.coxeter_number)
    return tuple(j for j in range(m) if gcd(j, shared) == 1)


def verify_expected_size_polynomial(rs: RootSystem) -> Dict:
    """Check the expected-size identity: sum of the statistic over coroot
    points of the dilated alcove equals mean times count, in closed form.

    The identity is checked as an exact equality of the fitted
    quasipolynomial components of every residue class coprime to h with the
    closed polynomial.
    """
    if not is_simply_laced(rs):
        raise ValueError("expected-size identity requires a simply-laced root system")
    n = rs.rank
    expected = _expected_size_poly(rs)
    classes = coprime_fit_classes(rs, "coroot")
    fitted = fit_quasi(rs, 1, "coroot", residues=classes)
    match = all(
        poly_trim(fitted.component(j)) == poly_trim(expected) for j in classes
    )
    report: Dict = {
        "check": "expected_size_polynomial",
        "family": rs.family,
        "rank": n,
        "mode": "fit",
        "classes": classes,
        "fitted": fitted.as_json_dict(),
        "match": match,
    }
    if (rs.family, n) == ("E", 6):
        # The displayed closed product with roots at 1 and -(e_i + 2).
        displayed: PolyQ = (Q(1, 207360),)
        for root in (1, -1, -4, -5, -7, -8, -11, -13):
            displayed = poly_mul(displayed, (Q(-root), Q(1)))
        report["displayed_product_matches"] = poly_trim(displayed) == poly_trim(expected)
    return report


def _expected_leading_ratio(rs: RootSystem, k: int) -> Optional[Q]:
    n = rs.rank
    h = rs.coxeter_number
    if k == 1:
        return Q(n, 24)
    if k == 2:
        return Q(n * h, 1440)
    if k == 3:
        return Q(n * h * (2 * h - 3), 60480)
    if rs.family == "A":
        if k == 4:
            return Q(n * h * (19 * n**2 - 13 * n + 4), 4838400)
        if k == 5:
            return Q(n * h * (23 * n**2 - 25 * n + 12) * (2 * n - 1), 95800320)
        if k == 6:
            return Q(
                n
                * h
                * (
                    307561 * n**4
                    - 826062 * n**3
                    + 1048509 * n**2
                    - 647948 * n
                    + 155040
                ),
                4184557977600,
            )
        if k == 7:
            return Q(
                n
                * h
                * (
                    15562 * n**5
                    - 64721 * n**4
                    + 129288 * n**3
                    - 142241 * n**2
                    + 82300 * n
                    - 19488
                ),
                1195587993600,
            )
    if rs.family == "D":
        if k == 4:
            return Q(n * h * (31 * n**2 - 99 * n + 86), 2419200)
        if k == 5:
            return Q(n * h * (70 * n**3 - 365 * n**2 + 667 * n - 426), 23950080)
        if k == 6:
            return Q(
                n
                * h
                * (
                    859445 * n**4
                    - 6449250 * n**3
                    + 19050243 * n**2
                    - 26075294 * n
                    + 13852536
                ),
                523069747200,
            )
    return None


def leading_coefficient_checks(rs: RootSystem, k: int) -> Dict:
    """Leading coefficient of the centered weighted fit over the coroot
    lattice, normalized by the leading coefficient of the count polynomial.

    The first two moments have theorem-grade closed forms and mismatches
    raise; the third and higher are conjecture tables and mismatches are
    only reported.
    """
    if k < 1:
        raise ValueError("weight exponent must be positive")
    if not is_simply_laced(rs):
        raise ValueError("weighted fits require a simply-laced root system")
    n = rs.rank
    residue = 1 if quasi_period(rs, "coroot") > 1 else 0
    count_poly = fit_component(default_spec(rs, 0, "coroot", residue))
    assert len(count_poly) == n + 1, "count polynomial must have degree n"
    weight_poly = fit_component(
        default_spec(rs, k, "coroot", residue, centered=(k >= 2))
    )
    assert len(weight_poly) <= n + 2 * k + 1
    if k <= 2:
        assert len(weight_poly) == n + 2 * k + 1, "degree must be exactly n+2k"
    ratio = _pcoeff(weight_poly, n + 2 * k) / count_poly[n]
    expected = _expected_leading_ratio(rs, k)
    grade = "theorem" if k <= 2 else "conjecture"
    verdict = verdict_of(ratio, expected)
    if grade == "theorem":
        assert verdict == "match", verdict
    return {
        "check": "leading_coefficient",
        "family": rs.family,
        "rank": n,
        "k": k,
        "grade": grade,
        "lattice": "coroot",
        "residue": residue,
        "ratio": ratio,
        "expected": expected,
        "verdict": verdict,
    }
