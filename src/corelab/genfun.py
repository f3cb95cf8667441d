"""Truncated integer q-series and the product identities for core counts.

Provides exact arithmetic on integer power series truncated at a fixed
order, the core-counting product for a single modulus, the characteristic
polynomial of a Coxeter element in the reflection representation, and the
product formula that expands that polynomial into the size generating
function of the coroot lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .affine import element_from_word
from .rootsys import RootSystem, is_simply_laced

__all__ = [
    "IntSeries",
    "IntPolynomial",
    "core_product_series",
    "coxeter_char_poly",
    "macdonald_series",
    "poly_add",
    "poly_eval",
    "poly_mul",
    "poly_trim",
]


@dataclass(frozen=True)
class IntSeries:
    """Integer power series modulo q^(truncation+1)."""

    truncation: int
    coeffs: Tuple[int, ...]

    def __post_init__(self) -> None:
        assert self.truncation >= 0
        assert len(self.coeffs) == self.truncation + 1
        assert all(isinstance(c, int) for c in self.coeffs)

    @staticmethod
    def one(truncation: int) -> "IntSeries":
        return IntSeries(truncation, (1,) + (0,) * truncation)

    @staticmethod
    def from_coeffs(truncation: int, coeffs: Sequence[int]) -> "IntSeries":
        """Pad with zeros or drop terms beyond the truncation order."""
        fixed = list(coeffs[: truncation + 1])
        fixed.extend([0] * (truncation + 1 - len(fixed)))
        return IntSeries(truncation, tuple(fixed))

    def coeff(self, k: int) -> int:
        assert 0 <= k <= self.truncation
        return self.coeffs[k]

    def _check_compatible(self, other: "IntSeries") -> None:
        if self.truncation != other.truncation:
            raise ValueError("series truncations differ")

    def __add__(self, other: "IntSeries") -> "IntSeries":
        self._check_compatible(other)
        return IntSeries(
            self.truncation,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "IntSeries") -> "IntSeries":
        self._check_compatible(other)
        return IntSeries(
            self.truncation,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __mul__(self, other: "IntSeries") -> "IntSeries":
        self._check_compatible(other)
        n = self.truncation
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return IntSeries(n, tuple(out))

    def inverse(self) -> "IntSeries":
        """Multiplicative inverse; requires a unit constant term."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise ValueError("series constant term must be a unit")
        n = self.truncation
        out = [0] * (n + 1)
        out[0] = c0
        for k in range(1, n + 1):
            acc = 0
            for j in range(1, k + 1):
                acc += self.coeffs[j] * out[k - j]
            out[k] = -c0 * acc
        return IntSeries(n, tuple(out))

    def power(self, exponent: int) -> "IntSeries":
        assert exponent >= 0
        result = IntSeries.one(self.truncation)
        for _ in range(exponent):
            result = result * self
        return result


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with exact integer coefficients, low degree first."""

    coeffs: Tuple[int, ...]

    def __post_init__(self) -> None:
        assert self.coeffs, "zero-length coefficient list"
        assert all(isinstance(c, int) for c in self.coeffs)
        if len(self.coeffs) > 1:
            assert self.coeffs[-1] != 0, "leading coefficient must be nonzero"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        return poly_eval(self.coeffs, x)

    def at_q_power(self, step: int, truncation: int) -> IntSeries:
        """The series f(q^step) truncated at the given order."""
        assert step >= 1
        out = [0] * (truncation + 1)
        for k, c in enumerate(self.coeffs):
            if c and k * step <= truncation:
                out[k * step] = c
        return IntSeries(truncation, tuple(out))


def poly_add(p: Sequence, s: Sequence) -> Tuple:
    """Sum of two coefficient tuples, low degree first; pads with int ``0``,
    so integer polynomials stay integer and rational ones stay rational."""
    size = max(len(p), len(s))
    return tuple(
        (p[i] if i < len(p) else 0) + (s[i] if i < len(s) else 0)
        for i in range(size)
    )


def poly_mul(p: Sequence, s: Sequence) -> Tuple:
    """Product of two coefficient tuples, low degree first."""
    out = [0] * (len(p) + len(s) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(s):
            out[i + j] += a * b
    return tuple(out)


def poly_eval(p: Sequence, x):
    """Value of a coefficient tuple at ``x`` by Horner's rule."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_trim(p: Sequence) -> Tuple:
    """The coefficient tuple without trailing zeros; the zero polynomial keeps one."""
    out = list(p)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _char_poly_coeffs(matrix: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """det(qI - M) by division-free expansion over column subsets."""
    n = len(matrix)
    entries = [
        [
            ((-matrix[r][c], 1) if r == c else (-matrix[r][c],))
            for c in range(n)
        ]
        for r in range(n)
    ]
    dets = {0: (1,)}
    for row in range(n):
        nxt: dict = {}
        for mask, poly in dets.items():
            for col in range(n):
                bit = 1 << col
                if mask & bit:
                    continue
                entry = entries[row][col]
                if entry == (0,):
                    continue
                sign = -1 if bin(mask >> (col + 1)).count("1") % 2 else 1
                term = poly_mul(poly, entry)
                if sign < 0:
                    term = tuple(-c for c in term)
                key = mask | bit
                if key in nxt:
                    nxt[key] = poly_add(nxt[key], term)
                else:
                    nxt[key] = term
        dets = nxt
    return poly_trim(dets[(1 << n) - 1])


def _monic_remainder(dividend: Tuple[int, ...], poly: Tuple[int, ...]) -> Tuple[int, ...]:
    """Remainder of the dividend modulo a monic integer polynomial."""
    assert poly[-1] == 1
    rem = list(dividend)
    deg = len(poly) - 1
    for top in range(len(rem) - 1, deg - 1, -1):
        factor = rem[top]
        if factor == 0:
            continue
        for k, c in enumerate(poly):
            rem[top - deg + k] -= factor * c
    return tuple(rem[:deg])


def _divides_root_of_unity_power(poly: Tuple[int, ...], h: int, n: int) -> bool:
    """Whether the monic polynomial divides (q^h - 1)^n.

    Eigenvalues of a Coxeter element are h-th roots of unity, but an
    exponent can repeat (the middle exponent of an even-rank D system),
    so the n-th power absorbs root multiplicities up to the degree.
    """
    base = [0] * (h + 1)
    base[0] = -1
    base[h] = 1
    dividend: Tuple[int, ...] = (1,)
    for _ in range(n):
        dividend = poly_mul(dividend, tuple(base))
    return all(c == 0 for c in _monic_remainder(dividend, poly))


def coxeter_char_poly(rs: RootSystem) -> IntPolynomial:
    """Characteristic polynomial of a Coxeter element.

    The element is the product of all simple reflections in index order,
    acting on coroot coordinates.  The result is independent of the order
    because any two Coxeter elements are conjugate.
    """
    n = rs.rank
    coxeter = element_from_word(rs, tuple(range(1, n + 1)))
    assert coxeter.translation == (0,) * n
    coeffs = _char_poly_coeffs(coxeter.linear)
    assert len(coeffs) == n + 1 and coeffs[-1] == 1
    assert coeffs[0] in (1, -1)
    poly = IntPolynomial(coeffs)
    assert poly(1) == rs.index_f
    assert coeffs == coeffs[::-1], "exponents pair as e and h - e"
    assert _divides_root_of_unity_power(coeffs, rs.coxeter_number, n)
    return poly


def core_product_series(a: int, truncation: int) -> IntSeries:
    """Size generating function for the set of a-cores.

    Expands prod_{i >= 1} (1 - q^(a i))^a / (1 - q^i) up to the
    truncation order.
    """
    if a < 2:
        raise ValueError("modulus must be at least 2")
    series = IntSeries.one(truncation)
    for i in range(1, truncation + 1):
        binom = IntSeries.from_coeffs(truncation, [1] + [0] * (i - 1) + [-1])
        series = series * binom.inverse()
        if a * i <= truncation:
            top = IntSeries.from_coeffs(
                truncation, [1] + [0] * (a * i - 1) + [-1]
            )
            series = series * top.power(a)
    assert series.coeff(0) == 1
    return series


def macdonald_series(rs: RootSystem, truncation: int) -> IntSeries:
    """Size generating function for the coroot lattice of a simply-laced type.

    Expands prod_{i >= 1} f(q^i) (1 - q^(h i))^n where f is the Coxeter
    characteristic polynomial and h the Coxeter number.
    """
    if not is_simply_laced(rs):
        raise ValueError("product formula requires a simply-laced root system")
    f = coxeter_char_poly(rs)
    assert f.coeffs[0] == 1
    h = rs.coxeter_number
    n = rs.rank
    series = IntSeries.one(truncation)
    for i in range(1, truncation + 1):
        series = series * f.at_q_power(i, truncation)
    for i in range(1, truncation // h + 1):
        factor = IntSeries.from_coeffs(
            truncation, [1] + [0] * (h * i - 1) + [-1]
        )
        series = series * factor.power(n)
    assert series.coeff(0) == 1
    return series
