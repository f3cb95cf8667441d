"""Size generating functions of cores and coroot lattices as q-series.

A series truncated at order N is a list of N + 1 integer coefficients, low
degree first, multiplied in place by 1 / (1 - q^s) and by f(q^s) with
f(0) = 1.  Other polynomials, the Coxeter polynomial f among them, are
coefficient tuples handled by the ``poly_*`` helpers that corelab shares.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import List, Sequence, Tuple

from .affine import element_from_word
from .rootsys import Record, RootSystem, VerificationError, is_simply_laced

__all__ = [
    "IntSeries", "core_product_series", "coxeter_char_poly", "macdonald_series",
    "poly_add", "poly_eval", "poly_mul", "poly_trim",
]


class IntSeries(Record):
    """Integer power series modulo q^(truncation+1), low degree first."""

    __slots__ = ("truncation", "coeffs")

    def __init__(self, truncation: int, coeffs: Tuple[int, ...]) -> None:
        self.truncation, self.coeffs = truncation, coeffs


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


def _one(truncation: int) -> List[int]:
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    return [1] + [0] * truncation


def _divide_by_binomial(c: List[int], s: int) -> None:
    """Divide the series ``c`` by 1 - q^s in place: ascending k reads the
    coefficients already divided."""
    for k in range(s, len(c)):
        c[k] += c[k - s]


def _multiply_at_power(c: List[int], f: Sequence[int], s: int) -> None:
    """Multiply the series ``c`` by f(q^s) in place, for f(0) = 1: descending
    k reads only lower coefficients, which the sweep has not changed yet."""
    for k in range(len(c) - 1, s - 1, -1):
        c[k] += sum(f[j] * c[k - j * s] for j in range(1, min(len(f), k // s + 1)))


def _char_poly_coeffs(matrix: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """det(qI - M), low degree first, by the Faddeev–LeVerrier recursion in
    integers: with N_1 = I, c_{n-k} = -tr(N_k M) / k and N_{k+1} = N_k M + c_{n-k} I."""
    n = len(matrix)
    cols = tuple(zip(*matrix))
    coeffs = [0] * n + [1]
    acc = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        prod = [[sum(map(mul, row, col)) for col in cols] for row in acc]
        coeff, rem = divmod(-sum(prod[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError("trace not divisible by %d" % k)
        coeffs[n - k] = coeff
        for i in range(n):
            prod[i][i] += coeff
        acc = prod
    return tuple(coeffs)


@lru_cache(maxsize=None)
def coxeter_char_poly(rs: RootSystem) -> Tuple[int, ...]:
    """Characteristic polynomial of a Coxeter element, low degree first.

    The element is the product of all simple reflections in index order,
    acting on coroot coordinates.  The result is independent of the order
    because any two Coxeter elements are conjugate.  Its value at 1 is the
    index of the coroot lattice, it is a palindrome because the exponents
    pair as e and h - e, and the element has order h; a failure raises
    :class:`VerificationError`.
    """
    n, h = rs.rank, rs.coxeter_number
    word = tuple(range(1, n + 1))
    f = _char_poly_coeffs(element_from_word(rs, word).linear)
    at_one = poly_eval(f, 1)
    if at_one != rs.index_f:
        raise VerificationError(
            "Coxeter polynomial at 1 is %d, not the index %d" % (at_one, rs.index_f))
    if f != f[::-1]:
        raise VerificationError("Coxeter polynomial is not a palindrome")
    if not element_from_word(rs, word * h).is_identity():
        raise VerificationError("Coxeter element does not have order h=%d" % h)
    return f


def core_product_series(a: int, truncation: int) -> IntSeries:
    """Size generating function for the set of a-cores.

    Expands prod_{i >= 1} (1 - q^(a i))^a / (1 - q^i) up to the
    truncation order.
    """
    if a < 2:
        raise ValueError("modulus must be at least 2")
    c = _one(truncation)
    for i in range(1, truncation + 1):
        _divide_by_binomial(c, i)
    for i in range(1, truncation // a + 1):
        for _ in range(a):
            _multiply_at_power(c, (1, -1), a * i)
    return IntSeries(truncation, tuple(c))


def macdonald_series(rs: RootSystem, truncation: int) -> IntSeries:
    """Size generating function for the coroot lattice of a simply-laced type.

    Expands prod_{i >= 1} f(q^i) (1 - q^(h i))^n where f is the Coxeter
    characteristic polynomial and h the Coxeter number.
    """
    if not is_simply_laced(rs):
        raise ValueError("product formula requires a simply-laced root system")
    c = _one(truncation)
    f = coxeter_char_poly(rs)
    h = rs.coxeter_number
    for i in range(1, truncation + 1):
        _multiply_at_power(c, f, i)
    for i in range(1, truncation // h + 1):
        for _ in range(rs.rank):
            _multiply_at_power(c, (1, -1), h * i)
    return IntSeries(truncation, tuple(c))
