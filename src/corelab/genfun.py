"""Size generating functions of cores and coroot lattices as q-series: lists of
N + 1 integer coefficients to q^N, low degree first, products of powers P(q^d)^e,
listed as pairs (d, e), of the eta product P(q) = prod_{i >= 1} (1 - q^i).  Other
polynomials are coefficient tuples handled by the ``poly_*`` helpers corelab shares.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import gcd, isqrt
from operator import mul
from typing import List, Sequence, Tuple

from .affine import element_from_word
from .rootsys import Record, RootSystem, VerificationError, is_simply_laced

__all__ = ["IntSeries", "core_product_factors", "core_product_series", "coxeter_char_poly",
           "eta_updates", "macdonald_factors", "macdonald_series", "poly_add", "poly_eval",
           "poly_mul", "poly_trim"]


class IntSeries(Record):
    """The product of the P(q^d)^e of ``factors`` to q^truncation, low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, factors: Sequence[Tuple[int, int]], truncation: int) -> None:
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        c = [1] + [0] * truncation
        for d, e in factors:
            _eta_power(c, d, e)
        self.coeffs = tuple(c)


def poly_add(p: Sequence, s: Sequence) -> Tuple:
    """Sum of two coefficient tuples, low degree first; pads with int ``0``,
    so integer polynomials stay integer and rational ones stay rational."""
    size = max(len(p), len(s))
    return tuple((p[i] if i < len(p) else 0) + (s[i] if i < len(s) else 0) for i in range(size))


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


def _eta_power(c: List[int], d: int, e: int) -> None:
    """Multiply the series ``c`` by P(q^d)^e in place, for any integer e.  P(q^d) - 1 has
    the terms (-1)^k q^(d g), g = k (3k -+ 1) / 2 and k >= 1, by Euler's pentagonal theorem:
    descending k multiplies by it, ascending k divides, each reading c[k - d g] as needed."""
    k1 = (isqrt(1 + 24 * ((len(c) - 1) // d)) + 1) // 6  # the k with d k (3k - 1) / 2 < len(c)
    terms = [(d * g, (-1) ** (k + (e < 0))) for k in range(1, k1 + 1)  # negated to divide
             for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if d * g < len(c)]
    ks = range(len(c) - 1, d - 1, -1) if e > 0 else range(d, len(c))
    for _ in range(abs(e)):
        for k in ks:
            c[k] += sum(s * c[k - g] for g, s in terms if g <= k)


def eta_updates(factors: Sequence[Tuple[int, int]], top: int) -> int:
    """The terms :func:`_eta_power` reads expanding ``factors`` to q^top: top + 1 - g per
    term g per sweep, over the k1 terms d k (3k - 1) / 2 and the k2 terms d k (3k + 1) / 2."""
    total = 0
    for d, e in factors:
        root = isqrt(1 + 24 * (top // d))
        k1, k2 = (root + 1) // 6, (root - 1) // 6
        total += abs(e) * ((k1 + k2) * (top + 1)
                           - d * (k1 * k1 * (k1 + 1) + k2 * (k2 + 1) ** 2) // 2)
    return total


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
        acc = [[v + coeff * (i == j) for j, v in enumerate(row)] for i, row in enumerate(prod)]
    return tuple(coeffs)


@lru_cache(maxsize=None)
def coxeter_char_poly(rs: RootSystem) -> Tuple[int, ...]:
    """Characteristic polynomial of a Coxeter element, the simple reflections in index
    order on coroot coordinates, low degree first.  Its value at 1 must be the lattice
    index, it a palindrome and the element of order h, or VerificationError is raised."""
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


def core_product_factors(a: int) -> Tuple[Tuple[int, int], ...]:
    """P(q^a)^a / P(q), the a-core series (Garvan, Kim and Stanton, 1990)."""
    if a < 2:
        raise ValueError("modulus must be at least 2")
    return ((1, -1), (a, a))


def core_product_series(a: int, truncation: int) -> IntSeries:
    """Size generating function for the set of a-cores, to q^truncation."""
    return IntSeries(core_product_factors(a), truncation)


def macdonald_factors(rs: RootSystem) -> Tuple[Tuple[int, int], ...]:
    """The (d, a_d) with f = prod_{d | h} (1 - q^d)^(a_d), then (h, n).  A primitive m-th
    root of unity is a root of f #{exponents e of order m mod h} / phi(m) times, as the
    Coxeter eigenvalues are exp(2 pi i e / h), and that is the sum of a_d over m | d | h."""
    h = rs.coxeter_number
    orders = [h // gcd(k, h) for k in range(h)]  # phi(m) of the k mod h have order m
    a = {}
    for m in sorted(set(orders), reverse=True):  # the divisors of h, from the top down
        a[m] = (sum(orders[e % h] == m for e in rs.exponents) // orders.count(m)
                - sum(a[d] for d in a if d % m == 0))
    return tuple((d, e) for d, e in a.items() if e) + ((h, rs.rank),)


def macdonald_series(rs: RootSystem, truncation: int) -> IntSeries:
    """Size generating function prod_{i >= 1} f(q^i) (1 - q^(h i))^n of the coroot lattice
    of a simply-laced type, once the a_d of :func:`macdonald_factors` expand to f."""
    if not is_simply_laced(rs):
        raise ValueError("product formula requires a simply-laced root system")
    factors = macdonald_factors(rs)
    sides = [(1,), coxeter_char_poly(rs)]
    for d, e in factors[:-1]:
        sides[e < 0] = reduce(poly_mul, [(1,) + (0,) * (d - 1) + (-1,)] * abs(e), sides[e < 0])
    if sides[0] != sides[1]:
        raise VerificationError("the eta factors of the exponents do not expand to f")
    return IntSeries(factors, truncation)
