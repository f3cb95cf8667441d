"""Independent computations that every answer of the benchmark is checked against.

Nothing here imports corelab.  Root-system data come from the classification
table below, simultaneous cores from the order ideals of the gaps of the
numerical semigroup <a, b>, lattice points from the mark knapsack, moments
from those points or cores, and q-series from the cyclotomic factorisation of
the Coxeter polynomial.  A checker raises ``Mismatch`` on the first
disagreement; plain ``assert`` is not used, so ``python -O`` keeps every check.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod
from typing import Dict, List, Optional, Sequence, Tuple


class Mismatch(Exception):
    """An answer of the program disagrees with the independent computation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# ------------------------------------------------------------ root systems

# (Coxeter number, exponents, |W|, marks of the highest root, connection index)
_E = {
    6: (12, (1, 4, 5, 7, 8, 11), 51840, (1, 2, 2, 3, 2, 1), 3),
    7: (18, (1, 5, 7, 9, 11, 13, 17), 2903040, (2, 2, 3, 4, 3, 2, 1), 2),
    8: (30, (1, 7, 11, 13, 17, 19, 23, 29), 696729600, (2, 3, 4, 6, 5, 4, 3, 2), 1),
}


class Lie:
    """Classification data of one irreducible type, Bourbaki labelling."""

    def __init__(self, family: str, n: int):
        self.family, self.n = family, n
        if family == "A":
            self.h, self.exponents = n + 1, tuple(range(1, n + 1))
            self.weyl, self.marks, self.index = factorial(n + 1), (1,) * n, n + 1
        elif family == "D":
            self.h = 2 * n - 2
            self.exponents = tuple(sorted(list(range(1, 2 * n - 2, 2)) + [n - 1]))
            self.weyl = 2 ** (n - 1) * factorial(n)
            self.marks, self.index = (1,) + (2,) * (n - 3) + (1, 1), 4
        elif family == "E":
            self.h, self.exponents, self.weyl, self.marks, self.index = _E[n]
        elif family == "C":
            self.h, self.exponents = 2 * n, tuple(range(1, 2 * n, 2))
            self.weyl, self.marks, self.index = 2**n * factorial(n), (2,) * (n - 1) + (1,), 2
        else:
            raise ValueError("no table for type %s" % family)

    def cartan(self) -> Tuple[Tuple[int, ...], ...]:
        """Symmetric Cartan matrix of a simply-laced type."""
        n = self.n
        edges = []
        if self.family == "A":
            edges = [(i, i + 1) for i in range(n - 1)]
        elif self.family == "D":
            edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
        elif self.family == "E":
            edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in edges:
            a[i][j] = a[j][i] = -1
        return tuple(tuple(r) for r in a)


@lru_cache(maxsize=None)
def lie(family: str, n: int) -> Lie:
    return Lie(family, n)


def haiman(L: Lie, b: int) -> F:
    """Coroot points of bA for b coprime to h: prod (b + e_i) / |W|."""
    return F(prod(b + e for e in L.exponents), L.weyl)


def paper_max(L: Lie, b: int) -> F:
    return F(L.n * (b * b - 1) * (L.h + 1), 24)


def paper_mean(L: Lie, b: int) -> F:
    return F(L.n * (b - 1) * (L.h + b + 1), 24)


def paper_variance(L: Lie, b: int) -> F:
    h = L.h
    return F(L.n * h * b * (b - 1) * (h + b) * (h + b + 1), 1440)


def leading_ratio(L: Lie, k: int) -> F:
    """Leading coefficient of the k-th centered moment sum over that of the count."""
    n, h = L.n, L.h
    if k == 1:
        return F(n, 24)
    if k == 2:
        return F(n * h, 1440)
    if k == 3 and L.family == "A":
        return F(n * h * (2 * h - 3), 60480)
    raise ValueError("no independent leading ratio for k=%d on type %s" % (k, L.family))


def _inverse(m: Sequence[Sequence[int]]) -> List[List[F]]:
    n = len(m)
    a = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


@lru_cache(maxsize=None)
def coweights(L: Lie) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """(d, W): W[i] is d times the fundamental coweight i in coroot coordinates."""
    inv = _inverse(L.cartan())
    d = L.index
    rows = tuple(tuple(int(v * d) for v in row) for row in inv)
    expect(all(v * d == int(v * d) for row in inv for v in row), "index clears coweights")
    return d, rows


def knapsack(marks: Sequence[int], b: int):
    """All c >= 0 with sum marks[i] c[i] <= b."""
    n = len(marks)
    c = [0] * n

    def rec(i: int, left: int):
        if i == n:
            yield tuple(c)
            return
        for v in range(left // marks[i] + 1):
            c[i] = v
            yield from rec(i + 1, left - v * marks[i])
        c[i] = 0

    return rec(0, b)


def scaled_points(L: Lie, b: int, lattice: str) -> List[Tuple[int, ...]]:
    """d * x for the lattice points x of bA."""
    d, W = coweights(L)
    n = L.n
    out = []
    for c in knapsack(L.marks, b):
        x = tuple(sum(c[i] * W[i][r] for i in range(n)) for r in range(n))
        if lattice == "coweight" or all(v % d == 0 for v in x):
            out.append(x)
    return out


def quad(A, x) -> int:
    return sum(x[i] * A[i][j] * x[j] for i in range(len(x)) for j in range(len(x)))


def zise(L: Lie, b: int, x: Sequence[F]) -> F:
    """h/2 <x, x> - b sum(x) + (b^2 - 1) n (h + 1) / 24, x in coroot coordinates."""
    A = L.cartan()
    return F(L.h, 2) * quad(A, x) - b * sum(x) + F((b * b - 1) * L.n * (L.h + 1), 24)


def size_form(L: Lie, x: Sequence[F]) -> F:
    """h/2 <x, x> - sum(x): the size statistic of a coroot point (simply laced)."""
    return F(L.h, 2) * quad(L.cartan(), x) - sum(x)


def weighted_sum(L: Lie, b: int, k: int, lattice: str) -> F:
    """Sum of zise^k over the lattice points of bA, by direct enumeration.

    With x = xs / d, 24 d^2 zise(x) = 12 h <xs, xs> - 24 b d sum(xs) +
    d^2 (b^2 - 1) n (h + 1) is an integer, so the sum is exact in integers.
    """
    d, _ = coweights(L)
    A = L.cartan()
    const = d * d * (b * b - 1) * L.n * (L.h + 1)
    total = sum(
        (12 * L.h * quad(A, xs) - 24 * b * d * sum(xs) + const) ** k
        for xs in scaled_points(L, b, lattice)
    )
    return F(total, (24 * d * d) ** k)


def in_alcove(L: Lie, b: int, x: Sequence[F]) -> bool:
    A = L.cartan()
    pair = [sum(x[i] * A[i][j] for i in range(L.n)) for j in range(L.n)]
    return all(p >= 0 for p in pair) and sum(m * p for m, p in zip(L.marks, pair)) <= b


def coroot_period(L: Lie) -> int:
    """lcm of the coordinate denominators of the vertices (1/m_i) omega_i of A."""
    d, W = coweights(L)
    return lcm(1, *(F(v, d * m).denominator for m, row in zip(L.marks, W) for v in row))


# ------------------------------------------------------------- partitions


def hooks(parts: Sequence[int]) -> List[int]:
    conj = [sum(1 for p in parts if p > c) for c in range(parts[0])] if parts else []
    return [parts[r] - c + conj[c] - r - 1 for r in range(len(parts)) for c in range(parts[r])]


def is_core(parts: Sequence[int], t: int) -> bool:
    return all(x % t for x in hooks(parts))


@lru_cache(maxsize=None)
def simultaneous_cores(a: int, b: int) -> Tuple[Tuple[int, ...], ...]:
    """All (a, b)-cores, from the order ideals of the gaps of <a, b>.

    A beta-set H (first-column hook lengths) is an (a,b)-core exactly when it
    is a set of gaps closed under subtracting a and b while staying positive.
    """
    gaps = [g for g in range(1, a * b) if not any((g - i * b) % a == 0 for i in range(g // b + 1))]
    out = []

    def rec(i: int, chosen: List[int], members: set):
        if i == len(gaps):
            hs = sorted(chosen, reverse=True)
            out.append(tuple(h - (len(hs) - 1 - r) for r, h in enumerate(hs)))
            return
        rec(i + 1, chosen, members)
        g = gaps[i]
        if (g <= a or g - a in members) and (g <= b or g - b in members):
            chosen.append(g)
            members.add(g)
            rec(i + 1, chosen, members)
            members.discard(g)
            chosen.pop()

    rec(0, [], set())
    return tuple(sorted(out))


def partitions(total: int, largest: int):
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def core_counts(a: int, trunc: int) -> Tuple[int, ...]:
    """Number of a-cores of each size 0..trunc, by testing every partition."""
    return tuple(sum(1 for p in partitions(k, k) if is_core(p, a)) for k in range(trunc + 1))


def central_moments(values: Sequence[F]) -> Tuple[F, F, F]:
    c = len(values)
    mean = F(sum(values), c)
    return mean, sum((v - mean) ** 2 for v in values) / c, sum((v - mean) ** 3 for v in values) / c


# -------------------------------------------------------------- q-series


def _pmul(p: Sequence[int], q: Sequence[int], trunc: Optional[int] = None) -> List[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                out[i + j] += x * y
    return out if trunc is None else (out + [0] * (trunc + 1))[: trunc + 1]


def _pdiv(p: List[int], q: Sequence[int]) -> List[int]:
    """Exact quotient by a monic integer polynomial."""
    p = list(p)
    out = [0] * (len(p) - len(q) + 1)
    for top in range(len(out) - 1, -1, -1):
        c = p[top + len(q) - 1]
        out[top] = c
        for k, y in enumerate(q):
            p[top + k] -= c * y
    expect(not any(p), "cyclotomic division is exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> Tuple[int, ...]:
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly = _pdiv(poly, cyclotomic(e))
    return tuple(poly)


def coxeter_poly(L: Lie) -> List[int]:
    """prod over exponents of (q - zeta^e), zeta a primitive h-th root of unity."""
    orders: Dict[int, int] = {}
    for e in L.exponents:
        d = L.h // gcd(e, L.h)
        orders[d] = orders.get(d, 0) + 1
    poly = [1]
    for d, mult in sorted(orders.items()):
        phi = cyclotomic(d)
        expect(mult % (len(phi) - 1) == 0, "exponents close under Galois conjugation")
        for _ in range(mult // (len(phi) - 1)):
            poly = _pmul(poly, phi)
    return poly


def macdonald(L: Lie, trunc: int) -> List[int]:
    """prod_{i>=1} f(q^i) (1 - q^{hi})^n to order trunc, f the Coxeter polynomial."""
    f = coxeter_poly(L)
    series = [1] + [0] * trunc
    for i in range(1, trunc + 1):
        spread = [0] * (i * (len(f) - 1) + 1)
        for k, c in enumerate(f):
            spread[i * k] = c
        series = _pmul(series, spread, trunc)
    for i in range(1, trunc // L.h + 1):
        factor = [1] + [0] * (L.h * i - 1) + [-1]
        for _ in range(L.n):
            series = _pmul(series, factor, trunc)
    return series


# ---------------------------------------------------------------- requests


def parse(argv: Sequence[str]) -> Dict:
    """The request's parameters, with the CLI's documented defaults."""
    req: Dict = {"command": argv[0], "positional": []}
    i = 1
    while i < len(argv):
        if argv[i].startswith("--"):
            req[argv[i][2:].replace("-", "_")] = argv[i + 1]
            i += 2
        else:
            req["positional"].append(argv[i])
            i += 1
    for key in ("rank", "b", "k", "trunc", "residue", "m"):
        if key in req:
            req[key] = int(req[key])
    req.setdefault("lattice", "coweight" if req["command"] == "fit" else "coroot")
    req.setdefault("trunc", 20)
    req.setdefault("stat", "zise")
    if "b_range" in req:
        lo, hi = req["b_range"].split("..")
        req["bs"] = list(range(int(lo), int(hi) + 1))
    elif "b" in req:
        req["bs"] = [req["b"]]
    else:
        req["bs"] = []
    return req


def _q(text) -> F:
    return F(text)


def _point(values) -> Tuple[F, ...]:
    return tuple(F(v) for v in values)


def check_answer(argv: Sequence[str], stdout: str, seed: int) -> None:
    """Raise Mismatch unless ``stdout`` is a correct answer to ``argv``."""
    req = parse(argv)
    env = json.loads(stdout)
    experiment = req["command"] == "experiment"
    expect(env["schema_version"] == 1, "schema version")
    expect(env["config"]["command"] == req["command"], "config echoes the command")
    expect(env["grade"] == ("conjecture" if experiment else "theorem"), "envelope grade")
    expect(env["verdict"] == ("report" if experiment else "pass"), "envelope verdict")
    CHECKERS[req["command"]](req, env["results"], seed)


def _coprime(L: Lie, b: int) -> bool:
    return b >= 1 and gcd(b, L.h) == 1


def check_enum(req: Dict, rows: List[Dict], seed: int) -> None:
    L = lie(req["type"], req["rank"])
    b = req["b"]
    points = [_point(r["point"]) for r in rows]
    expect(points == sorted(points) and len(set(points)) == len(points), "points sorted and distinct")
    if req["stat"] == "size":
        expect(L.family == "A" and req["lattice"] == "coroot", "size rows checked on type A cores")
        check_cores(L.n + 1, b, rows)
        return
    d, _ = coweights(L)
    expected = {tuple(F(v, d) for v in x) for x in scaled_points(L, b, req["lattice"])}
    expect(set(points) == expected, "the listed points are the lattice points of bA")
    expect(all(in_alcove(L, b, x) for x in points), "every point lies in bA")
    values = [_q(r["zise"]) for r in rows]
    expect(all(v == zise(L, b, x) for v, x in zip(values, points)), "zise equals the closed quadratic")
    if req["lattice"] == "coroot" and _coprime(L, b):
        expect(len(rows) == haiman(L, b), "count equals prod (b + e_i) / |W|")
        expect(sum(values) == paper_mean(L, b) * len(rows), "zise sum equals mean times count")


def check_cores(a: int, b: int, rows: List[Dict]) -> None:
    """Rows of ``enum --stat size`` for type A_{a-1}: the simultaneous (a, b)-cores."""
    L = lie("A", a - 1)
    expect(comb(a + b, a) % (a + b) == 0, "Catalan divisibility")
    expect(len(rows) == comb(a + b, a) // (a + b), "count equals C(a+b, a) / (a+b)")
    parts = [tuple(r["core"]) for r in rows]
    expect(len(set(parts)) == len(parts), "partitions are distinct")
    for p in parts:
        expect(is_core(p, a) and is_core(p, b), "%r is an (%d,%d)-core" % (p, a, b))
    expect(set(parts) == set(simultaneous_cores(a, b)), "partitions are all the (a,b)-cores")
    sizes = [_q(r["size"]) for r in rows]
    for r, p, s in zip(rows, parts, sizes):
        expect(s == sum(p), "size equals the number of boxes of %r" % (p,))
        expect(s == size_form(L, _point(r["point"])), "size equals the size form of the point")
    top = paper_max(L, b)
    expect(max(sizes) == top and sizes.count(top) == 1, "the paper's max is attained once")
    mean, var, _ = central_moments(sizes)
    expect(mean == paper_mean(L, b), "mean over the listed sizes")
    expect(var == paper_variance(L, b), "variance over the listed sizes")


# type-A statistics from the cores themselves, where there are few enough
_CORE_LIMIT = 5000


def _core_stats(L: Lie, b: int) -> Optional[Dict[str, F]]:
    a = L.n + 1
    if L.family != "A" or comb(a + b, a) // (a + b) > _CORE_LIMIT:
        return None
    sizes = [F(sum(p)) for p in simultaneous_cores(a, b)]
    mean, var, m3 = central_moments(sizes)
    return {"count": F(len(sizes)), "max": max(sizes), "mult": F(sizes.count(max(sizes))),
            "mean": mean, "variance": var, "m3": m3}


_SWEPT = ("count", "max", "mean", "variance", "m3", "floor", "anderson")


def check_verify(req: Dict, rows: List[Dict], seed: int) -> None:
    L = lie(req["type"], req["rank"])
    ranged = "b_range" in req
    want = []
    for sel in req["positional"]:
        needs_b = sel not in ("strange", "macdonald", "genfun-A")
        want.extend((sel, b) for b in (req["bs"] if needs_b else [None]))
    expect([(r["selector"], r.get("b")) for r in rows] == want, "one row per selector and dilation")
    for row in rows:
        sel, b = row["selector"], row.get("b")
        if ranged and sel in _SWEPT and not _coprime(L, b):
            expect(row["verdict"] == "skipped(b not coprime)", "non-coprime b is skipped")
            continue
        expect((row["family"], row["rank"]) == (L.family, L.n), "row names the system")
        if sel != "m3" or L.family == "A":
            expect(row["verdict"] == "match", "%s at b=%s matches" % (sel, b))
        stats = _core_stats(L, b) if b is not None else None
        if sel == "count":
            expect(_q(row["value"]) == _q(row["expected"]) == haiman(L, b), "count at b=%d" % b)
            if stats:
                expect(stats["count"] == haiman(L, b), "core count at b=%d" % b)
        elif sel == "max":
            value = _q(row["value"])
            expect(value == paper_max(L, b) and row["multiplicity"] == 1, "max at b=%d" % b)
            arg = _point(row["argmax"])
            expect(all(v.denominator == 1 for v in arg) and size_form(L, arg) == value, "argmax has the max size")
            if stats:
                expect(stats["max"] == value and stats["mult"] == 1, "largest core at b=%d" % b)
        elif sel in ("mean", "variance"):
            formula = paper_mean if sel == "mean" else paper_variance
            expect(_q(row["value"]) == formula(L, b), "%s at b=%d" % (sel, b))
            if stats:
                expect(stats[sel] == _q(row["value"]), "%s over the cores at b=%d" % (sel, b))
        elif sel == "m3":
            if stats:
                expect(stats["m3"] == _q(row["value"]), "m3 over the cores at b=%d" % b)
        elif sel == "strange":
            expect(_q(row["value"]) == _q(row["expected"]) == 2 * L.h * L.n * (L.h + 1), "strange formula")
        elif sel == "macdonald":
            expect(row["trunc"] == req["trunc"], "truncation")
            expect(row["value"] == macdonald(L, req["trunc"]), "size histogram equals the product")
            if L.family == "A":
                expect(list(core_counts(L.n + 1, req["trunc"])) == row["value"], "a-core counts")
        elif sel == "anderson":
            a = L.n + 1
            expect(_q(row["value"]) == F(comb(a + b, a), a + b) == len(simultaneous_cores(a, b)), "Anderson count")
        elif sel not in ("floor", "genfun-A"):
            raise Mismatch("no check for selector %r" % sel)


def check_stat(req: Dict, rows: List[Dict], seed: int) -> None:
    L = lie(req["type"], req["rank"])
    expect([r["b"] for r in rows] == req["bs"], "one row per dilation")
    for row in rows:
        b = row["b"]
        if not _coprime(L, b):
            expect(row == {"b": b, "verdict": "skipped(b not coprime)"}, "non-coprime b is skipped")
            continue
        expect(row["count"] == haiman(L, b), "count at b=%d" % b)
        expect(_q(row["max"]) == paper_max(L, b) and row["max_multiplicity"] == 1, "max at b=%d" % b)
        expect(_q(row["mean"]) == paper_mean(L, b), "mean at b=%d" % b)
        expect(_q(row["variance"]) == paper_variance(L, b), "variance at b=%d" % b)
        expect(row["grade"] == "match", "grade at b=%d" % b)
        stats = _core_stats(L, b)
        if stats:
            expect(_q(row["m3"]) == stats["m3"], "m3 over the cores at b=%d" % b)


def _peval(poly: Sequence[F], b: int) -> F:
    acc = F(0)
    for c in reversed(poly):
        acc = acc * b + c
    return acc


def _poly_from_roots(scale: F, shifts: Sequence[int]) -> List[F]:
    poly = [scale]
    for s in shifts:
        poly = [a + c for a, c in zip([F(0)] + poly, [F(s) * x for x in poly] + [F(0)])]
    return poly


def check_fit(req: Dict, rows: List[Dict], seed: int) -> None:
    L = lie(req["type"], req["rank"])
    k, lattice = req.get("k", 0), req["lattice"]
    summary, fits = rows[0], rows[1:]
    m = lcm(*L.marks) if lattice == "coweight" else coroot_period(L)
    expect(summary["period"] == m and summary["quasipolynomial"]["period"] == m, "period")
    expect(summary["degree"] == L.n + 2 * k and summary["k"] == k, "degree n + 2k")
    if "residue" in req:
        classes = [req["residue"]]
    elif k >= 1 and lattice == "coroot":
        classes = [j for j in range(m) if gcd(j, gcd(m, L.h)) == 1]
    else:
        classes = list(range(m))
    expect(summary["classes"] == classes and [r["residue"] for r in fits] == classes, "fitted classes")
    comps = summary["quasipolynomial"]["components"]
    expect(all((comps[j] is None) == (j not in classes) for j in range(m)), "unfitted classes are empty")
    count_poly = _poly_from_roots(F(1, L.weyl), L.exponents)
    mean_poly = _poly_from_roots(F(L.n, 24), (-1, L.h + 1))
    expected_k1 = [F(0)] * (len(count_poly) + 2)
    for i, a in enumerate(mean_poly):
        for j, c in enumerate(count_poly):
            expected_k1[i + j] += a * c
    for row in fits:
        j = row["residue"]
        poly = [_q(c) for c in row["coefficients"]]
        expect(row["holdouts"] == "pass", "holdouts of class %d" % j)
        expect(poly == [F(p, q) for p, q in comps[j]], "row and summary agree on class %d" % j)
        for t in sorted(_pick(seed, j, 2, 3)):
            b = j + m * (t + 1)
            expect(_peval(poly, b) == weighted_sum(L, b, k, lattice), "class %d at b=%d" % (j, b))
        coprime_class = gcd(j, gcd(m, L.h)) == 1
        if lattice == "coroot" and coprime_class and k == 0:
            expect(poly == count_poly, "k=0 class %d is prod (b + e_i) / |W|" % j)
        if lattice == "coroot" and coprime_class and k == 1:
            expect(poly == expected_k1, "k=1 class %d is mean times count" % j)
    if lattice == "coweight" and len(classes) == m:
        expect(summary["reciprocity"] == "pass", "reciprocity verdict")
        sign = -1 if L.n % 2 else 1
        for b in range(1, L.h + 4):
            f_b = _peval([F(p, q) for p, q in comps[b % m]], b)
            f_r = _peval([F(p, q) for p, q in comps[(-L.h - b) % m]], -L.h - b)
            expect(f_r == sign * f_b, "reciprocity at b=%d" % b)
    else:
        expect(summary["reciprocity"] == "skipped", "reciprocity skipped")


def _pick(seed: int, salt: int, count: int, among: int) -> List[int]:
    """``count`` distinct values of range(among), chosen from the seed."""
    return random.Random(seed * 1000003 + salt).sample(range(among), count)


def check_series(req: Dict, rows: List[Dict], seed: int) -> None:
    L = lie(req["type"], req["rank"])
    (row,) = rows
    f = coxeter_poly(L)
    expect(row["char_poly"] == f, "Coxeter polynomial")
    expect(row["char_poly_at_one"] == sum(f) == L.index == row["index"], "f(1) is the connection index")
    expect(row["trunc"] == req["trunc"], "truncation")
    expect(row["coefficients"] == macdonald(L, req["trunc"]), "q-series coefficients")
    if L.family == "A":
        expect(row["core_product_matches"] is True, "core product verdict")
        expect(row["coefficients"] == list(core_counts(L.n + 1, req["trunc"])), "a-core counts")


def check_experiment(req: Dict, rows: List[Dict], seed: int) -> None:
    name = req["positional"][0]
    if name == "weak-order":
        L = lie(req["type"], req["rank"])
        expect([r["b"] for r in rows] == req["bs"], "one row per dilation")
        for row in rows:
            count = haiman(L, row["b"])
            expect(row["contained"] == row["total"] == count, "contained == total == count")
            expect(row["violations"] == [] and row["verdict"] == "consistent", "no violations")
    elif name == "top-coeff":
        L = lie(req["type"], req["rank"])
        (row,) = rows
        ratio = leading_ratio(L, req["k"])
        expect(row["k"] == req["k"] and _q(row["ratio"]) == ratio, "leading ratio")
        expect(_q(row["expected"]) == ratio and row["verdict"] == "consistent", "expected ratio")
    elif name == "cn-fuss":
        n, m = req["rank"], req.get("m", 1)
        (row,) = rows
        b = 2 * m * n + 1
        conj = F(m * n * (2 * (m + 1) * n * n + (m + 3) * n - (m + 1)), 12)
        expect(row["b"] == b and row["count"] == haiman(lie("C", n), b), "C_n count")
        expect(_q(row["conjecture"]) == conj == _q(row["mean"]), "Fuss mean")
        expect(row["verdict"] == "consistent", "verdict")
    else:
        raise Mismatch("no check for experiment %r" % name)


CHECKERS = {
    "enum": check_enum,
    "verify": check_verify,
    "stat": check_stat,
    "fit": check_fit,
    "series": check_series,
    "experiment": check_experiment,
}
