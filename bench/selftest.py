"""Self-tests of the benchmark's checkers, run from the root of a checkout:

    python3 bench/selftest.py

Each checker must accept the program's true answer and reject a corrupted
copy of it, for the reason the corruption targets.  The independent tables
are also checked against identities they must satisfy.  Exits 1 on a failure.
"""

from __future__ import annotations

import copy
import io
import json
import sys
from fractions import Fraction as F
from math import prod
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import checks  # noqa: E402
from corelab.cli import main as corelab_main  # noqa: E402


def answer(text: str) -> dict:
    out = io.StringIO()
    code = corelab_main(text.split(), out=out)
    if code != 0:
        raise RuntimeError("%s exited %d" % (text, code))
    return json.loads(out.getvalue())


def accepts(text: str, env: dict) -> None:
    checks.check_answer(text.split(), json.dumps(env), seed=7)


def rejects(text: str, env: dict, reason: str) -> None:
    try:
        accepts(text, env)
    except checks.Mismatch as exc:
        if reason not in str(exc):
            raise AssertionError("rejected for %r, not for %r" % (str(exc), reason))
        return
    raise AssertionError("corrupted answer to %r accepted" % text)


def row(env: dict, **match) -> dict:
    return next(r for r in env["results"] if all(r.get(k) == v for k, v in match.items()))


def test_core_with_hook_divisible_by_b() -> None:
    text = "enum --type A --rank 2 --b 4 --stat size"
    env = answer(text)
    accepts(text, env)
    bad = copy.deepcopy(env)
    row(bad, core=[3, 1, 1])["core"] = [3, 2]  # same size, hook length 4 in the first cell
    rejects(text, bad, "is an (3,4)-core")


def test_count_off_by_one() -> None:
    text = "verify --type A --rank 3 --b-range 1..9 count max mean variance m3"
    env = answer(text)
    accepts(text, env)
    bad = copy.deepcopy(env)
    r = row(bad, selector="count", b=7)
    r["value"] = "%d/1" % (F(r["value"]) + 1)
    rejects(text, bad, "count at b=7")


def test_variance_off_by_1_1440() -> None:
    text = "verify --type A --rank 3 --b-range 1..9 count max mean variance m3"
    env = answer(text)
    bad = copy.deepcopy(env)
    r = row(bad, selector="variance", b=5)
    v = F(r["value"]) + F(1, 1440)
    r["value"] = "%d/%d" % (v.numerator, v.denominator)
    rejects(text, bad, "variance at b=5")
    text = "stat --type D --rank 4 --b-range 2..7"
    env = answer(text)
    accepts(text, env)
    bad = copy.deepcopy(env)
    r = row(bad, b=7)
    v = F(r["variance"]) + F(1, 1440)
    r["variance"] = "%d/%d" % (v.numerator, v.denominator)
    rejects(text, bad, "variance at b=7")


def _change_coefficient(env: dict, residue: int, index: int) -> dict:
    bad = copy.deepcopy(env)
    r = row(bad, residue=residue)
    c = F(r["coefficients"][index]) + F(1, 7)
    r["coefficients"][index] = "%d/%d" % (c.numerator, c.denominator)
    bad["results"][0]["quasipolynomial"]["components"][residue][index] = [c.numerator, c.denominator]
    return bad


def test_changed_fit_coefficient() -> None:
    text = "fit --type A --rank 2 --k 0"
    env = answer(text)
    accepts(text, env)
    rejects(text, _change_coefficient(env, 0, 1), "class 0 at b=")
    text = "fit --type E --rank 6 --k 1 --lattice coroot --residue 1"
    env = answer(text)
    accepts(text, env)
    rejects(text, _change_coefficient(env, 1, 8), "class 1 at b=")
    text = "fit --type A --rank 3 --k 2 --lattice coroot"
    env = answer(text)
    accepts(text, env)
    bad = copy.deepcopy(env)
    r = row(bad, residue=1)
    r["coefficients"][0] = "0/1"
    rejects(text, bad, "row and summary agree")


def test_tables() -> None:
    for family, n in [("A", 1), ("A", 4), ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8)]:
        L = checks.lie(family, n)
        A = L.cartan()
        pair = [sum(m * A[i][j] for i, m in enumerate(L.marks)) for j in range(n)]
        if sum(L.marks) != L.h - 1 or any(p < 0 for p in pair):
            raise AssertionError("%s%d: marks are not the highest root" % (family, n))
        if prod(e + 1 for e in L.exponents) != L.weyl:
            raise AssertionError("%s%d: prod (e_i + 1) != |W|" % (family, n))
        if sum(L.exponents) != n * L.h // 2:
            raise AssertionError("%s%d: exponents do not sum to the positive roots" % (family, n))
        if sum(checks.coxeter_poly(L)) != L.index:
            raise AssertionError("%s%d: f(1) != connection index" % (family, n))
    if checks.simultaneous_cores(3, 4) != ((), (1,), (1, 1), (2,), (3, 1, 1)):
        raise AssertionError("the five (3,4)-cores")
    if checks.macdonald(checks.lie("A", 2), 12) != list(checks.core_counts(3, 12)):
        raise AssertionError("Macdonald product != 3-core counts")


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print("FAIL %s: %s" % (test.__name__, exc))
        else:
            print("ok   %s" % test.__name__)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
