"""Command-line interface for enumeration, verification, fitting, and series.

Subcommands: enum, stat, verify, fit, series, experiment.  Output is a JSON
envelope (or csv/table projections of its result rows) with exact rationals
rendered as "p/q" strings.  Exit codes: 0 pass, 1 theorem-grade mismatch,
2 usage error, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction as Q
from functools import lru_cache, partial
from itertools import chain, repeat, tee
from json.encoder import encode_basestring_ascii
from math import comb, gcd
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .cores import core_from_coroot, enumerate_simultaneous_cores
from .ehrhart import (
    coprime_fit_classes,
    dp_backed,
    fit_plan,
    fit_residues,
    HoldoutError,
    leading_fit,
    quasi_period,
    QuasiPolynomial,
    reciprocity_check,
    leading_coefficient_checks,
)
from .genfun import (core_product_factors, core_product_series, coxeter_char_poly, eta_updates,
                     macdonald_factors, macdonald_series, poly_eval)
from .lattice_enum import (
    alcove_size_sums,
    coroot_points_in_bA,
    core_points_in_sommers,
    coweight_points_in_bA,
    coroot_points_in_size_ellipsoid,
    lattice_scale,
)
from .rootsys import (
    QuadraticForm,
    RootSystem,
    RootSystemType,
    VerificationError,
    build_root_system,
    exponent_product,
)
from .stats import (
    experiment_cn_fuss,
    experiment_cn_selfconjugate_weighting,
    experiment_weak_order_maximality,
    floor_identity_check,
    haiman_count,
    is_simply_laced,
    moments,
    verdict_of,
    verify_max,
    zise_form,
)

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    """Invalid configuration detected after argument parsing."""


class BudgetError(RuntimeError):
    """Estimated enumeration size exceeds the --max-points cap."""


def _rat(x, den: int = 1) -> str:
    """``x / den`` as ``"p/q"`` in lowest terms; an int ``x`` builds no Fraction."""
    if type(x) is int:
        if den == 1:
            return "%d/1" % x
        g = gcd(x, den)
        return "%d/%d" % (x // g, den // g)
    q = Q(x, den)
    return "%d/%d" % (q.numerator, q.denominator)


def _vec(y: Sequence[int], den: int = 1) -> List[str]:
    return [_rat(v, den) for v in y]


def _admit_build(family: str, rank: int, args) -> RootSystemType:
    """The type ``family`` ``rank`` once its build, some rank^4 root-string steps, is
    within the larger of ``--max-points`` and its default: a smaller cap budgets the
    request's own work and never refuses a build that the default admits."""
    rstype = RootSystemType(family, rank)
    cap = max(args.max_points, _OPTIONS["--max-points"]["default"])
    if rank ** 4 > cap:
        raise BudgetError("estimated %d root-system steps exceeds %d, the larger of"
                          " --max-points and its default" % (rank ** 4, cap))
    return rstype


def _root_system(args, family: Optional[str] = None) -> RootSystem:
    """The root system of ``family``, by default ``--type``, at ``--rank``, once
    :func:`_admit_build` admits it; a missing or invalid one is a usage error."""
    family = family or args.type
    if family is None or args.rank is None:
        raise UsageError("--rank is required" if family else "--type and --rank are required")
    try:
        return build_root_system(_admit_build(family, args.rank, args))
    except ValueError as exc:
        raise UsageError("invalid root system: %s" % exc)


def _dilations(args, required: bool = True) -> Sequence[int]:
    if args.b is not None and args.b_range is not None:
        raise UsageError("give either --b or --b-range, not both")
    if args.b is not None:
        return [args.b]
    if args.b_range is not None:
        text = args.b_range
        parts = text.split("..")
        if len(parts) != 2:
            raise UsageError("--b-range must look like LO..HI")
        try:
            lo, hi = int(parts[0]), int(parts[1])
        except ValueError:
            raise UsageError("--b-range must look like LO..HI")
        if lo > hi:
            raise UsageError("--b-range must be nondecreasing")
        if lo < 1:
            raise UsageError("--b-range must start at 1 or above")
        return range(lo, hi + 1)
    if required:
        raise UsageError("--b or --b-range is required")
    return []


def _points(rs: RootSystem, b: int, lattice: str = "coroot") -> Tuple[int, str]:
    """Upper-end estimate of the lattice points in ``b A``, and its unit."""
    est = -(-exponent_product(rs, b) // rs.weyl_order)
    if lattice == "coweight":
        est *= rs.index_f
    return max(est, 1), "points"


def _dp_cost(rs: RootSystem, top: int, K: int = 0) -> Tuple[int, str]:
    """Sums of the moment-DP rows up to ``top`` at power ``K``: (top + 1) f C(n + 1 + K, K)."""
    return (top + 1) * rs.index_f * comb(rs.rank + 1 + K, K), "DP sums"


def _fit_budget(rs: RootSystem, k: int, lattice: str, centered: bool, classes, args) -> None:
    """Check a fit against ``--max-points`` over one :func:`fit_plan`: the sums of the
    DP rows up to its largest sample when it reads the DP, otherwise the estimated
    points streamed over all its samples, charged first in closed form before they
    are listed: they are distinct dilations from 0 up, so the largest is at least
    their number less one, and every other one holds the origin at least."""
    plan = fit_plan(rs, k, lattice, centered, classes)
    if dp_backed(k):
        _check_budget(*_dp_cost(rs, max(b for fit in plan for b in fit.dilations), k), args)
        return
    many = sum(fit.nodes + 2 for fit in plan)
    _check_budget(many - 1 + _points(rs, many - 1, lattice)[0], "points", args)
    _check_budget(sum(_points(rs, b, lattice)[0] for fit in plan for b in fit.dilations),
                  "points", args)


def _check_budget(estimate: int, unit: str, args) -> None:
    if estimate > args.max_points:
        raise BudgetError(
            "estimated %d %s exceeds --max-points %d" % (estimate, unit, args.max_points)
        )


def _trunc(args, *expanded: Sequence[Tuple[int, int]]) -> int:
    """The ``--trunc`` order, 20 by default, with the coefficient updates of
    expanding the factors of each series in ``expanded`` checked against ``--max-points``."""
    trunc = args.trunc if args.trunc is not None else 20
    if trunc < 0:
        raise UsageError("--trunc must be nonnegative")
    _check_budget(sum(eta_updates(f, trunc) for f in expanded), "coefficient updates", args)
    return trunc


def _admit(
    rs: RootSystem, bs: Sequence[int], cost: Callable, args, skips: Optional[List[Dict]] = None,
    **row
) -> Iterator[int]:
    """Yield the dilations of ``bs`` coprime to h, in order, once their total
    estimate is within the budget.  ``cost(rs, b)`` is one dilation's estimate
    and unit; the total adds them from the largest down, stopping over budget,
    except the moment DP's, whose rows up to the largest serve every dilation.
    Estimates never fall as b grows, so the coprime dilations, counted in closed
    form over the period h, times the smallest one's estimate is checked first.
    A ``b`` that is not coprime is a usage error, or, in a ``--b-range`` sweep, a
    ``skipped`` row (``row`` and ``b``) appended to ``skips`` in its place."""
    h = rs.coxeter_number

    def coprime(b: int) -> bool:
        return b >= 1 and gcd(b, h) == 1

    if skips is None and not all(map(coprime, bs)):
        raise UsageError("b must be positive and coprime to the Coxeter number %d" % h)
    lo, hi = max(bs[0], 1) - 1, max(bs[-1], 0)  # bs is one b or a range
    many = sum((hi - r) // h - (lo - r) // h for r in range(1, h + 1) if gcd(r, h) == 1)
    if many and cost is not _dp_cost:
        estimate, unit = cost(rs, next(filter(coprime, range(lo + 1, hi + 1))))
        _check_budget(many * estimate, unit, args)
    total = 0
    for b in filter(coprime, reversed(bs)):  # the largest first; stop once over budget
        estimate, unit = cost(rs, b)
        total += estimate
        _check_budget(total, unit, args)
        if cost is _dp_cost:
            break
    for b in bs:
        if coprime(b):
            yield b
        else:
            skips.append(dict(row, b=b, verdict="skipped(b not coprime)"))


# ---------------------------------------------------------------- commands


def cmd_enum(args) -> Tuple[int, List[Dict]]:
    """List lattice points with their statistic.

    ``--stat size`` lists the points of the height-``b`` region, carried
    from the dilated alcove by ``w_b^{-1}``; it needs ``b`` coprime to
    ``h``.  Its coroot points are the cores, and type A records carry the
    partition, read off the abacus.  ``--stat zise`` lists the dilated
    alcove itself and extends to any ``b`` through the closed quadratic on
    simply-laced systems.  Every other record prints ``y / d`` and the form there.
    """
    rs = _root_system(args)
    bs = _dilations(args)
    if len(bs) != 1:
        raise UsageError("enum takes a single --b")
    b = bs[0]
    if b < 0:
        raise UsageError("b must be nonnegative")
    h = rs.coxeter_number
    coprime = b >= 1 and gcd(b, h) == 1
    _check_budget(*_points(rs, b, args.lattice), args)
    d = lattice_scale(rs, args.lattice)
    results = []
    if args.stat == "size":
        if not coprime:
            raise UsageError(
                "size lives on the height-b region, so b must be coprime to"
                " the Coxeter number %d; use --stat zise on the alcove" % h
            )
        form = QuadraticForm(rs, 1)
        points = core_points_in_sommers(rs, b, args.lattice).points
        if rs.family == "A" and args.lattice == "coroot":
            for x in points:  # the box count, certified to be F_1(x)
                core = core_from_coroot(rs.rank + 1, x)
                results.append({"point": _vec(x), "size": _rat(core.size),
                                "core": list(core.partition.parts)})
            return EXIT_OK, results
    else:
        if not coprime and not is_simply_laced(rs):
            raise UsageError(
                "zise at b not coprime to the Coxeter number %d needs the"
                " simply-laced closed form" % h
            )
        points_in = coroot_points_in_bA if args.lattice == "coroot" else coweight_points_in_bA
        points = points_in(rs, b).points
        form = zise_form(rs, b) if coprime else QuadraticForm(rs, b)
    for y in points:
        results.append({"point": _vec(y, d), args.stat: _rat(form.scaled_at(y, d), 24 * d * d)})
    return EXIT_OK, results


def cmd_stat(args) -> Tuple[int, List[Dict]]:
    rs = _root_system(args)
    results: List[Dict] = []
    skips = results if args.b_range is not None else None
    for b in _admit(rs, _dilations(args), _points, args, skips):
        results.append(moments(rs, b))
    failed = any(result.get("grade") == "mismatch" for result in results)
    return (EXIT_MISMATCH if failed else EXIT_OK), results


def _verify_strange(rs: RootSystem, b: None, args) -> Dict:
    lhs = rs.rho_norm24  # 24 <rho, rho>, checked by the root system's constructor
    rhs = 2 * rs.dual_coxeter_number * rs.rank * (rs.coxeter_number + 1)
    return dict(value=Q(lhs), expected=Q(rhs), verdict=verdict_of(lhs, rhs))


def _verify_macdonald(rs: RootSystem, b: None, args) -> Dict:
    trunc = _trunc(args, macdonald_factors(rs))
    series = macdonald_series(rs, trunc)
    _check_budget(sum(series.coeffs), "points", args)  # the coefficients count the points
    counts = [0] * (trunc + 1)
    for _, size in coroot_points_in_size_ellipsoid(rs, trunc):
        counts[size] += 1
    ok = list(series.coeffs) == counts
    return dict(
        trunc=trunc,
        value=counts,
        verdict="match" if ok else "mismatch(series != histogram)",
    )


def _verify_genfun_a(rs: RootSystem, b: None, args) -> Dict:
    a = rs.rank + 1
    trunc = _trunc(args, core_product_factors(a), macdonald_factors(rs))
    same = core_product_series(a, trunc).coeffs == macdonald_series(rs, trunc).coeffs
    return dict(
        trunc=trunc,
        verdict="match" if same else "mismatch(product != macdonald)",
    )


def _verify_count(rs: RootSystem, b: int, args) -> Dict:
    got = Q(alcove_size_sums(rs, b, "coroot", 0)[0])
    expected = haiman_count(rs, b)
    return dict(value=got, expected=expected, verdict=verdict_of(got, expected))


def _floor_cost(rs: RootSystem, b: int) -> Tuple[int, str]:
    """The h - 1 terms of each floor sum, one per inner index j."""
    return rs.coxeter_number - 1, "terms"


def _verify_floor(rs: RootSystem, b: int, args) -> Dict:
    ok = floor_identity_check(rs, b)
    return dict(verdict="match" if ok else "mismatch(identity failed)")


def _verify_anderson(rs: RootSystem, b: int, args) -> Dict:
    a = rs.rank + 1
    got = Q(len(enumerate_simultaneous_cores(a, b)))
    expected = Q(comb(a + b, a), a + b)
    return dict(value=got, expected=expected, verdict=verdict_of(got, expected))


def _verify_max(rs: RootSystem, b: int, args) -> Dict:
    value, multiplicity, argmax, verdict = verify_max(rs, b)
    return dict(value=value, multiplicity=multiplicity, argmax=_vec(argmax), verdict=verdict)


def _verify_moment(field: str, key: str, rs: RootSystem, b: int, args) -> Dict:
    row = moments(rs, b)
    return dict(value=row[field], verdict=row["verdicts"][key])


# Every verify selector: the root systems it applies to (None for all), its cost
# on one dilation (None when it takes no dilation) and its handler.  A selector
# that does not apply is a usage error before any dilation is read or any budget
# charged.  A dilation must be coprime to h.  The cost is an estimate and its
# unit, checked against --max-points before the handler runs.  The moment
# selectors pass the field of the moments row they read and its verdict key.
_LACED = "a simply-laced root system"
_VERIFY: Dict[str, Tuple[Optional[str], Optional[Callable], Callable]] = {
    "count": (None, _dp_cost, _verify_count),
    "max": (_LACED, _points, _verify_max),
    "mean": (None, _points, partial(_verify_moment, "mean", "mean")),
    "variance": (None, _points, partial(_verify_moment, "variance", "m2")),
    "m3": (None, _points, partial(_verify_moment, "m3", "m3")),
    "floor": (_LACED, _floor_cost, _verify_floor),
    "strange": (None, None, _verify_strange),
    "macdonald": (_LACED, None, _verify_macdonald),
    "anderson": ("type A", _points, _verify_anderson),
    "genfun-A": ("type A", None, _verify_genfun_a),
}


def cmd_verify(args) -> Tuple[int, List[Dict]]:
    rs = _root_system(args)
    for selector in args.selectors:
        if selector not in _VERIFY:
            raise UsageError("unknown selector %r" % selector)
        needs = _VERIFY[selector][0]
        if needs and not (rs.family == "A" if needs == "type A" else is_simply_laced(rs)):
            raise UsageError("%s requires %s" % (selector, needs))
    bs = _dilations(args, required=False)
    results: List[Dict] = []
    skips = results if args.b_range is not None else None
    for selector in args.selectors:
        _, cost, run = _VERIFY[selector]
        row = {"selector": selector, "family": rs.family, "rank": rs.rank}
        if cost is None:
            results.append(dict(row, **run(rs, None, args)))
            continue
        if not bs:
            raise UsageError("selector %r needs --b or --b-range" % selector)
        for b in _admit(rs, bs, cost, args, skips, selector=selector):
            results.append(dict(row, b=b, **run(rs, b, args)))
    failed = any(result["verdict"].startswith("mismatch") for result in results)
    return (EXIT_MISMATCH if failed else EXIT_OK), results


def cmd_fit(args) -> Tuple[int, List[Dict]]:
    rs = _root_system(args)
    k = args.k if args.k is not None else 0
    if k < 0:
        raise UsageError("--k must be nonnegative")
    lattice = args.lattice
    if k >= 1 and not is_simply_laced(rs):
        raise UsageError("weighted fits require a simply-laced root system")
    m = quasi_period(rs, lattice)
    if args.residue is not None:
        if not 0 <= args.residue < m:
            raise UsageError("--residue out of range for period %d" % m)
        if k >= 1 and lattice == "coroot" and args.residue not in coprime_fit_classes(rs):
            raise UsageError(
                "residue class %d has no dilations coprime to h" % args.residue
            )
        classes = (args.residue,)
    elif k >= 1 and lattice == "coroot":
        classes = coprime_fit_classes(rs)
    else:
        classes = tuple(range(m))
    _fit_budget(rs, k, lattice, False, classes, args)
    components: List[Optional[Tuple[Q, ...]]] = [None] * m
    worst = EXIT_OK
    results: List[Dict] = []
    for j, poly in fit_residues(rs, k, lattice, classes):
        if isinstance(poly, HoldoutError):
            results.append(
                {"residue": j, "holdouts": "fail(%s)" % poly, "coefficients": None}
            )
            worst = EXIT_MISMATCH
            continue
        components[j] = poly
        results.append({"residue": j, "holdouts": "pass", "coefficients": list(poly)})
    fitted = QuasiPolynomial(m, tuple(components), rs.rank + 2 * k)
    summary: Dict = {
        "lattice": lattice,
        "k": k,
        "period": m,
        "degree": rs.rank + 2 * k,
        "classes": list(classes),
        "quasipolynomial": fitted.as_json_dict(),
    }
    if lattice == "coweight" and worst == EXIT_OK and len(classes) == m:
        h = rs.coxeter_number
        ok = reciprocity_check(rs, k, fitted, range(1, h + 4))
        summary["reciprocity"] = "pass" if ok else "fail"
        if not ok:
            worst = EXIT_MISMATCH
    else:
        summary["reciprocity"] = "skipped"
    results.insert(0, summary)
    return worst, results


def cmd_series(args) -> Tuple[int, List[Dict]]:
    rs = _root_system(args)
    expanded = [macdonald_factors(rs)] if is_simply_laced(rs) else []
    if rs.family == "A":
        expanded.append(core_product_factors(rs.rank + 1))
    trunc = _trunc(args, *expanded)
    poly = coxeter_char_poly(rs)
    result: Dict = {
        "family": rs.family,
        "rank": rs.rank,
        "char_poly": list(poly),
        "char_poly_at_one": poly_eval(poly, 1),
        "index": rs.index_f,
        "trunc": trunc,
    }
    series = macdonald_series(rs, trunc).coeffs if expanded else None
    result["coefficients"] = None if series is None else list(series)
    if rs.family == "A":
        result["core_product_matches"] = core_product_series(rs.rank + 1, trunc).coeffs == series
    return (EXIT_MISMATCH if result.get("core_product_matches") is False else EXIT_OK), [result]


def _weak_order(args) -> Tuple[int, List[Dict]]:
    rs = _root_system(args)
    results = []
    skips = results if args.b_range is not None else None
    for b in _admit(rs, _dilations(args), _points, args, skips):
        report = dict(experiment_weak_order_maximality(rs, b))
        report["violations"] = [
            {"point": _vec(lam), "escaped": extra} for lam, extra in report["violations"]
        ]
        results.append(report)
    return EXIT_OK, results


def _cn_fuss(args) -> Tuple[int, List[Dict]]:
    if args.m < 1:
        raise UsageError("--m must be positive")
    rs = _root_system(args, "C")
    _check_budget(*_dp_cost(rs, args.m * rs.coxeter_number + 1, 1), args)
    return EXIT_OK, [experiment_cn_fuss(args.rank, args.m)]


def _cn_weighting(args) -> Tuple[int, List[Dict]]:
    if args.trials < 1:
        raise UsageError("--trials must be positive")
    _root_system(args, "C")
    _check_budget(args.trials, "trials", args)
    return EXIT_OK, [experiment_cn_selfconjugate_weighting(args.rank, args.trials, args.seed)]


def _top_coeff(args) -> Tuple[int, List[Dict]]:
    rs = _root_system(args)
    if args.k is None or args.k < 1:
        raise UsageError("--k >= 1 is required")
    if not is_simply_laced(rs):
        raise UsageError("top-coeff requires a simply-laced root system")
    residue, centered = leading_fit(rs, args.k)
    _fit_budget(rs, args.k, "coroot", centered, (residue,), args)
    report = leading_coefficient_checks(rs, args.k)
    failed = report["verdict"].startswith("mismatch")
    return (EXIT_MISMATCH if failed else EXIT_OK), [report]


# Every command and experiment: its handler, its help and the options it reads
# besides --format and --max-points.  The parser and the dispatch are built from it.
_COMMANDS: Dict[str, Tuple[Callable, str, str]] = {
    "enum": (cmd_enum, "list lattice points or cores with sizes",
             "--type --rank --b --b-range --lattice --stat"),
    "stat": (cmd_stat, "exact moments next to closed forms",
             "--type --rank --b --b-range --lattice"),
    "verify": (cmd_verify, "theorem checks, exact",
               "--type --rank --b --b-range --trunc --lattice selectors"),
    "fit": (cmd_fit, "fit weighted Ehrhart quasipolynomials",
            "--type --rank --k --lattice --residue"),
    "series": (cmd_series, "character polynomial and q-series",
               "--type --rank --trunc --lattice"),
    "experiment weak-order": (_weak_order, "inversion sets inside w_b's",
                              "--type --rank --b --b-range --lattice"),
    "experiment cn-fuss": (_cn_fuss, "mean C_n core size at b = m h + 1",
                           "--rank --m --lattice"),
    "experiment cn-weighting": (_cn_weighting, "C_n element size against weighted boxes",
                                "--rank --trials --seed --lattice"),
    "experiment top-coeff": (_top_coeff, "leading-coefficient ratios of centered fits",
                             "--type --rank --k --lattice"),
}

# The argparse keywords of each option in the table, of --format and of --max-points.
_OPTIONS: Dict[str, Dict] = {
    **{flag: dict(type=int) for flag in "--rank --b --k --trunc --residue --m --trials --seed".split()},
    "--type": dict(choices=list("ABCDEFG")),
    "--b-range": {},
    "--lattice": dict(choices=("coweight", "coroot")),
    "--stat": dict(choices=("size", "zise"), default="zise"),
    "selectors": dict(nargs="+", metavar="selector"),
    "--format": dict(choices=("json", "csv", "table"), default="json"),
    "--max-points": dict(type=int, default=50_000_000),
}


# ---------------------------------------------------------------- plumbing


def _flatten_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Q):
        return _rat(value)
    if value is None:
        return ""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=_rat)


def _render(results: List[Dict], form: str) -> str:
    """The result rows as csv or as an aligned table: a header of the sorted
    union of their fields, then one line of flattened cells per row."""
    fields = sorted({key for row in results for key in row})
    lines = [fields] + [[_flatten_cell(row.get(f)) for f in fields] for row in results]
    if form == "csv":
        import csv  # here, so that no json or table request imports it
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(lines)
        return buf.getvalue()
    widths = [max(map(len, column)) for column in zip(*lines)]
    aligned = ("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() for line in lines)
    return "\n".join(aligned) + "\n"


def _column(rows: Sequence[Dict], key: str, pad: str) -> Iterator[str]:
    """``rows``' values at ``key`` as :func:`_dump` writes them at ``pad``, lazily: a
    column of strs, of ints or of flat str or int lists in C-level maps, any other by _dump."""
    values = partial(map, dict.get, rows, repeat(key))
    kinds = set(map(type, values()))
    if kinds == {str} or kinds == {int}:
        return map(encode_basestring_ascii if str in kinds else int.__repr__, values())
    leaves = set(map(type, chain.from_iterable(values()))) if kinds <= {list, tuple} else {None}
    if leaves == {str} or leaves <= {int}:
        inner = pad + "  "
        encode = partial(map, encode_basestring_ascii if str in leaves else int.__repr__)
        full, same = tee(map(("[" + inner + "%s" + pad + "]").__mod__,
                             map(("," + inner).join, map(encode, values()))))
        return map({"[" + inner + pad + "]": "[]"}.get, full, same)
    return map(_dump, values(), repeat(pad))


def _dump(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True, default=_rat)``, which json writes in pure
    Python, for dicts keyed by str, lists, tuples, str, int, Fraction, bool, None; str or int
    lists join in C, and rows, dicts that share one set of str keys, fill one template column
    by column.  The writer is the only code that turns a Fraction into ``"p/q"``."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is Q:
        return encode_basestring_ascii(_rat(value))
    if kind is bool or value is None:
        return {None: "null", True: "true", False: "false"}[value]
    inner = pad + "  "
    if kind is dict and {str}.issuperset(map(type, value)):
        items = [_dump(k) + ": " + _dump(v, inner) for k, v in sorted(value.items())]
    elif kind is list or kind is tuple:
        kinds = set(map(type, value))
        if kinds == {str} or kinds == {int}:
            items = map(encode_basestring_ascii if str in kinds else int.__repr__, value)
        elif (kinds == {dict} and len(value) > 4 and value[0]  # fewer rows cost more by columns
              and {str}.issuperset(map(type, value[0]))
              and all(map(value[0].keys().__eq__, map(dict.keys, value)))):
            keys, cell = sorted(value[0]), inner + "  "
            row = ("," + cell).join(_dump(k).replace("%", "%%") + ": %s" for k in keys)
            columns = map(_column, repeat(value), keys, repeat(cell))  # filled row by row
            items = map(("{" + cell + row + inner + "}").__mod__, zip(*columns))
        else:
            items = [_dump(v, inner) for v in value]
    else:
        raise TypeError("not a corelab envelope value: %r" % (value,))
    ends = "{}" if kind is dict else "[]"
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1] if value else ends


def _emit(args, exit_code: int, results: List[Dict], out) -> None:
    if args.format != "json":
        out.write(_render(results, args.format))
        return
    grade = "conjecture" if args.command == "experiment" else "theorem"
    verdict = "fail" if exit_code != EXIT_OK else "report" if grade == "conjecture" else "pass"
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "config": {key: value for key, value in vars(args).items() if value is not None},
        "results": results,
        "grade": grade,
        "verdict": verdict,
    }
    out.write(_dump(envelope) + "\n")


@lru_cache(maxsize=None)  # each built once per process
def _build_parser(name: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of the row ``name`` of ``_COMMANDS``; without ``name``, the parser
    of every row, which lists them all in its help and reports usage errors."""
    if name is not None:
        p = argparse.ArgumentParser(prog="corelab " + name, allow_abbrev=False)
        for flag in _COMMANDS[name][2].split() + ["--format", "--max-points"]:
            p.add_argument(flag, **_OPTIONS[flag])
        group, _, leaf = name.rpartition(" ")
        # the config echoes the command words, and seed, m and trials read or not
        p.set_defaults(command=group or leaf, seed=0,
                       **(dict(experiment=leaf, m=1, trials=50) if group else {}))
        return p
    parser = argparse.ArgumentParser(
        prog="corelab",
        description="Lattice-point statistics of dilated alcoves and core partitions",
        allow_abbrev=False,
    )
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for name, (_, help_text, _) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in subparsers:  # "experiment", before its first experiment
            p_group = subparsers[""].add_parser(
                group, help="conjecture experiments, non-gating", allow_abbrev=False)
            subparsers[group] = p_group.add_subparsers(dest=group, required=True)
        subparsers[group].add_parser(leaf, help=help_text, parents=[_build_parser(name)],
                                     add_help=False, allow_abbrev=False)
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = sys.stdout if out is None else out
    argv = sys.argv[1:] if argv is None else list(argv)
    words = 2 if argv[:1] == ["experiment"] else 1  # the command words of a row
    name = " ".join(argv[:words])
    try:  # a request builds only its own row's parser; help and unknown commands build all
        if name in _COMMANDS:
            args = _build_parser(name).parse_args(argv[words:])
        else:
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_USAGE
    if args.lattice is None:
        # each command defaults to its natural lattice: fits follow the
        # coweight Ehrhart theory, everything else follows the cores
        args.lattice = "coweight" if args.command == "fit" else "coroot"
    try:
        if args.lattice == "coweight" and args.command not in ("enum", "fit"):
            raise UsageError("--lattice coweight applies to enum and fit only;"
                             " %s reads the coroot lattice" % args.command)
        name = args.command if args.command != "experiment" else "experiment " + args.experiment
        exit_code, results = _COMMANDS[name][0](args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except VerificationError as exc:
        exit_code, results = EXIT_MISMATCH, [{"verdict": "mismatch(%s)" % exc}]
    _emit(args, exit_code, results, out)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
