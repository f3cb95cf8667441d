"""Per-layer times and work counts of one traced round, measured from outside corelab.

Every function of a corelab module that is public, or that another corelab
module imports by name, is wrapped at every module that holds it, so a call
passes the wrapper whichever import it goes through.  Each call opens a span
on a stack.  A span's self time is its duration minus the time of the spans
it encloses; self times are summed per layer, the module that defines the
function, so the layers' self times add up to the traced requests' time.
Spans are kept in memory and written out at the end.  Calls of the functions
in ``GROUPED``, which run once per point, root or letter, are summed per
parent span and function instead of kept one by one.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Optional, Tuple

LAYERS = ("rootsys", "affine", "lattice_enum", "cores", "stats", "ehrhart", "genfun", "cli")

GROUPED = {
    "rootsys.inner", "rootsys.pairing", "rootsys.vec_add", "rootsys.vec_sub",
    "rootsys.vec_scale", "rootsys.mat_vec", "rootsys.root_vector",
    "rootsys.vector_to_root_coeffs", "rootsys.roots_of_height",
    "rootsys.invert_matrix", "rootsys.det_int",
    "affine.alcove_walk", "affine.element_from_word", "affine.base_point",
    "affine.apply_to_affine_root", "affine.simple_affine_root",
    "affine.simple_reflection", "affine.sommers_contains", "affine.in_dilated_alcove",
    "affine.to_dominant", "affine.inversions_of_word", "affine.inversions_of_inverse",
    "affine.word_of", "affine.alcove_vertices",
    "lattice_enum.iter_coweight_coeffs", "lattice_enum.iter_coweight_points",
    "lattice_enum.iter_coroot_points", "lattice_enum.coeffs_to_point",
    "lattice_enum.is_coroot_point",
    "cores.core_from_coroot", "cores.hook_lengths", "cores.is_a_core",
    "stats.zise_point", "stats.size_point", "stats.is_simply_laced",
    "stats._w_b_inverse", "stats._verdict", "stats.haiman_count",
    "stats.closed_max", "stats.closed_mean", "stats.closed_variance",
}

# (metric, unit): seconds come from the spans, counts from the calls' arguments and results
PER_LAYER = (
    ("rootsys.build_s", "s"), ("rootsys.builds", "count"),
    ("lattice_enum.knapsack_s", "s"), ("lattice_enum.knapsack_tuples", "count"),
    ("lattice_enum.convert_s", "s"), ("lattice_enum.points_converted", "count"),
    ("lattice_enum.coroot_points", "count"), ("lattice_enum.keep_ratio", "ratio"),
    ("lattice_enum.dp_s", "s"), ("lattice_enum.dp_calls", "count"),
    ("lattice_enum.dp_budget_steps", "count"),
    ("lattice_enum.ellipsoid_s", "s"), ("lattice_enum.ellipsoid_points", "count"),
    ("affine.walk_s", "s"), ("affine.walks", "count"), ("affine.walk_letters", "count"),
    ("affine.w_b_s", "s"), ("affine.w_b_calls", "count"),
    ("affine.inversions_s", "s"), ("affine.inversion_roots", "count"),
    ("cores.core_s", "s"), ("cores.cores_built", "count"), ("cores.boxes", "count"),
    ("cores.hook_s", "s"), ("cores.hook_checks", "count"),
    ("stats.zise_s", "s"), ("stats.zise_calls", "count"),
    ("stats.moments_s", "s"), ("stats.moments_calls", "count"),
    ("ehrhart.weighted_sum_s", "s"), ("ehrhart.weighted_sum_calls", "count"),
    ("ehrhart.weighted_sum_cache_hits", "count"), ("ehrhart.fit_s", "s"), ("ehrhart.fits", "count"),
    ("genfun.series_s", "s"), ("genfun.series_terms", "count"), ("genfun.char_poly_s", "s"),
    ("cli.self_s", "s"), ("cli.output_bytes", "B"), ("cli.requests", "count"),
) + tuple(("%s.self_s" % layer, "s") for layer in LAYERS if layer != "cli")


def _tally(**fields: Callable) -> Callable:
    """An after-call hook adding ``f(args, result)`` to each named counter."""

    def after(counts: Counter, args: Tuple, result) -> None:
        for key, f in fields.items():
            counts[key] += f(args, result)

    return after


def _one(args, result) -> int:
    return 1


AFTER: Dict[str, Callable] = {
    "rootsys.build_root_system": _tally(builds=_one),
    "lattice_enum.coeffs_to_point": _tally(points_converted=_one),
    "lattice_enum.coroot_points_in_bA": _tally(coroot_points=lambda a, r: len(r.points)),
    "lattice_enum.alcove_size_sums": _tally(dp_calls=_one, dp_budget_steps=lambda a, r: a[1]),
    "lattice_enum.coroot_points_in_size_ellipsoid": _tally(ellipsoid_points=lambda a, r: len(r)),
    "affine.alcove_walk": _tally(walks=_one, walk_letters=lambda a, r: len(r[1])),
    "affine.compute_w_b": _tally(w_b_calls=_one),
    "affine.inversions_of_inverse": _tally(inversion_roots=lambda a, r: len(r)),
    "cores.core_from_coroot": _tally(cores_built=_one, boxes=lambda a, r: r.size),
    "cores.is_a_core": _tally(hook_checks=_one),
    "stats.zise_point": _tally(zise_calls=_one),
    "stats.moments": _tally(moments_calls=_one),
    "ehrhart.weighted_lattice_sum": _tally(weighted_sum_calls=_one),
    "ehrhart.fit_component": _tally(fits=_one),
    "genfun.macdonald_series": _tally(series_terms=lambda a, r: len(r.coeffs)),
    "genfun.core_product_series": _tally(series_terms=lambda a, r: len(r.coeffs)),
    "cli.main": _tally(requests=_one),
}

# generator functions whose yielded items are counted
ITEMS = {
    "lattice_enum.iter_coweight_coeffs": "knapsack_tuples",
    "lattice_enum.iter_coroot_points": "coroot_points",
}


class Tracer:
    """A span stack around the wrapped corelab functions of one interpreter."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack: list = []  # open calls: [seconds of the calls they enclose]
        self.open_ids: list = []  # ids of the open spans that are kept one by one
        self.ids = itertools.count()
        self.spans: list = []  # (id, parent id, name, start, end)
        # per function: [self seconds, seconds of outermost calls, calls, open calls]
        self.stats: Dict[str, list] = {}
        self.layer_of: Dict[str, str] = {}
        # per grouped function: parent span id -> [calls, seconds]
        self.groups: Dict[str, Dict[Optional[int], list]] = {}
        self.counts: Counter = Counter()
        self.cached: Dict[str, Callable] = {}

    def _timer(self, name: str) -> Tuple[Callable, Callable]:
        """The enter and leave steps that every call of ``name`` passes."""
        stat = self.stats[name] = [0.0, 0.0, 0, 0]
        stack, open_ids, spans, clock, ids = (
            self.stack, self.open_ids, self.spans, self.clock, self.ids)
        if name in GROUPED:
            groups = self.groups[name] = {}

            def enter() -> list:
                frame = [0.0, clock()]
                stack.append(frame)
                stat[3] += 1
                return frame

            def leave(frame: list) -> None:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stat[0] += duration - frame[0]
                stat[2] += 1
                stat[3] -= 1
                if not stat[3]:
                    stat[1] += duration
                if stack:
                    stack[-1][0] += duration
                slot = groups.get(open_ids[-1] if open_ids else None)
                if slot is None:
                    groups[open_ids[-1] if open_ids else None] = [1, duration]
                else:
                    slot[0] += 1
                    slot[1] += duration
        else:

            def enter() -> list:
                sid = next(ids)
                open_ids.append(sid)
                frame = [0.0, clock(), sid]
                stack.append(frame)
                stat[3] += 1
                return frame

            def leave(frame: list) -> None:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stat[0] += duration - frame[0]
                stat[2] += 1
                stat[3] -= 1
                if not stat[3]:
                    stat[1] += duration
                if stack:
                    stack[-1][0] += duration
                open_ids.pop()
                spans.append((frame[2], open_ids[-1] if open_ids else None, name, frame[1], end))

        return enter, leave

    def _wrap(self, fn: Callable, name: str) -> Callable:
        enter, leave = self._timer(name)
        after = AFTER.get(name)
        counts = self.counts

        def call(*args, **kwargs):
            frame = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if after is not None:
                after(counts, args, result)
            return result

        return call

    def _wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Time each step of the generator; the consumer's work between steps is its own."""
        enter, leave = self._timer(name)
        item = ITEMS.get(name)
        counts = self.counts

        def steps(inner):
            while True:
                frame = enter()
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    leave(frame)
                if item is not None:
                    counts[item] += 1
                yield value

        def call(*args, **kwargs):
            return steps(fn(*args, **kwargs))

        return call

    def install(self) -> None:
        """Wrap the functions at every corelab module that holds them by name."""
        import corelab.cli  # noqa: F401  (imports every layer)

        modules = [sys.modules["corelab." + layer] for layer in LAYERS]
        holders: Dict[int, list] = defaultdict(list)
        for module in modules:
            for attr, obj in vars(module).items():
                home = getattr(obj, "__module__", None) or ""
                if callable(obj) and not isinstance(obj, type) and home.startswith("corelab."):
                    holders[id(obj)].append((module, attr, obj))
        for entries in holders.values():
            fn = entries[0][2]
            layer = fn.__module__.split(".", 1)[1]
            name = "%s.%s" % (layer, fn.__name__)
            shared = any(module.__name__ != fn.__module__ for module, _, _ in entries)
            if fn.__name__.startswith("_") and not shared:
                continue
            if hasattr(fn, "cache_info"):
                self.cached[name] = fn
            self.layer_of[name] = layer
            gen = inspect.isgeneratorfunction(inspect.unwrap(fn))
            wrapper = (self._wrap_generator if gen else self._wrap)(fn, name)
            for module, attr, _ in entries:
                setattr(module, attr, wrapper)

    # ----------------------------------------------------------- results

    def metrics(self, output_bytes: int) -> Dict[str, float]:
        """Every PER_LAYER metric, from the spans and counters of the round."""
        own = {name: stat[0] for name, stat in self.stats.items()}
        inc = {name: stat[1] for name, stat in self.stats.items()}
        layer_self: Dict[str, float] = defaultdict(float)
        for name, seconds in own.items():
            layer_self[self.layer_of[name]] += seconds
        c = self.counts
        converted = c["points_converted"]
        values = {
            "rootsys.build_s": inc["rootsys.build_root_system"],
            "lattice_enum.knapsack_s": inc["lattice_enum.iter_coweight_coeffs"],
            "lattice_enum.convert_s": inc["lattice_enum.coeffs_to_point"]
            + inc["lattice_enum.is_coroot_point"],
            "lattice_enum.keep_ratio": c["coroot_points"] / converted if converted else 0.0,
            "lattice_enum.dp_s": inc["lattice_enum.alcove_size_sums"],
            "lattice_enum.ellipsoid_s": inc["lattice_enum.coroot_points_in_size_ellipsoid"],
            "affine.walk_s": inc["affine.alcove_walk"],
            "affine.w_b_s": inc["affine.compute_w_b"],
            "affine.inversions_s": inc["affine.inversions_of_inverse"],
            "cores.core_s": own["cores.core_from_coroot"],
            "cores.hook_s": inc["cores.is_a_core"],
            "stats.zise_s": inc["stats.zise_point"],
            "stats.moments_s": inc["stats.moments"],
            "ehrhart.weighted_sum_s": own["ehrhart.weighted_lattice_sum"],
            "ehrhart.weighted_sum_cache_hits":
                self.cached["ehrhart.weighted_lattice_sum"].cache_info().hits,
            "ehrhart.fit_s": own["ehrhart.fit_component"],
            "genfun.series_s": inc["genfun.macdonald_series"] + inc["genfun.core_product_series"],
            "genfun.char_poly_s": inc["genfun.coxeter_char_poly"],
            "cli.output_bytes": output_bytes,
        }
        for metric, _unit in PER_LAYER:
            layer, field = metric.split(".", 1)
            if field == "self_s":
                values[metric] = layer_self[layer]
            elif metric not in values:
                values[metric] = c[field]
        return values

    def self_total(self) -> float:
        """The self times of all layers; equal to the time inside the outermost calls."""
        return sum(stat[0] for stat in self.stats.values())

    def write_spans(self, path: str) -> None:
        """Kept spans as {id, parent, name, start, end}, then grouped calls per parent."""
        with open(path, "w") as out:
            for sid, parent, name, start, end in self.spans:
                out.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                      "start": start - self.origin,
                                      "end": end - self.origin}) + "\n")
            for name, groups in sorted(self.groups.items()):
                for parent, (calls, seconds) in groups.items():
                    out.write(json.dumps({"parent": parent, "name": name,
                                          "calls": calls, "seconds": seconds}) + "\n")
