"""End-to-end benchmark of corelab, run from the root of a checkout.

    python3 bench/run.py --workload cores|fits|survey|all --seed N --seconds S --trace 0|1

A run measures ``setup_s`` as the launch-to-ready time of fresh interpreters
that only import ``corelab.cli``, four of them before each round.  Each round
is one fresh single-threaded interpreter (``child.py``, fixed PYTHONHASHSEED,
so lru caches start cold) that sends the workload's requests through
``corelab.cli.main`` one at a time.  Rounds repeat while another one is
expected to end within ``--seconds``; there is always at least one.
``wall_s`` is the time from the first request of a round to its last answer,
each request's time taken as its median over the rounds.  Both times are
scaled, round by round, to the machine speed at which the fixed work of
``calibrate.py``, run between the round's requests, takes its reference
time.  ``peak_rss_mb`` is the median of the rounds' peak resident set.
Every answer is checked by ``checks.py`` against computations made apart
from corelab; an answer whose bytes equal one already checked in this run
is not checked twice.

With ``--trace 1`` the run makes pairs of one untraced and one traced round
instead, alternating which comes first, for as long as ``--seconds`` allows
(at least one pair).  It checks that each request's stdout bytes are the
same in every round, and reports the median per-layer metrics of
``tracer.py`` over the traced rounds with the tracing overhead: the median
traced wall time minus the median untraced one.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import calibrate
import checks
import workloads
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
HASH_SEED = "0"
SETUP_PER_ROUND = 4
ROUND_TIMEOUT_S = 150
SETUP_CODE = "import sys, corelab.cli; sys.stdout.write('ready\\n'); sys.stdout.flush()"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
TRACE_TOTALS = (("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
                ("trace.overhead_s", "s"), ("trace.self_sum_s", "s"))


def child_environment(root: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CORELAB_")}
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = str(root / "src")
    return env


def setup_seconds(root: Path, env: Dict[str, str]) -> float:
    """Launch a fresh interpreter and time it until ``corelab.cli`` is imported."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line != b"ready\n" or proc.returncode:
        raise RuntimeError("corelab.cli did not import (exit %s)" % proc.returncode)
    return elapsed


def run_round(root: Path, env: Dict[str, str], requests: List[List[str]], spans: str = "") -> Dict:
    job = json.dumps({"requests": requests, "spans": spans})
    proc = subprocess.run([sys.executable, str(HERE / "child.py")], cwd=root, env=env,
                          input=job.encode(), capture_output=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode:
        raise RuntimeError("round failed:\n" + proc.stderr.decode(errors="replace"))
    result = json.loads(proc.stdout)
    if Path(result["corelab"]).resolve() != (root / "src" / "corelab" / "cli.py").resolve():
        raise RuntimeError("corelab imported from %s, not from the checkout" % result["corelab"])
    return result


def round_wall(result: Dict) -> float:
    """Time from the first request of a round to its last answer."""
    return sum(r["seconds"] for r in result["records"])


def speed(result: Dict) -> float:
    """Factor from a round's seconds to seconds at the reference speed of ``calibrate``."""
    return calibrate.REFERENCE_S / statistics.mean(result["calibration_s"])


class Judge:
    """Checks answers, once per distinct stdout of a request, and counts failures."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.checked: Dict[str, str] = {}
        self.noted: set = set()
        self.correct = True
        self.attempted = 0
        self.failed = 0

    def __call__(self, argv: List[str], record: Dict) -> None:
        text = " ".join(argv)
        self.attempted += 1
        if record["code"] != 0:
            self.failed += 1
            if text not in self.noted:
                self.noted.add(text)
                reason = workloads.KNOWN_FAULTS.get(text, "not a known fault")
                print("failed (%s): %s\n  %s" % (reason, text, record["stderr"].strip()[-300:]),
                      file=sys.stderr)
            return
        digest = hashlib.sha256(record["stdout"].encode()).hexdigest()
        if self.checked.get(text) == digest:
            return
        try:
            checks.check_answer(argv, record["stdout"], self.seed)
        except Exception as exc:  # a malformed answer is a wrong one, not a crash of the run
            self.correct = False
            print("wrong answer: %s\n  %s: %s" % (text, type(exc).__name__, exc), file=sys.stderr)
            return
        self.checked[text] = digest


def repeat(seconds: int, step) -> None:
    """Call ``step`` once, then again while another call is expected to end in time."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def measure(root: Path, name: str, seed: int, seconds: int, trace: bool) -> Dict:
    env = child_environment(root)
    requests = workloads.requests(name)
    judge = Judge(seed)
    setup_seconds(root, env)  # the first import in a checkout writes the bytecode cache

    if not trace:
        rounds, setup = [], []

        def step() -> None:
            # set-up samples are spread over the run, a few before each round
            samples = [setup_seconds(root, env) for _ in range(SETUP_PER_ROUND)]
            rounds.append(run_round(root, env, requests))
            setup.extend(t * speed(rounds[-1]) for t in samples)

        repeat(seconds, step)
        for n, result in enumerate(rounds, 1):
            print("%s round %d: %.3f s (raw %.3f), %.1f MB, calibration %s, per request %s" % (
                name, n, round_wall(result) * speed(result), round_wall(result),
                result["peak_rss_kb"] / 1024,
                " ".join("%.3f" % c for c in result["calibration_s"]),
                " ".join("%.3f" % r["seconds"] for r in result["records"])), file=sys.stderr)
        per_request = zip(*([r["seconds"] * speed(result) for r in result["records"]]
                            for result in rounds))
        metrics = {
            "wall_s": sum(statistics.median(times) for times in per_request),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in rounds),
        }
        units = dict(END_TO_END)
    else:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans = str(out / ("spans-%s.jsonl" % name))
        plain, traced = [], []

        def pair() -> None:  # alternate which side runs first
            for on in ((False, True) if len(plain) % 2 == 0 else (True, False)):
                (traced if on else plain).append(run_round(root, env, requests, spans if on else ""))

        repeat(seconds, pair)
        rounds = plain + traced
        for result in rounds[1:]:
            for argv, a, b in zip(requests, plain[0]["records"], result["records"]):
                if (a["code"], a["stdout"]) != (b["code"], b["stdout"]):
                    judge.correct = False
                    print("stdout differs between rounds: %s" % " ".join(argv), file=sys.stderr)
        metrics = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        metrics["trace.wall_s"] = statistics.median(round_wall(r) for r in traced)
        metrics["trace.untraced_wall_s"] = statistics.median(round_wall(r) for r in plain)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        metrics["trace.self_sum_s"] = statistics.median(r["self_total_s"] for r in traced)
        units = dict(PER_LAYER + TRACE_TOTALS)
    # answers are checked after the timed loop, so checking does not shorten it
    for result in rounds:
        for argv, record in zip(requests, result["records"]):
            judge(argv, record)
    return {
        "correct": judge.correct,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "corelab" / "cli.py").is_file():
        print("error: run from the root of a corelab checkout (no src/corelab/cli.py)",
              file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = measure(root, name, args.seed, args.seconds, bool(args.trace))
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
