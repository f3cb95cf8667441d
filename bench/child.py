"""One round of a workload, run in a fresh interpreter by ``run.py``.

Reads ``{"requests": [argv, ...], "spans": path}`` as JSON on stdin (an
empty path runs the round untraced), sends the requests one at a time
through ``corelab.cli.main`` and prints one JSON object: per request its
exit code, seconds, stdout and stderr; the times of the calibration work
run between requests (see ``calibrate.py``); the interpreter's peak
resident set before the results are encoded; and, when traced, the
per-layer metrics of the round.
"""

import contextlib
import io
import json
import sys
import time
import traceback

import calibrate
import corelab.cli


def peak_rss_kb() -> int:
    """High-water resident set of this process image.

    ``getrusage`` is not used: on Linux its ``ru_maxrss`` keeps the peak of
    the parent image that spawned this one, which would count run.py's memory.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    job = json.load(sys.stdin)
    tracer = None
    if job["spans"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    records, calibration, since = [], [calibrate.seconds()], 0.0
    for argv in job["requests"]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                code = corelab.cli.main(argv, out=out)
            except Exception:  # a crash is one failed request, not a lost round
                traceback.print_exc()
                code = -1
        seconds = time.perf_counter() - start
        records.append({"code": code, "seconds": seconds, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
        since += seconds
        if since >= calibrate.EVERY_S or len(records) == len(job["requests"]):
            calibration.append(calibrate.seconds())
            since = 0.0
    result = {
        "corelab": corelab.cli.__file__,
        "peak_rss_kb": peak_rss_kb(),
        "records": records,
        "calibration_s": calibration,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(sum(len(r["stdout"].encode()) for r in records))
        result["self_total_s"] = tracer.self_total()
        tracer.write_spans(job["spans"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
