"""The benchmark's tracer reads corelab functions by name; every name must exist.

``bench/tracer.py`` wraps corelab's public functions and ``metrics()`` looks
up a fixed set of them.  A renamed or deleted function would crash every
traced benchmark round with a ``KeyError``; this test surfaces it in the
suite instead.  It runs in a subprocess because ``Tracer.install()`` rewrites
module globals.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
from tracer import PER_LAYER, Tracer
tracer = Tracer()
tracer.install()
values = tracer.metrics(0)
assert sorted(values) == sorted(name for name, _ in PER_LAYER), sorted(values)
"""


def test_tracer_installs_and_reads_every_metric():
    script = SCRIPT.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("CORELAB_")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave no cache files under bench/
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
