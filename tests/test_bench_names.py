"""The benchmark's tracer reads corelab functions by name; every name must exist.

``bench/tracer.py`` wraps corelab's public functions and ``metrics()`` looks
up a fixed set of them.  A renamed or deleted function would crash every
traced benchmark round with a ``KeyError``; this test surfaces it in the
suite instead.  The traced requests reach every after-call hook of the
tracer but the one on ``stats.zise_point``, so a result shape a hook reads
(``.points``, ``.size``, ``.coeffs``, ``r[1]``, ``a[1]``) is held too.  It
runs in a subprocess because ``Tracer.install()`` rewrites module globals.
Public names that ``src/`` keeps only for the tracer must still be named in it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

from test_exports import NO_CALLER_NEEDED, TRACER

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
from tracer import PER_LAYER, Tracer
import io
tracer = Tracer()
tracer.install()
from corelab.cli import main
for request in {requests!r}:
    code = main(request.split(), out=io.StringIO())
    assert code == 0, (request, code)
values = tracer.metrics(0)
assert sorted(values) == sorted(name for name, _ in PER_LAYER), sorted(values)
"""

REQUESTS = [
    "enum --type A --rank 2 --b 4 --stat size",
    "enum --type A --rank 2 --b 4",
    "enum --type A --rank 2 --b 2 --lattice coweight",
    "verify --type A --rank 3 --b 5 count mean",
    "verify --type A --rank 2 macdonald genfun-A",
    "fit --type A --rank 2 --k 0",
    "experiment cn-weighting --rank 2 --trials 3",
]


def test_tracer_installs_and_reads_every_metric():
    script = SCRIPT.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"), requests=REQUESTS)
    env = {k: v for k, v in os.environ.items() if not k.startswith("CORELAB_")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave no cache files under bench/
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_names_kept_for_the_tracer_are_named_in_it():
    # one that the tracer stops naming leaves the allowlist, and then src/
    text = (ROOT / "bench" / "tracer.py").read_text()
    kept = [name for name, reason in NO_CALLER_NEEDED.items() if reason == TRACER]
    assert kept
    assert [name for name in kept if not re.search(r"\b%s\b" % name, text)] == []
