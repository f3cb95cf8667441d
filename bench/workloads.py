"""The fixed requests of each workload, as argv lists for ``corelab.cli.main``.

Each workload is one closed loop: a request is sent only after the answer to
the previous one, in the order listed.  The requests are the same for every
seed, and so is their order: lru caches and the heap carry over from one
request to the next, so another order would be other work.  The seed of a run
picks the dilations at which the checks evaluate fitted quasipolynomials.
"""

from __future__ import annotations

from typing import Dict, List

# The count DP enumerates nothing, so sweeps to large b lift the point cap.
_NO_CAP = "--max-points 1000000000000000000000000"

CORES = [
    # the largest coprime pair of acceptance criterion 1: 1430 (8,9)-cores
    "enum --type A --rank 7 --b 9 --stat size",
    # and its mirror, another 1430 (9,8)-cores with a larger walk per core
    "enum --type A --rank 8 --b 8 --stat size",
    # moments of the (5,b)-cores against the paper's formulas, 1 <= b <= 13
    "verify --type A --rank 4 --b-range 1..13 count max mean variance m3",
    # 3311 zise rows in one 356 kB envelope
    "enum --type A --rank 3 --b 41",
]

FITS = [
    "experiment top-coeff --type A --rank 3 --k 2",
    "experiment top-coeff --type A --rank 3 --k 3",
    "experiment top-coeff --type D --rank 4 --k 2",
    "fit --type A --rank 3 --k 4 --lattice coroot",
    "fit --type D --rank 4 --k 3 --lattice coroot",
    # the coweight lattice, with the reciprocity probe
    "fit --type A --rank 6 --k 2",
    "fit --type E --rank 6 --k 1 --lattice coroot",
    "fit --type A --rank 4 --k 0 --lattice coroot",
]

README_EXAMPLES = [
    "enum --type A --rank 2 --b 4 --stat size",
    "enum --type D --rank 4 --b 3 --lattice coweight",
    "stat --type D --rank 4 --b-range 2..7",
    "verify --type E --rank 8 --b 7 count mean",
    "verify --type A --rank 3 --b-range 1..9 count max mean variance m3",
    "verify --type A --rank 3 strange macdonald genfun-A",
    "fit --type A --rank 2 --k 0",
    "fit --type E --rank 6 --k 1 --lattice coroot --residue 1",
    "series --type A --rank 2 --trunc 10",
    "experiment weak-order --type A --rank 2 --b 4",
    "experiment cn-fuss --rank 2 --m 1",
]

# Requests that fail on every run because of a fault in the program; each is
# counted as failed, and checked like any other answer once it succeeds.
KNOWN_FAULTS = {
    "verify --type A --rank 6 --b-range 1..12 floor":
        "exit 2: floor is missing from COPRIME_SELECTORS, so b=7 is rejected instead of skipped",
    "verify --type E --rank 7 --b-range 1..100 count":
        "exit 3: the count gate applies the enumeration budget to a DP that enumerates nothing",
}

SURVEY = [
    "verify --type E --rank 8 --b-range 1..240 count " + _NO_CAP,
    "verify --type E --rank 7 --b-range 1..150 count " + _NO_CAP,
    "verify --type A --rank 6 --b-range 1..64 count " + _NO_CAP,
    "verify --type E --rank 6 --b 13 count max mean variance",
    "verify --type E --rank 7 --b 11 count max mean variance",
    "verify --type D --rank 5 macdonald",
    "verify --type E --rank 6 macdonald",
    "series --type E --rank 8 --trunc 60",
    "experiment weak-order --type D --rank 4 --b 7",
    "experiment weak-order --type E --rank 6 --b 7",
] + README_EXAMPLES + list(KNOWN_FAULTS)

WORKLOADS: Dict[str, List[str]] = {"cores": CORES, "fits": FITS, "survey": SURVEY}


def requests(name: str) -> List[List[str]]:
    """The workload's requests as argv lists, in order."""
    return [text.split() for text in WORKLOADS[name]]
