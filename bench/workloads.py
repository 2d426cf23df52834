"""Seeded operation lists for the ellrig benchmark.

An operation is the argv of one ``ellrig`` command.  Every value is written
as ``--flag=value``: argparse would read ``--rotations -1,2`` or a tau with a
leading minus as a new option and exit 2.  The same workload and seed
always give the same operations; the program sees nothing but the argv.

Document paths are relative to the repository root, which the runner makes
its working directory.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

DEFAULT_SEED = 0
DATA_DIR = "demos/data"
DOCUMENTS = ("four_sphere", "mixed_components", "odd_live", "odd_rigid")
ODD_DOCUMENTS = ("odd_live", "odd_rigid")
LADDER_FACTORS = ("Q1V", "Q2V", "Q3V", "Theta1", "Theta2", "Theta3", "DeltaV")
THETA_TAUS_PER_OP = 10


class Op(NamedTuple):
    index: int
    command: str
    document: str | None  # document name for rigidity and odd-check
    argv: tuple


def _cplx(z):
    return "%.6f%+.6fj" % (z.real, z.imag)


def document_path(name):
    return "%s/%s.json" % (DATA_DIR, name)


def _doc_verify(rng):
    cycle = [("rigidity", d) for d in DOCUMENTS] + [("odd-check", d) for d in ODD_DOCUMENTS]
    for i in itertools.count():
        command, doc = cycle[i % len(cycle)]
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.7, 1.2))
        argv = [command, document_path(doc), "--tau=" + _cplx(tau)]
        if command == "odd-check":
            argv.append("--degree-cap=7")
        yield Op(i, command, doc, tuple(argv))


def _ladder_expand(rng):
    for i in itertools.count():
        factor = LADDER_FACTORS[i % len(LADDER_FACTORS)]
        n = rng.randint(1, 3)
        rotations = [rng.randint(-2, 2) for _ in range(n)]
        t = complex(rng.uniform(-0.3, 0.3), rng.choice((-1, 1)) * rng.uniform(0.05, 0.25))
        cap = rng.randint(2, 6)
        argv = ["expand", "--factor=" + factor,
                "--symbols=" + ",".join("z%d" % (k + 1) for k in range(n)),
                "--rotations=" + ",".join(str(r) for r in rotations),
                "--t=" + _cplx(t), "--q-order=3", "--degree-cap=%d" % cap]
        yield Op(i, "expand", None, tuple(argv))


def _theta_identities(rng):
    for i in itertools.count():
        taus = [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 1.5))
                for _ in range(THETA_TAUS_PER_OP)]
        argv = ["theta-verify", "--tau=" + ",".join(_cplx(t) for t in taus)]
        yield Op(i, "theta-verify", None, tuple(argv))


# name -> (operation generator, documents loaded at set-up, ops per cycle)
WORKLOADS = {
    "doc-verify": (_doc_verify, DOCUMENTS, len(DOCUMENTS) + len(ODD_DOCUMENTS)),
    "ladder-expand": (_ladder_expand, (), len(LADDER_FACTORS)),
    "theta-identities": (_theta_identities, (), 1),
}


def operations(workload, seed):
    """Endless, reproducible operation stream of one workload."""
    make, _, _ = WORKLOADS[workload]
    return make(random.Random("%s:%d" % (workload, seed)))


def first_operations(workload, seed, n):
    return list(itertools.islice(operations(workload, seed), n))


def documents(workload):
    return WORKLOADS[workload][1]


def cycle_length(workload):
    """Operations per cycle; rates and percentiles use whole cycles only, so
    every run weighs the operation kinds alike."""
    return WORKLOADS[workload][2]
