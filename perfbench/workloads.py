"""Seeded input generators for the benchmark workloads.

Every workload is a stream of *rounds*; a round is a short, fixed list of
operation shapes whose order and contents are drawn from the seed.  One
operation (op) is one `ybqc run` of a generated scenario file.  Runs
always execute whole rounds, so the mix of cheap and expensive shapes
that enters a median is the same on every seed and every commit; only
the random contents (fields, angles, directions, initial bits, the order
of measurements) change with the seed.

The op with index i depends only on (workload, seed, i): it is drawn from
its own `random.Random` seeded with a string, which Python hashes with
SHA-512, so the inputs are identical across Python versions and across
runs that execute a different number of ops.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Op:
    """One generated scenario plus what the checks need to know about it."""
    workload: str
    index: int
    scenario: dict
    circuit: str | None = None
    # circuit ops: the gate list fed to the ideal-qubit oracle
    gates: tuple = ()
    sites: tuple = ()
    initial_ones: tuple = ()
    # sweep ops: the spectral gap the planner was asked for
    target_gap_hz: float | None = None

    def write(self, directory: Path) -> Path:
        """Write the scenario (and circuit) files; return the scenario path."""
        directory.mkdir(parents=True, exist_ok=True)
        scn = dict(self.scenario, output_dir="out")
        if self.circuit is not None:
            (directory / "circuit.txt").write_text(self.circuit)
            scn["circuit_file"] = "circuit.txt"
        path = directory / "scenario.json"
        path.write_text(json.dumps(scn, indent=2) + "\n")
        return path


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"ybqc-bench/{workload}/{seed}/{index}")


# ---------------------------------------------------------------------------
# sweep: feasibility + detuning/level sweeps + 100x100 addressing comb

SWEEP_LATTICE = (100, 100)
SWEEP_STEPS = 2000


def _sweep_op(seed: int, index: int, shape) -> Op:
    rng = _rng("sweep", seed, index)
    b_min = rng.uniform(1.0, 50.0)
    b_max = rng.uniform(5000.0, 20000.0)
    gap = rng.uniform(200.0, 2000.0)
    scenario = {
        "pipeline": ["feasibility", "detunings", "levels", "address"],
        "lattice": {"n_x": SWEEP_LATTICE[0], "n_y": SWEEP_LATTICE[1],
                    "n_z": 1},
        "gradients": {"target_gap_hz": gap},
        "sweep": {"b_min_gauss": b_min, "b_max_gauss": b_max,
                  "steps": SWEEP_STEPS},
    }
    return Op("sweep", index, scenario, target_gap_hz=gap)


# ---------------------------------------------------------------------------
# circuits: X rotations on distinct sites, then adjacent CNOTs, then MEAS
# on every site.  Rotations precede the CNOTs and no site is rotated twice,
# so populations (not phases) fix every measurement probability and a
# classical ideal-qubit oracle can follow the sampled outcomes.
#
# At most one site is rotated, and it is measured first.  `measure_qubit`
# rejects a site whose intermediate-level population exceeds 1% of the
# conditional norm.  The 3-photon drive leaves ~0.2% there, so once an
# earlier measurement samples a rare branch correlated with a second
# rotated site, a valid circuit fails with ProtocolOrderError (exit 3).
# With two rotations and a random measurement order, 2 of 300 random
# 2-site ops failed; measuring the rotated sites first, 1 of 3000.
# Example: circuit `X 1 0 0.3662975959979332`, `X 0 0 2.47374393687711`,
# `CNOT 1 0 0 0`, `MEAS 0 0`, `MEAS 1 0` on a 2x1 lattice with
# initial_ones [[1, 0, 0]] and seed 1541847838.

def _circuit_op(workload: str, seed: int, index: int, n_sites: tuple,
                shape: tuple) -> Op:
    rng = _rng(workload, seed, index)
    nx, ny = n_sites
    sites = tuple((i, j) for j in range(ny) for i in range(nx))
    n_rot, n_cnot = shape
    gates = []
    for site in rng.sample(sites, n_rot):
        gates.append(("X", site, rng.uniform(0.2, 3.0)))
    pairs = [(a, b) for a in sites for b in sites
             if abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1]
    for _ in range(n_cnot):
        gates.append(("CNOT",) + rng.choice(pairs))
    order = [g[1] for g in gates if g[0] == "X"]
    rest = [s for s in sites if s not in order]
    rng.shuffle(rest)
    gates += [("MEAS", s) for s in order + rest]
    ones = tuple(s for s in sites if rng.random() < 0.5)
    lines = []
    for g in gates:
        if g[0] == "X":
            lines.append(f"X {g[1][0]} {g[1][1]} {g[2]!r}")
        elif g[0] == "CNOT":
            lines.append(f"CNOT {g[1][0]} {g[1][1]} {g[2][0]} {g[2][1]}")
        else:
            lines.append(f"MEAS {g[1][0]} {g[1][1]}")
    scenario = {
        "pipeline": ["simulate"],
        "lattice": {"n_x": nx, "n_y": ny, "n_z": 1},
        "initial_ones": [[i, j, 0] for i, j in ones],
        "seed": rng.randrange(2 ** 31),
    }
    return Op(workload, index, scenario, "\n".join(lines) + "\n",
              tuple(gates), sites, ones)


@dataclass(frozen=True)
class Workload:
    name: str
    # shapes of one round; the round's order is shuffled by the seed
    shapes: tuple
    make: object

    def rounds(self, seed: int):
        """Endless stream of rounds (lists of Ops) for a seed."""
        index, r = 0, 0
        while True:
            shapes = list(self.shapes)
            random.Random(f"ybqc-bench/{self.name}/{seed}/round{r}") \
                .shuffle(shapes)
            ops = []
            for shape in shapes:
                ops.append(self.make(seed, index, shape))
                index += 1
            yield ops
            r += 1


def _circuit(name, n_sites):
    return lambda seed, index, shape: _circuit_op(name, seed, index,
                                                  n_sites, shape)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "sweep": Workload("sweep", (None,), _sweep_op),
    "circuit2": Workload("circuit2", ((1, 0), (1, 1), (1, 2)),
                         _circuit("circuit2", (2, 1))),
    # one shape: at ~2 s per op a run holds only a few ops, and a median
    # over mixed shapes would jump between them with the seed
    "circuit3": Workload("circuit3", ((1, 2),), _circuit("circuit3", (3, 1))),
    "register4": Workload("register4", ((0, 0),),
                          _circuit("register4", (2, 2))),
}
