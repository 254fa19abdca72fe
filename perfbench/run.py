"""ybqc benchmark: end-to-end scenario runs, output checks, traced layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload circuit3 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload

One op is one `ybqc.scenario.run_scenario` call on a scenario generated
from the seed (the path `ybqc run` takes).  Ops run single-process and
closed-loop, in whole rounds (see workloads.py), until the next round
would end after `--seconds`; at least one round always runs.

`--trace 0` prints the end-to-end metrics: op_s_p50, ops_per_s,
peak_rss_mb, setup_s (error_rate is `failed`/`attempted`).  `--trace 1`
first runs untraced ops for half the time, then traced ops, and prints
the per-layer metrics with the tracing overhead.  The last stdout line is
one JSON object {correct, attempted, failed, metrics}; the lines before
it record the environment and a readable summary.
"""

from __future__ import annotations

import os

# BLAS threads pick the winners: at 2 threads circuit2 runs ~3.5x slower
# and register4 ~1.9x faster than at 1.  Pin them before numpy loads.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import check_outputs, compare_digest, digest_outputs  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

REFERENCE = "reference.json"
# The traced run fails if the named spans' self times cover less than
# half of the ops' wall time: time must not hide outside the layers.
MAX_UNCOVERED = 0.5
SETUP_REPS = 5
SETUP_CODE = ("import time; t = time.perf_counter(); import ybqc; "
              "ybqc.calibrate_hyperfine_A(ybqc.AtomParams()); "
              "print(repr(time.perf_counter() - t))")
END_TO_END = {"op_s_p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
              "setup_s": "s"}
# a tiny scenario touching every pipeline stage, run untimed first so
# that lazy imports and first-call costs stay out of the measured ops
WARMUP = {"pipeline": ["feasibility", "detunings", "levels", "address",
                       "simulate"],
          "lattice": {"n_x": 2, "n_y": 1, "n_z": 1},
          "sweep": {"b_min_gauss": 10.0, "b_max_gauss": 100.0, "steps": 5},
          "seed": 1}
WARMUP_CIRCUIT = "X 0 0 1.0\nCNOT 0 0 1 0\nMEAS 0 0\nMEAS 1 0\n"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup() -> list[float]:
    """Seconds to import ybqc and calibrate, each in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=120)
        if out.returncode != 0:
            fail(f"setup probe failed:\n{out.stderr}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"blas_threads": BLAS_THREADS,
            "thread_env": {v: os.environ[v] for v in THREAD_VARS},
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu}


class Runner:
    """Runs ops of one workload and checks their outputs."""

    def __init__(self, workload: str, seed: int, work: Path,
                 reference: dict):
        import ybqc.scenario
        from ybqc.atomic import AtomParams

        # looked up per call, so the tracer's wrapper is seen
        self.scenario = ybqc.scenario
        self.params = AtomParams()
        self.work = work
        self.rounds = WORKLOADS[workload].rounds(seed)
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.bytes_written: list[int] = []

    def warm_up(self) -> None:
        d = self.work / "warmup"
        d.mkdir(parents=True)
        (d / "circuit.txt").write_text(WARMUP_CIRCUIT)
        (d / "scenario.json").write_text(json.dumps(
            dict(WARMUP, circuit_file="circuit.txt", output_dir="out")))
        self.scenario.run_scenario(d / "scenario.json")

    def run_op(self, op, tracer=None) -> float:
        """Run one op; return its wall time.  Failures are counted."""
        d = self.work / f"op{op.index}"
        path = op.write(d)
        if tracer is not None:
            tracer.op = op.index
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            self.scenario.run_scenario(path)
            elapsed = time.perf_counter() - t0
            texts, problems = check_outputs(op, d / "out", self.params)
            ref = self.reference.get(str(op.index))
            if ref is not None:
                problems += compare_digest(ref, digest_outputs(texts))
            self.bytes_written.append(sum(
                f.stat().st_size for f in (d / "out").iterdir()))
        except Exception as exc:  # an op that raises is a failed op
            elapsed = time.perf_counter() - t0
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print(f"op {op.index} FAILED: {p}", file=sys.stderr)
        shutil.rmtree(d)
        return elapsed

    def run_for(self, seconds: float, tracer=None) -> tuple[list, list]:
        """Whole rounds until the next would end after `seconds`."""
        times, indices = [], []
        start = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            for op in next(self.rounds):
                times.append(self.run_op(op, tracer))
                indices.append(op.index)
            now = time.perf_counter()
            if now - start + (now - t_round) > seconds:
                return times, indices


def summary_line(name, value, unit, note=""):
    return f"  {name:<32} {value:>14.6g} {unit:<9} {note}"


def measure_plain(runner: Runner, args, setup: list[float]):
    """End-to-end metrics, with tracing off."""
    times, _ = runner.run_for(args.seconds)
    metrics = {
        "op_s_p50": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup)}
    notes = {"op_s_p50": f"n={len(times)}", "ops_per_s": f"n={len(times)}",
             "setup_s": f"n={len(setup)}"}
    return metrics, END_TO_END, notes, True


def measure_traced(runner: Runner, args):
    """Per-layer metrics: untraced ops for half the time, then traced."""
    from spans import UNITS, Tracer

    plain, _ = runner.run_for(args.seconds / 2)
    n_before = len(runner.bytes_written)
    tracer = Tracer()
    tracer.install()
    try:
        traced, ops = runner.run_for(args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(ops, runner.bytes_written[n_before:],
                                   plain)
    path = HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(path)
    print(f"# {len(tracer.spans)} spans of {len(traced)} traced ops "
          f"written to {path.relative_to(ROOT)}; metrics are per op")
    covered = metrics["trace.uncovered_share"] <= MAX_UNCOVERED
    if not covered:
        print(f"named spans cover less than {1 - MAX_UNCOVERED:.0%} of "
              "the op time", file=sys.stderr)
    return metrics, UNITS, {}, covered


def run_workload(args) -> int:
    if not (SRC / "ybqc" / "__init__.py").is_file():
        fail(f"no ybqc sources under {SRC}")
    setup = [] if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    import ybqc
    if Path(ybqc.__file__).resolve().parent != (SRC / "ybqc").resolve():
        fail(f"imported ybqc from {ybqc.__file__}, not from {SRC}")

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    reference = {}
    if args.seed == DEFAULT_SEED:
        reference = json.loads((HERE / REFERENCE).read_text())[args.workload]
    runner = Runner(args.workload, args.seed, work, reference)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    try:
        runner.warm_up()
        if args.trace:
            metrics, units, notes, ok = measure_traced(runner, args)
        else:
            metrics, units, notes, ok = measure_plain(runner, args, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    for name, value in metrics.items():
        print(summary_line(name, value, units[name], notes.get(name, "")))
    print(summary_line("error_rate", runner.failed / runner.attempted,
                       "fraction", f"{runner.failed}/{runner.attempted} "
                       "failed/attempted"))
    print(json.dumps({
        "correct": ok and runner.failed == 0,
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True,
                             cwd=ROOT, timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            fail(f"workload {name} exited with {out.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
