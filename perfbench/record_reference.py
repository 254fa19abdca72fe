"""Record reference digests of the first ops at the default seed.

    python3 perfbench/record_reference.py [workload ...]

Runs the first round(s) of each workload at DEFAULT_SEED, requires every
invariant check to pass, and writes the digests to reference.json.
`run.py` compares the same ops against them on every default-seed run.
Re-record only for a deliberate change of physics, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # pins BLAS threads before numpy is imported
from workloads import DEFAULT_SEED, WORKLOADS

# circuit2 ops take ~50 ms: pin a few rounds of them
ROUNDS = {"circuit2": 3}


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(run.SRC))
    import checks
    from ybqc.atomic import AtomParams
    from ybqc.scenario import run_scenario

    path = run.HERE / run.REFERENCE
    reference = json.loads(path.read_text()) if path.is_file() else {}
    work = run.HERE / ".work" / "reference"
    params = AtomParams()
    try:
        for name in argv or list(WORKLOADS):
            rounds = WORKLOADS[name].rounds(DEFAULT_SEED)
            reference[name] = {}
            for _ in range(ROUNDS.get(name, 1)):
                for op in next(rounds):
                    d = work / f"{name}-{op.index}"
                    run_scenario(op.write(d))
                    texts, problems = checks.check_outputs(op, d / "out",
                                                           params)
                    if problems:
                        raise SystemExit(f"{name} op {op.index}: {problems}")
                    reference[name][str(op.index)] = \
                        checks.digest_outputs(texts)
                    print(f"recorded {name} op {op.index}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
