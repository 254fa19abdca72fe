"""Output checks for one benchmark op.

Every op is checked on any seed against invariants that hold for correct
physics whatever the implementation:

* the manifest's SHA-256 hashes match the files written;
* sweep: the addressing report is unique/feasible, the written comb has
  one row per site with a gap of at least the requested target, every
  2x2 m_F block of the level sweep has the closed-form trace and
  determinant, and the detuning curve agrees with the level sweep at the
  shared end points;
* circuits: survival + leaked = 1 to 1e-9, outcomes follow the MEAS
  order, and the joint probability of the sampled history and each
  reported `probability_one` is close to an ideal-qubit oracle that
  follows the sampled outcomes.

At the default seed the first ops are also compared with digests recorded
at a known-good commit (`reference.json`, written by
`record_reference.py`) to a relative tolerance of 1e-6.  Survival and
leaked of measured circuits are deliberately not pinned: they depend on
how measurement books pre-measurement loss, which is expected to change.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

REF_RTOL = 1e-6
NORM_TOL = 1e-9
# Largest |P(history, 1) - ideal| allowed at a measurement: a base for
# transfer and 3-photon errors, plus a budget per CNOT in the circuit.
# The first measurement reports survival x conditional probability, and
# survival drops fast during CNOTs (to 0.73 after the two CNOTs of one
# 0.6 s circuit).  Measured deviations reach ~0.04 with no CNOT, ~0.17
# with one and ~0.36 with two (4500 random 2-site and 72 random 3-site
# circuits).  A wrong site, level or angle still shows on CNOT-free ops,
# and a CNOT with control and target swapped fails a quarter of the
# 2-site ops.
ORACLE_TOL = 0.08
ORACLE_TOL_PER_CNOT = 0.25
# Result fields that measurement bookkeeping is expected to change.
UNPINNED = {"result.json": ("survival", "leaked")}


def read_outputs(out_dir: Path) -> tuple[dict, list[str]]:
    """Texts of every artifact named in the manifest, and hash problems."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    texts, problems = {}, []
    for name, digest in manifest["files"].items():
        text = (out_dir / name).read_text()
        if hashlib.sha256(text.encode()).hexdigest() != digest:
            problems.append(f"{name}: content does not match manifest hash")
        texts[name] = text
    return texts, problems


def _columns(text: str) -> dict[str, list]:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    cols = {}
    for k, name in enumerate(header):
        raw = [r[k] for r in body]
        try:
            cols[name] = [float(v) for v in raw]
        except ValueError:
            cols[name] = raw
    return cols


# ---------------------------------------------------------------------------
# invariants

def _check_sweep(op, texts: dict, params) -> list[str]:
    from ybqc.constants import h, mu_B, mu_N

    problems = []
    expected = {"feasibility.json", "detunings.csv", "levels.csv",
                "spectrum.csv", "addressing_report.json"}
    if set(texts) != expected:
        return [f"artifacts {sorted(texts)} != {sorted(expected)}"]

    report = json.loads(texts["addressing_report.json"])
    for key in ("eq1_ok", "unique_ok", "bias_ok"):
        if report[key] is not True:
            problems.append(f"addressing_report.{key} is {report[key]}")

    lat = op.scenario["lattice"]
    spec = _columns(texts["spectrum.csv"])
    sites = set(zip(spec["i"], spec["j"]))
    if len(spec["i"]) != lat["n_x"] * lat["n_y"] \
            or len(sites) != len(spec["i"]):
        problems.append("spectrum.csv does not list each site once")
    f = spec["f_offset_hz"]
    gap = min(b - a for a, b in zip(f, f[1:]))
    if not gap >= op.target_gap_hz * (1 - 1e-9):
        problems.append(f"comb gap {gap:.3f} Hz below target "
                        f"{op.target_gap_hz:.3f} Hz")

    # 3P2 Zeeman blocks: m_F = m_J + m_I; the 2x2 blocks have
    # trace d1 + d2 and determinant d1 d2 - off^2 in closed form.
    A = params.hyperfine_A_3P2_hz
    gJ, gI, J = params.g_J_3P2, params.g_I, float(params.electronic_J_3P2)

    def diag(mJ, mI, B):
        return A * mJ * mI + (gJ * mu_B * mJ - gI * mu_N * mI) * B / h

    lev = _columns(texts["levels.csv"])
    sw = op.scenario["sweep"]
    n_b = min(sw["steps"], 400)
    if len(lev["B_gauss"]) != 10 * n_b:
        problems.append(f"levels.csv has {len(lev['B_gauss'])} rows, "
                        f"expected {10 * n_b}")
        return problems
    worst = 0.0
    energies = {}
    for row in range(0, len(lev["B_gauss"]), 10):
        B = lev["B_gauss"][row] * 1e-4
        blocks = {}
        for k in range(row, row + 10):
            blocks.setdefault(lev["m_F"][k], {})[lev["branch"][k]] = \
                lev["energy_hz"][k]
        energies[lev["B_gauss"][row]] = blocks
        for m_F, branches in blocks.items():
            states = [(m_F - mI, mI) for mI in (-0.5, 0.5)
                      if abs(m_F - mI) <= J]
            if len(states) == 1:
                want = [diag(*states[0], B)]
                got = list(branches.values())
            else:
                (mJ1, mI1), (mJ2, mI2) = states
                d1, d2 = diag(mJ1, mI1, B), diag(mJ2, mI2, B)
                off2 = (A / 2) ** 2 * (J * (J + 1) - mJ1 * (mJ1 - 1))
                lo, hi = branches.get("lower"), branches.get("upper")
                if lo is None or hi is None:
                    problems.append(f"m_F={m_F} block misses a branch")
                    continue
                scale = abs(d1) + abs(d2) + math.sqrt(off2)
                want = [(d1 + d2) / scale, (d1 * d2 - off2) / scale ** 2]
                got = [(lo + hi) / scale, lo * hi / scale ** 2]
            for w, g in zip(want, got):
                worst = max(worst, abs(w - g) / max(abs(w), 1.0))
    if worst > 1e-9:
        problems.append(f"level sweep breaks the closed-form block "
                        f"invariants by {worst:.2e}")

    # detuning curve at the shared end points of both sweeps
    det = _columns(texts["detunings.csv"])
    if len(det["B_gauss"]) != sw["steps"]:
        problems.append("detunings.csv row count != sweep steps")
    for k in (0, -1):
        blocks = energies.get(det["B_gauss"][k])
        if blocks is None:
            problems.append("detuning and level sweeps do not share "
                            "their end points")
            continue
        branch = "lower" if A >= 0 else "upper"
        a, b, c, d = (blocks[m][branch] for m in (-1.5, -0.5, 0.5, 1.5))
        w0 = (d - a) / 3
        for got, want in ((det["delta1_hz"][k], (b - a) - w0),
                          (det["delta2_hz"][k], (d - c) - w0)):
            if abs(got - want) > 1e-6 * max(abs(want), abs(d - a)):
                problems.append(f"detuning {got!r} Hz at B="
                                f"{det['B_gauss'][k]!r} G disagrees with "
                                f"the level sweep ({want!r} Hz)")
    return problems


def _oracle_problems(op, result: dict) -> list[str]:
    """Follow the sampled outcomes with ideal qubits; compare P(1).

    Each `probability_one` is conditional on the outcomes before it, and
    conditioning on a history of probability q divides the gate errors
    by q: after a 3% branch, a 1.5% CNOT error reads as 50%.  So the
    check compares joint probabilities, P(history so far, bit = 1), which
    the gate errors bound in absolute terms whatever the history.
    """
    index = {s: k for k, s in enumerate(op.sites)}
    start = tuple(1 if s in op.initial_ones else 0 for s in op.sites)
    dist = {start: 1.0}     # ideal joint P(bits, sampled history)
    history = 1.0           # reported P(sampled history)
    problems = []
    meas = [g[1] for g in op.gates if g[0] == "MEAS"]
    got_sites = [tuple(o["site"][:2]) for o in result["outcomes"]]
    if got_sites != meas:
        return [f"outcome sites {got_sites} != MEAS order {meas}"]
    outcomes = iter(result["outcomes"])
    reports = iter(result["detection"])
    tol = ORACLE_TOL + ORACLE_TOL_PER_CNOT * sum(
        1 for g in op.gates if g[0] == "CNOT")
    for gate in op.gates:
        new = {}
        if gate[0] == "X":
            k, p_flip = index[gate[1]], math.sin(gate[2] / 2) ** 2
            for bits, p in dist.items():
                flipped = bits[:k] + (1 - bits[k],) + bits[k + 1:]
                new[bits] = new.get(bits, 0.0) + p * (1 - p_flip)
                new[flipped] = new.get(flipped, 0.0) + p * p_flip
        elif gate[0] == "CNOT":
            c, t = index[gate[1]], index[gate[2]]
            for bits, p in dist.items():
                if bits[c]:
                    bits = bits[:t] + (1 - bits[t],) + bits[t + 1:]
                new[bits] = new.get(bits, 0.0) + p
        else:
            k = index[gate[1]]
            bit = next(outcomes)["bit"]
            p_one = next(reports)["probability_one"]
            ideal = sum(p for b, p in dist.items() if b[k])
            if abs(history * p_one - ideal) > tol:
                problems.append(f"MEAS {gate[1]}: P(history, 1) "
                                f"{history * p_one:.4f} vs ideal "
                                f"{ideal:.4f}")
            history *= p_one if bit else 1 - p_one
            new = {b: p for b, p in dist.items() if b[k] == bit}
        dist = new
    return problems


def _check_circuit(op, texts: dict) -> list[str]:
    expected = {"schedule.json", "result.json"}
    if set(texts) != expected:
        return [f"artifacts {sorted(texts)} != {sorted(expected)}"]
    problems = []
    result = json.loads(texts["result.json"])
    if abs(result["survival"] + result["leaked"] - 1.0) > NORM_TOL:
        problems.append(f"survival {result['survival']!r} + leaked "
                        f"{result['leaked']!r} != 1")
    schedule = json.loads(texts["schedule.json"])
    if schedule["n_atoms"] != len(op.sites):
        problems.append(f"schedule n_atoms {schedule['n_atoms']} != "
                        f"{len(op.sites)}")
    for o in result["outcomes"]:
        if o["bit"] not in (0, 1):
            problems.append(f"outcome bit {o['bit']!r}")
    for r in result["detection"]:
        if not -1e-12 <= r["probability_one"] <= 1 + 1e-9:
            problems.append(f"probability_one {r['probability_one']!r}")
    return problems + _oracle_problems(op, result)


def check_outputs(op, out_dir: Path, params) -> tuple[dict, list[str]]:
    """(texts, problems) for the artifacts of one op."""
    texts, problems = read_outputs(out_dir)
    if op.workload == "sweep":
        problems += _check_sweep(op, texts, params)
    else:
        problems += _check_circuit(op, texts)
    return texts, problems


# ---------------------------------------------------------------------------
# reference digests

def _flatten(value, path="", skip=()):
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if k not in skip:
                out.update(_flatten(v, f"{path}.{k}" if path else k, skip))
        return out
    if isinstance(value, list):
        out = {f"{path}#len": len(value)}
        for k, v in enumerate(value):
            out.update(_flatten(v, f"{path}[{k}]", skip))
        return out
    return {path: value}


def _csv_digest(text: str, samples: int = 17) -> dict:
    cols = _columns(text)
    digest = {}
    for name, vals in cols.items():
        n = len(vals)
        picks = sorted({round(k * (n - 1) / (samples - 1))
                        for k in range(samples)}) if n else []
        if vals and isinstance(vals[0], float):
            digest[name] = {
                "rows": n, "sum": math.fsum(vals),
                "abs": math.fsum(abs(v) for v in vals),
                "min": min(vals), "max": max(vals),
                "sample": [vals[k] for k in picks]}
        else:
            digest[name] = {"rows": n, "sha256": hashlib.sha256(
                "\n".join(vals).encode()).hexdigest()}
    return digest


def digest_outputs(texts: dict) -> dict:
    """Compact, tolerance-comparable summary of an op's artifacts."""
    out = {}
    for name, text in sorted(texts.items()):
        if name.endswith(".csv"):
            out[name] = _csv_digest(text)
        else:
            out[name] = _flatten(json.loads(text),
                                 skip=UNPINNED.get(name, ()))
    return out


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REF_RTOL * max(abs(a), abs(b), scale)


def compare_digest(ref: dict, new: dict) -> list[str]:
    problems = []
    for name in sorted(set(ref) | set(new)):
        if name not in ref or name not in new:
            problems.append(f"{name}: present in only one of reference "
                            "and output")
            continue
        r, n = ref[name], new[name]
        if set(r) != set(n):
            problems.append(f"{name}: fields differ from the reference")
            continue
        for key in r:
            rv, nv = r[key], n[key]
            if name.endswith(".csv"):
                # mean |x| of the column sets the scale of near-zero values
                scale = rv.get("abs", 0.0) / max(rv["rows"], 1)
                flat_r, flat_n = _flatten(rv), _flatten(nv)
            else:
                scale, flat_r, flat_n = 0.0, {"": rv}, {"": nv}
            for sub in flat_r:
                a, b = flat_r[sub], flat_n.get(sub)
                sub_scale = rv["abs"] if sub == "sum" else scale
                same = (isinstance(a, float) and isinstance(b, (int, float))
                        and not isinstance(b, bool)
                        and _close(a, b, sub_scale)) or a == b
                if not same:
                    problems.append(f"{name}:{key}{sub and '.' + sub}: "
                                    f"{b!r} != reference {a!r}")
    return problems
