"""Scenario files, CSV/JSON emitters, and the deterministic run pipeline.

A scenario is a JSON file selecting a pipeline (feasibility report,
detuning sweep, level sweep, addressing spectrum, circuit simulation) and
its parameters.  Every numeric key names its unit in a suffix, and
unknown keys are rejected, so unit errors fail loudly at load time.  All
artifacts are computed in memory first and written together with a
manifest of SHA-256 content hashes, so a failing pipeline leaves no
partial outputs and reruns are byte-identical.  `scenario_from_dict` reads the parsed object; the CLI
builds one from its flags.  Unknown keys and wrong types raise
ScenarioError, out-of-range values the parameter classes' ConfigError.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .addressing import (GradientConfig, LatticeGeometry, plan_gradients,
                         resonance_map, validate_gradients)
from .atomic import (AtomParams, ladder_detunings, level_labels,
                     zeeman_table)
from .compiler import compile_circuit, execute_schedule
from .constants import GAUSS, CM
from .engine import NoiseParams, PulseSchedule, RegisterState, GM, GP
from .errors import ConfigError, PhysicsError, ScenarioError
from .feasibility import build_feasibility_report, metastable_weights

PIPELINE_STAGES = ("feasibility", "detunings", "levels", "address",
                   "simulate")

# Fields of a level sweep at most: each field writes all ten 3P2 levels,
# so the cap bounds a sweep's CSV at 4000 rows.
LEVEL_SWEEP_MAX_STEPS = 400
# Six sites cost minutes and gigabytes: off-resonant transfer residues
# keep every spectator's 3-photon ladder group live, so blocks reach 4^6.
MAX_ACTIVE_SITES = 5


def _known_fields(section: str, data: dict, allowed) -> None:
    if not isinstance(data, dict):
        raise ScenarioError(f"scenario key '{section}' must be a JSON object")
    for key in data:
        if key not in allowed:
            raise ScenarioError(f"unknown key '{section}.{key}'")


def _read(kind, name: str, value):
    """kind(value) for the scenario key `name`; a bool, a string, a value
    that does not convert, or an int key's value that is not a whole
    number is a ScenarioError naming the key."""
    try:
        if isinstance(value, (bool, str)):
            raise TypeError
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"scenario key '{name}': cannot read {value!r} "
                            f"as {kind.__name__}") from None
    if kind is int and out != value:
        raise ScenarioError(f"scenario key '{name}': {value!r} is not a "
                            "whole number")
    return out


def _path(base: Path, data: dict, key: str, default=None) -> Path:
    value = data.get(key, default)
    if not isinstance(value, str):
        raise ScenarioError(f"scenario key '{key}' must be a path string")
    return base / value


def _read_text(path, kind: str) -> str:
    """The text of the UTF-8 input file `path`; a path that is missing,
    not a regular file or not UTF-8 is a ScenarioError naming the `kind`
    of file and its path."""
    path = Path(path)
    if not path.is_file():
        raise ScenarioError(f"{kind} file {path} is missing or not a "
                            "regular file")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{kind} file {path} is not UTF-8 text "
                            f"(byte {exc.start})") from None


def _params_from_dict(cls, section: str, data: dict):
    """cls(**data) for a parameter dataclass whose fields take numbers."""
    _known_fields(section, data, {f.name for f in fields(cls)})
    for key, value in data.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ScenarioError(f"scenario key '{section}.{key}' must be a "
                                f"number, got {value!r}")
    return cls(**data)


# ---------------------------------------------------------------------------
# atom parameter files

def parse_keyvalue(text: str) -> dict:
    """Parse `key = value` lines; `#` starts a comment."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        try:
            out[key] = float(val)
        except ValueError:
            raise ScenarioError(
                f"line {ln}: value for '{key}' is not a number") from None
    return out


def atom_params_from_dict(data: dict) -> AtomParams:
    return _params_from_dict(AtomParams, "atom", data)


def load_atom_params(path) -> AtomParams:
    """AtomParams from a key-value text file with unit-suffixed keys."""
    text = _read_text(path, "atom_config")
    return atom_params_from_dict(parse_keyvalue(text))


# ---------------------------------------------------------------------------
# CSV emitters

def emit_detuning_curves(params: AtomParams, b_min_gauss: float,
                         b_max_gauss: float, steps: int) -> str:
    """CSV of the ladder detunings Delta1, Delta2 over a field range."""
    if not 0 < b_min_gauss < b_max_gauss < math.inf:
        raise ConfigError("field range requires 0 < B_min < B_max < inf")
    if steps < 2:
        raise ConfigError("a sweep needs at least 2 steps")
    b = np.linspace(b_min_gauss, b_max_gauss, steps)
    det = ladder_detunings(params, b * GAUSS)
    lines = ["B_gauss,delta1_hz,delta2_hz"]
    lines += [f"{bg!r},{d1!r},{d2!r}" for bg, d1, d2 in zip(
        b.tolist(), (det.delta1_rad_s / (2 * math.pi)).tolist(),
        (det.delta2_rad_s / (2 * math.pi)).tolist())]
    return "\n".join(lines) + "\n"


def emit_level_sweep(params: AtomParams, b_min_gauss: float,
                     b_max_gauss: float, steps: int) -> str:
    """CSV of all 3P2 Zeeman level energies at min(steps,
    LEVEL_SWEEP_MAX_STEPS) fields over a field range."""
    if not 0 <= b_min_gauss < b_max_gauss < math.inf:
        raise ConfigError("field range requires 0 <= B_min < B_max < inf")
    if steps < 2:
        raise ConfigError("a sweep needs at least 2 steps")
    b = np.linspace(b_min_gauss, b_max_gauss,
                    min(steps, LEVEL_SWEEP_MAX_STEPS))
    energy = zeeman_table(params, b * GAUSS)[0]
    tags = [f",{m_F!r},{branch}," for m_F, branch in level_labels(params)]
    lines = ["B_gauss,m_F,branch,energy_hz"]
    lines += [f"{bg}{tag}{e!r}"
              for bg, column in zip(map(repr, b.tolist()), energy.T.tolist())
              for tag, e in zip(tags, column)]
    return "\n".join(lines) + "\n"


def emit_addressing_spectrum(geom: LatticeGeometry, config: GradientConfig,
                             params: AtomParams) -> str:
    """CSV comb of the addressed resonances, one row per site of the
    addressed z = 0 layer, sorted by frequency: columns i, j, B_gauss,
    f_offset_hz."""
    rmap = resonance_map(geom, config, params)
    lines = ["i,j,B_gauss,f_offset_hz"]
    lines += [f"{i},{j},{B!r},{f!r}" for i, j, B, f in zip(
        rmap.sites[:, 0].tolist(), rmap.sites[:, 1].tolist(),
        (rmap.fields_t / GAUSS).tolist(), rmap.freqs_hz.tolist())]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# schedule / result serialization

def schedule_to_json(schedule: PulseSchedule) -> str:
    segs = []
    for seg, weight in zip(schedule.segments, metastable_weights(schedule)):
        c, p = seg.config, seg.pulse
        segs.append({
            "transition": p.transition,
            "duration_s": p.duration_s,
            "rabi_rad_s": p.rabi_rad_s,
            "detuning_rad_s": p.detuning_rad_s,
            "phase_rad": 0.0,       # every drive has phase 0
            "target": list(p.target[1]) if p.target[0] == "site"
            else list(p.target),
            "target_kind": p.target[0],
            "metastable_weight": weight,
            "gradients": {"B0_t": c.B0_t, "Gx_t_per_m": c.Gx_t_per_m,
                          "Gy_t_per_m": c.Gy_t_per_m,
                          "Gz_t_per_m": c.Gz_t_per_m},
        })
    return json.dumps({"n_atoms": len(schedule.sites),
                       "total_duration_s": schedule.total_duration_s,
                       "segments": segs}, indent=2)


# ---------------------------------------------------------------------------
# scenario loading

@dataclass(frozen=True)
class Scenario:
    pipeline: tuple[str, ...]
    params: AtomParams
    geom: LatticeGeometry
    gradients: GradientConfig     # B0 and safety factor of a planned gap
    target_gap_hz: float | None   # None: the gradients as given
    noise: NoiseParams
    circuit_text: str | None
    initial_ones: tuple[tuple[int, int, int], ...]
    seed: int | None
    sweep_min_gauss: float
    sweep_max_gauss: float
    sweep_steps: int
    depth_recoils: float
    dipole_scale: float
    output_dir: Path


def load_scenario(path) -> Scenario:
    try:
        data = json.loads(_read_text(path, "scenario"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path}: invalid JSON: {exc}")
    return scenario_from_dict(data, Path(path).parent)


def scenario_from_dict(data, base_dir: Path) -> Scenario:
    """The scenario of a parsed JSON object; its file keys are paths
    relative to `base_dir`."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be a JSON object")

    allowed_top = {"pipeline", "atom", "atom_config", "lattice", "gradients",
                   "noise", "circuit_file", "initial_ones", "seed", "sweep",
                   "depth_recoils", "dipole_scale", "output_dir"}
    _known_fields("<root>", data, allowed_top)

    pipeline = data.get("pipeline", ["feasibility"])
    if not isinstance(pipeline, list):
        raise ScenarioError("scenario key 'pipeline' must be a list of stages")
    for stage in pipeline:
        if stage not in PIPELINE_STAGES:
            raise ScenarioError(f"unknown pipeline stage '{stage}'")

    if "atom" in data and "atom_config" in data:
        raise ScenarioError("give either 'atom' or 'atom_config', not both")
    if "atom_config" in data:
        params = load_atom_params(_path(base_dir, data, "atom_config"))
    else:
        params = atom_params_from_dict(data.get("atom", {}))

    lat = data.get("lattice", {})
    _known_fields("lattice", lat, {"n_x", "n_y", "n_z", "spacing_m"})
    geom = LatticeGeometry(
        _read(int, "lattice.n_x", lat.get("n_x", 10)),
        _read(int, "lattice.n_y", lat.get("n_y", 10)),
        _read(int, "lattice.n_z", lat.get("n_z", 1)),
        _read(float, "lattice.spacing_m", lat.get("spacing_m", 266e-9)))

    grad = data.get("gradients", {})
    _known_fields("gradients", grad,
                  {"B0_gauss", "Gx_g_per_cm", "Gy_g_per_cm", "Gz_g_per_cm",
                   "safety_factor", "target_gap_hz"})
    g = {key: _read(float, f"gradients.{key}", value)
         for key, value in grad.items()}
    target_gap_hz = None if any(k.startswith("G") for k in g) \
        else g.get("target_gap_hz", 1000.0)
    gradients = GradientConfig(
        g.get("B0_gauss", 100.0) * GAUSS,
        g.get("Gx_g_per_cm", 0.0) * GAUSS / CM,
        g.get("Gy_g_per_cm", 0.0) * GAUSS / CM,
        g.get("Gz_g_per_cm", 0.0) * GAUSS / CM,
        g.get("safety_factor", 10.0))

    noise = _params_from_dict(NoiseParams, "noise", data.get("noise", {}))

    circuit_text = None
    if "circuit_file" in data:
        circuit_text = _read_text(_path(base_dir, data, "circuit_file"),
                                  "circuit")
    if "simulate" in pipeline and circuit_text is None:
        raise ScenarioError("pipeline stage 'simulate' requires "
                            "'circuit_file'")

    ones = data.get("initial_ones", [])
    if not (isinstance(ones, list)
            and all(isinstance(s, list) for s in ones)):
        raise ScenarioError("initial_ones entries must be [i, j, k]")
    ones = tuple(tuple(_read(int, "initial_ones", v) for v in s)
                 for s in ones)
    for site in ones:
        if len(site) != 3:
            raise ScenarioError(f"initial one {site} must be [i, j, k]")

    sweep = data.get("sweep", {})
    _known_fields("sweep", sweep, {"b_min_gauss", "b_max_gauss", "steps"})

    seed = data.get("seed")
    return Scenario(
        tuple(pipeline), params, geom, gradients, target_gap_hz, noise,
        circuit_text, ones, None if seed is None else _read(int, "seed", seed),
        _read(float, "sweep.b_min_gauss", sweep.get("b_min_gauss", 10.0)),
        _read(float, "sweep.b_max_gauss", sweep.get("b_max_gauss", 20000.0)),
        _read(int, "sweep.steps", sweep.get("steps", 2000)),
        _read(float, "depth_recoils", data.get("depth_recoils", 50.0)),
        _read(float, "dipole_scale", data.get("dipole_scale", 1.0)),
        _path(base_dir, data, "output_dir", "out"))


# ---------------------------------------------------------------------------
# pipeline

def resolve_gradients(scn: Scenario) -> GradientConfig:
    """The scenario's gradients: as given, or planned for its target gap."""
    if scn.target_gap_hz is None:
        return scn.gradients
    return plan_gradients(scn.geom, scn.target_gap_hz, scn.params,
                          scn.gradients.B0_t, scn.gradients.safety_factor)


def simulate_circuit(circuit_text: str, geom: LatticeGeometry,
                     params: AtomParams, config: GradientConfig,
                     noise: NoiseParams, seed: int | None, initial_ones=(),
                     dipole_scale: float = 1.0):
    """Compile a circuit under the gradients `config` and run it through
    the pulse engine; return the schedule and the execution result."""
    schedule = compile_circuit(circuit_text, geom, params, config, noise)
    sites = list(schedule.sites)
    if not sites:
        raise ConfigError("circuit addresses no sites")
    if len(sites) > MAX_ACTIVE_SITES:
        raise ConfigError(
            f"{len(sites)} active sites exceed the state-vector limit of "
            f"{MAX_ACTIVE_SITES}")
    ones = {tuple(s) for s in initial_ones}
    stray = sorted(ones - set(sites))
    if stray:
        raise ConfigError(f"initial one {stray[0]} is not an active site of "
                          f"the circuit {sites}")
    reg = RegisterState.product([GP if s in ones else GM for s in sites])
    result = execute_schedule(reg, schedule, noise, rng_seed=seed,
                              dipole_scale=dipole_scale)
    return schedule, result


def result_to_json(schedule: PulseSchedule, result) -> str:
    reg, det = result.register, result.detection
    payload = {
        "outcomes": [{"site": list(site), "bit": bit}
                     for site, bit, _ in result.readouts],
        "survival": reg.survival,
        "leaked": reg.leaked,
        "total_duration_s": schedule.total_duration_s,
        "detection": [{"site": list(site),
                       "probability_one": p1,
                       "n_scattered": det.n_scattered,
                       "fluorescence_survival": det.fluorescence_survival,
                       "branching_loss_flag": det.branching_loss_flag}
                      for site, _, p1 in result.readouts],
    }
    return json.dumps(payload, indent=2)


def build_stage(scn: Scenario, stage: str) -> dict[str, str]:
    """Run one pipeline stage; return its {filename: content} without
    touching the filesystem."""
    if stage == "feasibility":
        rep = build_feasibility_report(scn.params, scn.geom,
                                       scn.depth_recoils)
        return {"feasibility.json": rep.to_json() + "\n"}
    if stage == "detunings":
        return {"detunings.csv": emit_detuning_curves(
            scn.params, scn.sweep_min_gauss, scn.sweep_max_gauss,
            scn.sweep_steps)}
    if stage == "levels":
        return {"levels.csv": emit_level_sweep(
            scn.params, scn.sweep_min_gauss, scn.sweep_max_gauss,
            scn.sweep_steps)}
    if stage == "address":
        config = resolve_gradients(scn)
        report = validate_gradients(scn.geom, config)
        if not report.unique_ok:
            raise PhysicsError(f"gradients leave sites degenerate: "
                               f"{report.colliding_pair}")
        return {"spectrum.csv": emit_addressing_spectrum(scn.geom, config,
                                                         scn.params),
                "addressing_report.json": json.dumps({
                    "eq1_ok": report.eq1_ok, "unique_ok": report.unique_ok,
                    "min_field_diff_t": report.min_field_diff_t,
                    "bias_ok": report.bias_ok,
                    "field_range_t": report.field_range_t}, indent=2) + "\n"}
    schedule, result = simulate_circuit(      # the "simulate" stage
        scn.circuit_text, scn.geom, scn.params, resolve_gradients(scn),
        scn.noise, scn.seed, scn.initial_ones, scn.dipole_scale)
    return {"schedule.json": schedule_to_json(schedule) + "\n",
            "result.json": result_to_json(schedule, result) + "\n"}


def build_artifacts(scn: Scenario) -> dict[str, str]:
    """Run every pipeline stage; return {filename: content} without
    touching the filesystem."""
    artifacts: dict[str, str] = {}
    for stage in scn.pipeline:
        artifacts.update(build_stage(scn, stage))
    return artifacts


def write_artifacts(artifacts: dict[str, str], out_dir: Path) -> dict:
    out_dir = Path(out_dir)
    hashes = {name: hashlib.sha256(text.encode()).hexdigest()
              for name, text in sorted(artifacts.items())}
    manifest = {"files": hashes}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts.items():
            (out_dir / name).write_text(text)
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write outputs to {out_dir}: "
                          f"{exc.strerror or exc}") from exc
    return manifest


def run_scenario(path) -> dict:
    """Execute a scenario file; returns the output manifest.

    All artifacts are built before anything is written, so a failure
    leaves no partial outputs.
    """
    scn = load_scenario(path)
    artifacts = build_artifacts(scn)
    return write_artifacts(artifacts, scn.output_dir)
