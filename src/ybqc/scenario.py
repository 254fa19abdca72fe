"""Scenario files, CSV/JSON emitters, and the deterministic run pipeline.

A scenario is a JSON file selecting a pipeline (feasibility report,
detuning sweep, level sweep, addressing spectrum, circuit simulation) and
its parameters.  Every numeric key carries an explicit unit suffix so
unit errors fail loudly at load time.  All artifacts are computed in
memory first and written together with a manifest of SHA-256 content
hashes, so a failing pipeline leaves no partial outputs and reruns are
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .addressing import (GradientConfig, LatticeGeometry, plan_gradients,
                         resonance_map, validate_gradients)
from .atomic import AtomParams, three_photon_detunings, zeeman_spectrum
from .compiler import compile_circuit, execute_schedule
from .constants import GAUSS, CM
from .engine import NoiseParams, PulseSchedule, RegisterState, GM, GP
from .errors import ConfigError, ScenarioError
from .feasibility import build_feasibility_report

PIPELINE_STAGES = ("feasibility", "detunings", "levels", "address",
                   "simulate")

# Keys whose values are dimensionless counts/fractions and legitimately
# carry no unit suffix.
_UNITLESS_OK = {"n_x", "n_y", "n_z", "steps", "seed", "safety_factor",
                "depth_recoils", "nuclear_spin", "nuclear_moment_mu_n",
                "electronic_J_3P2", "g_J_3P2", "linear_zeeman",
                "branching_1P1_to_3D", "dipole_scale"}
_UNIT_SUFFIXES = ("_hz", "_rad_s", "_s", "_m", "_kg", "_t", "_t_per_m",
                  "_gauss", "_g_per_cm", "_uk")
# Six sites cost minutes and gigabytes: off-resonant transfer residues
# keep every spectator's 3-photon ladder group live, so blocks reach 4^6.
MAX_ACTIVE_SITES = 5


def _check_unit_key(section: str, key: str, value) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return
    if key in _UNITLESS_OK or key.endswith(_UNIT_SUFFIXES):
        return
    raise ScenarioError(
        f"scenario key '{section}.{key}' is numeric but carries no "
        "recognized unit suffix")


def _known_fields(section: str, data: dict, allowed) -> None:
    if not isinstance(data, dict):
        raise ScenarioError(f"scenario key '{section}' must be a JSON object")
    for key in data:
        if key not in allowed:
            raise ScenarioError(f"unknown key '{section}.{key}'")
        _check_unit_key(section, key, data[key])


def _read(kind, name: str, value):
    """kind(value) for the scenario key `name`; a value that does not
    convert is a ScenarioError naming the key."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"scenario key '{name}': cannot read {value!r} "
                            f"as {kind.__name__}") from None


def _path(base: Path, data: dict, key: str, default=None) -> Path:
    value = data.get(key, default)
    if not isinstance(value, str):
        raise ScenarioError(f"scenario key '{key}' must be a path string")
    return base / value


def _params_from_dict(cls, section: str, data: dict):
    """cls(**data) for a parameter dataclass whose non-bool fields take
    numbers."""
    fields = cls.__dataclass_fields__
    _known_fields(section, data, fields)
    for key, value in data.items():
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number or isinstance(fields[key].default, bool)):
            raise ScenarioError(f"scenario key '{section}.{key}' must be a "
                                f"number, got {value!r}")
    try:
        return cls(**data)
    except ConfigError as exc:
        raise ScenarioError(str(exc)) from exc


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
        if val.lower() in ("true", "false"):
            out[key] = val.lower() == "true"
        else:
            try:
                out[key] = float(val)
            except ValueError:
                raise ScenarioError(
                    f"line {ln}: value for '{key}' is not a number or bool")
    return out


def atom_params_from_dict(data: dict) -> AtomParams:
    return _params_from_dict(AtomParams, "atom", data)


def load_atom_params(path) -> AtomParams:
    """AtomParams from a key-value text file with unit-suffixed keys."""
    text = Path(path).read_text()
    return atom_params_from_dict(parse_keyvalue(text))


# ---------------------------------------------------------------------------
# CSV emitters

def emit_detuning_curves(params: AtomParams, b_min_gauss: float,
                         b_max_gauss: float, steps: int) -> str:
    """CSV of the ladder detunings Delta1, Delta2 over a field range."""
    if not 0 < b_min_gauss < b_max_gauss:
        raise ConfigError("field range requires 0 < B_min < B_max")
    if steps < 2:
        raise ConfigError("a sweep needs at least 2 steps")
    lines = ["B_gauss,delta1_hz,delta2_hz"]
    for b in np.linspace(b_min_gauss, b_max_gauss, steps):
        det = three_photon_detunings(params, float(b) * GAUSS)
        lines.append(f"{float(b)!r},{det.delta1_rad_s / (2 * math.pi)!r},"
                     f"{det.delta2_rad_s / (2 * math.pi)!r}")
    return "\n".join(lines) + "\n"


def emit_level_sweep(params: AtomParams, b_min_gauss: float,
                     b_max_gauss: float, steps: int) -> str:
    """CSV of all 3P2 Zeeman level energies over a field range."""
    if not 0 <= b_min_gauss < b_max_gauss:
        raise ConfigError("field range requires 0 <= B_min < B_max")
    if steps < 2:
        raise ConfigError("a sweep needs at least 2 steps")
    lines = ["B_gauss,m_F,branch,energy_hz"]
    for b in np.linspace(b_min_gauss, b_max_gauss, steps):
        spec = zeeman_spectrum(params, float(b) * GAUSS)
        for lv in spec.levels:
            lines.append(f"{float(b)!r},{lv.m_F!r},{lv.branch},"
                         f"{lv.energy_hz!r}")
    return "\n".join(lines) + "\n"


def emit_addressing_spectrum(geom: LatticeGeometry, config: GradientConfig,
                             params: AtomParams, layer: int = 0) -> str:
    """CSV comb of the addressed resonances, one row per site, sorted by
    frequency: columns i, j, B_gauss, f_offset_hz."""
    rmap = resonance_map(geom, config, params, layer=layer)
    rows = sorted(((f, B, s) for s, (B, f) in rmap.entries.items()),
                  key=lambda r: (r[0], r[2]))
    lines = ["i,j,B_gauss,f_offset_hz"]
    for f, B, (i, j, _k) in rows:
        lines.append(f"{i},{j},{float(B) / GAUSS!r},{float(f)!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# schedule / result serialization

def schedule_to_json(schedule: PulseSchedule) -> str:
    segs = []
    for seg in schedule.segments:
        c, p = seg.config, seg.pulse
        segs.append({
            "transition": p.transition,
            "duration_s": p.duration_s,
            "rabi_rad_s": p.rabi_rad_s,
            "detuning_rad_s": p.detuning_rad_s,
            "phase_rad": p.phase_rad,
            "target": list(p.target[1]) if p.target[0] == "site"
            else list(p.target),
            "target_kind": p.target[0],
            "metastable_weight": p.metastable_weight,
            "gradients": {"B0_t": c.B0_t, "Gx_t_per_m": c.Gx_t_per_m,
                          "Gy_t_per_m": c.Gy_t_per_m,
                          "Gz_t_per_m": c.Gz_t_per_m},
        })
    return json.dumps({"n_atoms": schedule.n_atoms,
                       "total_duration_s": schedule.total_duration_s,
                       "segments": segs}, indent=2)


# ---------------------------------------------------------------------------
# scenario loading

@dataclass(frozen=True)
class Scenario:
    pipeline: tuple[str, ...]
    params: AtomParams
    geom: LatticeGeometry
    gradients: GradientConfig | None   # None -> plan from target gap
    target_gap_hz: float
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
    path = Path(path)
    if not path.is_file():
        raise ScenarioError(f"scenario file {path} does not exist")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path}: invalid JSON: {exc}")
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
        cfg_path = _path(path.parent, data, "atom_config")
        if not cfg_path.is_file():
            raise ScenarioError(f"atom_config file {cfg_path} does not exist")
        params = load_atom_params(cfg_path)
    else:
        params = atom_params_from_dict(data.get("atom", {}))

    lat = data.get("lattice", {})
    _known_fields("lattice", lat, {"n_x", "n_y", "n_z", "spacing_m"})
    try:
        geom = LatticeGeometry(
            _read(int, "lattice.n_x", lat.get("n_x", 10)),
            _read(int, "lattice.n_y", lat.get("n_y", 10)),
            _read(int, "lattice.n_z", lat.get("n_z", 1)),
            _read(float, "lattice.spacing_m", lat.get("spacing_m", 266e-9)))
    except ConfigError as exc:
        raise ScenarioError(str(exc)) from exc

    grad = data.get("gradients", {})
    _known_fields("gradients", grad,
                  {"B0_gauss", "Gx_g_per_cm", "Gy_g_per_cm", "Gz_g_per_cm",
                   "safety_factor", "target_gap_hz"})
    g = {key: _read(float, f"gradients.{key}", value)
         for key, value in grad.items()}
    target_gap_hz = g.pop("target_gap_hz", 1000.0)
    gradients = None
    if any(k.startswith("G") for k in g):
        try:
            gradients = GradientConfig(
                g.get("B0_gauss", 100.0) * GAUSS,
                g.get("Gx_g_per_cm", 0.0) * GAUSS / CM,
                g.get("Gy_g_per_cm", 0.0) * GAUSS / CM,
                g.get("Gz_g_per_cm", 0.0) * GAUSS / CM,
                g.get("safety_factor", 10.0))
        except ConfigError as exc:
            raise ScenarioError(str(exc)) from exc

    noise = _params_from_dict(NoiseParams, "noise", data.get("noise", {}))

    circuit_text = None
    if "circuit_file" in data:
        cpath = _path(path.parent, data, "circuit_file")
        if not cpath.is_file():
            raise ScenarioError(f"circuit file {cpath} does not exist")
        circuit_text = cpath.read_text()
    if "simulate" in pipeline and circuit_text is None:
        raise ScenarioError("pipeline stage 'simulate' requires "
                            "'circuit_file'")

    ones = data.get("initial_ones", [])
    if not (isinstance(ones, list)
            and all(isinstance(s, list) and len(s) == 3 for s in ones)):
        raise ScenarioError("initial_ones entries must be [i, j, k]")
    ones = tuple(tuple(_read(int, "initial_ones", v) for v in s)
                 for s in ones)

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
        _path(path.parent, data, "output_dir", "out"))


# ---------------------------------------------------------------------------
# pipeline

def _resolve_gradients(scn: Scenario) -> GradientConfig:
    if scn.gradients is not None:
        return scn.gradients
    return plan_gradients(scn.geom, scn.target_gap_hz, scn.params)


def simulate_circuit(circuit_text: str, geom: LatticeGeometry,
                     params: AtomParams, noise: NoiseParams,
                     seed: int | None, initial_ones=(),
                     dipole_scale: float = 1.0):
    """Compile a circuit, run it through the pulse engine, and return the
    schedule, final register, and measurement record."""
    schedule = compile_circuit(circuit_text, geom, params, noise)
    sites = sorted({tuple(s.pulse.target[1])
                    for s in schedule.segments
                    if s.pulse.target[0] == "site"})
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
    levels = [GP if s in ones else GM for s in sites]
    reg = RegisterState.product(params, geom, sites, levels)
    result = execute_schedule(reg, schedule, noise, rng_seed=seed,
                              dipole_scale=dipole_scale)
    return schedule, result


def result_to_json(schedule: PulseSchedule, result) -> str:
    reg = result.register
    payload = {
        "outcomes": [{"site": list(site), "bit": bit}
                     for site, bit in result.outcomes],
        "survival": reg.survival,
        "leaked": reg.leaked,
        "total_duration_s": schedule.total_duration_s,
        "detection": [{"site": list(r.site),
                       "probability_one": r.probability_one,
                       "n_scattered": r.n_scattered,
                       "fluorescence_survival": r.fluorescence_survival,
                       "branching_loss_flag": r.branching_loss_flag}
                      for r in result.detection_reports],
    }
    return json.dumps(payload, indent=2)


def build_artifacts(scn: Scenario) -> dict[str, str]:
    """Run every pipeline stage; return {filename: content} without
    touching the filesystem."""
    artifacts: dict[str, str] = {}
    for stage in scn.pipeline:
        if stage == "feasibility":
            rep = build_feasibility_report(scn.params, scn.geom,
                                           scn.depth_recoils, scn.noise)
            artifacts["feasibility.json"] = rep.to_json() + "\n"
        elif stage == "detunings":
            artifacts["detunings.csv"] = emit_detuning_curves(
                scn.params, scn.sweep_min_gauss, scn.sweep_max_gauss,
                scn.sweep_steps)
        elif stage == "levels":
            artifacts["levels.csv"] = emit_level_sweep(
                scn.params, scn.sweep_min_gauss, scn.sweep_max_gauss,
                min(scn.sweep_steps, 400))
        elif stage == "address":
            config = _resolve_gradients(scn)
            artifacts["spectrum.csv"] = emit_addressing_spectrum(
                scn.geom, config, scn.params)
            report = validate_gradients(scn.geom, config)
            artifacts["addressing_report.json"] = json.dumps({
                "eq1_ok": report.eq1_ok, "unique_ok": report.unique_ok,
                "min_field_diff_t": report.min_field_diff_t,
                "bias_ok": report.bias_ok,
                "field_range_t": report.field_range_t}, indent=2) + "\n"
        elif stage == "simulate":
            schedule, result = simulate_circuit(
                scn.circuit_text, scn.geom, scn.params, scn.noise,
                scn.seed, scn.initial_ones, scn.dipole_scale)
            artifacts["schedule.json"] = schedule_to_json(schedule) + "\n"
            artifacts["result.json"] = result_to_json(schedule, result) + "\n"
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
