"""Circuit compilation, scenario pipeline, CLI exit codes, and
byte-identical rerun guarantees."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ybqc.addressing import LatticeGeometry, plan_gradients
from ybqc.atomic import (AtomParams, ladder_detunings, level_labels,
                         zeeman_table)
from ybqc.cli import main as cli_main
from ybqc.compiler import compile_circuit, execute_schedule, parse_circuit
from ybqc.constants import GAUSS
from ybqc.engine import GM, NoiseParams, RegisterState
from ybqc.errors import (ConfigError, GeometryError, PhysicsError,
                         ScenarioError)
from ybqc.scenario import (LEVEL_SWEEP_MAX_STEPS, atom_params_from_dict,
                           emit_addressing_spectrum, emit_detuning_curves,
                           emit_level_sweep, load_atom_params, load_scenario,
                           parse_keyvalue, run_scenario, simulate_circuit)

P = AtomParams()

BELL = """# prepare control, entangle, read out
X 0 0 3.141592653589793
CNOT 0 0 1 0
MEAS 0 0
MEAS 1 0
"""


# ---------------------------------------------------------------------------
# circuit parsing / compilation

def test_parse_circuit():
    ops = parse_circuit(BELL)
    assert ops[0] == ("X", (0, 0, 0), math.pi)
    assert ops[1] == ("CNOT", (0, 0, 0), (1, 0, 0))
    assert ops[2] == ("MEAS", (0, 0, 0))
    with pytest.raises(ConfigError) as err:
        parse_circuit("X 0 0\n")
    assert "line 1" in str(err.value)
    with pytest.raises(ConfigError):
        parse_circuit("HADAMARD 0 0\n")


def test_compile_emits_transfer_sandwich():
    geom = LatticeGeometry(2, 1, 1)
    sched = compile_circuit("X 0 0 1.5707963267948966", geom, P,
                            plan_gradients(geom, 1000.0, P), NoiseParams())
    kinds = [s.pulse.transition for s in sched.segments]
    assert kinds == ["optical_pair", "three_photon", "optical_pair"]
    assert len(sched.sites) == 1


def test_compile_cnot_nonadjacent_rejected():
    geom = LatticeGeometry(3, 1, 1)
    with pytest.raises(GeometryError):
        compile_circuit("CNOT 0 0 2 0", geom, P,
                        plan_gradients(geom, 1000.0, P), NoiseParams())


def test_execute_requires_seed_for_measurements():
    geom = LatticeGeometry(1, 1, 1)
    sched = compile_circuit("MEAS 0 0", geom, P,
                            plan_gradients(geom, 1000.0, P), NoiseParams())
    reg = RegisterState.product([GM])
    with pytest.raises(ConfigError):
        execute_schedule(reg, sched, NoiseParams(), rng_seed=None)


def test_simulated_circuit_truth_values():
    geom = LatticeGeometry(2, 1, 1)
    _sched, result = simulate_circuit(BELL, geom, P,
                                      plan_gradients(geom, 1000.0, P),
                                      NoiseParams.off(), seed=123)
    bits = {site: bit for site, bit, _ in result.readouts}
    # X flips the control to 1; CNOT then flips the target
    assert bits[(0, 0, 0)] == 1
    assert bits[(1, 0, 0)] == 1
    for _, _, p1 in result.readouts:
        assert p1 > 0.98


# ---------------------------------------------------------------------------
# atom-parameter files and scenario validation

def test_keyvalue_parsing_and_unknown_key():
    data = parse_keyvalue("hyperfine_A_3P2_hz = 2.6777e9  # comment\n"
                          "g_J_3P2 = 1.5\n")
    params = atom_params_from_dict(data)
    assert params.hyperfine_A_3P2_hz == 2.6777e9
    with pytest.raises(ScenarioError, match="not a number"):
        parse_keyvalue("g_J_3P2 = true\n")
    with pytest.raises(ScenarioError) as err:
        atom_params_from_dict({"hyperfine_A_3P2": 1.0})
    assert "hyperfine_A_3P2" in str(err.value)
    with pytest.raises(ScenarioError):
        parse_keyvalue("just a line without equals\n")


def test_atom_config_file(tmp_path):
    f = tmp_path / "atom.cfg"
    f.write_text("hyperfine_A_3P2_hz = 2.0e9\nwavelength_lattice_m = 532e-9\n")
    params = load_atom_params(f)
    assert params.hyperfine_A_3P2_hz == 2.0e9


def test_scenario_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"pipeline": ["feasibility"],
                               "lattice": {"n_x": 2, "rows": 3}}))
    with pytest.raises(ScenarioError) as err:
        load_scenario(bad)
    assert "lattice.rows" in str(err.value)
    missing = tmp_path / "nope.json"
    with pytest.raises(ScenarioError):
        load_scenario(missing)
    nofile = tmp_path / "nocirc.json"
    nofile.write_text(json.dumps({"pipeline": ["simulate"]}))
    with pytest.raises(ScenarioError):
        load_scenario(nofile)


def test_scenario_failure_leaves_no_outputs(tmp_path):
    scn = tmp_path / "scn.json"
    # invalid sweep range fails during artifact construction
    scn.write_text(json.dumps({
        "pipeline": ["detunings"],
        "sweep": {"b_min_gauss": 100.0, "b_max_gauss": 10.0, "steps": 10},
        "output_dir": "out"}))
    with pytest.raises(ConfigError):
        run_scenario(scn)
    assert not (tmp_path / "out").exists()


def test_scenario_rerun_is_byte_identical(tmp_path):
    (tmp_path / "bell.txt").write_text(BELL)
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({
        "pipeline": ["feasibility", "detunings", "address", "simulate"],
        "lattice": {"n_x": 2, "n_y": 1, "n_z": 1},
        "sweep": {"b_min_gauss": 10.0, "b_max_gauss": 2000.0, "steps": 40},
        "circuit_file": "bell.txt",
        "seed": 11,
        "output_dir": "out"}))
    scn_bytes = scn.read_bytes()
    m1 = run_scenario(scn)
    contents1 = {f.name: f.read_bytes()
                 for f in (tmp_path / "out").iterdir()}
    m2 = run_scenario(scn)
    contents2 = {f.name: f.read_bytes()
                 for f in (tmp_path / "out").iterdir()}
    assert m1 == m2
    assert contents1 == contents2
    assert scn.read_bytes() == scn_bytes  # input never mutated
    assert set(m1["files"]) == {"feasibility.json", "detunings.csv",
                                "spectrum.csv", "addressing_report.json",
                                "schedule.json", "result.json"}


def _chain_scenario(tmp_path, n_sites):
    (tmp_path / "c.txt").write_text(
        "".join(f"MEAS {i} 0\n" for i in range(n_sites)))
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({
        "pipeline": ["simulate"],
        "lattice": {"n_x": n_sites, "n_y": 1, "n_z": 1},
        "circuit_file": "c.txt", "initial_ones": [[1, 0, 0], [3, 0, 0]],
        "seed": 4, "output_dir": "out"}))
    return str(scn)


def test_five_site_register_runs(tmp_path):
    assert cli_main(["run", _chain_scenario(tmp_path, 5)]) == 0
    result = json.loads((tmp_path / "out" / "result.json").read_text())
    assert len(result["outcomes"]) == 5
    assert result["survival"] + result["leaked"] == pytest.approx(1.0,
                                                                  abs=1e-9)


def test_six_sites_exceed_the_limit(tmp_path, capsys):
    assert cli_main(["run", _chain_scenario(tmp_path, 6)]) == 2
    err = capsys.readouterr().err
    assert "6 active sites exceed the state-vector limit of 5" in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# emitters

def test_detuning_csv_structure():
    text = emit_detuning_curves(P, 10.0, 20000.0, 200)
    lines = text.strip().split("\n")
    assert lines[0] == "B_gauss,delta1_hz,delta2_hz"
    assert len(lines) == 201
    bs = [float(l.split(",")[0]) for l in lines[1:]]
    assert bs == sorted(bs)
    # rows equal direct calls at matching fields
    for line in lines[1:10]:
        b, d1, d2 = (float(x) for x in line.split(","))
        det = ladder_detunings(P, b * GAUSS)
        assert d1 == pytest.approx(det.delta1_rad_s / (2 * math.pi),
                                   rel=1e-12)
        assert d2 == pytest.approx(det.delta2_rad_s / (2 * math.pi),
                                   rel=1e-12)
    with pytest.raises(ConfigError):
        emit_detuning_curves(P, 0.0, 100.0, 10)


@settings(max_examples=60, deadline=None)
@given(b_min=st.floats(0.0, 1e4), span=st.floats(1e-3, 1e4),
       steps=st.integers(2, 3000), A=st.sampled_from([1.0, -1.0]))
def test_level_sweep_matches_one_format_per_value(b_min, span, steps, A):
    # the row-by-row comprehension that formatted every field and label
    # once per level
    params = AtomParams(hyperfine_A_3P2_hz=A * P.hyperfine_A_3P2_hz)
    b = np.linspace(b_min, b_min + span, min(steps, LEVEL_SWEEP_MAX_STEPS))
    energy = zeeman_table(params, b * GAUSS)[0]
    lines = ["B_gauss,m_F,branch,energy_hz"]
    lines += [f"{bg!r},{m_F!r},{branch},{e!r}"
              for bg, column in zip(b.tolist(), energy.T.tolist())
              for (m_F, branch), e in zip(level_labels(params), column)]
    assert emit_level_sweep(params, b_min, b_min + span, steps) \
        == "\n".join(lines) + "\n"


def test_detunings_near_650g_are_about_20mhz():
    text = emit_detuning_curves(P, 10.0, 2000.0, 400)
    rows = [tuple(float(x) for x in l.split(","))
            for l in text.strip().split("\n")[1:]]
    b, d1, d2 = min(rows, key=lambda r: abs(r[0] - 650.0))
    assert abs(d1) == pytest.approx(20e6, rel=0.25)
    assert abs(d2) == pytest.approx(20e6, rel=0.25)


def test_addressing_spectrum_rows_and_sorting():
    geom = LatticeGeometry(10, 10, 1)
    cfg = plan_gradients(geom, 1000.0, P)
    text = emit_addressing_spectrum(geom, cfg, P)
    lines = text.strip().split("\n")
    assert len(lines) == 101
    freqs = [float(l.split(",")[3]) for l in lines[1:]]
    assert freqs == sorted(freqs)
    assert min(np.diff(freqs)) >= 1000.0
    # row set equals brute-force enumeration
    got = {(int(l.split(",")[0]), int(l.split(",")[1])) for l in lines[1:]}
    assert got == {(i, j) for i in range(10) for j in range(10)}
    # 1x1 lattice: single row at B0
    one = emit_addressing_spectrum(LatticeGeometry(1, 1, 1), cfg, P)
    rows = one.strip().split("\n")[1:]
    assert len(rows) == 1
    assert float(rows[0].split(",")[2]) == pytest.approx(cfg.B0_t / GAUSS)


# ---------------------------------------------------------------------------
# CLI drivers and exit codes

def run_cli(*argv):
    return cli_main(list(argv))


def test_cli_exit_codes(tmp_path):
    circuit = tmp_path / "c.txt"
    circuit.write_text("X 0 0 3.14159\n")
    assert run_cli("detunings", "--b-gauss", "650",
                   "--out", str(tmp_path / "d.json")) == 0
    # config error: invalid sweep range
    assert run_cli("detunings", "--b-min-gauss", "100",
                   "--b-max-gauss", "10") == 2
    # physics error: degenerate sites under zero gradients
    assert run_cli("address", "--nx", "2", "--ny", "1",
                   "--gx-g-per-cm", "0", "--gy-g-per-cm", "0",
                   "--out", str(tmp_path / "s.csv")) == 3
    # a lone z gradient is explicit too, and leaves z = 0 at one field
    assert run_cli("address", "--nx", "2", "--ny", "1",
                   "--gz-g-per-cm", "50") == 3
    # simulate is deterministic given the seed
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli("simulate", "--circuit", str(circuit), "--nx", "2",
                   "--ny", "1", "--seed", "9", "--out", str(out1)) == 0
    assert run_cli("simulate", "--circuit", str(circuit), "--nx", "2",
                   "--ny", "1", "--seed", "9", "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_seed_is_mandatory_for_simulate(tmp_path):
    circuit = tmp_path / "c.txt"
    circuit.write_text("MEAS 0 0\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--circuit", str(circuit), "--nx", "1",
                "--ny", "1")
    assert exc.value.code == 2


def test_cli_plan_and_feasibility(tmp_path):
    out = tmp_path / "plan.json"
    assert run_cli("plan", "--nx", "10", "--ny", "10",
                   "--out", str(out)) == 0
    plan = json.loads(out.read_text())
    assert plan["Gx_g_per_cm"] == pytest.approx(10.0, rel=0.25)
    assert plan["unique_ok"] is True
    fout = tmp_path / "feas.json"
    assert run_cli("feasibility", "--out", str(fout)) == 0
    items = json.loads(fout.read_text())
    assert all("quantity" in it and "pass" in it for it in items)


def test_cli_entry_point_subprocess(tmp_path):
    # exercised through the console script exactly as a user would
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-m", "ybqc.cli", "ddi",
         "--m1-mun", "0.49367", "--m2-mun", "0.49367"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert abs(payload["coupling_hz"]) == pytest.approx(99.7e-9, rel=0.02)


# ---------------------------------------------------------------------------
# one front end: a subcommand named after a pipeline stage prints the
# artifact that the stage writes for the same inputs

PARITY = {
    # both front ends write at most 400 fields of a level sweep
    "levels-capped": (
        ["levels", "--b-gauss", "10", "--b-max-gauss", "100", "--steps",
         "1000"],
        {"pipeline": ["levels"], "sweep": {"b_min_gauss": 10,
                                           "b_max_gauss": 100,
                                           "steps": 1000}},
        "levels.csv"),
    "detunings": (
        ["detunings", "--b-min-gauss", "10", "--b-max-gauss", "2000",
         "--steps", "30"],
        {"pipeline": ["detunings"], "sweep": {"b_min_gauss": 10,
                                              "b_max_gauss": 2000,
                                              "steps": 30}},
        "detunings.csv"),
    "address-planned": (
        ["address", "--nx", "3", "--ny", "2", "--b0-gauss", "200",
         "--target-gap-hz", "500"],
        {"pipeline": ["address"], "lattice": {"n_x": 3, "n_y": 2},
         "gradients": {"B0_gauss": 200, "target_gap_hz": 500}},
        "spectrum.csv"),
    "address-explicit": (
        ["address", "--nx", "2", "--ny", "2", "--gx-g-per-cm", "3",
         "--gy-g-per-cm", "7"],
        {"pipeline": ["address"], "lattice": {"n_x": 2, "n_y": 2},
         "gradients": {"Gx_g_per_cm": 3, "Gy_g_per_cm": 7}},
        "spectrum.csv"),
    # a lone z gradient leaves the z = 0 layer at one field: exit 3 in both
    "address-degenerate": (
        ["address", "--nx", "2", "--ny", "1", "--gz-g-per-cm", "50"],
        {"pipeline": ["address"], "lattice": {"n_x": 2, "n_y": 1},
         "gradients": {"Gz_g_per_cm": 50}},
        None),
    "simulate": (
        ["simulate", "--circuit", "bell.txt", "--nx", "2", "--ny", "1",
         "--seed", "5", "--one", "1,0,0", "--dipole-scale", "0.5"],
        {"pipeline": ["simulate"], "lattice": {"n_x": 2, "n_y": 1},
         "circuit_file": "bell.txt", "seed": 5, "initial_ones": [[1, 0, 0]],
         "dipole_scale": 0.5},
        "result.json"),
    "simulate-noise-off": (
        ["simulate", "--circuit", "bell.txt", "--nx", "2", "--ny", "1",
         "--seed", "5", "--noise-off"],
        {"pipeline": ["simulate"], "lattice": {"n_x": 2, "n_y": 1},
         "circuit_file": "bell.txt", "seed": 5,
         "noise": {"lifetime_3P2_s": math.inf,
                   "photon_scattering_rate_hz": 0.0,
                   "branching_1P1_to_3D": 0.0}},
        "result.json"),
    "feasibility": (
        ["feasibility", "--depth-recoils", "30"],
        {"pipeline": ["feasibility"], "depth_recoils": 30},
        "feasibility.json"),
}


@pytest.mark.parametrize("argv, data, artifact", PARITY.values(),
                         ids=PARITY.keys())
def test_cli_prints_the_scenario_stage_artifact(tmp_path, monkeypatch,
                                                argv, data, artifact):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bell.txt").write_text(BELL)
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps(dict(data, output_dir="out")))
    if artifact is None:
        assert cli_main(argv + ["--out", "cli.out"]) == 3
        with pytest.raises(PhysicsError, match="degenerate"):
            run_scenario(scn)
        assert not (tmp_path / "cli.out").exists()
        assert not (tmp_path / "out").exists()
        return
    assert cli_main(argv + ["--out", "cli.out"]) == 0
    run_scenario(scn)
    assert (tmp_path / "cli.out").read_bytes() \
        == (tmp_path / "out" / artifact).read_bytes()


def test_level_sweep_writes_at_most_400_fields(tmp_path):
    argv, _data, _artifact = PARITY["levels-capped"]
    out = tmp_path / "levels.csv"
    assert cli_main(argv + ["--out", str(out)]) == 0
    fields = {line.split(",")[0]
              for line in out.read_text().splitlines()[1:]}
    assert len(fields) == 400
