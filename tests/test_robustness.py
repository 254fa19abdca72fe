"""Bad inputs end in exit code 2 or 3 with a one-line message, never a
traceback: off-lattice circuit sites, non-finite or negative rotation
angles, missing or undecodable files, negative seeds, malformed flags,
malformed or out-of-range scenario values, atom constants that
overflow or leave a 3-photon detuning at 0, noise parameters out of
range, a readout after every atom is lost, rotations whose phases keep
no precision, and property tests fuzzing the value type of every
scenario key, the values of the CLI flags and the lines of circuit
files."""

import io
import json
import math
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ybqc.addressing import (GradientConfig, LatticeGeometry, plan_gradients,
                             site_fields)
from ybqc.atomic import AtomParams
from ybqc.cli import main as cli_main
from ybqc.compiler import compile_circuit, execute_schedule
from ybqc.constants import CM, GAUSS
from ybqc.engine import GM, NoiseParams, RegisterState
from ybqc.errors import ConfigError, PlanningError
from ybqc.protocols import GATE_RABI_FRACTION
from ybqc.scenario import load_atom_params, load_scenario, run_scenario

from conftest import apply_stepwise, ladder_oracle


def _scenario(tmp_path, **data):
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps(data))
    return str(scn)


def test_off_lattice_circuit_site_exits_2(tmp_path, capsys):
    (tmp_path / "c.txt").write_text("X 5 0 1.0\nMEAS 5 0\n")
    assert cli_main(["simulate", "--circuit", str(tmp_path / "c.txt"),
                     "--nx", "2", "--ny", "1", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "(5, 0)" in err and len(err.strip().splitlines()) == 1
    scn = _scenario(tmp_path, pipeline=["simulate"],
                    lattice={"n_x": 2, "n_y": 1, "n_z": 1},
                    circuit_file="c.txt", seed=1)
    assert cli_main(["run", scn]) == 2
    assert "(5, 0)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf", "-1"])
def test_bad_rotation_angle_exits_2_naming_the_line(tmp_path, capsys, angle):
    (tmp_path / "c.txt").write_text(f"MEAS 0 0\nX 0 0 {angle}\n")
    for command in (["compile"], ["simulate", "--seed", "1"]):
        assert cli_main([*command, "--circuit", str(tmp_path / "c.txt"),
                         "--nx", "1", "--ny", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: circuit line 2: 'X 0 0 "
                                       f"{angle}': rotation angle")
        assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("circuit, line, message", [
    ("MEAS 0 0\nX 1 0 3.141592653589793\nMEAS 1 0\n", 2,
     "'X 1 0 3.141592653589793': gate after the first MEAS"),
    ("MEAS 0 0\nCNOT 0 0 1 0\n", 2, "'CNOT 0 0 1 0': gate after the first"),
    ("MEAS 0 0\nMEAS 0 0\n", 2, "'MEAS 0 0': site (0, 0) is already "
     "measured"),
])
def test_gate_after_the_measurement_stage_exits_2(tmp_path, capsys, circuit,
                                                  line, message):
    # the measurement stage parks every atom in 3P2: a later gate would
    # drive parked atoms, and a second readout would read a parked site
    (tmp_path / "c.txt").write_text(circuit)
    for command in (["compile"], ["simulate", "--seed", "1", "--noise-off",
                                  "--one", "0,0,0"]):
        assert cli_main([*command, "--circuit", str(tmp_path / "c.txt"),
                         "--nx", "2", "--ny", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: circuit line {line}: "
                                       f"{message}")
        assert len(captured.err.strip().splitlines()) == 1


def test_rare_measurement_branch_exits_0(tmp_path):
    # the first measurement samples a rare branch; renormalising lifts the
    # second site's 3-photon ladder residue just above 1% of the
    # conditional norm, which is still no protocol-order error
    (tmp_path / "c.txt").write_text(
        "X 1 0 0.3662975959979332\nX 0 0 2.47374393687711\n"
        "CNOT 1 0 0 0\nMEAS 0 0\nMEAS 1 0\n")
    scn = _scenario(tmp_path, pipeline=["simulate"],
                    lattice={"n_x": 2, "n_y": 1, "n_z": 1},
                    circuit_file="c.txt", initial_ones=[[1, 0, 0]],
                    seed=1541847838)
    assert cli_main(["run", scn]) == 0
    assert (tmp_path / "out" / "result.json").is_file()


@pytest.mark.parametrize("argv, name", [
    (["compile", "--circuit", "missing.txt"], "missing.txt"),
    (["simulate", "--circuit", "missing.txt", "--seed", "1"], "missing.txt"),
    (["levels", "--atom-config", "missing.cfg"], "missing.cfg"),
    (["levels", "--out", "no/dir/x.csv"], "no/dir/x.csv"),
    (["simulate", "--circuit", "c.txt", "--seed", "1", "--one", "a,b"],
     "--one"),
    (["simulate", "--circuit", "c.txt", "--seed", "1", "--one", "5,5,0"],
     "(5, 5, 0)"),
    (["simulate", "--circuit", "c.txt", "--seed", "1", "--one", "1,0"],
     "(1, 0)"),
    (["detunings", "--b-min-gauss", "1", "--b-max-gauss", "inf",
      "--steps", "3"], "B_max < inf"),
    (["levels", "--b-gauss", "0", "--b-max-gauss", "inf"], "B_max < inf"),
    (["address", "--spacing-m", "nan"], "lattice spacing"),
    (["plan", "--b0-gauss", "nan"], "bias field B0"),
    (["address", "--b0-gauss", "inf", "--gx-g-per-cm", "1"],
     "bias field B0"),
    (["levels", "--b-gauss", "nan"], "B must be finite"),
    (["detunings", "--b-gauss", "nan"], "B must be finite"),
    (["simulate", "--circuit", "c.txt", "--seed", "1", "--dipole-scale",
      "nan"], "dipole_scale"),
    (["simulate", "--circuit", "c.txt", "--seed", "1", "--dipole-scale",
      "inf"], "dipole_scale"),
    (["simulate", "--circuit", "c.txt", "--seed", "-1"], "seed -1"),
    # one reader for the three input files: not UTF-8, or not a file
    (["run", "bad.txt"], "scenario file bad.txt is not UTF-8"),
    (["compile", "--circuit", "bad.txt"], "circuit file bad.txt is not UTF-8"),
    (["levels", "--atom-config", "bad.txt"],
     "atom_config file bad.txt is not UTF-8"),
    (["compile", "--circuit", "d"], "circuit file d is missing or not a"),
])
def test_cli_file_and_flag_errors_exit_2(tmp_path, monkeypatch, capsys,
                                         argv, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.txt").write_text("X 0 0 1.0\nMEAS 0 0\nMEAS 1 0\n")
    (tmp_path / "bad.txt").write_bytes(b"\xffX 0 0 1.0\n")
    (tmp_path / "d").mkdir()
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, name", [
    (["plan", "--target-gap-hz", "nan"], "target gap"),
    (["ddi", "--spacing-m", "nan"], "separation"),
    (["ddi", "--theta-rad", "nan"], "finite moments and angle"),
    (["ddi", "--m1-mub", "nan"], "finite moments and angle"),
    (["feasibility", "--depth-recoils", "1e308"], "scattering rate"),
])
def test_cli_non_finite_physics_input_exits_3(capsys, argv, name):
    assert cli_main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("physics error: ") and name in captured.err
    assert len(captured.err.strip().splitlines()) == 1


# couplings and dipole diagonals that leave the float range, on the 2x1
# circuit X, CNOT, MEAS, MEAS: a traceback, a numpy RuntimeWarning or
# "-Infinity" in the JSON before they were checked
FLOAT_RANGE_CIRCUIT = ["--circuit", "c.txt", "--nx", "2", "--ny", "1"]


@pytest.mark.parametrize("argv, name", [
    (["ddi", "--spacing-m", "1e-300"], "dipole coupling"),
    (["ddi", "--spacing-m", "1e200", "--m1-mub", "1", "--m2-mub", "1"],
     "dipole coupling"),
    (["ddi", "--m1-mub", "1e200", "--m2-mub", "1e200"], "dipole coupling"),
    (["compile", *FLOAT_RANGE_CIRCUIT, "--spacing-m", "1e-110"],
     "dipole coupling"),
    (["simulate", *FLOAT_RANGE_CIRCUIT, "--seed", "0", "--spacing-m",
      "1e-110"], "dipole coupling"),
    (["simulate", *FLOAT_RANGE_CIRCUIT, "--seed", "0",
      "--dipole-scale", "1e300"], "dipole diagonal overflows"),
    (["simulate", *FLOAT_RANGE_CIRCUIT, "--seed", "0",
      "--dipole-scale=-1e300"], "dipole diagonal overflows"),
    (["simulate", *FLOAT_RANGE_CIRCUIT, "--seed", "0",
      "--dipole-scale", "1e30"], "overflow encountered"),
    (["simulate", *FLOAT_RANGE_CIRCUIT, "--seed", "0",
      "--dipole-scale", "1e200"], "overflow encountered"),
], ids=["ddi-near", "ddi-far", "ddi-moments", "compile-near",
        "simulate-near", "scale-1e300", "scale-minus-1e300", "scale-1e30",
        "scale-1e200"])
def test_couplings_out_of_float_range_exit_3(tmp_path, monkeypatch, capsys,
                                            argv, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.txt").write_text("X 0 0 1.0\nCNOT 0 0 1 0\n"
                                    "MEAS 0 0\nMEAS 1 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("physics error: ") and name in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("g_J", ["0.6", "0.0"])
def test_calibration_outside_its_bracket_exits_3(tmp_path, capsys, g_J):
    (tmp_path / "atom.cfg").write_text(f"g_J_3P2 = {g_J}\n")
    assert cli_main(["detunings", "--b-gauss", "650", "--calibrate",
                     "--atom-config", str(tmp_path / "atom.cfg")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("physics error: no hyperfine A in "
                                   "CALIBRATION_A_BRACKET_HZ")
    assert len(captured.err.strip().splitlines()) == 1


# g_J = 1e163 shrinks the 3-photon detunings to 1.6e-152 rad/s at 100 G:
# the compiler's Rabi frequency, 5 % of that, underflows when cubed, so
# the effective Rabi frequency Omega^3 / (4 Delta1 Delta2) is a zero
# product
@pytest.mark.parametrize("command", ["compile", "simulate"])
@pytest.mark.parametrize("atom", ["g_J_3P2 = 1e163"])
def test_ladder_with_a_zero_detuning_exits_3(tmp_path, capsys, command,
                                             atom):
    (tmp_path / "atom.cfg").write_text(atom + "\n")
    (tmp_path / "c.txt").write_text("X 0 0 1.0\nMEAS 0 0\n")
    argv = [command, "--circuit", str(tmp_path / "c.txt"), "--nx", "1",
            "--ny", "1", "--atom-config", str(tmp_path / "atom.cfg")]
    assert cli_main(argv + ["--seed", "0"] * (command == "simulate")) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("physics error: 3-photon ladder "
                                   "detunings") \
        and "zero product" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_ladders_of_extreme_atoms_rotate_as_the_closed_form_times_them(
        tmp_path, capsys):
    # A = 1 Hz and g_J = 1e16 shrink the detunings at 100 G to 2.4e-9 and
    # 2.6e-6 Hz: an X 1.0 then lasts 2.1e12 s and 2.0e9 s.  With noise off
    # both read P(1) = 0.229440, the ladder's dynamics only rescaled in
    # time; with noise on every atom decays first
    (tmp_path / "c.txt").write_text("X 0 0 1.0\nMEAS 0 0\n")
    p1 = []
    for atom in ("hyperfine_A_3P2_hz = 1", "g_J_3P2 = 1e16"):
        (tmp_path / "atom.cfg").write_text(atom + "\n")
        argv = ["simulate", "--circuit", str(tmp_path / "c.txt"), "--nx",
                "1", "--ny", "1", "--seed", "0", "--atom-config",
                str(tmp_path / "atom.cfg")]
        assert cli_main(argv + ["--noise-off"]) == 0
        p1.append(json.loads(capsys.readouterr().out)["detection"][0]
                  ["probability_one"])
        assert cli_main(argv) == 3
        assert "every atom has been lost" in capsys.readouterr().err
    assert abs(p1[0] - p1[1]) <= 1e-6
    assert p1[0] == pytest.approx(0.229440, abs=1e-6)


# The same atoms, command by command.  The compiled gate drives at
# GATE_RABI_FRACTION of min(|Delta1|, |Delta2|) of the oracle ladder, and
# its X 1.0 lasts 0.99 to 1.07 of 1 rad / Omega_eff, the scanned pi time's
# band around the effective model; the noisy simulation loses the atom
# to decay within that time and exits 3 on one line
@pytest.mark.parametrize("command", ["compile", "simulate"])
@pytest.mark.parametrize("atom", ["hyperfine_A_3P2_hz = 1",
                                  "g_J_3P2 = 1e16"])
def test_ladder_of_an_extreme_atom_compiles_and_decays(tmp_path, capsys,
                                                       command, atom):
    (tmp_path / "atom.cfg").write_text(atom + "\n")
    (tmp_path / "c.txt").write_text("X 0 0 1.0\nMEAS 0 0\n")
    argv = [command, "--circuit", str(tmp_path / "c.txt"), "--nx", "1",
            "--ny", "1", "--atom-config", str(tmp_path / "atom.cfg")]
    if command == "simulate":
        assert cli_main(argv + ["--seed", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("physics error: ") \
            and "every atom has been lost" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        return
    assert cli_main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    seg, = [s for s in json.loads(captured.out)["segments"]
            if s["transition"] == "three_photon"]
    _, delta1, delta2 = ladder_oracle(load_atom_params(tmp_path / "atom.cfg"),
                                      seg["gradients"]["B0_t"])
    rabi = seg["rabi_rad_s"]
    assert rabi == pytest.approx(
        GATE_RABI_FRACTION * float(min(abs(delta1), abs(delta2))), rel=1e-9)
    area = rabi ** 3 / float(4 * abs(delta1 * delta2)) * seg["duration_s"]
    assert 0.99 <= area <= 1.07


# g_J = 1e16 puts the Zeeman energies near 1e25 Hz and the detunings near
# A^2 / E_Zeeman, about 4e-7 Hz at 650 G: second differences of the level
# energies kept no digit of them
@pytest.mark.parametrize("fields", [["--b-gauss", "650"], []],
                         ids=["single-field", "sweep"])
def test_detunings_of_a_tiny_ladder_match_the_oracle(tmp_path, capsys,
                                                     fields):
    (tmp_path / "a.cfg").write_text("g_J_3P2 = 1e16\n")
    assert cli_main(["detunings", *fields, "--atom-config",
                     str(tmp_path / "a.cfg")]) == 0
    out = capsys.readouterr().out
    if fields:
        det = json.loads(out)
        rows = [(det["B_gauss"], det["delta1_hz"], det["delta2_hz"])]
    else:
        rows = [tuple(map(float, line.split(",")))
                for line in out.splitlines()[1::200]]
    atom = AtomParams(g_J_3P2=1e16)
    for b_gauss, *got in rows:
        want = ladder_oracle(atom, b_gauss * GAUSS)[1:]
        assert got == pytest.approx([float(w) / (2 * math.pi)
                                     for w in want], rel=1e-14)
        assert 1e-8 < abs(got[0]) < 1e-4


def test_readout_of_an_all_lost_register_exits_3(tmp_path, capsys):
    # a 1e300 rad rotation lasts about 1e298 s in 3P2: the atom decays
    (tmp_path / "c.txt").write_text("X 0 0 1e300\nMEAS 0 0\n")
    assert cli_main(["simulate", "--circuit", str(tmp_path / "c.txt"),
                     "--nx", "1", "--ny", "1", "--seed", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("physics error: readout at (0, 0, 0)")
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("angle", ["1e6", "1e12", "1e300"])
def test_rotation_whose_phases_keep_no_precision_exits_3(tmp_path, capsys,
                                                         angle):
    # with noise off the 3-photon block keeps its norm whatever its
    # phases, so the spectral kernel's rounding bound is the only guard
    (tmp_path / "c.txt").write_text(f"X 0 0 {angle}\nMEAS 0 0\n")
    assert cli_main(["simulate", "--circuit", str(tmp_path / "c.txt"),
                     "--nx", "1", "--ny", "1", "--seed", "0",
                     "--noise-off"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("physics error: three_photon segment of ")
    assert "in rounding, above 1e-06" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_long_rotation_with_precise_phases_exits_0(tmp_path, capsys):
    (tmp_path / "c.txt").write_text("X 0 0 1e3\nMEAS 0 0\n")
    assert cli_main(["simulate", "--circuit", str(tmp_path / "c.txt"),
                     "--nx", "1", "--ny", "1", "--seed", "0",
                     "--noise-off"]) == 0
    assert capsys.readouterr().err == ""


def test_negative_zero_angle_compiles_to_zero_duration(tmp_path, capsys):
    (tmp_path / "c.txt").write_text("X 0 0 -0.0\n")
    assert cli_main(["compile", "--circuit", str(tmp_path / "c.txt"),
                     "--nx", "1", "--ny", "1"]) == 0
    out = capsys.readouterr().out
    assert "-0.0" not in out
    gate = json.loads(out)["segments"][1]
    assert gate["transition"] == "three_photon"
    assert math.copysign(1.0, gate["duration_s"]) == 1.0


def test_initial_one_off_the_circuit_exits_2(tmp_path, capsys):
    (tmp_path / "c.txt").write_text("X 0 0 1.0\nMEAS 0 0\n")
    scn = _scenario(tmp_path, pipeline=["simulate"],
                    lattice={"n_x": 2, "n_y": 2, "n_z": 1},
                    circuit_file="c.txt", seed=1, initial_ones=[[1, 1, 0]])
    assert cli_main(["run", scn]) == 2
    err = capsys.readouterr().err
    assert "(1, 1, 0)" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_overflowing_dipole_scale_exits_2(tmp_path, capsys):
    # the literal 1e400 reads as inf
    (tmp_path / "c.txt").write_text("X 0 0 1.0\nCNOT 0 0 1 0\nMEAS 0 0\n")
    scn = tmp_path / "scn.json"
    scn.write_text('{"pipeline": ["simulate"], "circuit_file": "c.txt", '
                   '"lattice": {"n_x": 2, "n_y": 1, "n_z": 1}, "seed": 1, '
                   '"dipole_scale": 1e400}')
    assert cli_main(["run", str(scn)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dipole_scale" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scale", [math.inf, math.nan], ids=["inf", "nan"])
def test_non_finite_dipole_scale_is_rejected_by_the_engine(scale):
    # library callers get the CLI's ConfigError, before any numpy warning
    geom, noise = LatticeGeometry(2, 1, 1), NoiseParams()
    schedule = compile_circuit("X 0 0 1.0\nCNOT 0 0 1 0\n", geom,
                               AtomParams(),
                               plan_gradients(geom, 1000.0, AtomParams()),
                               noise)
    reg = RegisterState.product([GM, GM])
    flip, = (s for s in schedule.segments if s.pulse.transition == "aux_flip")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="dipole_scale"):
            execute_schedule(reg, schedule, noise, dipole_scale=scale)
        with pytest.raises(ConfigError, match="dipole_scale"):
            apply_stepwise(reg, schedule, flip, noise, dipole_scale=scale)


def test_register_of_other_sites_than_the_schedule_is_rejected():
    # a register names no sites: one of another size is all that can
    # mismatch, and it would index past the run's decay rates
    geom, noise = LatticeGeometry(3, 1, 1), NoiseParams.off()
    schedule = compile_circuit("X 0 0 1.0\n", geom, AtomParams(),
                               plan_gradients(geom, 1000.0, AtomParams()),
                               noise)
    reg = RegisterState.product([GM, GM])
    with pytest.raises(ConfigError, match="schedule's"):
        execute_schedule(reg, schedule, noise)


def test_planned_scenario_uses_its_bias_field(tmp_path):
    scn = _scenario(tmp_path, pipeline=["address"],
                    lattice={"n_x": 3, "n_y": 2, "n_z": 1},
                    gradients={"B0_gauss": 200, "target_gap_hz": 1000})
    assert cli_main(["run", scn]) == 0
    rows = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()[1:]
    fields = [float(row.split(",")[2]) for row in rows]
    assert len(fields) == 6 and all(200.0 <= b < 201.0 for b in fields)


def test_planned_scenario_uses_its_safety_factor(tmp_path, capsys):
    scn = _scenario(tmp_path, pipeline=["address"],
                    lattice={"n_x": 2, "n_y": 1, "n_z": 1},
                    gradients={"safety_factor": 1e6})
    with pytest.raises(PlanningError, match="safety factor"):
        run_scenario(scn)
    assert cli_main(["run", scn]) == 3
    err = capsys.readouterr().err
    assert err.startswith("physics error: ") and "safety factor" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def _schedule_segments(tmp_path):
    return json.loads((tmp_path / "out" / "schedule.json").read_text()
                      )["segments"]


def test_simulate_compiles_under_the_scenario_bias_field(tmp_path):
    # every pulse sees each circuit site at its spectrum.csv field
    (tmp_path / "c.txt").write_text("X 0 0 1.0\nCNOT 0 0 1 0\n")
    scn = _scenario(tmp_path, pipeline=["simulate", "address"],
                    lattice={"n_x": 2, "n_y": 1, "n_z": 1},
                    gradients={"B0_gauss": 200}, circuit_file="c.txt")
    assert cli_main(["run", scn]) == 0
    rows = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()[1:]
    fields = {(int(i), int(j), 0): float(b)
              for i, j, b, _f in (row.split(",") for row in rows)}
    geom = LatticeGeometry(2, 1, 1)
    segments = _schedule_segments(tmp_path)
    assert len(segments) == 8
    for seg in segments:
        config = GradientConfig(**seg["gradients"])
        at = site_fields(geom, config, list(fields)) / GAUSS
        assert dict(zip(fields, at.tolist())) == fields


def test_explicit_scenario_gradients_reach_the_schedule(tmp_path):
    (tmp_path / "c.txt").write_text("X 0 0 1.0\nX 1 0 1.0\n")
    scn = _scenario(tmp_path, pipeline=["simulate"],
                    lattice={"n_x": 2, "n_y": 1, "n_z": 1},
                    gradients={"Gx_g_per_cm": 3, "Gy_g_per_cm": 7},
                    circuit_file="c.txt")
    assert cli_main(["run", scn]) == 0
    assert {tuple(seg["gradients"].values())
            for seg in _schedule_segments(tmp_path)} \
        == {(100 * GAUSS, 3 * GAUSS / CM, 7 * GAUSS / CM, 0.0)}


def test_circuit_sites_sharing_one_field_exit_3(tmp_path, capsys):
    circuit = "X 0 0 3.141592653589793\nMEAS 0 0\nMEAS 1 0\n"
    (tmp_path / "c.txt").write_text(circuit)
    scn = _scenario(tmp_path, pipeline=["simulate"],
                    lattice={"n_x": 2, "n_y": 1, "n_z": 1},
                    gradients={"Gx_g_per_cm": 0, "Gy_g_per_cm": 0},
                    circuit_file="c.txt", seed=1)
    assert cli_main(["run", scn]) == 3
    err = capsys.readouterr().err
    assert err.startswith("physics error: ") and "(0, 0) and (1, 0)" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()
    geom = LatticeGeometry(2, 1, 1)
    with pytest.raises(PlanningError, match="share one local field"):
        compile_circuit(circuit, geom, AtomParams(),
                        GradientConfig(100 * GAUSS), NoiseParams())


@pytest.mark.parametrize("noise", [
    {"lifetime_3P2_s": -math.inf},
    {"lifetime_3P2_s": math.nan},
    {"photon_scattering_rate_hz": math.nan},
    {"detection_time_s": math.nan},
    {"detection_scatter_rate_hz": -1.0},
    {"detection_scatter_rate_hz": math.nan},
    # each factor is finite, the photon count is not: result.json would
    # hold "n_scattered": Infinity
    {"detection_time_s": 1e200, "detection_scatter_rate_hz": 1e200},
], ids=lambda noise: ",".join(f"{k}={v}" for k, v in noise.items()))
def test_out_of_range_noise_exits_2_at_load(tmp_path, capsys, noise):
    (tmp_path / "c.txt").write_text("X 0 0 1.0\nMEAS 0 0\n")
    scn = _scenario(tmp_path, pipeline=["simulate"],
                    lattice={"n_x": 1, "n_y": 1, "n_z": 1},
                    circuit_file="c.txt", seed=1, noise=noise)
    with pytest.raises(ConfigError):
        load_scenario(scn)
    assert cli_main(["run", scn]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError):
        NoiseParams(**noise)


def test_negative_scenario_seed_exits_2(tmp_path, capsys):
    (tmp_path / "c.txt").write_text("X 0 0 1.0\nMEAS 0 0\n")
    scn = _scenario(tmp_path, pipeline=["simulate"],
                    lattice={"n_x": 1, "n_y": 1, "n_z": 1},
                    circuit_file="c.txt", seed=-1)
    assert cli_main(["run", scn]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed -1" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


# sizes whose arrays exceed any address space, so they fail at once
HUGE = 1000000000000000


@pytest.mark.parametrize("argv", [
    ["detunings", "--steps", str(HUGE)],
    ["address", "--nx", "10000000", "--ny", "10000000",
     "--gx-g-per-cm", "1e-9", "--gy-g-per-cm", "1e-1"],
    ["run", "scn.json"],
], ids=["detunings", "address", "run"])
def test_sizes_too_large_to_allocate_exit_2(tmp_path, monkeypatch, capsys,
                                            argv):
    monkeypatch.chdir(tmp_path)
    _scenario(tmp_path, pipeline=["detunings"], sweep={"steps": HUGE})
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "allocate" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


# (root key, a number given for it, its reader's message)
STRUCTURAL_KEYS = [("pipeline", 3, "must be a list of stages"),
                   ("lattice", 5, "must be a JSON object"),
                   ("output_dir", 1, "must be a path string"),
                   ("atom_config", 2.5, "must be a path string"),
                   ("initial_ones", 3, "entries must be [i, j, k]")]


@pytest.mark.parametrize("key, value, message", STRUCTURAL_KEYS,
                         ids=[key for key, _, _ in STRUCTURAL_KEYS])
def test_number_for_a_structural_key_exits_2_with_its_reader_message(
        tmp_path, capsys, key, value, message):
    assert cli_main(["run", _scenario(tmp_path, **{key: value})]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and message in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("data", [
    {"lattice": {"n_x": "abc"}},
    {"seed": "x"},
    {"sweep": {"steps": "abc"}},
    {"initial_ones": [["a", 0, 0]]},
    {"dipole_scale": "z"},
    {"gradients": {"Gx_g_per_cm": "x"}},
    {"noise": {"lifetime_3P2_s": "x"}},
    {"atom": {"mass_kg": "x"}},
    {"lattice": 5},
    {"pipeline": "feasibility"},
    {"output_dir": 3},
    {"atom": {"lifetime_3P2_s": 0.001}},    # a noise parameter only
    {"depth_recoils": True},                # a bool is not a number
    {"gradients": {"B0_gauss": False}},
    {"pipeline": ["address"], "gradients": {"safety_factor": math.nan}},
    {"pipeline": ["address"], "gradients": {"safety_factor": -5.0}},
    {"pipeline": ["address"], "gradients": {"safety_factor": math.inf}},
])
def test_malformed_scenario_value_exits_2(tmp_path, capsys, data):
    assert cli_main(["run", _scenario(tmp_path, **data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


# (scenario key, the scenario holding value v there, v read back)
INTEGER_KEYS = [
    pytest.param("lattice.n_x", lambda v: {"lattice": {"n_x": v}},
                 lambda scn: scn.geom.n_x, id="lattice.n_x"),
    pytest.param("seed", lambda v: {"seed": v}, lambda scn: scn.seed,
                 id="seed"),
    pytest.param("sweep.steps", lambda v: {"sweep": {"steps": v}},
                 lambda scn: scn.sweep_steps, id="sweep.steps"),
    pytest.param("initial_ones", lambda v: {"initial_ones": [[v, 0, 0]]},
                 lambda scn: scn.initial_ones[0][0], id="initial_ones"),
]


@pytest.mark.parametrize("key, scenario, read_back", INTEGER_KEYS)
def test_integer_keys_take_whole_numbers_only(tmp_path, capsys, key,
                                              scenario, read_back):
    for bad in (2.9, 0.6, True):
        assert cli_main(["run", _scenario(tmp_path, **scenario(bad))]) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()
    value = read_back(load_scenario(_scenario(tmp_path, **scenario(2.0))))
    assert value == 2 and type(value) is int


# (scenario key, the scenario holding the value v there)
FLOAT_KEYS = [
    ("gradients.B0_gauss", lambda v: {"gradients": {"B0_gauss": v}}),
    ("gradients.target_gap_hz",
     lambda v: {"gradients": {"target_gap_hz": v}}),
    ("lattice.spacing_m", lambda v: {"lattice": {"spacing_m": v}}),
    ("sweep.b_min_gauss", lambda v: {"sweep": {"b_min_gauss": v}}),
    ("depth_recoils", lambda v: {"depth_recoils": v}),
    ("dipole_scale", lambda v: {"dipole_scale": v}),
]


@pytest.mark.parametrize("key, scenario", FLOAT_KEYS,
                         ids=[key for key, _ in FLOAT_KEYS])
def test_numeric_strings_exit_2_naming_the_key(tmp_path, capsys, key,
                                               scenario):
    # a number written as a JSON string is not a number, as in the atom
    # and noise sections
    for text in ("100", "50", "1e-3"):
        assert cli_main(["run", _scenario(tmp_path, **scenario(text))]) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["linear_zeeman = true",
                                  "nuclear_spin = 0.5",
                                  "electronic_J_3P2 = 2"])
def test_removed_atom_inputs_exit_2_naming_the_key(tmp_path, capsys, line):
    # the spins are constants and the linear-Zeeman emulation is gone
    key, _, value = line.partition(" = ")
    scn = _scenario(tmp_path, atom={key: json.loads(value)})
    assert cli_main(["run", scn]) == 2
    err = capsys.readouterr().err
    assert f"'atom.{key}'" in err and len(err.strip().splitlines()) == 1
    (tmp_path / "atom.cfg").write_text(line + "\n")
    assert cli_main(["levels", "--atom-config",
                     str(tmp_path / "atom.cfg")]) == 2
    captured = capsys.readouterr()
    assert key in captured.err and captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_output_dir_under_a_file_exits_2(tmp_path, capsys):
    assert cli_main(["run", _scenario(tmp_path, output_dir="scn.json/x")]) == 2
    err = capsys.readouterr().err
    assert "scn.json/x" in err and len(err.strip().splitlines()) == 1


def test_huge_atom_constant_exits_3(tmp_path, capsys):
    scn = _scenario(tmp_path, atom={"wavelength_1S0_3P2_m": 1e103})
    assert cli_main(["run", scn]) == 3
    err = capsys.readouterr().err
    assert err.startswith("physics error: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("stage", ["levels", "detunings"])
def test_overflowing_zeeman_energies_exit_3(tmp_path, capsys, stage):
    scn = _scenario(tmp_path, pipeline=[stage], atom={"g_J_3P2": 1e300},
                    sweep={"steps": 5})
    assert cli_main(["run", scn]) == 3
    err = capsys.readouterr().err
    assert err.startswith("physics error: ") and "g_J_3P2" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["g_J_3P2", "nuclear_moment_mu_n",
                                 "hyperfine_A_3P2_hz"])
def test_non_finite_zeeman_constant_exits_2_naming_it(tmp_path, capsys, key,
                                                      value):
    (tmp_path / "atom.cfg").write_text(f"{key} = {value}\n")
    assert cli_main(["levels", "--atom-config",
                     str(tmp_path / "atom.cfg")]) == 2
    scn = _scenario(tmp_path, pipeline=["levels"], atom={key: float(value)},
                    sweep={"steps": 5})
    assert cli_main(["run", scn]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count(f"error: {key} must be finite\n") == 2
    assert len(captured.err.strip().splitlines()) == 2
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# fuzzed scenario files

NUMBER = st.one_of(st.integers(-3, 3), st.floats(-1e6, 1e6),
                   st.sampled_from([math.nan, math.inf, -math.inf]))
JUNK = st.one_of(st.none(), st.booleans(), NUMBER, st.text(max_size=4),
                 st.lists(st.integers(-1, 2), max_size=3),
                 st.dictionaries(st.text(max_size=3), st.integers(0, 2),
                                 max_size=2))


def _section(keys, values=JUNK):
    """A JSON object over one or two of `keys`, or junk."""
    return st.one_of(st.dictionaries(st.sampled_from(sorted(keys)), values,
                                     max_size=2), JUNK)


# sweeps of at most 5 fields keep the levels and detunings stages cheap
SWEEP = st.fixed_dictionaries(
    {"steps": st.one_of(st.integers(-3, 5), st.floats(-3, 5), st.none(),
                        st.text(max_size=4),
                        st.sampled_from([math.nan, math.inf]))},
    optional={"b_min_gauss": JUNK, "b_max_gauss": JUNK})

# address and simulate are never drawn: the fuzz stays cheap
STAGES = st.lists(st.sampled_from(["feasibility", "levels", "detunings"]),
                  max_size=3, unique=True)

KEYS = {
    "pipeline": st.one_of(STAGES, JUNK),
    "atom": _section(AtomParams.__dataclass_fields__,
                     st.one_of(JUNK, st.floats(-1e308, 1e308))),
    "atom_config": JUNK,
    "lattice": _section({"n_x", "n_y", "n_z", "spacing_m"}),
    "gradients": _section({"B0_gauss", "Gx_g_per_cm", "Gy_g_per_cm",
                           "Gz_g_per_cm", "safety_factor", "target_gap_hz"}),
    "noise": _section(NoiseParams.__dataclass_fields__),
    "circuit_file": JUNK,
    "initial_ones": st.one_of(
        st.lists(st.lists(JUNK, max_size=4), max_size=2), JUNK),
    "seed": JUNK,
    "sweep": st.one_of(SWEEP, JUNK),
    "depth_recoils": JUNK,
    "dipole_scale": JUNK,
    # never an arbitrary string: outputs stay inside the scratch directory;
    # "scn.json/out" lies under the scenario file itself
    "output_dir": st.one_of(st.just("out"), st.just("scn.json/out"),
                            st.none(), st.integers(),
                            st.lists(st.integers(), max_size=1)),
}
# a few keys at a time, so that one bad value does not mask the others;
# the pipeline and the bounded sweep are there unless drawn as junk
SCENARIO = st.lists(st.sampled_from(sorted(KEYS)), max_size=3,
                    unique=True).flatmap(
    lambda keys: st.fixed_dictionaries(
        {"pipeline": STAGES, "sweep": SWEEP} | {k: KEYS[k] for k in keys}))


def _run_and_check_csv(data, circuit=None) -> None:
    """`ybqc run` exits 0, 2 or 3, and any CSV it writes holds finite
    numbers only; `circuit`, if given, is written beside the scenario as
    c.txt."""
    with tempfile.TemporaryDirectory() as tmp:
        if circuit is not None:
            (Path(tmp) / "c.txt").write_text(circuit)
        scn = Path(tmp) / "scn.json"
        scn.write_text(json.dumps(data))
        assert cli_main(["run", str(scn)]) in (0, 2, 3)
        for csv in Path(tmp).glob("**/*.csv"):
            text = csv.read_text()
            assert "nan" not in text and "inf" not in text


@settings(max_examples=150, deadline=None)
@given(data=SCENARIO)
def test_fuzzed_scenario_exits_0_2_or_3(data):
    _run_and_check_csv(data)


# powers of ten reach the overflow edge of the closed-form energies
SIGNED_DECADES = st.integers(-308, 308).flatmap(
    lambda e: st.sampled_from([10.0 ** e, -10.0 ** e]))


@settings(max_examples=40, deadline=None)
@given(atom=st.dictionaries(
    st.sampled_from(["g_J_3P2", "hyperfine_A_3P2_hz",
                     "nuclear_moment_mu_n"]),
    st.one_of(st.floats(-1e308, 1e308), SIGNED_DECADES), min_size=1),
       stage=st.sampled_from(["levels", "detunings", "simulate"]),
       steps=st.integers(2, 5))
@example(atom={"hyperfine_A_3P2_hz": 1.0}, stage="simulate", steps=2)
def test_fuzzed_zeeman_constants_exit_0_2_or_3(atom, stage, steps):
    # the simulate stage runs one rotation and one readout on one site
    _run_and_check_csv({"pipeline": [stage], "atom": atom,
                        "sweep": {"steps": steps},
                        "lattice": {"n_x": 1, "n_y": 1},
                        "circuit_file": "c.txt", "seed": 0},
                       circuit="X 0 0 1.0\nMEAS 0 0\n")


# ---------------------------------------------------------------------------
# fuzzed CLI flags: the flags reach the scenario readers and stage bodies

VALUE = st.sampled_from(["nan", "inf", "-inf", "-1", "-2.5", "0", "1e-300",
                         "650", str(10 ** 30), "1e308"])
# lattices of at most 3x3 and sweeps of at most 5 fields keep it cheap
# (HUGE steps fail before they allocate); argparse itself rejects "nan"
# for an integer flag
COUNT = st.sampled_from(["nan", "-1", "0", "1", "2", "3"])
STEPS = st.sampled_from(["nan", "-1", "0", "1", "2", "5", str(HUGE)])
LATTICE = {"--nz": COUNT, "--spacing-m": VALUE}
COMMANDS = {
    "levels": ({"--steps": STEPS},
               {"--b-gauss": VALUE, "--b-max-gauss": VALUE}),
    "detunings": ({"--steps": STEPS},
                  {"--b-gauss": VALUE, "--b-min-gauss": VALUE,
                   "--b-max-gauss": VALUE}),
    "address": ({"--nx": COUNT, "--ny": COUNT},
                LATTICE | {"--b0-gauss": VALUE, "--gx-g-per-cm": VALUE,
                           "--gy-g-per-cm": VALUE, "--gz-g-per-cm": VALUE,
                           "--target-gap-hz": VALUE}),
    "plan": ({"--nx": COUNT, "--ny": COUNT},
             LATTICE | {"--b0-gauss": VALUE, "--target-gap-hz": VALUE}),
    "feasibility": ({}, {"--depth-recoils": VALUE}),
    "ddi": ({}, {"--spacing-m": VALUE, "--m1-mub": VALUE, "--m2-mub": VALUE,
                 "--theta-rad": VALUE}),
}


# atom constants for --atom-config: 0.6 and 0 put the calibration root
# outside its bracket
ATOM_CONFIG = st.fixed_dictionaries({
    "g_J_3P2": st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, 0.6])),
    "nuclear_moment_mu_n": st.floats(-2.0, 2.0)})


@st.composite
def cli_argv(draw):
    """argv of one subcommand: its bounding flags, some of its others
    and maybe --calibrate, each as --flag=value so "-inf" stays a value;
    and the atom constants to pass with --atom-config, or None."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    names = sorted(required) + draw(st.lists(
        st.sampled_from(sorted(optional)), unique=True, max_size=3))
    flags = required | optional
    argv = [command] + [f"{name}={draw(flags[name])}" for name in names]
    return (argv + ["--calibrate"] * draw(st.booleans()),
            draw(st.none() | ATOM_CONFIG))


@settings(max_examples=150, deadline=None)
@given(case=cli_argv())
def test_fuzzed_cli_flags_exit_0_2_or_3(case):
    argv, atom = case
    out, err = io.StringIO(), io.StringIO()
    usage = False
    with tempfile.TemporaryDirectory() as tmp, \
            redirect_stdout(out), redirect_stderr(err):
        if atom is not None:
            config = Path(tmp) / "atom.cfg"
            config.write_text("".join(f"{key} = {value!r}\n"
                                      for key, value in atom.items()))
            argv = [*argv, "--atom-config", str(config)]
        try:
            code = cli_main(argv)
        except SystemExit as exc:     # argparse rejects the value itself
            code, usage = exc.code, True
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if not usage:
        assert len(err.getvalue().strip().splitlines()) <= 1
    if code:
        assert out.getvalue() == ""
    else:
        assert not re.search(r"\b(nan|inf|NaN|Infinity)\b", out.getvalue())


# ---------------------------------------------------------------------------
# fuzzed circuit files: random gate lines through `compile` and `simulate`

INDEX = st.integers(-1, 2)
ANGLE = st.one_of(
    st.floats(0.0, 2 * math.pi).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-1", "-0.0", "1e20", "1e300",
                     "1.7e308", "1e400", "x"]))
JUNK_LINE = st.sampled_from(["Y 0 0 1.0", "X 0 0", "CNOT 0 0 1", "MEAS",
                             "MEAS 0 0 0", "CNOT a b c d", "X 0.5 0 1",
                             "# comment", ""])
GATE_LINE = st.one_of(
    st.tuples(INDEX, INDEX, ANGLE).map(lambda t: "X {} {} {}".format(*t)),
    st.tuples(INDEX, INDEX, INDEX, INDEX).map(
        lambda t: "CNOT {} {} {} {}".format(*t)),
    st.tuples(INDEX, INDEX).map(lambda t: "MEAS {} {}".format(*t)),
    JUNK_LINE)


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["compile", "simulate"]),
       lattice=st.sampled_from([(1, 1), (2, 1), (2, 2)]),
       lines=st.lists(GATE_LINE, min_size=1, max_size=5),
       spacing=st.one_of(st.none(), VALUE),
       scale=st.one_of(st.none(), VALUE))
@example(command="compile", lattice=(1, 1), lines=["X 0 0 nan"],
         spacing=None, scale=None)
def test_fuzzed_circuits_exit_0_2_or_3(command, lattice, lines, spacing,
                                       scale):
    with tempfile.TemporaryDirectory() as tmp:
        circuit = Path(tmp) / "c.txt"
        circuit.write_text("\n".join(lines) + "\n")
        argv = [command, "--circuit", str(circuit), "--nx", str(lattice[0]),
                "--ny", str(lattice[1])]
        if spacing is not None:
            argv.append(f"--spacing-m={spacing}")
        if command == "simulate":
            argv += ["--seed", "1"]
            if scale is not None:
                argv.append(f"--dipole-scale={scale}")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().strip().splitlines()) <= 1
    if code:
        assert out.getvalue() == ""
    else:
        assert not re.search(r"\b(nan|inf|NaN|Infinity)\b|-0\.0\b",
                             out.getvalue())
