"""Bad inputs end in exit code 2 or 3 with a one-line message, never a
traceback: off-lattice circuit sites, missing files and malformed flags,
malformed scenario values, atom constants that overflow, and a property
test fuzzing the value type of every scenario key."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ybqc.atomic import AtomParams
from ybqc.cli import main as cli_main
from ybqc.engine import NoiseParams


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
])
def test_cli_file_and_flag_errors_exit_2(tmp_path, monkeypatch, capsys,
                                         argv, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.txt").write_text("X 0 0 1.0\nMEAS 0 0\nMEAS 1 0\n")
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert len(err.strip().splitlines()) == 1


def test_initial_one_off_the_circuit_exits_2(tmp_path, capsys):
    (tmp_path / "c.txt").write_text("X 0 0 1.0\nMEAS 0 0\n")
    scn = _scenario(tmp_path, pipeline=["simulate"],
                    lattice={"n_x": 2, "n_y": 2, "n_z": 1},
                    circuit_file="c.txt", seed=1, initial_ones=[[1, 1, 0]])
    assert cli_main(["run", scn]) == 2
    err = capsys.readouterr().err
    assert "(1, 1, 0)" in err and len(err.strip().splitlines()) == 1
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
])
def test_malformed_scenario_value_exits_2(tmp_path, capsys, data):
    assert cli_main(["run", _scenario(tmp_path, **data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


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


def _run_and_check_csv(data) -> None:
    """`ybqc run` exits 0, 2 or 3, and any CSV it writes holds finite
    numbers only."""
    with tempfile.TemporaryDirectory() as tmp:
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
       stage=st.sampled_from(["levels", "detunings"]),
       steps=st.integers(2, 5))
def test_fuzzed_zeeman_constants_exit_0_2_or_3(atom, stage, steps):
    _run_and_check_csv({"pipeline": [stage], "atom": atom,
                        "sweep": {"steps": steps}})
