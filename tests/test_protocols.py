"""Protocol-level tests: transfer fidelity, layer selection, 3-photon
gates, the dipole-shift CNOT, and projective measurement."""

import math

import numpy as np
import pytest

from ybqc.addressing import (GradientConfig, LatticeGeometry, plan_gradients,
                             site_field)
from ybqc.atomic import AtomParams, calibrate_hyperfine_A, three_photon_detunings
from ybqc.compiler import (BIAS_FIELD_T, GATE_RABI_FRACTION, TARGET_GAP_HZ,
                           TRANSFER_RABI_1Q_RAD_S, TRANSFER_RABI_2Q_RAD_S,
                           compile_circuit, execute_schedule, parse_circuit)
from ybqc.constants import GAUSS
from ybqc.engine import (EM32, EP32, GM, GP, NLEV, NoiseParams, RegisterState)
from ybqc.errors import (AddressingError, ConfigError, GeometryError,
                         ProtocolOrderError)
from ybqc.protocols import (cnot, cnot_pulse_parameters, ladder_gap,
                            measure_qubit, select_layer, single_qubit_gate,
                            three_photon_scan, transfer)

P = AtomParams()
PCAL = calibrate_hyperfine_A(P)
OFF = NoiseParams.off()


# ---------------------------------------------------------------------------
# 3-photon scan

def test_scan_pi_time_tracks_effective_model():
    det = three_photon_detunings(PCAL, 650 * GAUSS)
    rabi = 0.05 * min(abs(det.delta1_rad_s), abs(det.delta2_rad_s))
    scan = three_photon_scan(PCAL, 650 * GAUSS, rabi)
    assert scan.pi_time_s == pytest.approx(scan.predicted_pi_time_s,
                                           rel=0.05)
    assert scan.transfer_probability > 0.99
    assert scan.leakage < 5e-3


def test_scan_uncompensated_transfer_degrades():
    good = three_photon_scan(PCAL, 650 * GAUSS, 2 * math.pi * 985e3)
    bad = three_photon_scan(PCAL, 650 * GAUSS, 2 * math.pi * 985e3,
                            compensate=False)
    assert good.transfer_probability > 0.99
    assert bad.transfer_probability < 0.9


def test_scan_zero_rabi_rejected():
    with pytest.raises(ConfigError):
        three_photon_scan(PCAL, 650 * GAUSS, 0.0)


# ---------------------------------------------------------------------------
# transfer / layer selection

def test_transfer_round_trip():
    geom = LatticeGeometry(2, 1, 1)
    cfg = plan_gradients(geom, 1000.0, P)
    reg = RegisterState.product(P, geom, [(0, 0, 0)], [GM])
    up, rep = transfer(reg, [(0, 0, 0)], "to_metastable", cfg, OFF,
                       rabi=2 * math.pi * 25)
    assert rep.excited_population[(0, 0, 0)] > 0.999
    down, rep2 = transfer(up, [(0, 0, 0)], "to_ground", cfg, OFF,
                          rabi=2 * math.pi * 25)
    assert rep2.ground_population[(0, 0, 0)] > 0.998
    down.check_accounting()


def test_transfer_superposition_both_legs():
    geom = LatticeGeometry(1, 1, 1)
    cfg = GradientConfig(100 * GAUSS)
    amps = np.zeros(NLEV, complex)
    amps[GM] = amps[GP] = 1 / math.sqrt(2)
    reg = RegisterState(P, geom, [(0, 0, 0)], amps)
    up, _ = transfer(reg, [(0, 0, 0)], "to_metastable", cfg, OFF)
    assert up.population((0, 0, 0), EM32) == pytest.approx(0.5, abs=1e-6)
    assert up.population((0, 0, 0), EP32) == pytest.approx(0.5, abs=1e-6)


def test_transfer_unresolvable_raises():
    geom = LatticeGeometry(2, 1, 1)
    cfg = GradientConfig(100 * GAUSS)  # no gradients: sites degenerate
    reg = RegisterState.product(P, geom, [(0, 0, 0), (1, 0, 0)], [GM, GM])
    with pytest.raises(AddressingError):
        transfer(reg, [(0, 0, 0)], "to_metastable", cfg, OFF)
    with pytest.raises(ConfigError):
        transfer(reg, [(0, 0, 0)], "sideways", cfg, OFF)


def test_layer_selection_keeps_target_layer():
    geom = LatticeGeometry(1, 1, 2)
    # layer gap ~10 kHz like the reference design (Gz = Gy of a 10-wide
    # plan) so a 500 Hz transfer stays selective
    cfg = plan_gradients(LatticeGeometry(10, 10, 2), 1000.0, P)
    reg = RegisterState.product(P, geom, [(0, 0, 0), (0, 0, 1)], [GM, GP])
    out, rep = select_layer(reg, 0, cfg, OFF)
    assert rep.selection_error[(0, 0, 0)] < 1e-2   # kept atom survives
    assert rep.selection_error[(0, 0, 1)] < 1e-2   # other layer removed
    assert out.population((0, 0, 0), GM) / max(out.survival, 1e-300) > 0.98
    with pytest.raises(IndexError):
        select_layer(reg, 5, cfg, OFF)


# ---------------------------------------------------------------------------
# single-qubit gate

def _aux_register(bias_t, level=EM32, geom=None, sites=None, levels=None):
    geom = geom or LatticeGeometry(1, 1, 1)
    sites = sites or [(0, 0, 0)]
    levels = levels or [level]
    return RegisterState.product(PCAL, geom, sites, levels)


def test_single_qubit_pi_gate_flips_aux():
    cfg = GradientConfig(650 * GAUSS)
    reg = _aux_register(650 * GAUSS)
    det = three_photon_detunings(PCAL, 650 * GAUSS)
    rabi = 0.05 * min(abs(det.delta1_rad_s), abs(det.delta2_rad_s))
    out, rep = single_qubit_gate(reg, (0, 0, 0), math.pi, 0.0,
                                 650 * GAUSS, rabi, OFF, cfg)
    assert out.population((0, 0, 0), EP32) > 0.99
    assert rep.leakage < 5e-3
    assert rep.achieved_rotation_rad == pytest.approx(math.pi, rel=0.05)


def test_single_qubit_gate_requires_aux_manifold():
    cfg = GradientConfig(650 * GAUSS)
    reg = RegisterState.product(PCAL, LatticeGeometry(1, 1, 1),
                                [(0, 0, 0)], [GM])
    with pytest.raises(ProtocolOrderError):
        single_qubit_gate(reg, (0, 0, 0), math.pi, 0.0, 650 * GAUSS,
                          2 * math.pi * 1e5, OFF, cfg)


def test_single_qubit_gate_warns_on_strong_drive():
    cfg = GradientConfig(650 * GAUSS)
    reg = _aux_register(650 * GAUSS)
    det = three_photon_detunings(PCAL, 650 * GAUSS)
    rabi = 0.5 * min(abs(det.delta1_rad_s), abs(det.delta2_rad_s))
    _, rep = single_qubit_gate(reg, (0, 0, 0), 0.0, 0.0, 650 * GAUSS,
                               rabi, OFF, cfg)
    assert rep.warnings


# ---------------------------------------------------------------------------
# CNOT

def _two_aux(levels):
    geom = LatticeGeometry(2, 1, 1)
    cfg = plan_gradients(geom, 1000.0, P)
    reg = RegisterState.product(P, geom, [(0, 0, 0), (1, 0, 0)], levels)
    return geom, cfg, reg


@pytest.mark.parametrize("control,flip", [(EM32, False), (EP32, True)])
def test_cnot_truth_behavior(control, flip):
    _, cfg, reg = _two_aux([control, EM32])
    out, rep = cnot(reg, (0, 0, 0), (1, 0, 0), cfg, noise=OFF)
    assert rep.conditional
    p_flip = out.population((1, 0, 0), EP32)
    if flip:
        assert p_flip > 0.98
    else:
        assert p_flip < 0.02


def test_cnot_shift_sign_and_magnitude():
    geom, cfg, _ = _two_aux([EM32, EM32])
    shift, _det = cnot_pulse_parameters(P, geom, cfg, (0, 0, 0), (1, 0, 0))
    # in-plane pair: angular factor +1 instead of the axial -2
    assert abs(shift) == pytest.approx(40.22 / 2, rel=0.02)


def test_cnot_requires_adjacent_and_aux():
    geom = LatticeGeometry(3, 1, 1)
    cfg = plan_gradients(geom, 1000.0, P)
    reg = RegisterState.product(P, geom, [(0, 0, 0), (2, 0, 0)],
                                [EM32, EM32])
    with pytest.raises(GeometryError):
        cnot(reg, (0, 0, 0), (2, 0, 0), cfg, noise=OFF)
    reg2 = RegisterState.product(P, geom, [(0, 0, 0), (1, 0, 0)],
                                 [GM, EM32])
    with pytest.raises(ProtocolOrderError):
        cnot(reg2, (0, 0, 0), (1, 0, 0), cfg, noise=OFF)


def test_cnot_conditionality_vanishes_without_dipole():
    _, cfg, reg0 = _two_aux([EM32, EM32])
    out0, rep = cnot(reg0, (0, 0, 0), (1, 0, 0), cfg, noise=OFF,
                     dipole_scale=0.0)
    assert not rep.conditional
    assert rep.warnings
    # target flips even though the control is 0
    assert out0.population((1, 0, 0), EP32) > 0.98


# ---------------------------------------------------------------------------
# measurement

def _superposition_in_aux():
    geom = LatticeGeometry(1, 1, 1)
    amps = np.zeros(NLEV, complex)
    amps[EM32] = amps[EP32] = 1 / math.sqrt(2)
    return RegisterState(P, geom, [(0, 0, 0)], amps)


def test_measurement_statistics_on_equal_superposition():
    reg = _superposition_in_aux()
    noise = NoiseParams()
    rng = np.random.default_rng(12345)
    n = 10_000
    ones = 0
    for _ in range(n):
        bit, _post, rep = measure_qubit(reg, (0, 0, 0), noise, rng)
        ones += bit
    assert rep.probability_one == pytest.approx(0.5, abs=1e-9)
    assert ones / n == pytest.approx(0.5, abs=0.02)


def test_measurement_collapse_and_determinism():
    reg = _superposition_in_aux()
    noise = NoiseParams()
    seq1 = [measure_qubit(reg, (0, 0, 0), noise, seed)[0]
            for seed in range(200)]
    seq2 = [measure_qubit(reg, (0, 0, 0), noise, seed)[0]
            for seed in range(200)]
    assert seq1 == seq2
    assert 0 in seq1 and 1 in seq1
    bit, post, _ = measure_qubit(reg, (0, 0, 0), noise, 5)
    # collapsed register is pure in the measured outcome
    if bit == 1:
        assert post.population((0, 0, 0), GP) == pytest.approx(1.0,
                                                               abs=1e-9)
    else:
        assert post.population((0, 0, 0), EM32) == pytest.approx(1.0,
                                                                 abs=1e-9)
    assert post.survival == pytest.approx(1.0, abs=1e-9)


def test_measurement_requires_seed_and_protocol_order():
    reg = _superposition_in_aux()
    with pytest.raises(ConfigError):
        measure_qubit(reg, (0, 0, 0), NoiseParams(), None)
    bad = RegisterState.product(P, LatticeGeometry(1, 1, 1),
                                [(0, 0, 0)], [3])  # intermediate e level
    with pytest.raises(ProtocolOrderError):
        measure_qubit(bad, (0, 0, 0), NoiseParams(), 1)


def test_measurement_branching_loss_report():
    reg = _superposition_in_aux()
    gentle = NoiseParams()
    _, _, rep = measure_qubit(reg, (0, 0, 0), gentle, 1)
    assert rep.n_scattered == pytest.approx(24000.0)
    assert not rep.branching_loss_flag
    lossy = NoiseParams(branching_1P1_to_3D=1e-6)
    _, _, rep2 = measure_qubit(reg, (0, 0, 0), lossy, 1)
    assert rep2.branching_loss_flag


# ---------------------------------------------------------------------------
# compiled schedule vs protocol calls

def _protocol_path(circuit_op, geom, noise, dipole_scale):
    """Run one gate through transfer / single_qubit_gate / cnot at the
    compiler's gradients and Rabi rates, starting from all-ground."""
    cfg = plan_gradients(geom, TARGET_GAP_HZ, P, B0_t=BIAS_FIELD_T)
    if circuit_op[0] == "X":
        _, site, theta = circuit_op
        reg = RegisterState.product(P, geom, [site], [GM])
        reg, _ = transfer(reg, [site], "to_metastable", cfg, noise,
                          rabi=TRANSFER_RABI_1Q_RAD_S)
        B = site_field(geom, cfg, site)
        reg, _ = single_qubit_gate(reg, site, theta, 0.0, B,
                                   GATE_RABI_FRACTION * ladder_gap(P, B),
                                   noise, cfg, dipole_scale)
        reg, _ = transfer(reg, [site], "to_ground", cfg, noise,
                          rabi=TRANSFER_RABI_1Q_RAD_S)
        return reg
    _, control, target = circuit_op
    reg = RegisterState.product(P, geom, [control, target], [GP, GM])
    for site, direction in ((control, "to_metastable"),
                            (target, "to_metastable")):
        reg, _ = transfer(reg, [site], direction, cfg, noise,
                          rabi=TRANSFER_RABI_2Q_RAD_S)
    reg, _ = cnot(reg, control, target, cfg, noise, dipole_scale)
    for site in (target, control):
        reg, _ = transfer(reg, [site], "to_ground", cfg, noise,
                          rabi=TRANSFER_RABI_2Q_RAD_S)
    return reg


@pytest.mark.parametrize("circuit,dipole_scale", [
    ("X 0 0 1.2", 1.0), ("X 0 0 1.2", 0.5), ("CNOT 0 0 1 0", 1.0)])
def test_compiled_path_matches_protocol_path(circuit, dipole_scale):
    geom = LatticeGeometry(2, 1, 1)
    noise = NoiseParams()
    (op,) = parse_circuit(circuit)
    sched = compile_circuit(circuit, geom, P, noise)
    sites = sorted(s for s in op[1:] if isinstance(s, tuple))
    levels = [GP, GM] if op[0] == "CNOT" else [GM]
    reg = RegisterState.product(P, geom, sites, levels)
    compiled = execute_schedule(reg, sched, noise,
                                dipole_scale=dipole_scale).register
    direct = _protocol_path(op, geom, noise, dipole_scale)
    assert direct.sites == compiled.sites
    assert np.max(np.abs(direct.amps - compiled.amps)) < 1e-12
    assert direct.leaked == pytest.approx(compiled.leaked, abs=1e-12)
    assert compiled.leaked > 0.0    # noise on: the comparison sees loss
