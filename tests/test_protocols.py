"""Protocol-level tests: transfer fidelity, 3-photon gates, the dipole-shift CNOT, and projective measurement.  Gates are
built with the pulse builders and run through `engine.apply_segment`."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ybqc import addressing, atomic, protocols
from ybqc.addressing import (GradientConfig, LatticeGeometry, plan_gradients,
                             site_levels)
from ybqc.atomic import AtomParams, calibrate_hyperfine_A, ladder_detunings
from ybqc.cli import main as cli_main
from ybqc.compiler import (TRANSFER_RABI_1Q_RAD_S, TRANSFER_RABI_2Q_RAD_S,
                           compile_circuit, execute_schedule, parse_circuit)
from ybqc.constants import CM, GAUSS
from ybqc.engine import (EM12, EM32, EP12, EP32, GM, GP, NLEV, NoiseParams,
                         Pulse, PulseSchedule, PulseSegment, RegisterState,
                         _leg_offsets, _single_atom_hamiltonian,
                         basis_labels, light_shift_compensation)
from ybqc.errors import (ConfigError, DegenerateManifoldError,
                         GeometryError, IntegratorError,
                         PhysicsError, ProtocolOrderError)
from ybqc.protocols import (GATE_RABI_FRACTION, SCAN_SAMPLES, SCAN_WINDOW,
                            DetectionReport, ThreePhotonScan, cnot_pulse,
                            cnot_pulse_parameters, measure_qubit,
                            rotation_pulse, three_photon_scan, transfer_pulse)
from ybqc.scenario import simulate_circuit

from conftest import apply_stepwise, atom_levels, level_populations

P = AtomParams()
PCAL = calibrate_hyperfine_A(P)
OFF = NoiseParams.off()


def _fraction(reg, axis, levels):
    """Population of `levels` of atom `axis` over the register survival."""
    return level_populations(reg, axis)[list(levels)].sum() / reg.survival


def _on(geom, *sites, params=P):
    """An empty schedule owning `params`, `geom` and `sites`."""
    return PulseSchedule((), sites, params, geom)


# ---------------------------------------------------------------------------
# 3-photon scan

def _gap(det) -> float:
    """min(|Delta1|, |Delta2|) of a one-field ladder."""
    return min(abs(float(det.delta1_rad_s[0])),
               abs(float(det.delta2_rad_s[0])))


def test_scan_pi_time_tracks_effective_model():
    det = ladder_detunings(PCAL, [650 * GAUSS])
    rabi = 0.05 * _gap(det)
    scan = three_photon_scan(det, 0, rabi)
    assert scan.pi_time_s == pytest.approx(scan.predicted_pi_time_s,
                                           rel=0.05)
    assert scan.transfer_probability > 0.99
    assert scan.leakage < 5e-3


@settings(max_examples=100, deadline=None)
@given(log_b=st.floats(math.log10(20 * GAUSS), math.log10(1.5)),
       fraction=st.floats(0.005, 0.3), calibrated=st.booleans())
def test_scan_finds_the_first_envelope_maximum(log_b, fraction, calibrated):
    # the grid spans 1.5 predicted pi times and holds one envelope
    # maximum, so its argmax is the pi time
    params, B = PCAL if calibrated else P, 10 ** log_b
    det = ladder_detunings(params, [B])
    rabi = fraction * _gap(det)
    scan = three_photon_scan(det, 0, rabi)
    lo, hi = SCAN_WINDOW
    assert lo < scan.pi_time_s / scan.predicted_pi_time_s < hi
    assert scan.transfer_probability > 0.98


def _full_grid(det, rabi, explicit=False):
    """The a->d population on all SCAN_SAMPLES points of the grid over 1.5
    predicted pi times of the one-field ladder `det`, with the grid step
    and the ladder's eigensystem: by the scan's own `_d_population`, or
    (`explicit`) by one complex exponential per eigenstate and grid
    point."""
    omega_eff = rabi ** 3 / (4 * float(det.delta1_rad_s[0])
                             * float(det.delta2_rad_s[0]))
    t_pred = math.pi / abs(omega_eff)
    drive = Pulse("three_photon", t_pred, rabi)
    ladder = slice(EM32, EP32 + 1)
    H = _single_atom_hamiltonian(_leg_offsets(det, None, 0, drive)[0],
                                 drive)[ladder, ladder]
    w, V = np.linalg.eigh(H)
    dt = 1.5 * t_pred / (SCAN_SAMPLES - 1)
    if explicit:
        ts = np.arange(SCAN_SAMPLES) * dt
        amps = (np.exp(-1j * np.outer(ts, w)) * V[0, :]) @ V.T
        Pd = np.abs(amps[:, 3]) ** 2
    else:
        Pd = protocols._d_population(w, V[3, :] * V[0, :], dt, 0,
                                     SCAN_SAMPLES)
    return Pd, dt, t_pred, w, V


def _full_grid_scan(det, rabi, explicit=False):
    """Reference: the argmax and parabola over all SCAN_SAMPLES points of
    the grid over 1.5 predicted pi times of the one-field ladder `det`,
    with no window."""
    Pd, dt, t_pred, w, V = _full_grid(det, rabi, explicit)
    idx = int(np.argmax(Pd))
    t_pi = idx * dt
    if 0 < idx < len(Pd) - 1:
        y0, ym, yp = Pd[idx], Pd[idx - 1], Pd[idx + 1]
        denom = ym - 2 * y0 + yp
        if denom != 0:
            t_pi = t_pi + 0.5 * dt * (ym - yp) / denom
    Ppi = np.abs((np.exp(-1j * t_pi * w) * V[0, :]) @ V.T) ** 2
    return ThreePhotonScan(t_pred, float(t_pi), float(Ppi[3]),
                           float(Ppi[1] + Ppi[2]))


# the two scan domains: the tested Rabi fractions between 20 G and 1.5 T,
# and the compiler's drive at every field a scenario can reach (1 uT to
# 100 T)
SCAN_DOMAINS = st.one_of(
    st.tuples(st.floats(math.log10(20 * GAUSS), math.log10(1.5)),
              st.floats(0.005, 0.3)),
    st.tuples(st.floats(-6.0, 2.0), st.just(GATE_RABI_FRACTION)))


@settings(max_examples=100, deadline=None)
@given(point=SCAN_DOMAINS, calibrated=st.booleans())
def test_factorised_scan_matches_the_per_point_formula(point, calibrated):
    # block-factorised phases against one exponential per grid point: the
    # same grid maximum, grid values to rounding, and the pi time, transfer
    # and leakage as far as that rounding can move them
    log_b, fraction = point
    params, B = PCAL if calibrated else P, 10 ** log_b
    det = ladder_detunings(params, [B])
    rabi = fraction * _gap(det)
    factorised, dt, _, w, V = _full_grid(det, rabi)
    explicit = _full_grid(det, rabi, explicit=True)[0]
    idx = int(np.argmax(explicit))
    assert np.argmax(factorised) == idx
    eps = np.max(np.abs(factorised - explicit))
    assert eps <= 1e-12
    scan = three_photon_scan(det, 0, rabi)
    oracle = _full_grid_scan(det, rabi, explicit=True)
    # grid values that differ by eps move the parabola's vertex by at most
    # 3 eps / (|denom| - 4 eps) grid steps; near 0.5 % of min|Delta| the
    # aliased ripple can make |denom| small enough for that to pass 1e-12
    # of the pi time
    denom = abs(explicit[idx - 1] - 2 * explicit[idx] + explicit[idx + 1])
    shift = abs(scan.pi_time_s - oracle.pi_time_s)
    assert shift <= 1e-12 * oracle.pi_time_s + 3 * eps * dt / (denom - 4 * eps)
    # and a population m moves at most 2 sum_k |V[m, k] V[a, k] w_k| per
    # second of that shift
    rate = 2 * np.abs(V * V[0, :] * w).sum(axis=1)
    assert abs(scan.transfer_probability - oracle.transfer_probability) \
        <= 1e-9 + rate[3] * shift
    assert abs(scan.leakage - oracle.leakage) \
        <= 1e-9 + (rate[1] + rate[2]) * shift


@settings(max_examples=100, deadline=None)
@given(log_b=st.floats(math.log10(20 * GAUSS), math.log10(1.5)),
       fraction=st.floats(0.005, 0.3), calibrated=st.booleans())
def test_windowed_scan_equals_the_full_grid_scan(log_b, fraction,
                                                  calibrated):
    params, B = PCAL if calibrated else P, 10 ** log_b
    det = ladder_detunings(params, [B])
    rabi = fraction * _gap(det)
    assert three_photon_scan(det, 0, rabi) \
        == _full_grid_scan(det, rabi)


@settings(max_examples=100, deadline=None)
@given(log_b=st.floats(-6.0, 2.0), calibrated=st.booleans())
def test_scan_at_the_gate_rabi_fraction_equals_the_full_grid_scan(
        log_b, calibrated):
    # the compiler's drive at every field a scenario can reach, 1 uT to
    # 100 T: the window holds the maximum, so it is the full-grid one
    params, B = PCAL if calibrated else P, 10 ** log_b
    det = ladder_detunings(params, [B])
    rabi = GATE_RABI_FRACTION * _gap(det)
    scan = three_photon_scan(det, 0, rabi)
    assert scan == _full_grid_scan(det, rabi)
    assert 0.99 < scan.pi_time_s / scan.predicted_pi_time_s < 1.01


def test_windowed_scan_equals_the_full_grid_scan_at_the_readme_point():
    det = ladder_detunings(PCAL, [650 * GAUSS])
    rabi = 2 * math.pi * 985e3
    assert three_photon_scan(det, 0, rabi) \
        == _full_grid_scan(det, rabi)


def test_scan_maximum_on_the_window_edge_raises(tmp_path, monkeypatch,
                                                capsys):
    # a window on the rising envelope, before the pi time: at 0.5 % of
    # min|Delta| the ladder's fast ripple is far below the envelope's rise
    # between grid points, so the argmax is the window's last point
    monkeypatch.setattr(protocols, "SCAN_WINDOW", (0.5, 0.6))
    monkeypatch.setattr(protocols, "GATE_RABI_FRACTION", 0.005)
    params, B = PCAL, 650 * GAUSS
    det = ladder_detunings(params, [B])
    rabi = 0.005 * _gap(det)
    with pytest.raises(IntegratorError, match="outside"):
        three_photon_scan(det, 0, rabi)
    (tmp_path / "c.txt").write_text("X 0 0 1.0\n")
    assert cli_main(["compile", "--circuit", str(tmp_path / "c.txt"),
                     "--nx", "1", "--ny", "1",
                     "--out", str(tmp_path / "s.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("physics error: ") and "outside" in err
    assert len(err.strip().splitlines()) == 1


def test_scan_envelope_maximum_outside_the_window_raises(monkeypatch):
    # at 5 % of min|Delta| the ripple peaks inside a window on the rising
    # envelope outrank its last point, so the edge check alone passes a
    # pi time near 0.6 predicted pi times; the dressed-state beat does not
    monkeypatch.setattr(protocols, "SCAN_WINDOW", (0.5, 0.6))
    params, B = P, 100 * GAUSS
    det = ladder_detunings(params, [B])
    rabi = 0.05 * _gap(det)
    with pytest.raises(IntegratorError, match="outside"):
        three_photon_scan(det, 0, rabi)


def test_scan_edge_check_catches_a_maximum_the_envelope_check_passes(
        monkeypatch):
    # 100 G, uncalibrated, 0.5 % of min|Delta|: the dressed-state envelope
    # maximum lies at 1.000012 predicted pi times, inside the window, and
    # the grid maximum at 0.999675, the window's first evaluated point
    monkeypatch.setattr(protocols, "SCAN_WINDOW", (0.9997, 1.15))
    params, B = P, 100 * GAUSS
    det = ladder_detunings(params, [B])
    rabi = 0.005 * _gap(det)
    with pytest.raises(IntegratorError, match="scan maximum lies outside"):
        three_photon_scan(det, 0, rabi)


def test_scan_uncompensated_transfer_degrades():
    # engine pulses of the scan's pi time: the compensated drive transfers,
    # a drive detuned by -eps (no light-shift compensation) does not
    B, rabi, site = 650 * GAUSS, 2 * math.pi * 985e3, (0, 0, 0)
    det = ladder_detunings(PCAL, [B])
    scan = three_photon_scan(det, 0, rabi)
    eps = light_shift_compensation(float(det.delta1_rad_s[0]),
                                   float(det.delta2_rad_s[0]), rabi)
    one = _on(LatticeGeometry(1, 1, 1), site, params=PCAL)
    reg = RegisterState.product([EM32])

    def transfer(detuning):
        pulse = Pulse("three_photon", scan.pi_time_s, rabi,
                      detuning_rad_s=detuning, target=("site", site))
        out = apply_stepwise(reg, one, PulseSegment(GradientConfig(B), pulse),
                             OFF)
        return level_populations(out, 0)[EP32]

    assert transfer(0.0) > 0.99
    assert transfer(-eps) < 0.9


def test_scan_rejects_detunings_whose_product_underflows():
    # A = 1e-190 Hz at 1e-200 T: detunings near 1e-190 rad/s, whose
    # product underflows to 0
    atom = AtomParams(hyperfine_A_3P2_hz=1e-190)
    with pytest.raises(DegenerateManifoldError, match="zero product"):
        three_photon_scan(ladder_detunings(atom, [1e-200]), 0, 1.0)


def test_scan_zero_rabi_rejected():
    with pytest.raises(ConfigError):
        three_photon_scan(ladder_detunings(PCAL, [650 * GAUSS]), 0, 0.0)


@pytest.mark.parametrize("rabi", [1e200, np.float64(1e200), math.inf,
                                  math.nan])
def test_scan_non_finite_effective_rabi_rejected(rabi):
    with pytest.raises(ConfigError, match="non-finite"):
        three_photon_scan(ladder_detunings(PCAL, [650 * GAUSS]), 0, rabi)


# ---------------------------------------------------------------------------
# transfer

def test_transfer_round_trip():
    geom = LatticeGeometry(2, 1, 1)
    cfg = plan_gradients(geom, 1000.0, P)
    site = (0, 0, 0)
    one = _on(geom, site)
    reg = RegisterState.product([GM])
    leg = PulseSegment(cfg, transfer_pulse(("site", site),
                                           2 * math.pi * 25))
    up = apply_stepwise(reg, one, leg, OFF)
    assert _fraction(up, 0, (EM32, EP32)) > 0.999
    down = apply_stepwise(up, one, leg, OFF)
    assert _fraction(down, 0, (GM, GP)) > 0.998
    down.check_accounting()


def test_transfer_superposition_both_legs():
    geom = LatticeGeometry(1, 1, 1)
    cfg = GradientConfig(100 * GAUSS)
    amps = np.zeros(NLEV, complex)
    amps[GM] = amps[GP] = 1 / math.sqrt(2)
    reg = RegisterState(amps)
    up = apply_stepwise(reg, _on(geom, (0, 0, 0)), PulseSegment(
        cfg, transfer_pulse(("all",), 2 * math.pi * 500.0)), OFF)
    pops = level_populations(up, 0)
    assert pops[EM32] == pytest.approx(0.5, abs=1e-6)
    assert pops[EP32] == pytest.approx(0.5, abs=1e-6)


# ---------------------------------------------------------------------------
# single-qubit gate

def test_single_qubit_pi_gate_flips_aux():
    B = 650 * GAUSS
    site = (0, 0, 0)
    reg = RegisterState.product([EM32])
    pulse = rotation_pulse(ladder_detunings(PCAL, [B]), 0, site, math.pi)
    one = _on(LatticeGeometry(1, 1, 1), site, params=PCAL)
    out = apply_stepwise(reg, one, PulseSegment(GradientConfig(B), pulse), OFF)
    assert level_populations(out, 0)[EP32] > 0.99
    assert _fraction(out, 0, (EM12, EP12)) < 5e-3
    # rotation inferred from the population moved into e+3/2
    pops = level_populations(out, 0)
    moved = pops[EP32] / (pops[EM32] + pops[EP32])
    assert 2 * math.asin(math.sqrt(moved)) == pytest.approx(math.pi,
                                                            rel=0.05)


# ---------------------------------------------------------------------------
# CNOT

def _two_aux(levels):
    geom = LatticeGeometry(2, 1, 1)
    cfg = plan_gradients(geom, 1000.0, P)
    return geom, cfg, RegisterState.product(levels)


def _levels(geom, cfg, *sites):
    return site_levels(P, geom, sites, cfg)


def _moments(geom, cfg, *sites):
    """The register moment column of each of `sites`."""
    return _levels(geom, cfg, *sites)[0].moment_j_per_t.T


@pytest.mark.parametrize("control,flip", [(EM32, False), (EP32, True)])
def test_cnot_truth_behavior(control, flip):
    geom, cfg, reg = _two_aux([control, EM32])
    moments = _moments(geom, cfg, (0, 0, 0), (1, 0, 0))
    shift, _det = cnot_pulse_parameters(geom, (0, 0, 0), (1, 0, 0), *moments)
    assert shift != 0.0     # conditional
    pulse = cnot_pulse(geom, (0, 0, 0), (1, 0, 0), *moments)
    out = apply_stepwise(reg, _on(geom, (0, 0, 0), (1, 0, 0)),
                         PulseSegment(cfg, pulse), OFF)
    p_flip = level_populations(out, 1)[EP32]
    if flip:
        assert p_flip > 0.98
    else:
        assert p_flip < 0.02


def test_cnot_shift_sign_and_magnitude():
    geom, cfg, _ = _two_aux([EM32, EM32])
    shift, _det = cnot_pulse_parameters(
        geom, (0, 0, 0), (1, 0, 0),
        *_moments(geom, cfg, (0, 0, 0), (1, 0, 0)))
    # in-plane pair: angular factor +1 instead of the axial -2
    assert abs(shift) == pytest.approx(40.22 / 2, rel=0.02)


def test_cnot_pulse_requires_adjacent_sites():
    geom = LatticeGeometry(3, 1, 1)
    cfg = plan_gradients(geom, 1000.0, P)
    with pytest.raises(GeometryError):
        cnot_pulse(geom, (0, 0, 0), (2, 0, 0),
                   *_moments(geom, cfg, (0, 0, 0), (2, 0, 0)))


# ---------------------------------------------------------------------------
# measurement

def _superposition_in_aux():
    amps = np.zeros(NLEV, complex)
    amps[EM32] = amps[EP32] = 1 / math.sqrt(2)
    return RegisterState(amps)


def test_measurement_statistics_on_equal_superposition():
    reg = _superposition_in_aux()
    rng = np.random.default_rng(12345)
    n = 10_000
    ones = 0
    for _ in range(n):
        bit, _post, p1 = measure_qubit(reg, 0, rng)
        ones += bit
    assert p1 == pytest.approx(0.5, abs=1e-9)
    assert ones / n == pytest.approx(0.5, abs=0.02)


def test_measurement_collapse_and_determinism():
    reg = _superposition_in_aux()
    seq1 = [measure_qubit(reg, 0, np.random.default_rng(seed))[0]
            for seed in range(200)]
    seq2 = [measure_qubit(reg, 0, np.random.default_rng(seed))[0]
            for seed in range(200)]
    assert seq1 == seq2
    assert 0 in seq1 and 1 in seq1
    bit, post, _ = measure_qubit(reg, 0, np.random.default_rng(5))
    # collapsed register is pure in the measured outcome
    pops = level_populations(post, 0)
    assert pops[GP if bit == 1 else EM32] == pytest.approx(1.0, abs=1e-9)
    assert post.survival == pytest.approx(1.0, abs=1e-9)


def _two_pass_readout(reg, axis, rng):
    """Reference: return g+ <-> e+3/2 of atom `axis` first, then read P(1)
    from a second population pass over the returned amplitudes."""
    levels = atom_levels(reg, axis)
    gp, ep = levels == GP, levels == EP32
    amps = reg.amps.copy()
    amps[gp], amps[ep] = -1j * reg.amps[ep], -1j * reg.amps[gp]
    pops = np.bincount(levels, np.abs(amps) ** 2, NLEV)
    p1 = float(pops[GM] + pops[GP])
    outcome = int(rng.random() < p1)
    in_ground = np.isin(levels, (GM, GP))
    collapsed = np.where(in_ground if outcome else ~in_ground, amps, 0.0)
    norm = float(np.vdot(collapsed, collapsed).real)
    if norm > 1e-300:
        return outcome, collapsed / math.sqrt(norm), 0.0, p1
    return outcome, collapsed, 1.0, p1


@settings(max_examples=100, deadline=None)
@given(n_sites=st.integers(1, 4), data=st.data(),
       amp_seed=st.integers(0, 2 ** 32 - 1), zero=st.floats(0.0, 0.9),
       survival=st.floats(0.01, 1.0), rng_seed=st.integers(0, 2 ** 32 - 1))
def test_readout_equals_the_two_pass_formula(n_sites, data, amp_seed, zero,
                                              survival, rng_seed):
    axis = data.draw(st.integers(0, n_sites - 1))
    gen = np.random.default_rng(amp_seed)
    amps = gen.normal(size=NLEV ** n_sites) \
        + 1j * gen.normal(size=NLEV ** n_sites)
    amps[gen.random(amps.size) < zero] = 0.0
    # protocol order: the measured atom has left e+/-1/2
    levels = basis_labels(n_sites)[:, axis]
    amps[np.isin(levels, (EM12, EP12))] = 0.0
    amps *= math.sqrt(survival / max(np.vdot(amps, amps).real, 1e-300))
    reg = RegisterState(amps, 1.0 - survival)
    if reg.survival <= 1e-300:
        # every amplitude was zeroed: a register with no atom has no bit
        with pytest.raises(PhysicsError, match="every atom has been lost"):
            measure_qubit(reg, axis, np.random.default_rng(rng_seed))
        return
    bit, post, p1 = measure_qubit(reg, axis, np.random.default_rng(rng_seed))
    ref_bit, ref_amps, ref_leaked, ref_p1 = _two_pass_readout(
        reg, axis, np.random.default_rng(rng_seed))
    assert (bit, p1, post.leaked) == (ref_bit, ref_p1, ref_leaked)
    assert np.array_equal(post.amps, ref_amps)


def test_measurement_requires_seed_and_protocol_order():
    # the executor owns the seed rule: a schedule that measures needs one
    geom = LatticeGeometry(1, 1, 1)
    sched = compile_circuit("MEAS 0 0", geom, P,
                            plan_gradients(geom, 1000.0, P), NoiseParams())
    with pytest.raises(ConfigError, match="rng seed is required"):
        execute_schedule(_superposition_in_aux(), sched, NoiseParams(),
                         rng_seed=None)
    rng = np.random.default_rng(1)
    bad = RegisterState.product([3])  # intermediate e level
    with pytest.raises(ProtocolOrderError):
        measure_qubit(bad, 0, rng)
    # a 2% ladder residue next to the auxiliary qubit is no protocol error
    amps = np.zeros(NLEV, complex)
    amps[[EM12, EM32, EP32]] = np.sqrt([0.02, 0.48, 0.5])
    measure_qubit(RegisterState(amps), 0, rng)


def test_measurement_branching_loss_report():
    rep = DetectionReport.from_noise(NoiseParams())
    assert rep.n_scattered == pytest.approx(24000.0)
    assert not rep.branching_loss_flag
    rep2 = DetectionReport.from_noise(NoiseParams(branching_1P1_to_3D=1e-6))
    assert rep2.branching_loss_flag
    # one report per run, shared by every readout in result.json
    geom = LatticeGeometry(2, 1, 1)
    _, result = simulate_circuit("MEAS 0 0\nMEAS 1 0\n", geom, P,
                                 plan_gradients(geom, 1000.0, P),
                                 NoiseParams(branching_1P1_to_3D=1e-6), 1)
    assert result.detection == rep2
    assert [site for site, _, _ in result.readouts] == [(0, 0, 0), (1, 0, 0)]


# ---------------------------------------------------------------------------
# compiled schedule vs hand-sequenced builders

def _protocol_path(circuit_op, geom, noise, dipole_scale):
    """Run one gate as hand-sequenced builder pulses at the compiler's
    gradients and Rabi rates, starting from all-ground; return the sites'
    empty schedule and the register."""
    cfg = plan_gradients(geom, 1000.0, P)
    if circuit_op[0] == "X":
        _, site, theta = circuit_op
        on, reg = _on(geom, site), RegisterState.product([GM])
        leg = transfer_pulse(("site", site), TRANSFER_RABI_1Q_RAD_S)
        gate = rotation_pulse(_levels(geom, cfg, site)[1], 0, site, theta)
        pulses = (leg, gate, leg)
    else:
        _, control, target = circuit_op
        on = _on(geom, control, target)
        reg = RegisterState.product([GP, GM])
        control_leg, target_leg = (
            transfer_pulse(("site", s), TRANSFER_RABI_2Q_RAD_S)
            for s in (control, target))
        pulses = (control_leg, target_leg,
                  cnot_pulse(geom, control, target,
                             *_moments(geom, cfg, control, target)),
                  target_leg, control_leg)
    for pulse in pulses:
        reg = apply_stepwise(reg, on, PulseSegment(cfg, pulse), noise,
                             dipole_scale)
    return on, reg


@pytest.mark.parametrize("circuit,dipole_scale", [
    ("X 0 0 1.2", 1.0), ("X 0 0 1.2", 0.5), ("CNOT 0 0 1 0", 1.0),
    ("CNOT 0 0 1 0", 0.5)])
def test_compiled_path_matches_protocol_path(circuit, dipole_scale):
    geom = LatticeGeometry(2, 1, 1)
    noise = NoiseParams()
    (op,) = parse_circuit(circuit)
    sched = compile_circuit(circuit, geom, P,
                            plan_gradients(geom, 1000.0, P), noise)
    levels = [GP, GM] if op[0] == "CNOT" else [GM]
    reg = RegisterState.product(levels)
    compiled = execute_schedule(reg, sched, noise,
                                dipole_scale=dipole_scale).register
    on, direct = _protocol_path(op, geom, noise, dipole_scale)
    assert on.sites == sched.sites
    assert np.max(np.abs(direct.amps - compiled.amps)) < 1e-12
    assert direct.leaked == pytest.approx(compiled.leaked, abs=1e-12)
    assert compiled.leaked > 0.0    # noise on: the comparison sees loss


def test_warm_circuit_evaluates_no_level_physics(monkeypatch):
    # the register's levels and ladder are evaluated once per field
    # config, the gates' and the flat measurement stage's, and read by
    # index after that: a second pass on the same register calls none of
    # the kernels (the parent evaluated the ladder 4 times per warm X)
    calls = Counter()
    for module, name in ((atomic, "zeeman_table"),
                         (addressing, "register_table"),
                         (addressing, "ladder_detunings")):
        def counted(*args, _name=name, _kernel=getattr(module, name)):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(module, name, counted)
    geom = LatticeGeometry(2, 1, 1)
    cfg = GradientConfig(123 * GAUSS, 7 * GAUSS / CM, 70 * GAUSS / CM)
    circuit = "X 0 0 1.0\nCNOT 0 0 1 0\nMEAS 0 0\nMEAS 1 0\n"
    noise = NoiseParams()
    for want in (2, 0):
        calls.clear()
        schedule = compile_circuit(circuit, geom, P, cfg, noise)
        execute_schedule(RegisterState.product([GM, GM]), schedule, noise,
                         rng_seed=0)
        assert calls == Counter(zeeman_table=want, register_table=want,
                                ladder_detunings=want)
