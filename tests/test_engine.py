"""Pulse-engine tests: unitarity, closed-form Rabi dynamics, norm
accounting, and the always-on dipole diagonal."""

import math

import numpy as np
import pytest

from ybqc.addressing import GradientConfig, LatticeGeometry, plan_gradients
from ybqc.atomic import (AtomParams, ground_qubit_splitting,
                         register_levels, three_photon_detunings)
from ybqc.constants import GAUSS, h
from ybqc.dipole import auxiliary_qubit_moments, ddi_coupling
from ybqc.engine import (AUX, EM32, EP32, GM, GP, LOST, NLEV, NoiseParams,
                         Pulse, PulseSegment, RegisterState, apply_segment,
                         blow_away, evolve, ground_basis_probability,
                         light_shift_compensation,
                         segment_hamiltonian)
from ybqc.errors import ConfigError, IntegratorError
from ybqc.protocols import ladder_gap

P = AtomParams()
GEOM = LatticeGeometry(3, 1, 1)
CFG = GradientConfig(100 * GAUSS)
OFF = NoiseParams.off()


def single(level=GM, site=(0, 0, 0)):
    return RegisterState.product(P, GEOM, [site], [level])


def test_product_state_and_accounting():
    reg = single(GP)
    assert reg.survival == pytest.approx(1.0)
    assert reg.population((0, 0, 0), GP) == pytest.approx(1.0)
    reg.check_accounting()


def test_zero_duration_is_identity():
    reg = single(GM)
    seg = PulseSegment(CFG, Pulse("rf", 0.0, 2 * math.pi * 100))
    out = apply_segment(reg, seg, OFF)
    assert np.allclose(out.amps, reg.amps)


def test_resonant_rf_pi_pulse():
    rabi = 2 * math.pi * 50.0
    seg = PulseSegment(CFG, Pulse("rf", math.pi / rabi, rabi))
    out = apply_segment(single(GM), seg, OFF)
    assert out.population((0, 0, 0), GP) == pytest.approx(1.0, abs=1e-9)


def test_detuned_rabi_closed_form():
    # P_flip(t) = (Omega^2/W^2) sin^2(W t / 2), W = sqrt(Omega^2 + delta^2)
    rng = np.random.default_rng(7)
    for _ in range(50):
        rabi = float(rng.uniform(10, 2000)) * 2 * math.pi
        delta = float(rng.uniform(-3000, 3000)) * 2 * math.pi
        t = float(rng.uniform(1e-5, 2e-2))
        seg = PulseSegment(CFG, Pulse("rf", t, rabi, detuning_rad_s=delta))
        out = apply_segment(single(GM), seg, OFF)
        W = math.hypot(rabi, delta)
        want = (rabi / W) ** 2 * math.sin(W * t / 2) ** 2
        assert out.population((0, 0, 0), GP) == pytest.approx(want,
                                                              abs=1e-8)


def test_optical_pair_drives_both_legs():
    rabi = 2 * math.pi * 500.0
    seg = PulseSegment(CFG, Pulse("optical_pair", math.pi / rabi, rabi))
    for g, e in ((GM, EM32), (GP, EP32)):
        out = apply_segment(single(g), seg, OFF)
        assert out.population((0, 0, 0), e) == pytest.approx(1.0, abs=1e-9)


def test_off_resonant_site_barely_driven():
    # neighbor site is one planned gap (1 kHz) away from the drive
    geom = LatticeGeometry(2, 1, 1)
    cfg = plan_gradients(geom, 1000.0, P)
    reg = RegisterState.product(P, geom, [(0, 0, 0), (1, 0, 0)], [GM, GM])
    rabi = 2 * math.pi * 25.0
    seg = PulseSegment(cfg, Pulse("optical_pair", math.pi / rabi, rabi,
                                  target=("site", (0, 0, 0))))
    out = apply_segment(reg, seg, OFF)
    assert out.population((0, 0, 0), EM32) > 0.999
    spectator_e = out.population((1, 0, 0), EM32) \
        + out.population((1, 0, 0), EP32)
    assert spectator_e < 1e-3


def test_norm_conserved_without_noise():
    rng = np.random.default_rng(3)
    reg = single(GM)
    for _ in range(20):
        kind = rng.choice(["rf", "optical_pair", "aux_flip"])
        rabi = float(rng.uniform(10, 500)) * 2 * math.pi
        seg = PulseSegment(CFG, Pulse(str(kind), float(rng.uniform(1e-4, 5e-3)),
                                      rabi,
                                      detuning_rad_s=float(rng.uniform(-100, 100))))
        reg = apply_segment(reg, seg, OFF)
        assert abs(reg.survival + reg.leaked - 1.0) < 1e-9
    assert reg.survival == pytest.approx(1.0, abs=1e-9)


def test_noise_decays_norm_with_exact_rate():
    noise = NoiseParams(lifetime_3P2_s=2.0, photon_scattering_rate_hz=0.0)
    reg = single(EP32)
    t = 0.5
    seg = PulseSegment(CFG, Pulse("rf", t, 0.0))
    out = apply_segment(reg, seg, noise)
    assert out.survival == pytest.approx(math.exp(-t / 2.0), rel=1e-9)
    assert out.leaked == pytest.approx(1 - math.exp(-t / 2.0), rel=1e-9)
    # ground states only scatter lattice photons
    noise2 = NoiseParams(lifetime_3P2_s=math.inf,
                         photon_scattering_rate_hz=0.4)
    out2 = apply_segment(single(GM), seg, noise2)
    assert out2.survival == pytest.approx(math.exp(-0.4 * t), rel=1e-9)


def test_dipole_diagonal_matches_pair_formula():
    geom = LatticeGeometry(2, 1, 1)
    reg = RegisterState.product(P, geom, [(0, 0, 0), (1, 0, 0)],
                                [EP32, EP32])
    seg = PulseSegment(CFG, Pulse("rf", 1e-3, 0.0))
    idx = (NLEV * EP32 + EP32)

    def diagonal_entry(blocks):
        # the entry of basis state idx in the live block that holds it
        for indices, H in blocks:
            hit = np.argwhere(indices == idx)
            if hit.size:
                b, k = hit[0]
                return H[b, k, k]
        raise AssertionError("basis state not in a live block")

    m = register_levels(P, CFG.B0_t).moment_j_per_t[EP32]
    want = 2 * math.pi * ddi_coupling(m, m, geom.spacing_m, math.pi / 2)
    assert diagonal_entry(segment_hamiltonian(reg, seg)).real \
        == pytest.approx(want, rel=1e-9)
    # dipole_scale=0 switches the interaction off
    assert diagonal_entry(segment_hamiltonian(reg, seg,
                                              dipole_scale=0.0)) == 0.0


def test_level_moments_near_low_field_values():
    m0, m1 = auxiliary_qubit_moments(P)
    got0, got1 = (register_levels(P, 100 * GAUSS).moment_j_per_t[lv]
                  for lv in (EM32, EP32))
    assert got0 == pytest.approx(m0, rel=0.05)
    assert got1 == pytest.approx(m1, rel=0.05)


def test_unitarity_guard_trips_on_bad_amplitudes():
    amps = np.zeros(NLEV, complex)
    amps[GM] = 2.0  # non-normalized on purpose
    reg = RegisterState(P, GEOM, [(0, 0, 0)], amps, leaked=0.0)
    with pytest.raises(IntegratorError):
        reg.check_accounting()


def test_evolve_validates_dt():
    reg = single(GM)
    seg = PulseSegment(CFG, Pulse("rf", 1e-3, 2 * math.pi * 100))
    with pytest.raises(ConfigError):
        evolve(reg, seg, OFF, 0.0)
    with pytest.raises(ConfigError):
        evolve(reg, seg, OFF, 2e-3)


def test_blow_away_filters_ground():
    geom = LatticeGeometry(2, 1, 1)
    amps = np.zeros(NLEV ** 2, complex)
    amps[NLEV * GM + EP32] = 1 / math.sqrt(2)    # atom0 ground, atom1 e
    amps[NLEV * EP32 + EP32] = 1 / math.sqrt(2)  # both excited
    reg = RegisterState(P, geom, [(0, 0, 0), (1, 0, 0)], amps)
    out, removed = blow_away(reg)
    assert removed[(0, 0, 0)] == pytest.approx(0.5, abs=1e-12)
    assert removed[(1, 0, 0)] == pytest.approx(0.0, abs=1e-12)
    assert out.survival == pytest.approx(0.5, abs=1e-12)
    assert out.leaked == pytest.approx(0.5, abs=1e-12)


def test_ground_basis_probability():
    geom = LatticeGeometry(2, 1, 1)
    reg = RegisterState.product(P, geom, [(0, 0, 0), (1, 0, 0)], [GP, GM])
    assert ground_basis_probability(
        reg, {(0, 0, 0): 1, (1, 0, 0): 0}) == pytest.approx(1.0)
    assert ground_basis_probability(
        reg, {(0, 0, 0): 0}) == pytest.approx(0.0)


def _light_shift_80_steps(delta1, delta2, rabi):
    # the fixed 80-step iteration without a convergence check
    eps = 0.0
    for _ in range(80):
        eps = (rabi ** 2 / 4) * (1 / (delta1 - eps) + 1 / (delta2 - eps)) / 3
    return eps


@pytest.mark.parametrize("gap_fraction", [0.05, 0.3, 1.0])
def test_light_shift_compensation_stops_at_the_fixed_point(gap_fraction):
    B = 650 * GAUSS
    det = three_photon_detunings(P, B)
    rabi = gap_fraction * ladder_gap(P, B)
    assert light_shift_compensation(det.delta1_rad_s, det.delta2_rad_s,
                                    rabi) \
        == _light_shift_80_steps(det.delta1_rad_s, det.delta2_rad_s, rabi)


def test_light_shift_compensation_raises_when_it_diverges():
    B = 650 * GAUSS
    det = three_photon_detunings(P, B)
    with pytest.raises(IntegratorError):
        light_shift_compensation(det.delta1_rad_s, det.delta2_rad_s,
                                 3.0 * ladder_gap(P, B))
