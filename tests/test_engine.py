"""Pulse-engine tests: unitarity, closed-form Rabi dynamics, norm
accounting, and the always-on dipole diagonal."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ybqc.addressing import (GradientConfig, LatticeGeometry, plan_gradients,
                             site_levels)
from ybqc.atomic import (AtomParams, calibrate_hyperfine_A, ladder_detunings,
                         register_levels)
from ybqc.compiler import execute_schedule
from ybqc.constants import GAUSS
from ybqc.dipole import auxiliary_qubit_moments, ddi_coupling
from ybqc.engine import (EM12, EM32, EP12, EP32, GM, GP, GROUPS, LEGS, NLEV,
                         NoiseParams, Pulse, PulseSchedule, PulseSegment,
                         RegisterState, _leg_offsets,
                         _single_atom_hamiltonian, apply_propagator,
                         light_shift_compensation, segment_hamiltonian)
from ybqc.errors import ConfigError, IntegratorError

from conftest import (apply_stepwise, ground_basis_probability,
                      level_populations, stepwise_run)

P = AtomParams()
GEOM = LatticeGeometry(3, 1, 1)
CFG = GradientConfig(100 * GAUSS)
OFF = NoiseParams.off()
# the atom, lattice and site of `single`'s one-atom register
ONE = PulseSchedule((), ((0, 0, 0),), P, GEOM)


def single(level=GM):
    return RegisterState.product([level])


def test_product_state_and_accounting():
    reg = single(GP)
    assert reg.survival == pytest.approx(1.0)
    assert level_populations(reg, 0)[GP] == pytest.approx(1.0)
    reg.check_accounting()


def test_zero_duration_is_identity():
    reg = single(EM32)
    seg = PulseSegment(CFG, Pulse("aux_flip", 0.0, 2 * math.pi * 100))
    out = apply_stepwise(reg, ONE, seg, OFF)
    assert np.allclose(out.amps, reg.amps)


def test_empty_schedule_leaves_an_empty_register_as_it_is():
    reg = RegisterState([1.0])
    out = execute_schedule(reg, PulseSchedule((), (), P, GEOM), OFF).register
    assert out.amps.tolist() == [1.0] and out.leaked == 0.0


def test_schedule_rejects_repeated_sites():
    # the schedule owns the sites: a register holds amplitudes only
    with pytest.raises(ConfigError, match="duplicate active sites"):
        PulseSchedule((), ((0, 0, 0), (1, 0, 0), (0, 0, 0)), P, GEOM)
    with pytest.raises(ConfigError, match="duplicate active sites"):
        PulseSchedule((), ([0, 0, 0], (0, 0, 0)), P, GEOM)


@pytest.mark.parametrize("size", [1, 5, 7, 35, NLEV ** 2])
def test_executor_rejects_amplitudes_not_sized_for_the_schedule(size):
    with pytest.raises(ConfigError, match="schedule's 1 sites"):
        execute_schedule(RegisterState(np.eye(1, size)), ONE, OFF)


def test_resonant_aux_flip_pi_pulse():
    rabi = 2 * math.pi * 50.0
    seg = PulseSegment(CFG, Pulse("aux_flip", math.pi / rabi, rabi))
    out = apply_stepwise(single(EM32), ONE, seg, OFF)
    got = level_populations(out, 0)[EP32]
    assert got == pytest.approx(1.0, abs=1e-9)


def test_detuned_rabi_closed_form():
    # P_flip(t) = (Omega^2/W^2) sin^2(W t / 2), W = sqrt(Omega^2 + delta^2)
    rng = np.random.default_rng(7)
    for _ in range(50):
        rabi = float(rng.uniform(10, 2000)) * 2 * math.pi
        delta = float(rng.uniform(-3000, 3000)) * 2 * math.pi
        t = float(rng.uniform(1e-5, 2e-2))
        seg = PulseSegment(CFG, Pulse("aux_flip", t, rabi,
                                      detuning_rad_s=delta))
        out = apply_stepwise(single(EM32), ONE, seg, OFF)
        W = math.hypot(rabi, delta)
        want = (rabi / W) ** 2 * math.sin(W * t / 2) ** 2
        got = level_populations(out, 0)[EP32]
        assert got == pytest.approx(want, abs=1e-8)


def test_optical_pair_drives_both_legs():
    rabi = 2 * math.pi * 500.0
    seg = PulseSegment(CFG, Pulse("optical_pair", math.pi / rabi, rabi))
    for g, e in ((GM, EM32), (GP, EP32)):
        out = apply_stepwise(single(g), ONE, seg, OFF)
        got = level_populations(out, 0)[e]
        assert got == pytest.approx(1.0, abs=1e-9)


def test_off_resonant_site_barely_driven():
    # neighbor site is one planned gap (1 kHz) away from the drive
    geom = LatticeGeometry(2, 1, 1)
    cfg = plan_gradients(geom, 1000.0, P)
    pair = PulseSchedule((), ((0, 0, 0), (1, 0, 0)), P, geom)
    reg = RegisterState.product([GM, GM])
    rabi = 2 * math.pi * 25.0
    seg = PulseSegment(cfg, Pulse("optical_pair", math.pi / rabi, rabi,
                                  target=("site", (0, 0, 0))))
    out = apply_stepwise(reg, pair, seg, OFF)
    assert level_populations(out, 0)[EM32] > 0.999
    spectator_e = level_populations(out, 1)[EM32] \
        + level_populations(out, 1)[EP32]
    assert spectator_e < 1e-3


def test_norm_conserved_without_noise():
    rng = np.random.default_rng(3)
    reg = single(GM)
    for _ in range(20):
        kind = rng.choice(["three_photon", "optical_pair", "aux_flip"])
        rabi = float(rng.uniform(10, 500)) * 2 * math.pi
        seg = PulseSegment(CFG, Pulse(str(kind), float(rng.uniform(1e-4, 5e-3)),
                                      rabi,
                                      detuning_rad_s=float(rng.uniform(-100, 100))))
        reg = apply_stepwise(reg, ONE, seg, OFF)
        assert abs(reg.survival + reg.leaked - 1.0) < 1e-9
    assert reg.survival == pytest.approx(1.0, abs=1e-9)


def test_noise_decays_norm_with_exact_rate():
    noise = NoiseParams(lifetime_3P2_s=2.0, photon_scattering_rate_hz=0.0)
    reg = single(EP32)
    t = 0.5
    seg = PulseSegment(CFG, Pulse("aux_flip", t, 0.0))
    out = apply_stepwise(reg, ONE, seg, noise)
    assert out.survival == pytest.approx(math.exp(-t / 2.0), rel=1e-9)
    assert out.leaked == pytest.approx(1 - math.exp(-t / 2.0), rel=1e-9)
    # ground states only scatter lattice photons
    noise2 = NoiseParams(lifetime_3P2_s=math.inf,
                         photon_scattering_rate_hz=0.4)
    out2 = apply_stepwise(single(GM), ONE, seg, noise2)
    assert out2.survival == pytest.approx(math.exp(-0.4 * t), rel=1e-9)


def test_dipole_diagonal_matches_pair_formula():
    geom = LatticeGeometry(2, 1, 1)
    pair = PulseSchedule((), ((0, 0, 0), (1, 0, 0)), P, geom)
    reg = RegisterState.product([EP32, EP32])
    seg = PulseSegment(CFG, Pulse("aux_flip", 1e-3, 0.0))
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
    live = reg.amps != 0
    assert diagonal_entry(segment_hamiltonian(
        seg, live, stepwise_run(pair, seg, OFF))).real \
        == pytest.approx(want, rel=1e-9)
    # dipole_scale=0 switches the interaction off
    assert diagonal_entry(segment_hamiltonian(
        seg, live, stepwise_run(pair, seg, OFF, 0.0))) == 0.0


def _coupled_components(hmat):
    """Connected components of |hmat| > 0 for one atom's 6x6 block, each
    level named by its component's lowest level: boolean squarings of
    the reach matrix."""
    reach = ((hmat != 0) | np.eye(NLEV, dtype=bool)).astype(np.int8)
    for _ in range(3):          # paths of up to 8 > NLEV - 1 hops
        reach = ((reach @ reach) > 0).astype(np.int8)
    return reach.argmax(axis=1)


@pytest.mark.parametrize("transition", sorted(LEGS))
def test_level_groups_are_the_components_of_the_driven_block(transition):
    # any Rabi frequency > 0 couples exactly the drive's legs
    levels = register_levels(P, 650 * GAUSS)
    for rabi in (1e-3, 2 * math.pi * 50.0, 1e6):
        pulse = Pulse(transition, 1e-3, rabi)
        hmat = _single_atom_hamiltonian(_leg_offsets(
            P, [levels.field_t], [levels.energy_hz], 0, pulse)[0], pulse)
        assert GROUPS[transition].tolist() \
            == _coupled_components(hmat).tolist()


def _old_leg_diagonal(E, ref_E, pulse) -> list:
    """The driven levels' diagonal of one atom with level energies E (Hz)
    as the engine built it from 2 pi (E[up] - E[lo]) - laser, the laser
    2 pi (ref_E[up] - ref_E[lo]) + detuning on the reference site."""
    diag = [0.0] * NLEV
    for lo, up in LEGS[pulse.transition]:
        wL = 2 * math.pi * (ref_E[up] - ref_E[lo]) + pulse.detuning_rad_s
        diag[up] = diag[lo] + (2 * math.pi * (E[up] - E[lo]) - wL)
    return diag


def test_leg_offsets_of_the_reference_ladder_are_its_detunings():
    # three sites 1 kHz apart: the reference site's 3-photon diagonal is
    # (0, Delta1 - e, -Delta2 - 2e, -3e) from the closed-form detunings,
    # e = eps + detuning, to a few ulp of |Delta|; the other transitions
    # keep their energy differences bit for bit
    geom = LatticeGeometry(3, 1, 1)
    sites = ((0, 0, 0), (1, 0, 0), (2, 0, 0))
    tables = site_levels(P, geom, sites, plan_gradients(geom, 1000.0, P))
    fields = [t.field_t for t in tables]
    energies = [t.energy_hz for t in tables]
    for ref in range(3):
        det = ladder_detunings(P, fields[ref])
        d1, d2 = det.delta1_rad_s, det.delta2_rad_s
        ulp = math.ulp(max(abs(d1), abs(d2)))
        for rabi, detuning in ((0.0, 0.0), (0.05 * abs(d1), 2e3)):
            pulse = Pulse("three_photon", 1e-3, rabi, detuning,
                          ("site", sites[ref]))
            e = detuning + (rabi and light_shift_compensation(d1, d2, rabi))
            offsets = _leg_offsets(P, fields, energies, ref, pulse)
            diag = _single_atom_hamiltonian(offsets[ref], pulse).diagonal()
            assert diag[EM32] == 0.0
            assert np.abs(diag[[EM12, EP12, EP32]]
                          - [d1 - e, -d2 - 2 * e, -3 * e]).max() <= 4 * ulp
        for transition in ("optical_pair", "aux_flip"):
            pulse = Pulse(transition, 1e-3, 1e3, 2 * math.pi * 50.0,
                          ("site", sites[ref]))
            for E, offset in zip(energies, _leg_offsets(
                    P, fields, energies, ref, pulse)):
                assert _single_atom_hamiltonian(offset, pulse).diagonal() \
                    .tolist() == _old_leg_diagonal(E, energies[ref], pulse)


def test_level_moments_near_low_field_values():
    m0, m1 = auxiliary_qubit_moments(P)
    got0, got1 = (register_levels(P, 100 * GAUSS).moment_j_per_t[lv]
                  for lv in (EM32, EP32))
    assert got0 == pytest.approx(m0, rel=0.05)
    assert got1 == pytest.approx(m1, rel=0.05)


def test_unitarity_guard_trips_on_bad_amplitudes():
    amps = np.zeros(NLEV, complex)
    amps[GM] = 2.0  # non-normalized on purpose
    reg = RegisterState(amps, leaked=0.0)
    with pytest.raises(IntegratorError):
        reg.check_accounting()


def test_guards_trip_on_nan():
    # a NaN comparison is False, so each guard must fail unless it passes
    with pytest.raises(IntegratorError, match="accounting"):
        RegisterState(single().amps, leaked=math.nan).check_accounting()
    with pytest.raises(IntegratorError, match="unitarity"):
        apply_propagator(single(), np.full(NLEV, math.nan + 0j),
                         noise_on=False)


@pytest.mark.parametrize("transition", sorted(LEGS) + ["measure"])
def test_known_transitions_make_pulses(transition):
    assert Pulse(transition, 0.0).transition == transition


@pytest.mark.parametrize("transition", ["bogus", "", "Measure",
                                        "optical pair", "three_photon "])
def test_unknown_transition_is_rejected_where_the_pulse_is_made(transition):
    # at zero length too, which the engine skips without reading the name
    with pytest.raises(ConfigError, match="unknown pulse transition"):
        Pulse(transition, 0.0)


@pytest.mark.parametrize("target", [("site", (1, 0, 0)), ("layer", 0)],
                         ids=["spectator-site", "layer"])
def test_pulse_target_outside_the_register_is_rejected(target):
    # where the schedule, the owner of the sites, is made
    seg = PulseSegment(CFG, Pulse("optical_pair", 1e-3, 2 * math.pi * 500,
                                  target=target))
    with pytest.raises(ConfigError, match=r"segment 0 \(optical_pair\): "
                       r"target .* is not an active site or \('all',\)$"):
        PulseSchedule((seg,), ONE.sites, P, GEOM)
    with pytest.raises(ConfigError, match="active site"):
        apply_stepwise(single(GM), ONE, seg, OFF)


@pytest.mark.parametrize("target", [("site", (1, 0, 0)), ("all",)],
                         ids=["spectator-site", "all"])
def test_readout_target_outside_the_sites_is_rejected(target):
    # a hand-built readout of a site the schedule does not hold, or of no
    # one site, raises where the schedule is made, not as a bare
    # ValueError or IndexError in `compiler.execute_schedule`
    seg = PulseSegment(CFG, Pulse("measure", 1e-3, target=target))
    with pytest.raises(ConfigError, match=r"segment 1 \(measure\): target "
                       ".* is not an active site$"):
        PulseSchedule((PulseSegment(CFG, Pulse("aux_flip", 0.0)), seg),
                      ONE.sites, P, GEOM)


def test_list_form_target_runs_as_the_tuple_form():
    # Pulse stores the target as nested tuples, so the segment is hashable
    listed = Pulse("optical_pair", 1e-3, 1e3, target=["site", [0, 0, 0]])
    tupled = Pulse("optical_pair", 1e-3, 1e3, target=("site", (0, 0, 0)))
    assert listed == tupled and hash(listed) == hash(tupled)
    pair = PulseSchedule((), ((0, 0, 0), (1, 0, 0)), P, GEOM)
    reg = RegisterState.product([GM, GP])
    out = [apply_stepwise(reg, pair, PulseSegment(CFG, pulse), OFF).amps
           for pulse in (listed, tupled)]
    assert np.array_equal(out[0], out[1])
    assert np.abs(out[0] - reg.amps).max() > 0.1


def test_ground_basis_probability():
    reg = RegisterState.product([GP, GM])
    assert ground_basis_probability(reg, {0: 1, 1: 0}) == pytest.approx(1.0)
    assert ground_basis_probability(reg, {0: 0}) == pytest.approx(0.0)


def _light_shift_80_steps(delta1, delta2, rabi):
    # the fixed 80-step iteration without a convergence check
    eps = 0.0
    for _ in range(80):
        eps = (rabi ** 2 / 4) * (1 / (delta1 - eps) + 1 / (delta2 - eps)) / 3
    return eps


def _ladder_gap(det):
    return min(abs(det.delta1_rad_s), abs(det.delta2_rad_s))


@pytest.mark.parametrize("gap_fraction", [0.05, 0.3, 1.0])
def test_light_shift_compensation_stops_at_the_fixed_point(gap_fraction):
    det = ladder_detunings(P, 650 * GAUSS)
    rabi = gap_fraction * _ladder_gap(det)
    assert light_shift_compensation(det.delta1_rad_s, det.delta2_rad_s,
                                    rabi) \
        == _light_shift_80_steps(det.delta1_rad_s, det.delta2_rad_s, rabi)


def test_light_shift_compensation_raises_when_it_diverges():
    det = ladder_detunings(P, 650 * GAUSS)
    with pytest.raises(IntegratorError):
        light_shift_compensation(det.delta1_rad_s, det.delta2_rad_s,
                                 3.0 * _ladder_gap(det))


def _light_shift_cubic(eps, delta1, delta2, rabi):
    # the fixed point eps = (rabi^2 / 12) (1/(delta1 - eps) + 1/(delta2 - eps))
    # times 12 (delta1 - eps)(delta2 - eps)
    return 12 * eps * (delta1 - eps) * (delta2 - eps) \
        - rabi ** 2 * (delta1 + delta2 - 2 * eps)


@settings(max_examples=60, deadline=None)
@given(log_b=st.floats(-6.0, 2.0), log_fraction=st.floats(-3.0, 0.5),
       calibrated=st.booleans())
def test_light_shift_fixed_point_is_the_cubic_root_nearest_zero(
        log_b, log_fraction, calibrated):
    """Wherever the iteration converges (1 uT to 100 T, Rabi frequencies
    of 0.1 % to 316 % of the ladder gap), eps is a root of the cubic
    12 eps (delta1 - eps)(delta2 - eps) = rabi^2 (delta1 + delta2 - 2 eps)
    to 1e-9 of rabi^2 (|delta1| + |delta2|), which the 1e-9 relative last
    step allows (60,000 random draws: at most 9.9e-11), and the cubic
    keeps one sign on [-|eps|, |eps|) short of eps: no root is nearer 0.
    It is monotone between its critical points, so its sign at -eps, at
    0 and at the critical points inside decides that."""
    params = calibrate_hyperfine_A(P) if calibrated else P
    det = ladder_detunings(params, 10 ** log_b)
    d1, d2 = det.delta1_rad_s, det.delta2_rad_s
    rabi = 10 ** log_fraction * _ladder_gap(det)
    try:
        eps = light_shift_compensation(d1, d2, rabi)
    except IntegratorError:
        return
    assert abs(_light_shift_cubic(eps, d1, d2, rabi)) \
        <= 1e-9 * rabi ** 2 * (abs(d1) + abs(d2))
    if eps != 0:        # delta1 + delta2 = 0 makes eps = 0 an exact root
        critical = np.roots([36.0, -24 * (d1 + d2), 12 * d1 * d2
                             + 2 * rabi ** 2])
        inside = [x.real for x in critical
                  if x.imag == 0 and abs(x.real) < abs(eps)]
        signs = {np.sign(_light_shift_cubic(x, d1, d2, rabi))
                 for x in [-eps, 0.0, *inside]}
        assert len(signs) == 1 and 0 not in signs
