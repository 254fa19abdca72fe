"""Feasibility-module tests: intensity, lattice depth/tunneling,
scattering, bias field, and the decoherence budget."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

from ybqc.addressing import (GradientConfig, LatticeGeometry,
                             plan_gradients, validate_gradients)
from ybqc.atomic import AtomParams
from ybqc.constants import GAUSS, h, k_B
from ybqc.compiler import (TRANSFER_RABI_1Q_RAD_S, compile_circuit,
                           execute_schedule)
from ybqc.engine import (GM, NoiseParams, Pulse, PulseSchedule, PulseSegment,
                         RegisterState)
from ybqc.errors import ConfigError
from ybqc.feasibility import (DEEP_LATTICE_RECOILS, FOURIER_ORDER,
                              build_feasibility_report,
                              decoherence_budget, lattice_depth_report,
                              lowest_band_width_recoils, metastable_weights,
                              pi_pulse_intensity, recoil_energy_j,
                              scattering_rate)
from ybqc.protocols import transfer_pulse

from conftest import apply_stepwise

P = AtomParams()


def test_pi_pulse_intensity_closed_form():
    # independent arithmetic: I = 2 I_sat (Omega/Gamma)^2
    c = 299792458.0
    hh = 6.62607015e-34
    lam, gamma_hz, t_pi = 507e-9, 0.010, 100e-6
    gamma = 2 * math.pi * gamma_hz
    i_sat = math.pi * hh * c * gamma / (3 * lam ** 3)
    want = 2 * i_sat * (math.pi / t_pi / gamma) ** 2
    got = pi_pulse_intensity(t_pi, gamma_hz, lam)
    assert got == pytest.approx(want, rel=1e-10)
    assert got == pytest.approx(4.82e4, rel=0.20)
    # quadratic in 1/t_pi
    assert pi_pulse_intensity(t_pi / 2, gamma_hz, lam) \
        == pytest.approx(4 * got, rel=1e-12)
    with pytest.raises(ConfigError):
        pi_pulse_intensity(0.0, gamma_hz, lam)


def test_recoil_energy_and_depth():
    e_r = recoil_energy_j(P)
    want = h ** 2 / (2 * P.mass_kg * (532e-9) ** 2)
    assert e_r == pytest.approx(want, rel=1e-12)
    rep = lattice_depth_report(50.0, P)
    assert rep.depth_uk == pytest.approx(50 * e_r / k_B * 1e6, rel=1e-12)
    assert rep.depth_uk == pytest.approx(10.0, rel=0.15)


def deep_lattice_width(s):
    """4 J / E_r of the deep-lattice tunneling J."""
    return 16 / math.sqrt(math.pi) * s ** 0.75 * math.exp(-2 * math.sqrt(s))


def test_tunneling_against_deep_lattice_asymptote():
    # J/E_r ~ (4/sqrt(pi)) s^(3/4) exp(-2 sqrt(s)) for deep lattices
    for s in (30.0, 50.0):
        width = lowest_band_width_recoils(s)
        assert width == pytest.approx(deep_lattice_width(s), rel=0.30)
    # free particle: lowest "band" spans a full recoil
    assert lowest_band_width_recoils(0.0) == pytest.approx(1.0, abs=1e-9)
    # monotone suppression with depth
    assert lowest_band_width_recoils(60.0) < lowest_band_width_recoils(40.0)


def test_deep_lattice_width_is_the_asymptote():
    # the plane-wave width is rounding noise at 400 recoils (1.6e-13)
    assert lowest_band_width_recoils(400.0) \
        == pytest.approx(deep_lattice_width(400.0), rel=1e-12)
    assert lowest_band_width_recoils(400.0) < 1e-14
    # the switch steps by the plane-wave ratio to the asymptote, 0.968
    below = lowest_band_width_recoils(DEEP_LATTICE_RECOILS)
    above = lowest_band_width_recoils(math.nextafter(DEEP_LATTICE_RECOILS,
                                                     math.inf))
    assert below / above == pytest.approx(0.968, abs=0.002)
    rep = lattice_depth_report(1e6, P)
    assert rep.tunneling_rate_hz == 0.0
    assert f"{rep.hold_survival:.3f}" == "1.000"


def plane_wave_matrix(s, q):
    """Diagonal and off-diagonal of the band matrix at depth s and
    quasimomentum q, with plane waves up to FOURIER_ORDER."""
    ks = np.arange(-FOURIER_ORDER, FOURIER_ORDER + 1)
    return (2 * ks + q) ** 2 + s / 2, np.full(2 * FOURIER_ORDER, -s / 4)


@settings(max_examples=200, deadline=None)
@given(s=st.floats(0.0, DEEP_LATTICE_RECOILS))
def test_band_width_agrees_with_lapack(s):
    # each band energy lies within 2 eps ||T||_1 of LAPACK's bisection,
    # so the width lies within the sum of the two bounds
    energies, tol = [], 0.0
    for q in (0.0, 1.0):
        diag, off = plane_wave_matrix(s, q)
        energies.append(eigh_tridiagonal(diag, off, select="i",
                                         select_range=(0, 0))[0][0])
        columns = np.abs(diag) + np.abs(np.r_[off, 0]) + np.abs(np.r_[0, off])
        tol += 2 * np.finfo(float).eps * columns.max()
    assert abs(lowest_band_width_recoils(s)
               - abs(energies[1] - energies[0])) <= tol


@pytest.mark.parametrize("s, rel", [(10.0, 1e-10), (50.0, 1e-10),
                                    (150.0, 1e-6)])
def test_band_width_against_a_40_digit_solve(s, rel):
    # LAPACK's default tolerance misses the 150-recoil bound (6e-6)
    def lowest(q):
        diag, off = plane_wave_matrix(s, q)
        t = mpmath.diag(diag.tolist())
        for i, o in enumerate(off.tolist()):
            t[i, i + 1] = t[i + 1, i] = o
        return min(mpmath.eigsy(t, eigvals_only=True))

    with mpmath.workdps(40):
        want = abs(lowest(1.0) - lowest(0.0))
        assert abs(lowest_band_width_recoils(s) - want) <= rel * want


@pytest.mark.parametrize("depth", [math.nan, -1.0, math.inf])
def test_band_width_rejects_a_bad_depth(depth):
    with pytest.raises(ConfigError):
        lowest_band_width_recoils(depth)


def test_hold_survival_at_operating_depth():
    rep = lattice_depth_report(50.0, P)
    assert rep.tunneling_rate_hz < 1.0
    assert rep.hold_survival == pytest.approx(
        math.exp(-rep.tunneling_rate_hz * 5.0), rel=1e-12)
    assert rep.hold_survival > 0.5


def test_scattering_rate_reference():
    rep = lattice_depth_report(50.0, P)
    rate = scattering_rate(rep.depth_uk, P)
    assert 0.2 / 3 <= rate <= 0.2 * 3
    # linear in the depth
    assert scattering_rate(2 * rep.depth_uk, P) == pytest.approx(
        2 * rate, rel=1e-12)
    with pytest.raises(ConfigError):
        scattering_rate(0.0, P)


def test_bias_field_check():
    # one rule, B0 >= safety_factor * field range, read by the report
    geom = LatticeGeometry(10, 10, 10)
    cfg = GradientConfig(100 * GAUSS, 10 * GAUSS / 1e-2, 100 * GAUSS / 1e-2,
                         100 * GAUSS / 1e-2)
    assert validate_gradients(geom, cfg).bias_ok
    weak = GradientConfig(0.001 * GAUSS, 10 * GAUSS / 1e-2,
                          100 * GAUSS / 1e-2, 100 * GAUSS / 1e-2)
    assert not validate_gradients(geom, weak).bias_ok
    item, = (it for it in build_feasibility_report(
                 P, LatticeGeometry(), 50.0).items
             if it.quantity == "bias_field_100g_sufficient")
    assert item.passed
    margin = float(item.note.split("x", 1)[0].removeprefix("margin "))
    assert margin > 1.0


def test_decoherence_budget_matches_engine_bookkeeping():
    # a zero-length transfer of both atoms between the holds: 0.1 s with
    # no atom in 3P2, then 0.2 s with two
    noise = NoiseParams(lifetime_3P2_s=15.0, photon_scattering_rate_hz=0.2)
    cfg = GradientConfig(100 * GAUSS)
    segs = (
        PulseSegment(cfg, Pulse("aux_flip", 0.1, 0.0)),
        PulseSegment(cfg, Pulse("optical_pair", 0.0, target=("all",))),
        PulseSegment(cfg, Pulse("aux_flip", 0.2, 0.0)),
    )
    sched = PulseSchedule(segs, ((0, 0, 0), (1, 0, 0)), P,
                          LatticeGeometry(2, 1, 1))
    assert metastable_weights(sched) == (0.0, 1.0, 2.0)
    budget = decoherence_budget(sched, noise)
    assert budget.total_duration_s == pytest.approx(0.3)
    assert budget.metastable_atom_time_s == pytest.approx(0.4)
    assert budget.decay_survival == pytest.approx(math.exp(-0.4 / 15))
    assert budget.scattering_survival == pytest.approx(
        math.exp(-2 * 0.2 * 0.3))
    assert budget.survival == pytest.approx(
        budget.decay_survival * budget.scattering_survival, rel=1e-12)
    # noise off: no loss
    assert decoherence_budget(sched, NoiseParams.off()).survival == 1.0


@pytest.mark.parametrize("circuit,sites", [
    ("X 0 0 1.0\nMEAS 0 0", [(0, 0, 0)]),
    ("CNOT 0 0 1 0\nMEAS 0 0\nMEAS 1 0", [(0, 0, 0), (1, 0, 0)])],
    ids=["X-MEAS", "CNOT-MEAS-MEAS"])
def test_decoherence_budget_skips_measure_segments(circuit, sites):
    # the executor evolves nothing during 'measure' segments, so the
    # budget must not charge them either
    noise = NoiseParams(lifetime_3P2_s=2.0, photon_scattering_rate_hz=1.0)
    geom = LatticeGeometry(2, 1, 1)
    sched = compile_circuit(circuit, geom, P,
                            plan_gradients(geom, 1000.0, P), noise)
    assert sched.sites == tuple(sites)
    reg = RegisterState.product([GM] * len(sites))
    for seg in sched.segments:
        if seg.pulse.transition != "measure":
            reg = apply_stepwise(reg, sched, seg, noise)
    assert decoherence_budget(sched, noise).survival \
        == pytest.approx(reg.survival, rel=1e-3)


def test_hand_built_schedule_is_charged_for_its_time_in_3P2():
    # transfer, 0.5 s hold, transfer back, built without the compiler
    noise = NoiseParams(lifetime_3P2_s=2.0, photon_scattering_rate_hz=0.0)
    cfg = GradientConfig(100 * GAUSS)
    leg = PulseSegment(cfg, transfer_pulse(("site", (0, 0, 0)),
                                           TRANSFER_RABI_1Q_RAD_S))
    hold = PulseSegment(cfg, Pulse("aux_flip", 0.5, 0.0,
                                   target=("site", (0, 0, 0))))
    sched = PulseSchedule((leg, hold, leg), ((0, 0, 0),), P,
                          LatticeGeometry(1, 1, 1))
    assert metastable_weights(sched) == (0.5, 1.0, 0.5)
    engine = execute_schedule(RegisterState.product([GM]), sched, noise)
    budget = decoherence_budget(sched, noise)
    assert engine.register.survival == pytest.approx(0.771051, abs=1e-6)
    assert abs(budget.survival - engine.register.survival) <= 1e-5


LATTICES = [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (2, 2)]


@st.composite
def compiled_circuits(draw):
    """A random circuit on a lattice of 1 x 1 up to 5 x 1 or 2 x 2: X
    gates at random angles and adjacent CNOTs on random sites, then
    MEAS of a random subset of the lattice's sites in random order."""
    nx, ny = draw(st.sampled_from(LATTICES))
    site = st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1))
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(site)
        neighbours = [(i + di, j + dj) for di, dj in
                      ((1, 0), (-1, 0), (0, 1), (0, -1))
                      if 0 <= i + di < nx and 0 <= j + dj < ny]
        if neighbours and draw(st.booleans()):
            k, m = draw(st.sampled_from(neighbours))
            lines.append(f"CNOT {i} {j} {k} {m}")
        else:
            lines.append(f"X {i} {j} {draw(st.floats(0.1, math.pi))!r}")
    readouts = draw(st.lists(site, unique=True, max_size=nx * ny))
    lines += [f"MEAS {i} {j}" for i, j in readouts]
    return "\n".join(lines) + "\n", LatticeGeometry(nx, ny, 1)


@settings(max_examples=40, deadline=None)
@given(case=compiled_circuits())
def test_compiled_metastable_weights_follow_each_gate(case):
    # the counts the compiled schedule.json has always reported: the
    # legs of a gate, then the stage entry and the readouts
    circuit, geom = case
    sched = compile_circuit(circuit, geom, P, plan_gradients(geom, 1000.0, P),
                            NoiseParams())
    n, want, staged = len(sched.sites), [], False
    for line in circuit.split("\n"):
        if line.startswith("X"):
            want += [0.5, 1.0, 0.5]
        elif line.startswith("CNOT"):
            want += [0.5, 1.5, 2.0, 1.5, 0.5]
        elif line.startswith("MEAS"):
            want += [n / 2] * (not staged) + [n - 0.5]
            staged = True
    assert repr(metastable_weights(sched)) == repr(tuple(want))


def test_report_structure_and_verdicts():
    rep = build_feasibility_report(P, LatticeGeometry(), 50.0)
    names = [it.quantity for it in rep.items]
    for want in ("pi_pulse_intensity_w_per_m2", "lattice_depth_uk",
                 "photon_scattering_rate_hz", "gradient_x_g_per_cm",
                 "gradient_y_g_per_cm", "bias_field_100g_sufficient"):
        assert want in names
    for it in rep.items:
        assert it.passed in (True, False, None)
        if it.tolerance_kind in ("relative", "factor"):
            assert it.paper_target is not None
    assert rep.all_passed
    # json round trip with the required field names
    import json
    payload = json.loads(rep.to_json())
    assert {"quantity", "computed", "paper_target", "tolerance",
            "pass"} <= set(payload[0])
