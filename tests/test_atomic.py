"""Zeeman/hyperfine structure tests against independent dense-matrix and
closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ybqc.atomic import (EM12, EP12, AtomParams, aux_branch,
                         calibrate_hyperfine_A, ground_qubit_splitting,
                         ground_state_energy, lande_g_F, register_levels,
                         three_photon_detunings, transition_frequency,
                         transition_slope, zeeman_spectrum)
from ybqc.constants import GAUSS, h, mu_B, mu_N
from ybqc.errors import ConfigError, DegenerateManifoldError


def dense_hamiltonian(params, B):
    """Independent oracle: full 10x10 H = A I.J + (gJ muB Jz - gI muN Iz) B/h
    built from angular-momentum matrices via Kronecker products."""
    J, I = 2.0, 0.5
    dimJ, dimI = 5, 2

    def ladder(j):
        m = np.arange(j, -j, -1)
        return np.diag(np.sqrt(j * (j + 1) - m * (m - 1)), k=-1)

    def jz(j):
        return np.diag(np.arange(j, -j - 1, -1))

    Jp, Ip = ladder(J).T, ladder(I).T
    Jm, Im = ladder(J), ladder(I)
    Jz, Iz = jz(J), jz(I)
    IdJ, IdI = np.eye(dimJ), np.eye(dimI)
    IdotJ = (np.kron(Jz, Iz)
             + 0.5 * (np.kron(Jp, Im) + np.kron(Jm, Ip)))
    A = params.hyperfine_A_3P2_hz
    gI = params.nuclear_moment_mu_n / I
    H = A * IdotJ + (params.g_J_3P2 * mu_B * np.kron(Jz, IdI)
                     - gI * mu_N * np.kron(IdJ, Iz)) * B / h
    return H


@pytest.mark.parametrize("b_gauss", [0.0, 1.0, 100.0, 650.0, 5000.0, 20000.0])
def test_blockwise_matches_dense_eigensolver(b_gauss):
    params = AtomParams()
    B = b_gauss * GAUSS
    spec = zeeman_spectrum(params, B)
    ours = np.sort([lv.energy_hz for lv in spec.levels])
    dense = np.sort(np.linalg.eigvalsh(dense_hamiltonian(params, B)))
    scale = max(1.0, np.abs(dense).max())
    assert np.max(np.abs(ours - dense)) / scale < 1e-9


def test_level_count_and_trace(b_gauss=137.0):
    params = AtomParams()
    spec = zeeman_spectrum(params, b_gauss * GAUSS)
    assert len(spec.levels) == 10
    trace = sum(lv.energy_hz for lv in spec.levels)
    dense = np.trace(dense_hamiltonian(params, b_gauss * GAUSS))
    scale = sum(abs(lv.energy_hz) for lv in spec.levels)
    assert abs(trace - dense) <= 1e-9 * scale


# m_F of the dense basis kron(|m_J = 2 .. -2>, |m_I = +1/2, -1/2>)
DENSE_M_F = np.repeat(np.arange(2.0, -3.0, -1.0), 2) + np.tile([0.5, -0.5], 5)


def dense_block_slopes(params, B):
    """Hellmann-Feynman oracle: <v|dH/dB|v> over the eigenvectors (eigh)
    of each m_F block of the dense Hamiltonian, ascending in energy, as
    {m_F: [slopes]}.  H is linear in B, so dH/dB = H(1 T) - H(0)."""
    H = dense_hamiltonian(params, B)
    dH = dense_hamiltonian(params, 1.0) - dense_hamiltonian(params, 0.0)
    out = {}
    for m in np.unique(DENSE_M_F):
        idx = np.flatnonzero(DENSE_M_F == m)
        _, V = np.linalg.eigh(H[np.ix_(idx, idx)])
        out[float(m)] = list(np.einsum("ik,ij,jk->k", V,
                                       dH[np.ix_(idx, idx)], V))
    return out


SIGNED_A = st.floats(1e9, 1e10).flatmap(
    lambda a: st.sampled_from([a, -a]))


@settings(max_examples=60, deadline=None)
@given(A=SIGNED_A, B=st.floats(0.0, 2.0, exclude_min=True),
       linear=st.booleans())
def test_slopes_match_hellmann_feynman_oracle(A, B, linear):
    params = AtomParams(hyperfine_A_3P2_hz=A, linear_zeeman=linear)
    spec = zeeman_spectrum(params, B)
    if linear:
        # strictly linear energies: the unit-step difference is the slope
        step = zeeman_spectrum(params, B + 1.0)
        for lv, lv1 in zip(spec.levels, step.levels):
            assert lv.slope_hz_per_t == pytest.approx(
                lv1.energy_hz - lv.energy_hz, rel=1e-9, abs=1.0)
        return
    oracle = dense_block_slopes(params, B)
    scale = max(abs(s) for slopes in oracle.values() for s in slopes)
    for m_F, want in oracle.items():
        block = sorted((lv for lv in spec.levels if lv.m_F == m_F),
                       key=lambda lv: lv.energy_hz)
        assert [lv.slope_hz_per_t for lv in block] \
            == pytest.approx(want, abs=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(A=SIGNED_A, B=st.floats(1e-4, 2.0), linear=st.booleans())
def test_register_moments_match_central_difference(A, B, linear):
    params = AtomParams(hyperfine_A_3P2_hz=A, linear_zeeman=linear)
    dB = 1e-5
    lo, hi = register_levels(params, B - dB), register_levels(params, B + dB)
    fd = [-h * (e1 - e0) / (2 * dB)
          for e0, e1 in zip(lo.energy_hz, hi.energy_hz)]
    assert register_levels(params, B).moment_j_per_t \
        == pytest.approx(fd, rel=1e-6)


def test_exact_crossing_keeps_the_diagonal_slopes():
    # a subnormal A underflows the off-diagonal to 0, so at B = 0 the 2x2
    # blocks cross exactly; each branch keeps a diagonal slope, the
    # smaller one below
    params = AtomParams(hyperfine_A_3P2_hz=5e-324)
    spec = zeeman_spectrum(params, 0.0)
    dH = np.diag(dense_hamiltonian(params, 1.0)
                 - dense_hamiltonian(params, 0.0))
    for m in (-1.5, -0.5, 0.5, 1.5):
        got = [spec.level(m, b).slope_hz_per_t for b in ("lower", "upper")]
        assert got == pytest.approx(sorted(dH[DENSE_M_F == m]), rel=1e-12)


def test_zero_field_splitting_is_five_halves_A():
    params = AtomParams()
    spec = zeeman_spectrum(params, 0.0)
    energies = sorted({round(lv.energy_hz, 3) for lv in spec.levels})
    assert len(energies) == 2
    assert energies[1] - energies[0] == pytest.approx(
        2.5 * params.hyperfine_A_3P2_hz, rel=1e-12)
    # F=3/2 (4 sublevels) sits below F=5/2 (6) for A > 0
    lower = [lv for lv in spec.levels if lv.branch == "lower"]
    assert len(lower) == 4


def test_low_field_f32_slope_matches_lande_factor():
    params = AtomParams()
    gF = lande_g_F(params.g_J_3P2, 1.5, 2, 0.5)
    assert gF == pytest.approx(1.8, abs=1e-12)
    B1, B2 = 0.5 * GAUSS, 1.0 * GAUSS
    br = aux_branch(params)
    for mF in (-1.5, -0.5, 0.5, 1.5):
        e1 = zeeman_spectrum(params, B1).level(mF, br).energy_hz
        e2 = zeeman_spectrum(params, B2).level(mF, br).energy_hz
        slope = (e2 - e1) / (B2 - B1)
        # electronic g_F dominates; nuclear term is a ~1e-4 correction
        assert slope == pytest.approx(gF * mF * mu_B / h, rel=2e-3)


def test_stretched_state_slope_is_three_bohr_magnetons():
    params = AtomParams()
    B1, B2 = 1.0 * GAUSS, 2.0 * GAUSS
    e1 = zeeman_spectrum(params, B1).level(2.5, "upper").energy_hz
    e2 = zeeman_spectrum(params, B2).level(2.5, "upper").energy_hz
    slope = (e2 - e1) / (B2 - B1)
    # g_F(5/2) = 1.2, m_F = 5/2 -> 3 mu_B, about 4.2 MHz/G
    assert slope == pytest.approx(3 * mu_B / h, rel=2e-3)
    assert slope * GAUSS == pytest.approx(4.2e6, rel=0.01)


def test_branch_labels_adiabatically_stable():
    params = AtomParams()
    fields = np.linspace(1.0, 20000.0, 300) * GAUSS
    prev = None
    for B in fields:
        spec = zeeman_spectrum(params, B)
        keys = sorted((lv.m_F, lv.branch) for lv in spec.levels)
        if prev is not None:
            assert keys == prev
        prev = keys
        # within every 2x2 block, 'lower' stays below 'upper'
        for mF in (-1.5, -0.5, 0.5, 1.5):
            assert spec.level(mF, "lower").energy_hz \
                < spec.level(mF, "upper").energy_hz


def test_ground_splitting_closed_form():
    params = AtomParams()
    B = 100 * GAUSS
    expected = 2 * 0.49367 * mu_N * B / h
    assert ground_qubit_splitting(params, B) == pytest.approx(expected,
                                                              rel=1e-12)
    assert ground_state_energy(params, B, +0.5) \
        == pytest.approx(-0.49367 * mu_N * B / h, rel=1e-12)
    assert ground_state_energy(params, B, -0.5) \
        == pytest.approx(+0.49367 * mu_N * B / h, rel=1e-12)


def test_transition_frequency_and_slope_consistent():
    params = AtomParams()
    B = 100 * GAUSS
    f = transition_frequency(params, +0.5, (1.5, "lower"), B)
    spec = zeeman_spectrum(params, B)
    assert f == pytest.approx(spec.level(1.5, "lower").energy_hz
                              - ground_state_energy(params, B, +0.5),
                              rel=1e-12)
    slope = transition_slope(params, +0.5, (1.5, "lower"), B)
    dB = 1e-6
    fd = (transition_frequency(params, +0.5, (1.5, "lower"), B + dB)
          - transition_frequency(params, +0.5, (1.5, "lower"), B - dB)) \
        / (2 * dB)
    assert slope == pytest.approx(fd, rel=1e-6)
    # about 3.76 MHz/G for the 2.7 mu_B transition at low field
    assert slope * GAUSS == pytest.approx(3.76e6, rel=0.02)


def test_detuning_sum_rule():
    # omega_ab + omega_bc + omega_cd = 3 omega0 by construction, so
    # Delta1 + Delta2 = -(omega_bc - omega0)
    params = AtomParams()
    for bg in (10.0, 650.0, 5000.0):
        B = bg * GAUSS
        det = three_photon_detunings(params, B)
        E = register_levels(params, B).energy_hz
        w_bc = 2 * math.pi * (E[EP12] - E[EM12])
        assert det.delta1_rad_s + det.delta2_rad_s == pytest.approx(
            -(w_bc - det.omega0_rad_s), abs=1e-3)


def test_linear_zeeman_flag_kills_detunings():
    params = AtomParams(linear_zeeman=True)
    det = three_photon_detunings(params, 650 * GAUSS)
    # float cancellation of ~1e10 rad/s level energies leaves urad/s noise
    assert abs(det.delta1_rad_s) < 1e-3
    assert abs(det.delta2_rad_s) < 1e-3


def test_degenerate_manifold_raises():
    with pytest.raises(DegenerateManifoldError):
        three_photon_detunings(AtomParams(), 0.0)


def test_calibration_hits_target():
    params = calibrate_hyperfine_A(AtomParams())
    det = three_photon_detunings(params, 650 * GAUSS)
    geo = math.sqrt(abs(det.delta1_rad_s * det.delta2_rad_s))
    assert geo == pytest.approx(2 * math.pi * 20e6, rel=1e-9)
    # opposite signs at the operating point: drive sits between the
    # ladder resonances
    assert det.delta1_rad_s * det.delta2_rad_s < 0


def test_param_validation():
    with pytest.raises(ConfigError):
        AtomParams(nuclear_spin=1.5)
    with pytest.raises(ConfigError):
        AtomParams(hyperfine_A_3P2_hz=0.0)
    AtomParams(hyperfine_A_3P2_hz=0.0, linear_zeeman=True)  # allowed
    with pytest.raises(ConfigError):
        AtomParams(mass_kg=-1.0)
    with pytest.raises(ConfigError):
        zeeman_spectrum(AtomParams(), -1.0)
