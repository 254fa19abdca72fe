"""Zeeman/hyperfine structure tests against independent dense-matrix,
closed-form and 50-digit oracles."""

import math
from dataclasses import replace
from functools import partial

import mpmath
import numpy as np
import pytest
import scipy.constants
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from ybqc import constants
from ybqc.atomic import (CALIBRATION_A_BRACKET_HZ, CALIBRATION_DETUNING_RAD_S,
                         CALIBRATION_FIELD_T, EM12, EP12, EP32, GM, GP,
                         AtomParams, aux_branch, calibrate_hyperfine_A,
                         ladder_detunings, lande_g_F, level_labels,
                         register_table, zeeman_table)
from ybqc.constants import GAUSS, h, mu_B, mu_N
from ybqc.engine import light_shift_compensation
from ybqc.errors import ConfigError, DegenerateManifoldError, PhysicsError
from ybqc.protocols import three_photon_scan

from conftest import ladder_oracle


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


def levels_at(params, B):
    """{(m_F, branch): (energy, slope)} of the 10 levels at field B: one
    column of the kernel, its rows named by `level_labels`."""
    energy, slopes = zeeman_table(params, [B])[:, :, 0].tolist()
    return dict(zip(level_labels(params), zip(energy, slopes)))


@pytest.mark.parametrize("b_gauss", [0.0, 1.0, 100.0, 650.0, 5000.0, 20000.0])
def test_blockwise_matches_dense_eigensolver(b_gauss):
    params = AtomParams()
    B = b_gauss * GAUSS
    ours = np.sort(zeeman_table(params, [B])[0, :, 0])
    dense = np.sort(np.linalg.eigvalsh(dense_hamiltonian(params, B)))
    scale = max(1.0, np.abs(dense).max())
    assert np.max(np.abs(ours - dense)) / scale < 1e-9


def test_level_count_and_trace(b_gauss=137.0):
    params = AtomParams()
    energies = [e for e, _ in levels_at(params, b_gauss * GAUSS).values()]
    assert len(energies) == 10
    trace = sum(energies)
    dense = np.trace(dense_hamiltonian(params, b_gauss * GAUSS))
    scale = sum(map(abs, energies))
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
@given(A=SIGNED_A, B=st.floats(0.0, 2.0, exclude_min=True))
def test_slopes_match_hellmann_feynman_oracle(A, B):
    params = AtomParams(hyperfine_A_3P2_hz=A)
    spec = levels_at(params, B)
    oracle = dense_block_slopes(params, B)
    scale = max(abs(s) for slopes in oracle.values() for s in slopes)
    for m_F, want in oracle.items():
        block = sorted(lv for (m, _), lv in spec.items() if m == m_F)
        assert [s for _, s in block] == pytest.approx(want, abs=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(A=SIGNED_A, B=st.floats(1e-4, 2.0))
def test_register_moments_match_central_difference(A, B):
    params = AtomParams(hyperfine_A_3P2_hz=A)
    dB = 1e-5
    table = register_table(params, [B - dB, B, B + dB])
    lo, _, hi = table.energy_hz.T
    fd = -h * (hi - lo) / (2 * dB)
    assert table.moment_j_per_t[:, 1] == pytest.approx(fd, rel=1e-6)


def test_exact_crossing_keeps_the_diagonal_slopes():
    # a subnormal A underflows the off-diagonal to 0, so at B = 0 the 2x2
    # blocks cross exactly (rad == 0): each branch keeps a diagonal
    # slope, mean -/+ |s1 - s2|/2, the smaller one below, whichever sign
    # s1 - s2 takes.  At 1 mT the same kernel call takes the rad != 0
    # branch.
    for g_J in (1.5, -1.5):
        params = AtomParams(g_J_3P2=g_J, hyperfine_A_3P2_hz=5e-324)
        energy, slopes = zeeman_table(params, [0.0, 1e-3])
        assert list(energy[1:9:2, 0]) == list(energy[2:9:2, 0])  # rad == 0
        assert np.all(energy[1:9:2, 1] < energy[2:9:2, 1])
        spec = levels_at(params, 0.0)
        dH = np.diag(dense_hamiltonian(params, 1.0)
                     - dense_hamiltonian(params, 0.0))
        for row, m in zip(range(1, 9, 2), (-1.5, -0.5, 0.5, 1.5)):
            s1, s2 = dH[DENSE_M_F == m]
            want = [(s1 + s2) / 2 - abs(s1 - s2) / 2,
                    (s1 + s2) / 2 + abs(s1 - s2) / 2]
            got = list(slopes[row:row + 2, 0])
            assert got == pytest.approx(want, rel=1e-12)
            assert [spec[m, b][1] for b in ("lower", "upper")] == got
            assert list(slopes[row:row + 2, 1]) == pytest.approx(
                dense_block_slopes(params, 1e-3)[m], rel=1e-12)


# random atoms: signed A, and g_J and nuclear moments around 171Yb's
ATOMS = st.builds(AtomParams, hyperfine_A_3P2_hz=SIGNED_A,
                  g_J_3P2=st.floats(0.5, 3.0),
                  nuclear_moment_mu_n=st.floats(-2.0, 2.0))
# arrays of fields that always hold B = 0
FIELDS = st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8).map(
    lambda b: np.array([0.0, *b]))


@settings(max_examples=60, deadline=None)
@given(params=ATOMS, B=FIELDS)
def test_kernel_matches_dense_eigensolver_at_every_field(params, B):
    energy, _ = zeeman_table(params, B)
    assert energy.shape == (10, len(B))
    for col, b in zip(energy.T, B):
        dense = np.linalg.eigvalsh(dense_hamiltonian(params, b))
        scale = max(1.0, np.abs(dense).max())
        assert np.max(np.abs(np.sort(col) - dense)) / scale < 1e-9


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(params=ATOMS, B=FIELDS)
def test_float_views_are_columns_of_the_kernel(params, B):
    # one-field calls (the CLI's `levels` and `detunings`, the planner's
    # slope) read the same bits as a column of a many-field call, such as
    # a register's table of `site_levels`; B = 0 included
    energy, slopes = zeeman_table(params, B)
    table = register_table(params, B)
    det = ladder_detunings(params, B)
    assert len(set(level_labels(params))) == 10
    for n, b in enumerate(B.tolist()):
        column = zeeman_table(params, [b])
        assert _bits(column[0, :, 0]) == _bits(energy[:, n])
        assert _bits(column[1, :, 0]) == _bits(slopes[:, n])
        lv = register_table(params, [b])
        assert _bits(lv.energy_hz[:, 0]) == _bits(table.energy_hz[:, n])
        assert _bits(lv.moment_j_per_t[:, 0]) \
            == _bits(table.moment_j_per_t[:, n])
        d = ladder_detunings(params, [b])
        assert _bits([d.omega0_rad_s, d.delta1_rad_s, d.delta2_rad_s]) \
            == _bits([det.omega0_rad_s[n], det.delta1_rad_s[n],
                      det.delta2_rad_s[n]])


def test_kernel_errors_name_the_first_offending_field():
    with pytest.raises(ConfigError, match=r"got -2\.0 T"):
        zeeman_table(AtomParams(), [1.0, -2.0, math.nan])
    with pytest.raises(ConfigError, match="got nan T"):
        zeeman_table(AtomParams(), [0.0, math.nan, -2.0])
    # energies k B / h overflow from 1e30 T on; the slopes stay finite
    with pytest.raises(PhysicsError, match=r"B = 1e\+30 T .*g_J_3P2"):
        zeeman_table(AtomParams(g_J_3P2=1e280), [1.0, 1e30, 1e40])
    with pytest.raises(PhysicsError, match=r"B = 1e\+30 T"):
        ladder_detunings(AtomParams(g_J_3P2=1e280), [1.0, 1e30])
    with pytest.raises(ConfigError, match=r"got -2\.0 T"):
        ladder_detunings(AtomParams(), [1.0, -2.0, math.nan])


def test_zero_field_splitting_is_five_halves_A():
    params = AtomParams()
    spec = levels_at(params, 0.0)
    energies = sorted({round(e, 3) for e, _ in spec.values()})
    assert len(energies) == 2
    assert energies[1] - energies[0] == pytest.approx(
        2.5 * params.hyperfine_A_3P2_hz, rel=1e-12)
    # F=3/2 (4 sublevels) sits below F=5/2 (6) for A > 0
    lower = [e for (_, b), (e, _) in spec.items() if b == "lower"]
    assert len(lower) == 4


def test_low_field_f32_slope_matches_lande_factor():
    params = AtomParams()
    gF = lande_g_F(params.g_J_3P2, 1.5, 2, 0.5)
    assert gF == pytest.approx(1.8, abs=1e-12)
    B1, B2 = 0.5 * GAUSS, 1.0 * GAUSS
    br = aux_branch(params)
    for mF in (-1.5, -0.5, 0.5, 1.5):
        e1 = levels_at(params, B1)[mF, br][0]
        e2 = levels_at(params, B2)[mF, br][0]
        slope = (e2 - e1) / (B2 - B1)
        # electronic g_F dominates; nuclear term is a ~1e-4 correction
        assert slope == pytest.approx(gF * mF * mu_B / h, rel=2e-3)


def test_stretched_state_slope_is_three_bohr_magnetons():
    params = AtomParams()
    B1, B2 = 1.0 * GAUSS, 2.0 * GAUSS
    e1 = levels_at(params, B1)[2.5, "upper"][0]
    e2 = levels_at(params, B2)[2.5, "upper"][0]
    slope = (e2 - e1) / (B2 - B1)
    # g_F(5/2) = 1.2, m_F = 5/2 -> 3 mu_B, about 4.2 MHz/G
    assert slope == pytest.approx(3 * mu_B / h, rel=2e-3)
    assert slope * GAUSS == pytest.approx(4.2e6, rel=0.01)


def test_branch_labels_adiabatically_stable():
    params = AtomParams()
    fields = np.linspace(1.0, 20000.0, 300) * GAUSS
    labels = level_labels(params)
    energy = zeeman_table(params, fields)[0]
    # within every 2x2 block, 'lower' stays below 'upper' at every field
    for mF in (-1.5, -0.5, 0.5, 1.5):
        assert np.all(energy[labels.index((mF, "lower"))]
                      < energy[labels.index((mF, "upper"))])


def test_ground_splitting_closed_form():
    params = AtomParams()
    B = 100 * GAUSS
    expected = 2 * 0.49367 * mu_N * B / h
    E = register_table(params, [B]).energy_hz[:, 0]
    assert E[GM] - E[GP] == pytest.approx(expected, rel=1e-12)
    assert E[GP] == pytest.approx(-0.49367 * mu_N * B / h, rel=1e-12)
    assert E[GM] == pytest.approx(+0.49367 * mu_N * B / h, rel=1e-12)


def test_transition_frequency_and_slope_consistent():
    # the addressed line g+ <-> e+3/2 from the register level table
    params = AtomParams()
    B = 100 * GAUSS

    def line(B):
        E = register_table(params, [B]).energy_hz[:, 0]
        return E[EP32] - E[GP]

    assert line(B) == pytest.approx(levels_at(params, B)[1.5, "lower"][0]
                                    + 0.49367 * mu_N * B / h, rel=1e-12)
    m = register_table(params, [B]).moment_j_per_t[:, 0]
    slope = (m[GP] - m[EP32]) / h
    dB = 1e-6
    fd = (line(B + dB) - line(B - dB)) / (2 * dB)
    assert slope == pytest.approx(fd, rel=1e-6)
    # about 3.76 MHz/G for the 2.7 mu_B transition at low field
    assert slope * GAUSS == pytest.approx(3.76e6, rel=0.02)


def test_detuning_sum_rule():
    # omega_ab + omega_bc + omega_cd = 3 omega0 by construction, so
    # Delta1 + Delta2 = -(omega_bc - omega0)
    params = AtomParams()
    for bg in (10.0, 650.0, 5000.0):
        B = bg * GAUSS
        det = ladder_detunings(params, [B])
        E = register_table(params, [B]).energy_hz[:, 0]
        w_bc = 2 * math.pi * (E[EP12] - E[EM12])
        assert det.delta1_rad_s[0] + det.delta2_rad_s[0] == pytest.approx(
            -(w_bc - det.omega0_rad_s[0]), abs=1e-3)


def test_degenerate_manifold_raises():
    # at B = 0 the F=3/2 sublevels are degenerate: the closed form gives
    # the ladder's exact zeros, and the consumers that drive it raise
    det = ladder_detunings(AtomParams(), [1e-2, 0.0])
    assert [det.omega0_rad_s[1], det.delta1_rad_s[1],
            det.delta2_rad_s[1]] == [0.0, 0.0, 0.0]
    assert det.delta1_rad_s[0] * det.delta2_rad_s[0] < 0
    with pytest.raises(DegenerateManifoldError, match="B = 0"):
        three_photon_scan(det, 1, 2 * math.pi * 1e5)
    with pytest.raises(DegenerateManifoldError, match="B = 0"):
        light_shift_compensation(0.0, 0.0, 2 * math.pi * 1e5)
    with pytest.raises(ConfigError, match="got -0.01 T"):
        ladder_detunings(AtomParams(), [1e-2, -1e-2])


# Over 3000 random atoms of `BREIT_RABI_ATOMS` at 1 uT - 100 T the worst
# deviation was 2.2 x 2^-52 of the block's larger |E|; the bound leaves a
# factor 4
BREIT_RABI_ERROR = 8 * 2.0 ** -52
BREIT_RABI_ATOMS = st.builds(
    AtomParams,
    hyperfine_A_3P2_hz=st.floats(8.0, 10.0).flatmap(
        lambda e: st.sampled_from([10.0 ** e, -10.0 ** e])),
    g_J_3P2=st.floats(0.3, 4.0), nuclear_moment_mu_n=st.floats(-2.0, 2.0))


@settings(max_examples=100, deadline=None)
@given(params=BREIT_RABI_ATOMS, log_b=st.floats(-6.0, 2.0))
def test_f32_levels_follow_the_breit_rabi_form(params, log_b):
    # each 2x2 block of m_F = -3/2 .. +3/2 holds mean -/+ r, with
    # mean = -A/4 + g_J mu_B m_F B/h, r^2 = (5A/4)^2 - A kappa m_F B
    # + kappa^2 B^2 and kappa = (g_J mu_B + g_I mu_N) / (2h)
    A, B = params.hyperfine_A_3P2_hz, 10.0 ** log_b
    kappa = (params.g_J_3P2 * mu_B + params.g_I * mu_N) / (2 * h)
    energy = zeeman_table(params, [B])[0, :, 0]
    for k, m_F in enumerate((-1.5, -0.5, 0.5, 1.5)):
        lower, upper = energy[1 + 2 * k], energy[2 + 2 * k]
        mean = -A / 4 + params.g_J_3P2 * mu_B * m_F * B / h
        r = math.sqrt((5 * A / 4) ** 2 - A * kappa * m_F * B
                      + (kappa * B) ** 2)
        scale = max(abs(lower), abs(upper))
        assert abs(lower - (mean - r)) <= BREIT_RABI_ERROR * scale
        assert abs(upper - (mean + r)) <= BREIT_RABI_ERROR * scale


# Over 120000 random atoms of `BREIT_RABI_ATOMS` at 1 uT - 100 T the worst
# error was 5.66 x 2^-52 of |Delta| and 1.86 x 2^-52 of |omega0|
LADDER_ERROR = 6.2 * 2.0 ** -52
OMEGA0_ERROR = 2.2 * 2.0 ** -52


def _ulps_off(got: float, want) -> float:
    return float(abs(mpmath.mpf(got) - want) / abs(want))


@settings(max_examples=100, deadline=None)
@given(params=BREIT_RABI_ATOMS, log_b=st.floats(-6.0, 2.0))
def test_ladder_detunings_match_the_mpmath_eigenvalues(params, log_b):
    # the closed form against the 2x2 blocks' eigenvalues at 80 digits;
    # Delta1 and Delta2 have opposite signs
    det = ladder_detunings(params, [10.0 ** log_b])
    omega0, delta1, delta2 = ladder_oracle(params, 10.0 ** log_b)
    assert _ulps_off(det.omega0_rad_s[0], omega0) <= OMEGA0_ERROR
    assert _ulps_off(det.delta1_rad_s[0], delta1) <= LADDER_ERROR
    assert _ulps_off(det.delta2_rad_s[0], delta2) <= LADDER_ERROR
    assert det.delta1_rad_s[0] * det.delta2_rad_s[0] < 0


@pytest.mark.parametrize("g_J", [1e9, 1e16])
def test_detunings_of_extreme_atoms_match_the_oracle(g_J):
    # Zeeman energies that dwarf the detunings by up to 1e37 (g_J = 1e16:
    # about 1e25 Hz against 4e-7 Hz at 650 G), where second differences
    # of the level table keep no digit
    atom = replace(AtomParams(), g_J_3P2=g_J)
    B = np.array([1e-6, 0.065, 0.2, 100.0])
    det = ladder_detunings(atom, B)
    for n, b in enumerate(B.tolist()):
        omega0, delta1, delta2 = ladder_oracle(atom, b)
        assert _ulps_off(det.omega0_rad_s[n], omega0) <= OMEGA0_ERROR
        assert _ulps_off(det.delta1_rad_s[n], delta1) <= LADDER_ERROR
        assert _ulps_off(det.delta2_rad_s[n], delta2) <= LADDER_ERROR


def test_calibration_hits_target():
    params = calibrate_hyperfine_A(AtomParams())
    det = ladder_detunings(params, [650 * GAUSS])
    geo = math.sqrt(abs(det.delta1_rad_s[0] * det.delta2_rad_s[0]))
    assert geo == pytest.approx(2 * math.pi * 20e6, rel=1e-9)
    # opposite signs at the operating point: drive sits between the
    # ladder resonances
    assert det.delta1_rad_s[0] * det.delta2_rad_s[0] < 0


def test_constants_are_scipy_codata_bit_for_bit():
    codata = scipy.constants.physical_constants
    scipy_values = {
        "c": scipy.constants.c, "h": scipy.constants.h,
        "hbar": scipy.constants.hbar, "k_B": scipy.constants.k,
        "mu_0": scipy.constants.mu_0,
        "mu_B": codata["Bohr magneton"][0],
        "mu_N": codata["nuclear magneton"][0],
        "atomic_mass": codata["atomic mass constant"][0]}
    assert {name: getattr(constants, name) for name in scipy_values} \
        == scipy_values


def _calibration_mismatch(params: AtomParams, A: float) -> float:
    """Geometric mean of |Delta1|, |Delta2| at CALIBRATION_FIELD_T with
    A(3P2) = A, minus CALIBRATION_DETUNING_RAD_S: one atom, one field."""
    p = replace(params, hyperfine_A_3P2_hz=A)
    d = ladder_detunings(p, [CALIBRATION_FIELD_T])
    return math.sqrt(abs(d.delta1_rad_s[0] * d.delta2_rad_s[0])) \
        - CALIBRATION_DETUNING_RAD_S


def _brentq_or_none(params):
    try:
        return brentq(partial(_calibration_mismatch, params),
                      *CALIBRATION_A_BRACKET_HZ)
    except (ValueError, RuntimeError, PhysicsError):
        return None


@settings(max_examples=60, deadline=None)
@given(g_J=st.floats(0.3, 4.0), moment=st.floats(-2.0, 2.0))
@example(g_J=1.5, moment=0.49367)
@example(g_J=0.6, moment=0.49367)
@example(g_J=0.0, moment=0.49367)
# detunings of about 1e-6 rad/s over the bracket: brentq finds no sign
# change at its ends
@example(g_J=1e16, moment=0.49367)
def test_calibration_root_agrees_with_brentq(g_J, moment):
    """The scaled array search lands within 1e-12 relative of the root
    scipy's brentq finds for the one-field mismatch (6000 random atoms
    of this domain: at most 1.9e-13), and raises PhysicsError exactly
    where brentq raises."""
    params = AtomParams(g_J_3P2=g_J, nuclear_moment_mu_n=moment)
    expected = _brentq_or_none(params)
    if expected is None:
        with pytest.raises(PhysicsError):
            calibrate_hyperfine_A(params)
    else:
        assert calibrate_hyperfine_A(params).hyperfine_A_3P2_hz \
            == pytest.approx(expected, rel=1e-12, abs=0)


def test_calibration_outside_its_bracket_names_the_bracket():
    with pytest.raises(PhysicsError, match="CALIBRATION_A_BRACKET_HZ"):
        calibrate_hyperfine_A(AtomParams(g_J_3P2=0.6))


def test_calibration_of_an_overflowing_atom_names_the_calibration_field():
    # not the field B / A at which the search evaluates the atom with A = 1
    with pytest.raises(PhysicsError, match=r"at B = 0\.065 T leave"):
        calibrate_hyperfine_A(AtomParams(g_J_3P2=1e300))


@settings(max_examples=60, deadline=None)
@given(params=st.builds(AtomParams, hyperfine_A_3P2_hz=st.floats(1e9, 1e10),
                        g_J_3P2=st.floats(0.3, 4.0),
                        nuclear_moment_mu_n=st.floats(-2.0, 2.0)),
       log_b=st.lists(st.floats(-6.0, 1.0), min_size=1, max_size=8))
def test_table_scales_with_the_hyperfine_constant(params, log_b):
    """E(A, B) = A E(1, B / A) and the moments are equal, the identity
    the calibration searches by: to 2e-15 of each field's largest |E|
    and |moment| (14000 random atoms of this domain, A 1e9 to 1e10 Hz,
    B 1 uT to 10 T: at most 5.0e-16 and 2.7e-16)."""
    A, B = params.hyperfine_A_3P2_hz, 10.0 ** np.array(log_b)
    table = register_table(params, B)
    unit = register_table(replace(params, hyperfine_A_3P2_hz=1.0), B / A)
    for got, want in ((table.energy_hz, A * unit.energy_hz),
                      (table.moment_j_per_t, unit.moment_j_per_t)):
        assert np.all(np.abs(got - want)
                      <= 2e-15 * np.abs(got).max(axis=0))


def test_param_validation():
    # I = 1/2 and J = 2 are constants of the atom, not parameters
    assert (AtomParams.nuclear_spin, AtomParams.electronic_J_3P2) == (0.5, 2)
    with pytest.raises(TypeError):
        AtomParams(nuclear_spin=1.5)
    with pytest.raises(ConfigError, match="nonzero"):
        AtomParams(hyperfine_A_3P2_hz=0.0)
    with pytest.raises(ConfigError):
        AtomParams(mass_kg=-1.0)
    with pytest.raises(ConfigError):
        zeeman_table(AtomParams(), [-1.0])
