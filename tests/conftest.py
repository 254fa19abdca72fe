"""Shared test plumbing: collects acceptance-check verdict lines and
prints them in the terminal summary (immune to output capture), reads
level populations and joint ground-basis probabilities off a register,
runs one segment on its own through the engine, and evaluates the
3-photon ladder's detunings to 80 digits as an oracle."""

import math
from dataclasses import replace

import mpmath
import numpy as np

from ybqc.constants import h, mu_B, mu_N
from ybqc.engine import (GM, GP, NLEV, RegisterState, Run, apply_segment,
                         basis_labels)

acceptance_lines = []


def atom_levels(reg: RegisterState, axis: int) -> np.ndarray:
    """Level of atom `axis` in each basis state of the 6^n amplitudes."""
    return basis_labels(round(math.log(reg.amps.size, NLEV)))[:, axis]


def level_populations(reg: RegisterState, axis: int) -> np.ndarray:
    """Unnormalized population of each level of atom `axis`."""
    return np.bincount(atom_levels(reg, axis), np.abs(reg.amps) ** 2, NLEV)


def ground_basis_probability(reg: RegisterState, bits: dict) -> float:
    """Joint probability of finding each given atom's qubit value in the
    ground manifold (0 -> g-, 1 -> g+), the atoms named by their axis;
    other atoms are traced out."""
    mask = np.ones(reg.amps.size, bool)
    for axis, bit in bits.items():
        mask &= atom_levels(reg, axis) == (GP if bit else GM)
    return float((np.abs(reg.amps) ** 2)[mask].sum())


def stepwise_run(schedule, segment, noise, dipole_scale=1.0) -> Run:
    """The engine run of `segment` alone on `schedule`'s atom, lattice
    and sites."""
    return Run(noise, dipole_scale, replace(schedule, segments=(segment,)))


def apply_stepwise(reg, schedule, segment, noise,
                   dipole_scale=1.0) -> RegisterState:
    """`engine.apply_segment` of `segment` on the amplitudes `reg` of
    `schedule`'s sites, in a run of its own."""
    return apply_segment(reg, segment,
                         stepwise_run(schedule, segment, noise, dipole_scale))


def ladder_oracle(params, B: float) -> tuple:
    """(omega0, Delta1, Delta2) in rad/s of the 3P2 F=3/2 ladder of
    `params` at field B, as mpmath numbers: eigenvalues, at 80 digits, of
    the 2x2 blocks m_F = -3/2 .. +3/2 of
    H = A I.J + (g_J mu_B J_z - g_I mu_N I_z) B / h, in the basis
    |m_J = m_F + 1/2, m_I = -1/2>, |m_J - 1, +1/2>; the lower eigenvalue
    is F=3/2 for A > 0.  The detunings keep 80 - log10(|E| / |Delta|)
    digits: about 43 for g_J = 1e16 at 100 T."""
    with mpmath.workdps(80):
        A, B = mpmath.mpf(params.hyperfine_A_3P2_hz), mpmath.mpf(B)
        zJ = mpmath.mpf(params.g_J_3P2) * mpmath.mpf(mu_B) * B / mpmath.mpf(h)
        zI = mpmath.mpf(params.g_I) * mpmath.mpf(mu_N) * B / mpmath.mpf(h)
        E = []
        for m_J in (-1, 0, 1, 2):
            d1 = -A * m_J / 2 + zJ * m_J + zI / 2
            d2 = A * (m_J - 1) / 2 + zJ * (m_J - 1) - zI / 2
            off = A / 2 * mpmath.sqrt(6 - m_J * (m_J - 1))
            lower, upper = sorted(mpmath.eigsy(
                mpmath.matrix([[d1, off], [off, d2]]), eigvals_only=True))
            E.append(lower if params.hyperfine_A_3P2_hz > 0 else upper)
        w = [2 * mpmath.pi * (E[k + 1] - E[k]) for k in range(3)]
        omega0 = sum(w) / 3
        return omega0, w[0] - omega0, w[2] - omega0


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
