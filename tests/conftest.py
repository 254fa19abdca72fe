"""Shared test plumbing: collects acceptance-check verdict lines and
prints them in the terminal summary (immune to output capture), reads
level populations and joint ground-basis probabilities off a register,
and runs one segment on its own through the engine."""

import math
from dataclasses import replace

import numpy as np

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


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
