"""Shared test plumbing: collects acceptance-check verdict lines and
prints them in the terminal summary (immune to output capture), reads
joint ground-basis probabilities off a register, and runs one segment
on its own through the engine."""

import numpy as np

from ybqc.engine import (GM, GP, PulseSchedule, RegisterState, Run,
                         apply_segment, basis_labels)

acceptance_lines = []


def ground_basis_probability(reg: RegisterState, bits: dict) -> float:
    """Joint probability of finding each given site's qubit value in the
    ground manifold (0 -> g-, 1 -> g+); other sites are traced out."""
    labels = basis_labels(reg.n_atoms)
    mask = np.ones(len(labels), bool)
    for site, bit in bits.items():
        want = GP if bit else GM
        mask &= labels[:, reg.site_index(site)] == want
    return float((np.abs(reg.amps) ** 2)[mask].sum())


def stepwise_run(reg, segment, noise, dipole_scale=1.0) -> Run:
    """The engine run of `segment` alone on `reg`'s sites."""
    return Run(noise, dipole_scale, PulseSchedule((segment,), reg.sites))


def apply_stepwise(reg, segment, noise, dipole_scale=1.0) -> RegisterState:
    """`engine.apply_segment` of `segment` in a run of its own."""
    return apply_segment(reg, segment,
                         stepwise_run(reg, segment, noise, dipole_scale))


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
