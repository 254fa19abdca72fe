"""Blocked propagator against the dense oracle: random <=3-site circuits
run segment by segment through both, plus a memory guard that fails if a
7^n x 7^n register matrix comes back."""

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from ybqc.addressing import LatticeGeometry, site_field
from ybqc.atomic import AtomParams, register_levels
from ybqc.compiler import compile_circuit, execute_schedule
from ybqc.dipole import pair_coupling
from ybqc.engine import (GM, GP, NLEV, NoiseParams, RegisterState,
                         _gamma_levels, _laser_frequencies,
                         _resolve_reference, _single_atom_hamiltonian,
                         apply_segment, basis_labels)
from ybqc.protocols import measure_qubit
from ybqc.scenario import simulate_circuit

P = AtomParams()


# ---------------------------------------------------------------------------
# dense oracle: the full kron-sum register Hamiltonian and one expm

def dense_hamiltonian(reg, segment, dipole_scale=1.0):
    geom, config, pulse = reg.geom, segment.config, segment.pulse
    n = reg.n_atoms
    B_ref = site_field(geom, config, _resolve_reference(reg, pulse.target))
    lasers = _laser_frequencies(P, B_ref, pulse)
    tables = [register_levels(P, site_field(geom, config, s))
              for s in reg.sites]
    H = np.zeros((NLEV ** n, NLEV ** n), complex)
    for i, table in enumerate(tables):
        hi = _single_atom_hamiltonian(table.energy_hz, lasers, pulse)
        H += np.kron(np.kron(np.eye(NLEV ** i), hi),
                     np.eye(NLEV ** (n - 1 - i)))
    moments = [table.moment_j_per_t + (0.0,) for table in tables]
    labels = basis_labels(n)
    for i in range(n):
        for j in range(i + 1, n):
            coef = 2 * math.pi * dipole_scale * pair_coupling(
                geom.position_m(reg.sites[i]), geom.position_m(reg.sites[j]))
            H[np.diag_indices_from(H)] += coef \
                * np.take(moments[i], labels[:, i]) \
                * np.take(moments[j], labels[:, j])
    return H


def dense_apply_segment(reg, segment, noise, dipole_scale=1.0):
    dt = segment.pulse.duration_s
    if dt == 0.0:
        return reg.copy()
    gamma = _gamma_levels(noise)[basis_labels(reg.n_atoms)].sum(axis=1)
    M = dense_hamiltonian(reg, segment, dipole_scale) - 0.5j * np.diag(gamma)
    amps = expm(-1j * M * dt) @ reg.amps
    after = float(np.vdot(amps, amps).real)
    return RegisterState(reg.params, reg.geom, reg.sites, amps,
                         reg.leaked + reg.survival - after)


# ---------------------------------------------------------------------------
# random circuits

@st.composite
def circuits(draw, n_sites):
    """1 x n chain: X at a random angle on one site, 0-2 adjacent CNOTs
    either way, MEAS on every site (the rotated one first), random
    initial ones, noise on or off."""
    rotated = draw(st.integers(0, n_sites - 1))
    lines = [f"X {rotated} 0 {draw(st.floats(0.1, math.pi))!r}"]
    for _ in range(draw(st.integers(0, 2))):
        a = draw(st.integers(0, n_sites - 2))
        c, t = (a, a + 1) if draw(st.booleans()) else (a + 1, a)
        lines.append(f"CNOT {c} 0 {t} 0")
    order = [rotated] + [i for i in range(n_sites) if i != rotated]
    lines += [f"MEAS {i} 0" for i in order]
    ones = [(i, 0, 0) for i in range(n_sites) if draw(st.booleans())]
    noise = NoiseParams() if draw(st.booleans()) else NoiseParams.off()
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return "\n".join(lines) + "\n", ones, noise, seed


def _check_against_dense(n_sites, circuit, ones, noise, seed):
    geom = LatticeGeometry(n_sites, 1, 1)
    schedule = compile_circuit(circuit, geom, P, noise)
    sites = [(i, 0, 0) for i in range(n_sites)]
    start = RegisterState.product(P, geom, sites,
                                  [GP if s in ones else GM for s in sites])
    blocked = dense = start
    rng_blocked = np.random.default_rng(seed)
    rng_dense = np.random.default_rng(seed)
    outcomes = []
    for seg in schedule.segments:
        if seg.pulse.transition == "measure":
            site = seg.pulse.target[1]
            bit, blocked, _ = measure_qubit(blocked, site, noise,
                                            rng_blocked)
            bit_dense, dense, _ = measure_qubit(dense, site, noise,
                                                rng_dense)
            assert bit == bit_dense
            outcomes.append((site, bit))
        else:
            blocked = apply_segment(blocked, seg, noise)
            dense = dense_apply_segment(dense, seg, noise)
        assert abs(blocked.survival + blocked.leaked - 1.0) < 1e-9
        assert np.max(np.abs(blocked.amps - dense.amps)) < 1e-10
        assert abs(blocked.leaked - dense.leaked) < 1e-10

    # a second run with the same seed, through the executor, repeats
    # the outcomes and amplitudes exactly
    rerun = execute_schedule(start, schedule, noise, rng_seed=seed)
    assert rerun.outcomes == outcomes
    assert np.array_equal(rerun.register.amps, blocked.amps)
    assert rerun.register.leaked == blocked.leaked


@settings(max_examples=25, deadline=None)
@given(case=circuits(2))
def test_two_site_circuits_match_dense_oracle(case):
    _check_against_dense(2, *case)


@settings(max_examples=3, deadline=None)
@given(case=circuits(3))
def test_three_site_circuits_match_dense_oracle(case):
    _check_against_dense(3, *case)


def test_register_memory_stays_far_below_one_dense_matrix():
    # one dense 2401 x 2401 complex matrix alone is 92 MB
    geom = LatticeGeometry(2, 2, 1)
    circuit = "MEAS 0 0\nMEAS 1 0\nMEAS 0 1\nMEAS 1 1\n"
    tracemalloc.start()
    try:
        _, result = simulate_circuit(circuit, geom, P, NoiseParams(), 5,
                                     initial_ones=[(1, 0, 0), (0, 1, 0)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    result.register.check_accounting()
