"""Blocked propagator against the dense oracle: random <=3-site circuits
run segment by segment through both, the live blocks of random <=4-site
registers against slices of the dense matrix, the stacked exponential
against scipy's `expm`, plus memory guards that fail if a 6^n x 6^n
register matrix or complex blocks come back.  The executor, which keeps
a recurring segment's propagators for the rest of its run, against the
segment-by-segment loop; the run's store of those propagators, driven by
hand; the per-run block partition against the per-call one it
replaced.  The closed-form 2x2 kernel on each of its
branches; the spectral kernel against a 40-digit exponential, its
rounding guard, and the rule that picks it from the decay rates."""

import math
import tracemalloc
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from ybqc import engine
from ybqc.addressing import (LatticeGeometry, plan_gradients, site_fields,
                             site_levels)
from ybqc.atomic import AtomParams, register_levels
from ybqc.compiler import compile_circuit, execute_schedule
from ybqc.dipole import pair_coupling
from ybqc.engine import (EP32, GM, GP, GROUPS, LEGS, NLEV, SINHC_SERIES_BELOW,
                         NoiseParams, Pulse, PulseSchedule, PulseSegment,
                         RegisterState, Run, UNITARITY_TOL, _block_partition,
                         _dipole_diagonal, _expm_stack, _gamma_levels,
                         _leg_offsets, _reference_index,
                         _single_atom_hamiltonian, _spectral_stack,
                         apply_segment, basis_labels, segment_hamiltonian)
from ybqc.errors import IntegratorError
from ybqc.protocols import measure_qubit
from ybqc.scenario import simulate_circuit

from conftest import apply_stepwise, stepwise_run

P = AtomParams()
# 3P2 lifetime and lattice scattering far above the defaults: decay
# rates up to 25/s make the blocks strongly non-Hermitian
HEAVY_NOISE = NoiseParams(lifetime_3P2_s=0.05, photon_scattering_rate_hz=5.0)


# ---------------------------------------------------------------------------
# dense oracle: the full kron-sum register Hamiltonian and one expm

def dense_hamiltonian(schedule, segment, dipole_scale=1.0):
    geom, sites = schedule.geom, schedule.sites
    config, pulse = segment.config, segment.pulse
    n = len(sites)
    fields = site_fields(geom, config, sites).tolist()
    tables = [register_levels(P, B) for B in fields]
    offsets = _leg_offsets(P, fields, [t.energy_hz for t in tables],
                           _reference_index(sites, pulse.target), pulse)
    H = np.zeros((NLEV ** n, NLEV ** n), complex)
    for i, offset in enumerate(offsets):
        hi = _single_atom_hamiltonian(offset, pulse)
        H += np.kron(np.kron(np.eye(NLEV ** i), hi),
                     np.eye(NLEV ** (n - 1 - i)))
    moments = [table.moment_j_per_t + (0.0,) for table in tables]
    labels = basis_labels(n)
    for i in range(n):
        for j in range(i + 1, n):
            coef = 2 * math.pi * dipole_scale * pair_coupling(
                geom.position_m(sites[i]), geom.position_m(sites[j]))
            H[np.diag_indices_from(H)] += coef \
                * np.take(moments[i], labels[:, i]) \
                * np.take(moments[j], labels[:, j])
    return H


def dense_apply_segment(reg, schedule, segment, noise, dipole_scale=1.0):
    dt = segment.pulse.duration_s
    if dt == 0.0:
        return reg
    gamma = _gamma_levels(noise)[basis_labels(len(schedule.sites))].sum(axis=1)
    M = dense_hamiltonian(schedule, segment, dipole_scale) \
        - 0.5j * np.diag(gamma)
    amps = expm(-1j * M * dt) @ reg.amps
    after = float(np.vdot(amps, amps).real)
    return RegisterState(amps, reg.leaked + reg.survival - after)


# ---------------------------------------------------------------------------
# random circuits

@st.composite
def circuits(draw, n_sites):
    """1 x n chain: X at a random angle on one site, 0-2 adjacent CNOTs
    either way, MEAS on every site (the rotated one first), random
    initial ones, default, heavy or no noise."""
    rotated = draw(st.integers(0, n_sites - 1))
    lines = [f"X {rotated} 0 {draw(st.floats(0.1, math.pi))!r}"]
    for _ in range(draw(st.integers(0, 2))):
        a = draw(st.integers(0, n_sites - 2))
        c, t = (a, a + 1) if draw(st.booleans()) else (a + 1, a)
        lines.append(f"CNOT {c} 0 {t} 0")
    order = [rotated] + [i for i in range(n_sites) if i != rotated]
    lines += [f"MEAS {i} 0" for i in order]
    ones = [(i, 0, 0) for i in range(n_sites) if draw(st.booleans())]
    noise = draw(st.sampled_from([NoiseParams(), HEAVY_NOISE,
                                  NoiseParams.off()]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return "\n".join(lines) + "\n", ones, noise, seed


def _chain_start(n_sites, ones):
    return RegisterState.product([GP if (i, 0, 0) in ones else GM
                                  for i in range(n_sites)])


def _assert_readouts_match(got, want):
    """The same sites and bits, `probability_one` within 1e-12."""
    assert [r[:2] for r in got] == [r[:2] for r in want]
    for (_, _, p1), (_, _, p1_want) in zip(got, want):
        assert abs(p1 - p1_want) <= 1e-12


def _check_against_dense(n_sites, circuit, ones, noise, seed):
    geom = LatticeGeometry(n_sites, 1, 1)
    schedule = compile_circuit(circuit, geom, P,
                               plan_gradients(geom, 1000.0, P), noise)
    start = _chain_start(n_sites, ones)
    blocked = dense = start
    rng_blocked = np.random.default_rng(seed)
    rng_dense = np.random.default_rng(seed)
    readouts = []
    for seg in schedule.segments:
        if seg.pulse.transition == "measure":
            site = seg.pulse.target[1]
            axis = schedule.sites.index(site)
            bit, blocked, p1 = measure_qubit(blocked, axis, rng_blocked)
            bit_dense, dense, _ = measure_qubit(dense, axis, rng_dense)
            assert bit == bit_dense
            readouts.append((site, bit, p1))
        else:
            blocked = apply_stepwise(blocked, schedule, seg, noise)
            dense = dense_apply_segment(dense, schedule, seg, noise)
        assert abs(blocked.survival + blocked.leaked - 1.0) < 1e-9
        assert np.max(np.abs(blocked.amps - dense.amps)) < 1e-10
        assert abs(blocked.leaked - dense.leaked) < 1e-10

    # the executor exponentiates a recurring segment once, over all its
    # blocks (one scaling exponent per larger stack): the stepwise bits,
    # P(1) to 1e-12 and the dense oracle to 1e-10
    run = execute_schedule(start, schedule, noise, rng_seed=seed)
    _assert_readouts_match(run.readouts, readouts)
    assert np.max(np.abs(run.register.amps - dense.amps)) < 1e-10
    assert abs(run.register.leaked - dense.leaked) < 1e-10
    # a second run with the same seed repeats the first exactly
    rerun = execute_schedule(start, schedule, noise, rng_seed=seed)
    assert rerun.readouts == run.readouts
    assert np.array_equal(rerun.register.amps, run.register.amps)
    assert rerun.register.leaked == run.register.leaked


@settings(max_examples=25, deadline=None)
@given(case=circuits(2))
def test_two_site_circuits_match_dense_oracle(case):
    _check_against_dense(2, *case)


@settings(max_examples=3, deadline=None)
@given(case=circuits(3))
def test_three_site_circuits_match_dense_oracle(case):
    _check_against_dense(3, *case)


def _stepwise(start, schedule, noise, seed):
    """The executor's loop without its store: every segment assembled
    and exponentiated by `apply_segment` on its own."""
    reg, rng, readouts = start, np.random.default_rng(seed), []
    for seg in schedule.segments:
        if seg.pulse.transition == "measure":
            site = seg.pulse.target[1]
            bit, reg, p1 = measure_qubit(reg, schedule.sites.index(site), rng)
            readouts.append((site, bit, p1))
        else:
            reg = apply_stepwise(reg, schedule, seg, noise)
    return reg, readouts


@st.composite
def recurring_circuits(draw):
    """1 x n chain, n = 2 or 3: one to three X or adjacent CNOT lines,
    given once or twice (twice, a 3-photon rotation recurs as well as
    the transfer legs), MEAS on every site in a random order, random
    initial ones, default, heavy or no noise."""
    n_sites = draw(st.integers(2, 3))

    def gate(is_x):
        a = draw(st.integers(0, n_sites - 1 - (not is_x)))
        if is_x:
            return f"X {a} 0 {draw(st.floats(0.1, math.pi))!r}"
        c, t = (a, a + 1) if draw(st.booleans()) else (a + 1, a)
        return f"CNOT {c} 0 {t} 0"

    body = [gate(is_x) for is_x in draw(st.lists(st.booleans(), min_size=1,
                                                 max_size=3))]
    lines = body * draw(st.integers(1, 2))
    lines += [f"MEAS {i} 0" for i in draw(st.permutations(range(n_sites)))]
    ones = [(i, 0, 0) for i in range(n_sites) if draw(st.booleans())]
    noise = draw(st.sampled_from([NoiseParams(), HEAVY_NOISE,
                                  NoiseParams.off()]))
    return n_sites, "\n".join(lines) + "\n", ones, noise, \
        draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=20, deadline=None)
@given(case=recurring_circuits())
def test_executor_matches_the_stepwise_loop(case):
    n_sites, circuit, ones, noise, seed = case
    geom = LatticeGeometry(n_sites, 1, 1)
    schedule = compile_circuit(circuit, geom, P,
                               plan_gradients(geom, 1000.0, P), noise)
    start = _chain_start(n_sites, ones)
    want, readouts = _stepwise(start, schedule, noise, seed)
    run = execute_schedule(start, schedule, noise, rng_seed=seed)
    _assert_readouts_match(run.readouts, readouts)
    assert np.max(np.abs(run.register.amps - want.amps)) <= 1e-12
    assert abs(run.register.leaked - want.leaked) <= 1e-12


def test_run_keeps_recurring_stacks_from_first_run_to_last(monkeypatch):
    # driven by hand: site 0's transfer leg runs four times and site 1's
    # twice, each rotation once
    geom = LatticeGeometry(2, 1, 1)
    schedule = compile_circuit("X 0 0 1.0\nX 1 0 2.0\nX 0 0 0.5\n", geom,
                               P, plan_gradients(geom, 1000.0, P),
                               NoiseParams())
    runs = Counter(schedule.segments)
    assert sorted(runs.values()) == [1, 1, 1, 2, 4]
    built = Counter()

    def spy(segment, *args):
        built[segment] += 1
        return block_propagators(segment, *args)

    block_propagators = engine._block_propagators
    monkeypatch.setattr(engine, "_block_propagators", spy)
    run = Run(NoiseParams(), 1.0, schedule)
    reg, left, first = _chain_start(2, [(1, 0, 0)]), runs.copy(), {}
    for seg in schedule.segments:
        reg = apply_segment(reg, seg, run)
        left[seg] -= 1
        # the store holds a recurring segment from its first run to its
        # last, and a segment that runs once never
        assert set(run.kept) == {s for s in runs if 0 < left[s] < runs[s]}
        if seg in run.kept:
            # the stacks of its first run, reused as they stand
            stacks = [id(U) for _, U, _ in run.kept[seg]]
            assert stacks and stacks == first.setdefault(seg, stacks)
    assert run.kept == {}
    assert built == Counter(runs.keys())
    want = execute_schedule(_chain_start(2, [(1, 0, 0)]), schedule,
                            NoiseParams())
    assert np.array_equal(reg.amps, want.register.amps)


def test_executor_assembles_each_distinct_segment_once(monkeypatch):
    geom = LatticeGeometry(2, 1, 1)
    schedule = compile_circuit("X 0 0 1.0\nCNOT 0 0 1 0\nMEAS 0 0\n"
                               "MEAS 1 0\n", geom, P,
                               plan_gradients(geom, 1000.0, P), NoiseParams())
    engine_segments = [s for s in schedule.segments
                       if s.pulse.transition != "measure"]
    distinct = list(dict.fromkeys(engine_segments))
    assert len(distinct) < len(engine_segments)   # the legs recur
    assembled = []

    def spy(segment, *args):
        assembled.append(segment)
        return segment_hamiltonian(segment, *args)

    monkeypatch.setattr(engine, "segment_hamiltonian", spy)
    # the store lives in one call: a second run assembles as much again
    for _ in range(2):
        assembled.clear()
        execute_schedule(_chain_start(2, [(1, 0, 0)]), schedule,
                         NoiseParams(), rng_seed=0)
        assert assembled == distinct


def test_transfer_leg_is_one_segment_whatever_its_weight(monkeypatch):
    # site 1 is the target of the first CNOT (weight 1.5) and the control
    # of the second (weight 0.5): its transfer leg is one physical segment
    geom = LatticeGeometry(3, 1, 1)
    schedule = compile_circuit("CNOT 0 0 1 0\nCNOT 1 0 2 0\nMEAS 0 0\n"
                               "MEAS 1 0\nMEAS 2 0\n", geom, P,
                               plan_gradients(geom, 1000.0, P), NoiseParams())
    site1 = [s for s in schedule.segments
             if s.pulse.transition == "optical_pair"
             and s.pulse.target == ("site", (1, 0, 0))]
    assert sorted({s.pulse.metastable_weight for s in site1}) == [0.5, 1.5]
    assembled = []

    def spy(segment, *args):
        assembled.append(segment)
        return segment_hamiltonian(segment, *args)

    monkeypatch.setattr(engine, "segment_hamiltonian", spy)
    for _ in range(2):
        assembled.clear()
        execute_schedule(_chain_start(3, [(0, 0, 0)]), schedule,
                         NoiseParams(), rng_seed=0)
        assert sum(s in site1 for s in assembled) == 1


def test_executor_builds_each_partition_once_per_run(monkeypatch):
    geom = LatticeGeometry(2, 1, 1)
    schedule = compile_circuit("X 0 0 1.0\nCNOT 0 0 1 0\nX 1 0 2.0\n"
                               "MEAS 0 0\nMEAS 1 0\n", geom, P,
                               plan_gradients(geom, 1000.0, P), NoiseParams())
    built = []

    def spy(transition, n):
        built.append(transition)
        return partition(transition, n)

    partition = engine._block_partition
    monkeypatch.setattr(engine, "_block_partition", spy)
    # the partitions live in one call: a second run builds them again
    for _ in range(2):
        built.clear()
        execute_schedule(_chain_start(2, [(1, 0, 0)]), schedule,
                         NoiseParams(), rng_seed=0)
        assert sorted(built) == sorted(LEGS)


def _per_call_blocks(schedule, segment, cover, dipole_scale):
    """The blocks as `segment_hamiltonian` built them before the per-run
    partition: on every call, the live blocks by `isin`, `argsort` and
    `unique`, each size's drive read from the labels of its first block
    and the nonzero legs of the first atom's 6 x 6 block."""
    params, geom, sites = schedule.params, schedule.geom, schedule.sites
    config, pulse = segment.config, segment.pulse
    n = len(sites)
    tables = site_levels(params, geom, sites, config)
    offsets = _leg_offsets(params, [t.field_t for t in tables],
                           [t.energy_hz for t in tables],
                           _reference_index(sites, pulse.target), pulse)
    hs = [_single_atom_hamiltonian(o, pulse) for o in offsets]
    labels = basis_labels(n)
    groups = GROUPS[pulse.transition][labels]
    block = groups @ NLEV ** np.arange(n - 1, -1, -1)
    states = np.flatnonzero(np.isin(block, block[cover]))
    states = states[np.argsort(block[states], kind="stable")]
    _, sizes = np.unique(block[states], return_counts=True)
    size_of = np.repeat(sizes, sizes)
    diagonal = sum(h.diagonal()[labels[:, i]] for i, h in enumerate(hs)) \
        + _dipole_diagonal(params, geom, sites, config, dipole_scale)
    leg = (hs[0] != 0) & ~np.eye(NLEV, dtype=bool)
    out = []
    for d in np.unique(sizes):
        idx = states[size_of == d].reshape(-1, d)
        L = labels[idx[0]]
        drive = ((L[:, None] != L[None]).sum(-1) == 1) \
            & leg[L[:, None], L[None]].any(-1)
        H = np.repeat(drive[None] * (pulse.rabi_rad_s / 2), len(idx), axis=0)
        H[:, np.arange(d), np.arange(d)] = diagonal[idx]
        out.append((idx, H))
    return out


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), transition=st.sampled_from(sorted(LEGS)),
       density=st.sampled_from([0.0, 0.002, 0.05, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1),
       rabi=st.sampled_from([0.0, 2 * math.pi * 50.0]))
def test_per_run_partition_selects_the_per_call_blocks(n, transition,
                                                       density, seed, rabi):
    geom = LatticeGeometry(n, 1, 1)
    chain = PulseSchedule((), [(i, 0, 0) for i in range(n)], P, geom)
    segment = PulseSegment(plan_gradients(geom, 1000.0, P),
                           Pulse(transition, 1e-3, rabi))
    cover = np.random.default_rng(seed).random(NLEV ** n) < density
    run = stepwise_run(chain, segment, NoiseParams())
    # a first call fills the run's partition; the second selects from it
    segment_hamiltonian(segment, np.ones(NLEV ** n, bool), run)
    got = segment_hamiltonian(segment, cover, run)
    want = _per_call_blocks(chain, segment, cover, 1.0)
    assert len(got) == len(want)
    for (idx, H), (idx_want, H_want) in zip(got, want):
        assert np.array_equal(idx, idx_want)
        assert np.array_equal(H, H_want)


@st.composite
def live_segments(draw):
    """A 1 x n chain (n <= 4) with a random live set, fully live or a few
    states, under a random drive of any transition and a random dipole
    scale."""
    n = draw(st.integers(1, 4))
    geom = LatticeGeometry(n, 1, 1)
    sites = [(i, 0, 0) for i in range(n)]
    amps = np.zeros(NLEV ** n, complex)
    if draw(st.booleans()):
        amps[:] = 1.0
    else:
        amps[draw(st.lists(st.integers(0, NLEV ** n - 1), min_size=1,
                           max_size=6))] = 1.0
    target = draw(st.sampled_from([("all",)] + [("site", s) for s in sites]))
    pulse = Pulse(draw(st.sampled_from(sorted(LEGS))), 1e-3,
                  draw(st.sampled_from([0.0, 2 * math.pi * 50.0, 3e4])),
                  draw(st.floats(-1e3, 1e3)), target)
    segment = PulseSegment(plan_gradients(geom, 1000.0, P), pulse)
    return PulseSchedule((), sites, P, geom), RegisterState(amps), segment, \
        draw(st.sampled_from([0.0, 1.0, 2.5]))


@settings(max_examples=30, deadline=None)
@given(case=live_segments())
def test_live_blocks_are_slices_of_the_dense_hamiltonian(case):
    chain, reg, segment, dipole_scale = case
    dense = dense_hamiltonian(chain, segment, dipole_scale)
    diagonal = np.diagonal(dense)
    assert not diagonal.imag.any()
    live = np.zeros(len(dense), bool)
    for idx, blocks in segment_hamiltonian(
            segment, reg.amps != 0,
            stepwise_run(chain, segment, NoiseParams(), dipole_scale)):
        assert blocks.dtype == np.float64
        for states, H in zip(idx, blocks):
            want = dense[np.ix_(states, states)]
            off = ~np.eye(len(states), dtype=bool)
            assert np.array_equal(H[off], want[off])
            # the oracle adds the dipole terms pair by pair
            assert np.max(np.abs(np.diagonal(H) - np.diagonal(want))) \
                <= 1e-12 * np.abs(diagonal).max()
            # no dense coupling leaves the block
            assert np.count_nonzero(dense[states]) == np.count_nonzero(want)
            live[states] = True
    # the blocks cover every state of a block holding an amplitude
    assert live[reg.amps != 0].all()


def test_fully_live_five_site_ladder_assembles_small_real_blocks():
    # the blocks hold 15 MB as float64 (the 1024-state one 8 MB); complex
    # blocks or (nb, d, d, n) label broadcasts pass 40 MB
    geom = LatticeGeometry(5, 1, 1)
    chain = PulseSchedule((), [(i, 0, 0) for i in range(5)], P, geom)
    reg = RegisterState(np.full(NLEV ** 5, NLEV ** -2.5, complex))
    segment = PulseSegment(plan_gradients(geom, 1000.0, P),
                           Pulse("three_photon", 1e-3, 2 * math.pi * 50.0))
    tracemalloc.start()
    try:
        out = segment_hamiltonian(segment, reg.amps != 0,
                                  stepwise_run(chain, segment, NoiseParams()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [idx.shape[1] for idx, _ in out] == [1, 4, 16, 64, 256, 1024]
    assert all(H.dtype == np.float64 for _, H in out)
    assert peak < 40e6


@pytest.mark.parametrize("transition", sorted(LEGS))
def test_every_coupled_group_has_the_same_leg_pattern(transition):
    # blocks of one size share one drive matrix only if every coupled
    # level group carries the same legs, at the same places in ascending
    # level order
    patterns = set()
    for g in np.unique(GROUPS[transition]):
        levels = np.flatnonzero(GROUPS[transition] == g).tolist()
        if len(levels) > 1:
            patterns.add(frozenset(
                tuple(sorted((levels.index(lo), levels.index(up))))
                for lo, up in LEGS[transition] if lo in levels))
    assert len(patterns) == 1


def _hermitian(rng, nb, d, norm):
    """nb random Hermitian d x d matrices, each of 1-norm `norm`."""
    H = rng.normal(size=(nb, d, d)) + 1j * rng.normal(size=(nb, d, d))
    H = H + H.conj().transpose(0, 2, 1)
    return H * (norm / np.abs(H).sum(axis=-2).max(axis=-1))[:, None, None]


def _check_kernel(A):
    got = _expm_stack(A)
    for a, u in zip(A, got):
        assert np.max(np.abs(u - expm(a))) < 1e-10


def _two_by_two(a, b, c, d):
    return np.array([[a, b], [c, d]], complex)


def test_stacked_exponential_matches_scipy():
    rng = np.random.default_rng(7)
    _check_kernel(-1j * rng.normal(size=(50, 1, 1))
                  - rng.uniform(0, 3, size=(50, 1, 1)))
    for d in (2, 4, 16):
        _check_kernel(np.zeros((3, d, d), complex))
        # one stack, one scaling exponent for 1-norms from 1e-3 to 1.4e5
        _check_kernel(-1j * np.concatenate(
            [_hermitian(rng, 5, d, 1e-3), _hermitian(rng, 5, d, 1.4e5)]))
        # heavy decay: rates up to 25/s over 0.2 s next to Rabi-scale
        # couplings
        gamma = rng.uniform(0, 25, size=(10, d))
        H = _hermitian(rng, 10, d, 3e3)
        H[:, np.arange(d), np.arange(d)] -= 0.5j * gamma
        _check_kernel(-1j * 0.2 * H)
    # the closed-form 2x2 kernel, each branch
    tau = SINHC_SERIES_BELOW
    m = -0.3 - 1.7j
    stack = [
        _two_by_two(m, 0, 0, m),                     # delta = 0, diagonal
        _two_by_two(0, 1, 0, 0),                     # delta = 0, defective
        _two_by_two(m, 5e3, 0, m),
        _two_by_two(m + 3, 3, -3, m - 3),            # and |A| = 6
    ]
    # |delta| just below, at and just above the series switch, on the
    # real and imaginary axes and between them
    for r in (tau * (1 - 1e-9), tau, tau * (1 + 1e-9), 0.5 * tau, 2 * tau):
        for phase in (1, 1j, np.exp(0.7j)):
            delta = r * phase
            stack.append(_two_by_two(m + delta, 0, 0, m - delta))
            stack.append(_two_by_two(m, delta, delta, m))
            stack.append(_two_by_two(m, 1.0, delta ** 2, m))
    # optical_pair's {g+, e+3/2}: lattice scattering on g+, 3P2 decay on
    # top of it on e+3/2, at default and heavy noise, resonant or detuned
    rabi = 2 * math.pi * 25.0
    for noise in (NoiseParams(), HEAVY_NOISE):
        gamma = _gamma_levels(noise)[[GP, EP32]]
        for detuning in (0.0, 2 * math.pi * 1e3):
            for dt in (math.pi / rabi, 3.0):
                H = np.array([[0, rabi / 2], [rabi / 2, detuning]])
                stack.append(-1j * dt * H - 0.5 * dt * np.diag(gamma))
    A = np.array(stack)
    delta = np.abs(np.sqrt(((A[:, 0, 0] - A[:, 1, 1]) / 2) ** 2
                           + A[:, 0, 1] * A[:, 1, 0]))
    assert (delta == 0).any() and (delta < tau).any() \
        and (delta >= tau).any()
    _check_kernel(A)
    # 1-norms up to 1.4e5 in one stack, with and without decay
    for norm in (1e-3, 1.0, 1e2, 1e4, 1.4e5):
        H = _hermitian(rng, 20, 2, norm)
        _check_kernel(-1j * H)
        _check_kernel(-1j * H - np.diag(rng.uniform(0, 25, 2)))


@pytest.mark.parametrize("noise", [NoiseParams(), NoiseParams.off()])
def test_overflowing_two_by_two_entry_raises_not_nan(noise):
    # an optical_pair segment on one atom: 1x1 and 2x2 blocks.  At 1e150 s
    # the 2x2 entries and their squares are finite; at 1e200 s the
    # squares overflow inside the closed form
    geom = LatticeGeometry(1, 1, 1)
    one = PulseSchedule((), ((0, 0, 0),), P, geom)
    reg = RegisterState.product([GP])
    config = plan_gradients(geom, 1000.0, P)
    pulse = Pulse("optical_pair", 1e150, 2 * math.pi * 25.0)
    out = apply_stepwise(reg, one, PulseSegment(config, pulse), noise)
    assert np.isfinite(out.amps).all()
    out.check_accounting()
    with pytest.raises(IntegratorError, match="optical_pair segment of "
                       "1e[+]200 s.*overflow"):
        apply_stepwise(reg, one, PulseSegment(config, Pulse(
            "optical_pair", 1e200, 2 * math.pi * 25.0)), noise)


def test_register_memory_stays_far_below_one_dense_matrix():
    # one dense 1296 x 1296 complex matrix alone is 27 MB
    geom = LatticeGeometry(2, 2, 1)
    circuit = "MEAS 0 0\nMEAS 1 0\nMEAS 0 1\nMEAS 1 1\n"
    tracemalloc.start()
    try:
        _, result = simulate_circuit(circuit, geom, P,
                                     plan_gradients(geom, 1000.0, P),
                                     NoiseParams(), 5,
                                     initial_ones=[(1, 0, 0), (0, 1, 0)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    result.register.check_accounting()


# ---------------------------------------------------------------------------
# the spectral kernel: one decay rate per block, one real eigh per stack

def _spectral_matrix(H, dt, rates):
    V, phase = _spectral_stack(H, dt, rates)
    return (V * phase[:, None, :]) @ V.transpose(0, 2, 1)


@st.composite
def uniform_rate_blocks(draw):
    """A real symmetric d x d block, d = 3..16, dense random or a 0/1
    drive pattern over a degenerate 0/1 diagonal, at dt ||H||_1 from 1e-3
    to 2e5, decaying at the summed rate of 1-5 atoms' levels under
    default or heavy noise."""
    d = draw(st.integers(3, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        H = rng.normal(size=(d, d))
    else:
        H = np.triu(rng.random((d, d)) < 0.3, 1) \
            + np.diag(rng.integers(0, 2, d)).astype(float)
    H = H + np.triu(H, 1).T - np.tril(H, -1)
    dt = draw(st.floats(1e-4, 0.2))
    norm = 10.0 ** draw(st.floats(-3, math.log10(2e5)))
    H *= norm / dt / max(np.abs(H).sum(axis=0).max(), 1.0)
    gamma = _gamma_levels(draw(st.sampled_from([NoiseParams(), HEAVY_NOISE])))
    rate = float(sum(gamma[draw(st.lists(st.integers(0, NLEV - 1),
                                         min_size=1, max_size=5))]))
    return H, dt, rate


# Over 800 draws of `uniform_rate_blocks` the worst spectral error was
# 8.0 x 2^-52 max(dt ||H||_1, 1), 2.0e-11 absolute (Pade-13 on the same
# draws: 2.4 x, 9.4e-12); the bound leaves a factor 4
SPECTRAL_ERROR = 32 * 2.0 ** -52


@settings(max_examples=12, deadline=None)
@given(case=uniform_rate_blocks())
def test_spectral_kernel_matches_a_40_digit_exponential(case):
    H, dt, rate = case
    with mpmath.workdps(40):
        exact = mpmath.expm((-1j * mpmath.mpf(dt)) * mpmath.matrix(H.tolist())) \
            * mpmath.exp(-mpmath.mpf(rate) * mpmath.mpf(dt) / 2)
        want = np.array(exact.tolist(), complex)
    got = _spectral_matrix(H[None], dt, np.array([rate]))[0]
    scale = max(dt * np.abs(H).sum(axis=0).max(), 1.0)
    assert np.max(np.abs(got - want)) <= SPECTRAL_ERROR * scale


def test_spectral_rounding_guard_sits_at_the_unitarity_tolerance():
    H = np.diag([1.0, -3.0, 0.5])[None]
    # the dt at which 2^-52 max|lam| dt equals UNITARITY_TOL
    at_tol = UNITARITY_TOL * 2.0 ** 52 / 3.0
    _spectral_stack(H, 0.9 * at_tol, np.zeros(1))
    with pytest.raises(IntegratorError, match="in rounding, above 1e-06"):
        _spectral_stack(H, 1.1 * at_tol, np.zeros(1))
    # a block that has decayed away carries no amplitude to misplace
    _spectral_stack(H, 1.1 * at_tol, np.array([1.0]))
    for bad in (math.nan, math.inf):
        with pytest.raises(IntegratorError, match="eigh"):
            _spectral_stack(np.full((1, 3, 3), bad), 1.0, np.zeros(1))


NOISES = st.builds(NoiseParams,
                   lifetime_3P2_s=st.one_of(st.just(math.inf),
                                            st.floats(1e-3, 1e6)),
                   photon_scattering_rate_hz=st.floats(0.0, 1e3))


def _one_rate(transition, n, noise):
    """Whether each block of two states or more decays at one rate."""
    rates = _gamma_levels(noise)[basis_labels(n)].sum(-1)
    return np.concatenate([(rates[idx] == rates[idx][:, :1]).all(axis=1)
                           for idx in _block_partition(transition, n)
                           if idx.shape[1] > 1])


@settings(max_examples=40, deadline=None)
@given(noise=NOISES, n=st.integers(1, 4))
def test_only_transfer_blocks_mix_decay_rates(noise, n):
    assert _one_rate("three_photon", n, noise).all()
    assert _one_rate("aux_flip", n, noise).all()
    # each transfer block of two states or more pairs a g with an e level
    one_rate = _one_rate("optical_pair", n, noise)
    if math.isinf(noise.lifetime_3P2_s):
        assert one_rate.all()
    else:
        assert not one_rate.any()


@pytest.mark.parametrize("noise", [NoiseParams(), HEAVY_NOISE,
                                   NoiseParams.off()],
                         ids=["default", "heavy", "off"])
def test_kernel_follows_the_decay_rates(monkeypatch, noise):
    # stacks of 3 states or more are spectral exactly where every block
    # decays at one rate; with noise off that is every one, and the run
    # still passes the unitarity check and matches the dense oracle
    used, transition = [], []
    spectral, pade = engine._spectral_stack, engine._expm_stack

    def spy_assembly(segment, *args):
        transition[:] = [segment.pulse.transition]
        return segment_hamiltonian(segment, *args)

    def spy_spectral(H, *args):
        used.append((transition[0], H.shape[-1], "spectral"))
        return spectral(H, *args)

    def spy_pade(A):
        used.append((transition[0], A.shape[-1], "pade"))
        return pade(A)

    monkeypatch.setattr(engine, "segment_hamiltonian", spy_assembly)
    monkeypatch.setattr(engine, "_spectral_stack", spy_spectral)
    monkeypatch.setattr(engine, "_expm_stack", spy_pade)
    _check_against_dense(3, "X 1 0 2.0\nCNOT 0 0 1 0\nCNOT 2 0 1 0\n"
                         "MEAS 1 0\nMEAS 0 0\nMEAS 2 0\n",
                         [(0, 0, 0), (2, 0, 0)], noise, 3)
    mixed = not math.isinf(noise.lifetime_3P2_s)
    large = {(t, kernel) for t, d, kernel in used if d > 2}
    assert large == {("three_photon", "spectral"), ("aux_flip", "spectral"),
                     ("optical_pair", "pade" if mixed else "spectral")}
    assert {kernel for _, d, kernel in used if d <= 2} == {"pade"}
