"""Pulse-level state-vector simulation of the atom register.

Each active atom carries the six `atomic.register_table` levels: the
1S0 nuclear-spin qubit (g-, g+) and the 3P2(F=3/2) manifold
(e -3/2 .. e +3/2).  The register is the tensor product over active
sites (spectator sites are not represented).  A compiled `PulseSchedule`
owns the atom, the lattice and the active sites, and a `Run` reads them
from it; a `RegisterState` is only the amplitudes, in the order of the
schedule's sites, and the leaked norm.  Evolution is rotating-frame,
piecewise-constant-Hamiltonian, with per-site detunings from the
gradient-resolved resonances and the always-on secular dipole-dipole
diagonal.  3P2 decay and lattice photon scattering enter as a
norm-decaying anti-Hermitian term; the removed mass (lost atoms) is
tracked so that ||amplitudes||^2 + leaked = 1 at all times.

Frame convention: each segment evolves its drive legs in its laser frame, on
one reference site's resonance: a level on a leg carries the summed (local
transition - laser) detuning (`_leg_offsets`), even at zero Rabi frequency,
and other levels co-rotate with their own local resonance.  Amplitudes pass
between segments unchanged: exact per-level phase tracking, a deterministic
Z per atom and level that an experiment realises through each pulse's laser
phase.  Spectators carry coupling-phase errors of order Omega/Delta.

Blocked propagation: every drive couples fixed level pairs of one atom,
and the dipole and decay terms are diagonal, so the register Hamiltonian
is block-diagonal.  A block is one coupled level group per atom (the
groups that the drive's legs join, `GROUPS`, e.g. {g+, e+3/2}, {g-,
e-3/2}, {e-1/2}, {e+1/2} under the optical pair drive), and its basis is
the Cartesian product of those groups; the 6^n x 6^n register matrix is
never built.  `segment_hamiltonian` assembles the real blocks of each
size as one stack, `_block_propagators` picks each stack's kernel from
its decay rates (closed forms, one batched real `eigh`, or Pade-13) and
`segment_propagator` applies the stacks: only the live blocks, those
holding an amplitude, of a segment that runs once; all blocks of a
segment that recurs in a `Run`, whose stacks the run keeps from its
first run to its last.  The dense kron-sum propagator and scipy's `expm`
are the test oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .addressing import GradientConfig, LatticeGeometry, site_levels
from .atomic import EM12, EM32, EP12, EP32, GM, GP, AtomParams
from .dipole import pair_coupling
from .errors import ConfigError, DegenerateManifoldError, IntegratorError

# Per-atom level indices: the rows of `atomic.register_table`
# (GM, GP, EM32, EM12, EP12, EP32), the e levels last
NLEV = 6

UNITARITY_TOL = 1e-6
ACCOUNTING_TOL = 1e-9


@lru_cache(maxsize=None)
def basis_labels(n_atoms: int) -> np.ndarray:
    """Read-only (6^n, n) table: row b lists each atom's level in basis
    state b (atom 0 is the most significant digit)."""
    labels = np.array(list(np.ndindex(*(NLEV,) * n_atoms)), int)
    labels.flags.writeable = False
    return labels


@dataclass(frozen=True)
class NoiseParams:
    lifetime_3P2_s: float = 15.0
    photon_scattering_rate_hz: float = 0.2
    branching_1P1_to_3D: float = 1e-7
    detection_time_s: float = 3e-3
    detection_scatter_rate_hz: float = 8e6

    def __post_init__(self):
        if not self.lifetime_3P2_s > 0:     # +inf: 3P2 never decays
            raise ConfigError("3P2 lifetime must be positive")
        for name in ("photon_scattering_rate_hz", "detection_time_s",
                     "detection_scatter_rate_hz"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0")
        if math.isinf(self.detection_time_s * self.detection_scatter_rate_hz):
            raise ConfigError("detection_time_s x detection_scatter_rate_hz "
                              "overflows a float")
        if not 0 <= self.branching_1P1_to_3D <= 1:
            raise ConfigError("branching ratio must lie in [0, 1]")

    @classmethod
    def off(cls) -> "NoiseParams":
        return cls(lifetime_3P2_s=math.inf, photon_scattering_rate_hz=0.0,
                   branching_1P1_to_3D=0.0)


@dataclass(frozen=True)
class Pulse:
    """One timed drive segment.

    transition: 'optical_pair' (simultaneous pi-pulse legs on
    g+ <-> e+3/2 and g- <-> e-3/2), 'three_photon' (single drive through
    the F=3/2 ladder, with light-shift compensation), 'aux_flip'
    (effective drive on the auxiliary e-3/2 <-> e+3/2 pair used by the
    CNOT), or 'measure' (executed by `compiler.execute_schedule`, not by
    the engine).  target: ("site", s), an active site whose resonance the
    lasers hit, or ("all",), which takes the first active site.
    """
    transition: str
    duration_s: float
    rabi_rad_s: float = 0.0
    detuning_rad_s: float = 0.0
    target: tuple = ("all",)

    def __post_init__(self):
        if self.transition not in LEGS and self.transition != "measure":
            raise ConfigError(f"unknown pulse transition {self.transition!r}")
        if not 0 <= self.duration_s < math.inf:
            raise ConfigError("pulse duration must be finite and >= 0")
        if not 0 <= self.rabi_rad_s < math.inf:
            raise ConfigError("Rabi frequency must be finite and >= 0")
        # nested tuples, so that a segment can key the run's store
        object.__setattr__(self, "target", _as_tuples(self.target))


def _as_tuples(value):
    """`value` with every list or tuple in it, nested ones included, made
    a tuple."""
    if isinstance(value, (list, tuple)):
        return tuple(map(_as_tuples, value))
    return value


@dataclass(frozen=True)
class PulseSegment:
    config: GradientConfig
    pulse: Pulse


@dataclass(frozen=True)
class PulseSchedule:
    """Segments compiled for the atom `params` at the active `sites` of
    `geom`, their one owner; repeated or outside sites raise ConfigError."""
    segments: tuple[PulseSegment, ...]
    sites: tuple[tuple[int, int, int], ...]
    params: AtomParams
    geom: LatticeGeometry

    def __post_init__(self):
        object.__setattr__(self, "sites", _as_tuples(self.sites))
        if len(set(self.sites)) != len(self.sites):
            raise ConfigError("duplicate active sites")
        for s in self.sites:
            if len(s) != 3 or not self.geom.contains(s):
                raise ConfigError(f"active site {s} is not in the lattice")
        for n, seg in enumerate(self.segments):
            drive = seg.pulse.transition != "measure"   # a MEAS reads a site
            if seg.pulse.target not in [("site", s) for s in self.sites] \
                    + [("all",)] * drive:
                raise ConfigError(f"segment {n} ({seg.pulse.transition}): "
                                  f"target {seg.pulse.target!r} is not an "
                                  "active site" + " or ('all',)" * drive)

    @property
    def total_duration_s(self) -> float:
        return sum(s.pulse.duration_s for s in self.segments)


class RegisterState:
    """A schedule's atoms' 6^n amplitudes, in site order, and lost norm."""

    def __init__(self, amps: np.ndarray, leaked: float = 0.0):
        self.amps = np.asarray(amps, complex).reshape(-1)
        self.leaked = float(leaked)

    @classmethod
    def product(cls, levels) -> "RegisterState":
        amps = np.zeros(NLEV ** len(levels), complex)
        amps[np.ravel_multi_index(levels, (NLEV,) * len(levels))] = 1.0
        return cls(amps)

    # -- bookkeeping -------------------------------------------------
    @property
    def survival(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def check_accounting(self) -> None:
        if not abs(self.survival + self.leaked - 1.0) <= ACCOUNTING_TOL:
            raise IntegratorError(
                f"norm accounting violated: survival {self.survival} "
                f"+ leaked {self.leaked} != 1")


# ---------------------------------------------------------------------------
# Hamiltonian construction

def light_shift_compensation(delta1: float, delta2: float,
                             rabi: float) -> float:
    """Drive-frequency offset cancelling the differential AC-Stark shift
    of the 3-photon ladder ends (fixed-point solution of the dressed
    resonance condition).

    Iterates until the value repeats exactly; raises IntegratorError
    when 80 steps leave the last step above 1e-9 relative (the iteration
    diverges for drives of a few ladder gaps); DegenerateManifoldError
    for a zero detuning, the ladder of a site at B = 0."""
    if not (delta1 and delta2):
        raise DegenerateManifoldError(
            "3-photon drive on a zero ladder detuning: the site sits at "
            "B = 0, or the atom's F=3/2 sublevels do not split")
    eps = step = 0.0
    for _ in range(80):
        new = (rabi ** 2 / 4) * (1 / (delta1 - eps) + 1 / (delta2 - eps)) / 3
        if new == eps:
            return eps
        step, eps = abs(new - eps), new
    if not step <= 1e-9 * abs(eps):
        raise IntegratorError(
            f"light-shift compensation does not converge (last step "
            f"{step:.2e} rad/s at {eps:.3e} rad/s); the drive is too strong "
            "for the ladder detunings")
    return eps


def _reference_index(sites: tuple, target: tuple) -> int:
    """Position in `sites` of the site whose resonance the lasers hit:
    the target site, or the first active site for ("all",)."""
    return 0 if target == ("all",) else sites.index(target[1])


# Drive legs (lower, upper) of each transition.  The three 3-photon legs
# share one laser.
LEGS = {"optical_pair": ((GP, EP32), (GM, EM32)),
        "three_photon": ((EM32, EM12), (EM12, EP12), (EP12, EP32)),
        "aux_flip": ((EM32, EP32),)}


def _leg_groups(legs) -> np.ndarray:
    """Coupled level group of each per-atom level under the drive legs
    `legs`, named by the group's lowest level."""
    group = np.arange(NLEV)
    for _ in legs:              # one pass per leg joins any chain of legs
        for lo, up in legs:
            group[lo] = group[up] = min(group[lo], group[up])
    return group


# Level groups of every transition: a drive at any Rabi frequency > 0
# couples exactly its legs, so the groups are fixed by LEGS alone.
GROUPS = {transition: _leg_groups(legs) for transition, legs in LEGS.items()}


def _leg_offsets(ladder, energies: np.ndarray, ref: int, pulse) -> np.ndarray:
    """(transition - laser) angular frequency (rad/s) on each drive leg of
    `pulse`, one row per site (the columns of the register's `ladder` and
    (6, n) level `energies`, Hz), the lasers resonant on site `ref` plus
    e, the pulse detuning.  3-photon legs: (omega0 - omega0_ref) +
    (Delta1, -Delta1 - Delta2, Delta2) - e, e also holding the light-shift
    compensation; others: w - (w_ref + e), w = 2 pi (E_up - E_lo)."""
    if pulse.transition == "three_photon":
        d1, d2 = ladder.delta1_rad_s, ladder.delta2_rad_s
        eps = light_shift_compensation(float(d1[ref]), float(d2[ref]),
                                       pulse.rabi_rad_s) \
            if pulse.rabi_rad_s > 0 else 0.0
        e = eps + pulse.detuning_rad_s
        shift = ladder.omega0_rad_s - ladder.omega0_rad_s[ref]
        return np.stack([shift + d1 - e, shift + (-d1 - d2) - e,
                         shift + d2 - e], axis=1)
    lo, up = np.array(LEGS[pulse.transition]).T
    w = 2 * math.pi * (energies[up] - energies[lo])
    return (w - (w[:, ref, None] + pulse.detuning_rad_s)).T


def _single_atom_hamiltonian(offsets, pulse) -> np.ndarray:
    """6x6 rotating-frame block (rad/s) for one atom whose drive legs sit
    `offsets` (rad/s, one per leg, from `_leg_offsets`) off resonance.
    Every drive has phase 0, so the block is real symmetric."""
    hmat = np.zeros((NLEV, NLEV))
    for (lo, up), offset in zip(LEGS[pulse.transition], offsets):
        hmat[up, up] = hmat[lo, lo] + offset
        hmat[up, lo] = hmat[lo, up] = pulse.rabi_rad_s / 2
    return hmat


def _block_partition(transition: str, n: int) -> list:
    """Every block of the 6^n basis under `transition`'s drive: one
    (nb, d) array of the blocks' basis states per block size d, in
    ascending d, the blocks in ascending block code and each block's
    states in ascending basis order (the Cartesian order)."""
    labels = basis_labels(n)
    # block of each basis state, coded by its atoms' groups as base-6 digits
    block = GROUPS[transition][labels] @ NLEV ** np.arange(n - 1, -1, -1)
    states = np.argsort(block, kind="stable")
    size_of = np.bincount(block)[block[states]]
    return [states[size_of == d].reshape(-1, d) for d in np.unique(size_of)]


def _block_drive(transition: str, levels: np.ndarray) -> np.ndarray:
    """d x d boolean matrix of `transition`'s legs within one block, whose
    states hold the (d, n) per-atom `levels`: the states that differ on
    one atom, by one leg.  Every coupled group carries the same legs, so
    all blocks of one size share it."""
    leg = np.zeros((NLEV, NLEV), bool)
    for lo, up in LEGS[transition]:
        leg[lo, up] = leg[up, lo] = True
    differ = np.zeros((len(levels),) * 2, np.uint8)
    on_leg = np.zeros((len(levels),) * 2, bool)
    for atom in levels.T:
        differ += atom[:, None] != atom
        on_leg |= leg[atom[:, None], atom]
    return (differ == 1) & on_leg


def segment_hamiltonian(segment: PulseSegment, cover: np.ndarray,
                        run: Run) -> list:
    """Blocks of the register Hamiltonian (rad/s) for one segment of
    `run`, on the atom, lattice and sites of its schedule.

    Returns one (indices, blocks) pair per block size d: `indices` is an
    (nb, d) array of basis states, `blocks` the (nb, d, d) real symmetric
    blocks over them.  Only the blocks holding a basis state of the
    boolean mask `cover` are built, taken in order from the transition's
    `_block_partition`.  Blocks of one size share one `_block_drive`
    matrix (Omega/2 on each leg) and carry their slice of one 6^n
    diagonal: the atoms' leg offsets (`_leg_offsets`), then the dipole
    terms.  The partition and each size's drive matrix are built into
    `run` on first use.
    """
    config, pulse = segment.config, segment.pulse
    levels, ladder = site_levels(run.params, run.geom, run.sites, config)
    offsets = _leg_offsets(ladder, levels.energy_hz,
                           _reference_index(run.sites, pulse.target), pulse)
    if pulse.transition not in run.partitions:
        run.partitions[pulse.transition] = _block_partition(pulse.transition,
                                                            len(run.sites))
    hs = [_single_atom_hamiltonian(o, pulse) for o in offsets]
    labels = basis_labels(len(run.sites))
    diagonal = sum(h.diagonal()[labels[:, i]] for i, h in enumerate(hs)) \
        + _dipole_diagonal(run.params, run.geom, run.sites, config,
                           run.dipole_scale)
    out = []
    for idx in run.partitions[pulse.transition]:
        idx = idx[cover[idx].any(1)]
        if not len(idx):
            continue
        d = idx.shape[1]
        if (pulse.transition, d) not in run.drives:
            run.drives[pulse.transition, d] = _block_drive(pulse.transition,
                                                           labels[idx[0]])
        H = np.repeat(run.drives[pulse.transition, d][None]
                      * (pulse.rabi_rad_s / 2), len(idx), axis=0)
        H[:, np.arange(d), np.arange(d)] = diagonal[idx]
        out.append((idx, H))
    return out


@lru_cache(maxsize=64)
def _dipole_diagonal(params: AtomParams, geom: LatticeGeometry, sites: tuple,
                     config: GradientConfig,
                     dipole_scale: float) -> np.ndarray:
    """Read-only always-on secular dipole-dipole diagonal (rad/s) over the
    6^n basis; computed once per register, field and scale."""
    n = len(sites)
    moments = site_levels(params, geom, sites, config)[0].moment_j_per_t
    m = moments[basis_labels(n), np.arange(n)]  # m[b, i]: atom i in state b
    dd = np.zeros(NLEV ** n)
    for i in range(n):
        for j in range(i + 1, n):
            coef = 2 * math.pi * dipole_scale * pair_coupling(
                geom.position_m(sites[i]), geom.position_m(sites[j]))
            if not math.isfinite(coef):
                raise IntegratorError(f"dipole diagonal overflows at "
                                      f"dipole_scale {dipole_scale!r}")
            dd += coef * m[:, i] * m[:, j]
    dd.flags.writeable = False
    return dd


def _gamma_levels(noise: NoiseParams) -> np.ndarray:
    """Norm-decay rate (1/s) of each per-atom level: lattice scattering on
    every level, 3P2 decay on the e levels."""
    per_level = np.full(NLEV, noise.photon_scattering_rate_hz)
    per_level[EM32:] += 1 / noise.lifetime_3P2_s    # 0 at inf
    return per_level


class Run:
    """One pass of `schedule` through the engine, made per
    `compiler.execute_schedule` call; a stepwise caller wraps its one
    segment in a `PulseSchedule`.  Fixed: the schedule's `params`, `geom`
    and `sites`, `dipole_scale`, `noise_on` and `rates`, the decay rate
    (1/s) of each of the 6^n basis states.  Filled on first use:
    `partitions` by transition, `drives` by (transition, block size), and
    `kept`, each recurring segment's stacks (`stacks`)."""

    def __init__(self, noise: NoiseParams, dipole_scale: float,
                 schedule: PulseSchedule):
        if not math.isfinite(dipole_scale):
            raise ConfigError(f"dipole_scale must be finite, got "
                              f"{dipole_scale!r}")
        self.params, self.geom = schedule.params, schedule.geom
        self.sites = schedule.sites
        self.dipole_scale = dipole_scale
        self.noise_on = noise.photon_scattering_rate_hz > 0 \
            or not math.isinf(noise.lifetime_3P2_s)
        self.rates = _gamma_levels(noise)[basis_labels(len(self.sites))] \
            .sum(-1)
        self.partitions: dict = {}
        self.drives: dict = {}
        self.kept: dict = {}
        self.left = Counter(schedule.segments)

    def stacks(self, segment: PulseSegment):
        """Count down one run of `segment`: None if it runs once, else its
        kept list, empty on its first run and dropped from `kept` on its
        last."""
        self.left[segment] -= 1
        return self.kept.setdefault(segment, []) if self.left[segment] > 0 \
            else self.kept.pop(segment, None)


# Pade-13 numerator coefficients and the 1-norm up to which the
# approximant meets double precision without scaling (Higham, SIAM J.
# Matrix Anal. Appl. 26, 1179 (2005))
PADE13 = (64764752532480000., 32382376266240000., 7771770303897600.,
          1187353796428800., 129060195264000., 10559470521600.,
          670442572800., 33522128640., 1323241920., 40840800., 960960.,
          16380., 182., 1.)
THETA13 = 5.371920351148152


# Below this |delta| the 2x2 kernel takes sinh(delta)/delta as
# 1 + delta^2/6: the next term, delta^4/120, stays under 1e-16
SINHC_SERIES_BELOW = 3e-4


def _expm_2x2(A: np.ndarray) -> np.ndarray:
    """exp of each matrix of the (nb, 2, 2) stack `A` in closed form
    (Cayley-Hamilton; Moler & Van Loan, SIAM Rev. 45, 3 (2003)):
    e^A = e^m [cosh(delta) I + sinh(delta)/delta (A - m I)], with
    m = tr A / 2 and delta^2 = ((a - d)/2)^2 + bc, exact for any decay
    rates.  The principal root (Re delta >= 0) makes e^(m + delta) the
    exponential of the larger eigenvalue and |e^(-2 delta)| <= 1, so
    e^m cosh(delta) = e^(m + delta) (1 + e^(-2 delta)) / 2 and
    e^m sinh(delta)/delta = -e^(m + delta) expm1(-2 delta) / (2 delta)
    overflow only where e^A does."""
    a, b, c, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
    m, q = (a + d) / 2, (a - d) / 2
    delta2 = q * q + b * c
    delta = np.sqrt(delta2)
    grow = np.exp(m + delta)
    small = np.abs(delta) < SINHC_SERIES_BELOW
    sinhc = np.where(small, np.exp(m) * (1 + delta2 / 6),
                     -grow * np.expm1(-2 * delta)
                     / (2 * np.where(small, 1, delta)))
    cosh = grow * (1 + np.exp(-2 * delta)) / 2
    R = np.empty_like(A)
    R[:, 0, 0] = cosh + sinhc * q
    R[:, 1, 1] = cosh - sinhc * q
    R[:, 0, 1] = sinhc * b
    R[:, 1, 0] = sinhc * c
    return R


def _expm_stack(A: np.ndarray) -> np.ndarray:
    """exp of each matrix of the (nb, d, d) stack `A`: the kernel of the
    stacks whose blocks mix decay rates, and of every 1x1 and 2x2 stack.

    1x1 stacks are `np.exp` and 2x2 stacks the closed form `_expm_2x2`.
    Larger stacks take one Pade-13 scaling and squaring for the whole
    stack, vectorised over the batch: every matrix is scaled by the same
    2^-s, s taken from the largest 1-norm.
    """
    if A.shape[-1] == 1:
        return np.exp(A)
    if A.shape[-1] == 2:
        return _expm_2x2(A)
    norm = np.abs(A).sum(axis=-2).max()
    s = math.ceil(math.log2(norm / THETA13)) if norm > THETA13 else 0
    A = A / 2.0 ** s
    b = PADE13
    ident = np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) \
        + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident
    del A2, A4, A6              # a 1024-state stack holds 16 MB per power
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


def _spectral_stack(H: np.ndarray, dt: float, rates: np.ndarray) -> tuple:
    """(V, phase) of the (nb, d, d) real symmetric stack `H` whose blocks
    each decay at one rate, `rates` (nb,): e^(-i dt (H - i Gamma/2)) =
    V diag(phase) V^T, with H = V diag(lam) V^T from one batched real
    `eigh` and phase = e^(-Gamma dt/2) e^(-i lam dt).

    V is orthogonal whatever the phases, so the unitarity check cannot
    see phases that carry no digits.  A phase rounds by 2^-52 |lam| dt,
    which moves the block's amplitudes by at most that times its decay
    factor: a stack where this exceeds UNITARITY_TOL raises
    IntegratorError (with noise off, wherever 2^-52 max|lam| dt does),
    as do non-finite eigenpairs."""
    try:
        lam, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise IntegratorError(f"eigh failed: {exc}") from None
    if not (np.isfinite(lam).all() and np.isfinite(V).all()):
        raise IntegratorError("eigh returned non-finite eigenpairs")
    decay = np.exp(-0.5 * dt * rates)
    span = np.abs(lam).max(-1) * dt
    rounding = (decay * span).max() * 2.0 ** -52
    if rounding > UNITARITY_TOL:
        raise IntegratorError(f"phases of up to {span.max():.2e} rad move "
                              f"the amplitudes by {rounding:.1e} in rounding, "
                              f"above {UNITARITY_TOL:.0e}")
    return V, decay[:, None] * np.exp(-1j * dt * lam)


def _block_propagators(segment: PulseSegment, cover: np.ndarray, run: Run):
    """Yield an (indices, U, phase) stack for each block size of
    `segment_hamiltonian(segment, cover, run)`.

    The kernel follows the stack's decay rates Gamma (`run.rates`).  A
    stack of 3 states or more whose every block decays at one rate (every
    3-photon and aux-flip block, and every block with noise off) is
    spectral: U is the real eigenvectors V and phase their phases
    (`_spectral_stack`).  Other stacks turn complex as -i dt (H - i
    Gamma/2) and `_expm_stack` exponentiates them to U, with phase None;
    phases that overflow a float or keep no precision raise first."""
    dt = segment.pulse.duration_s
    for idx, H in segment_hamiltonian(segment, cover, run):
        rates = run.rates[idx]
        try:
            with np.errstate(over="raise"):
                if idx.shape[1] > 2 and (rates == rates[:, :1]).all():
                    U, phase = _spectral_stack(H, dt, rates[:, 0])
                else:
                    ar = np.arange(idx.shape[1])
                    A = -1j * dt * H
                    A[:, ar, ar] -= 0.5 * dt * rates
                    U, phase = _expm_stack(A), None
        except (FloatingPointError, IntegratorError) as exc:
            raise IntegratorError(
                f"{segment.pulse.transition} segment of {dt!r} s at "
                f"dipole_scale {run.dipole_scale!r}: {exc}") from None
        yield idx, U, phase


def _apply_stack(psi: np.ndarray, U: np.ndarray, phase) -> np.ndarray:
    """The (nb, d) block amplitudes `psi` after one stack of
    `_block_propagators`: U psi, or V (phase * V^T psi) for a spectral
    stack, whose real V acts on the real and imaginary parts together."""
    if phase is None:
        return (U @ psi[..., None])[..., 0]
    nb, d = psi.shape
    x = U.transpose(0, 2, 1) @ psi.view(float).reshape(nb, d, 2)
    x = phase * x.view(complex)[..., 0]
    return (U @ x.view(float).reshape(nb, d, 2)).view(complex)[..., 0]


def segment_propagator(reg: RegisterState, segment: PulseSegment,
                       run: Run) -> np.ndarray:
    """Amplitudes after the whole segment, one batched product per stack
    of `_block_propagators` (`_apply_stack`), none formed into a matrix
    exponential.  For a segment that runs once in `run` only the live
    blocks are built, each stack applied as soon as it is built.  A
    recurring segment fills its kept list (`Run.stacks`) on its first run
    with the stacks of all its blocks, live or not, and later runs apply
    it as it stands, with no assembly, eigensolve or exponentiation."""
    stacks = run.stacks(segment)
    if stacks is None:
        stacks = _block_propagators(segment, reg.amps != 0, run)
    elif not stacks:
        stacks.extend(_block_propagators(segment,
                                         np.ones(reg.amps.size, bool), run))
    amps = np.zeros_like(reg.amps)
    for idx, U, phase in stacks:
        amps[idx] = _apply_stack(reg.amps[idx], U, phase)
    return amps


def apply_propagator(reg: RegisterState, amps: np.ndarray,
                     noise_on: bool) -> RegisterState:
    """The register holding `amps` from `segment_propagator`, checked for
    unitarity with noise off; the lost norm is added to `leaked`."""
    before = reg.survival
    after = float(np.vdot(amps, amps).real)
    if not noise_on and not abs(after - before) <= UNITARITY_TOL:
        raise IntegratorError(
            f"unitarity deviation {abs(after - before):.2e} over one "
            "segment exceeds 1e-6")
    out = RegisterState(amps, reg.leaked + (before - after))
    out.check_accounting()
    return out


def apply_segment(reg: RegisterState, segment: PulseSegment,
                  run: Run) -> RegisterState:
    """Propagate through the whole segment (exact exponentiation) as one
    step of `run` (`segment_propagator`)."""
    if segment.pulse.duration_s == 0.0:
        return reg
    return apply_propagator(reg, segment_propagator(reg, segment, run),
                            run.noise_on)
