"""Gradient-based spectral addressing of lattice sites.

A bias field B0 plus gradients of B_z along x, y, z make every site's
local field -- and therefore its optical resonance -- distinct.  The
sufficient condition n_x * Gx <= Gy is checked alongside an exhaustive
uniqueness check; the exhaustive check is authoritative (the "<=" is
honored as written even though only strict inequality guarantees
distinctness for integer site indices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .atomic import (EP32, GP, AtomParams, RegisterLevels,
                     ThreePhotonDetunings, ladder_detunings, register_table)
from .constants import h
from .errors import ConfigError, PhysicsError, PlanningError

DEFAULT_SAFETY_FACTOR = 10.0
# Gradient headroom over the linear estimate: covers the residual Zeeman
# nonlinearity across the lattice.
PLAN_HEADROOM = 1.01


@dataclass(frozen=True)
class LatticeGeometry:
    n_x: int = 10
    n_y: int = 10
    n_z: int = 1
    spacing_m: float = 266e-9

    def __post_init__(self):
        if min(self.n_x, self.n_y, self.n_z) < 1:
            raise ConfigError("site counts must be >= 1")
        if not 0 < self.spacing_m < math.inf:
            raise ConfigError("lattice spacing must be finite and positive")

    def sites(self) -> np.ndarray:
        """Sites of the addressed z = 0 layer, row by row, as an
        (n_x * n_y, 3) array of lattice indices."""
        j, i = np.divmod(np.arange(self.n_x * self.n_y), self.n_x)
        return np.stack((i, j, np.zeros_like(i)), axis=1)

    def contains(self, site) -> bool:
        i, j, k = site
        return 0 <= i < self.n_x and 0 <= j < self.n_y and 0 <= k < self.n_z

    def position_m(self, site) -> np.ndarray:
        return self.spacing_m * np.asarray(site, float)


@dataclass(frozen=True)
class GradientConfig:
    B0_t: float = 100e-4
    Gx_t_per_m: float = 0.0
    Gy_t_per_m: float = 0.0
    Gz_t_per_m: float = 0.0
    safety_factor: float = DEFAULT_SAFETY_FACTOR

    def __post_init__(self):
        if not 0 < self.B0_t < math.inf:
            raise ConfigError("bias field B0 must be finite and positive")
        if not all(map(math.isfinite, (self.Gx_t_per_m, self.Gy_t_per_m,
                                       self.Gz_t_per_m))):
            raise ConfigError("gradients must be finite")
        if not 0 <= self.safety_factor < math.inf:
            raise ConfigError("safety factor must be finite and >= 0")


@dataclass(frozen=True)
class ResonanceMap:
    """Local field and addressed-transition offset of every site of one
    layer, in comb order: by frequency, then by site."""
    sites: np.ndarray       # (n, 3) lattice indices
    fields_t: np.ndarray
    freqs_hz: np.ndarray
    min_gap_hz: float


@dataclass(frozen=True)
class GradientReport:
    eq1_ok: bool            # n_x * Gx <= Gy sufficient condition
    unique_ok: bool         # exhaustive per-site field uniqueness
    min_field_diff_t: float
    colliding_pair: tuple | None
    bias_ok: bool           # B0 >= safety_factor * gradient-induced range
    field_range_t: float


@np.errstate(over="ignore", invalid="ignore")   # inf and nan raise below
def site_fields(geom: LatticeGeometry, config: GradientConfig,
                sites) -> np.ndarray:
    """Local field B0 + Gx*x + Gy*y + Gz*z at each of `sites`, an
    (n, 3) array of lattice indices."""
    sites = np.asarray(sites).reshape(-1, 3)
    x, y, z = geom.spacing_m * sites.T
    B = config.B0_t + config.Gx_t_per_m * x + config.Gy_t_per_m * y \
        + config.Gz_t_per_m * z
    bad = ~np.isfinite(B)
    if bad.any():
        site = tuple(sites[bad][0].tolist())
        raise PhysicsError(f"local field at site {site} leaves the "
                           "floating-point range")
    return B


@lru_cache(maxsize=64)
def site_levels(params: AtomParams, geom: LatticeGeometry, sites: tuple,
                config: GradientConfig
                ) -> tuple[RegisterLevels, ThreePhotonDetunings]:
    """Level table and 3-photon ladder of `sites` at their local fields,
    one read-only column per site, cached per register and field config:
    the compiler, the pulse builders and the engine index it."""
    for site in sites:
        if not geom.contains(site):
            raise IndexError(f"site {site} outside "
                             f"{geom.n_x}x{geom.n_y}x{geom.n_z} lattice")
    fields = site_fields(geom, config, sites)
    table = register_table(params, fields), ladder_detunings(params, fields)
    for column in (*vars(table[0]).values(), *vars(table[1]).values()):
        column.flags.writeable = False
    return table


def field_range(geom: LatticeGeometry, config: GradientConfig) -> float:
    """Total gradient-induced field range across the lattice."""
    return geom.spacing_m * (abs(config.Gx_t_per_m) * (geom.n_x - 1)
                             + abs(config.Gy_t_per_m) * (geom.n_y - 1)
                             + abs(config.Gz_t_per_m) * (geom.n_z - 1))


def _addressed_line(levels: RegisterLevels):
    """Offset (Hz) and field slope (Hz/T) of the addressed transition
    1S0(m_I=+1/2) <-> 3P2(F=3/2, m_F=+3/2) of a level table."""
    return (levels.energy_hz[EP32] - levels.energy_hz[GP],
            (levels.moment_j_per_t[GP] - levels.moment_j_per_t[EP32]) / h)


def resonance_map(geom: LatticeGeometry, config: GradientConfig,
                  params: AtomParams) -> ResonanceMap:
    """Addressed-line frequency at every site of the addressed z = 0
    layer, from one evaluation of the level table over the layer."""
    sites = geom.sites()
    fields = site_fields(geom, config, sites)
    freqs = _addressed_line(register_table(params, fields))[0]
    order = np.lexsort((*sites.T[::-1], freqs))
    freqs = freqs[order]
    min_gap = float(np.min(np.diff(freqs))) if freqs.size > 1 else math.inf
    return ResonanceMap(sites[order], fields[order], freqs, min_gap)


def nearest_fields(fields: np.ndarray, sites) -> tuple[float, tuple | None]:
    """Smallest difference between two of `fields` (inf for fewer than
    two) and the first pair of their `sites` ((n, 3) lattice indices)
    whose fields coincide, in order of field and then site, if any."""
    if len(fields) < 2:
        return math.inf, None
    sites = np.asarray(sites).reshape(-1, 3)
    order = np.lexsort((*sites.T[::-1], fields))
    ordered = fields[order]
    diffs = ordered[1:] - ordered[:-1]
    min_diff = float(diffs.min())
    if min_diff > 0.0:
        return min_diff, None
    pair = order[np.argmax(diffs == 0.0):][:2]
    return 0.0, tuple(map(tuple, sites[pair].tolist()))


def validate_gradients(geom: LatticeGeometry,
                       config: GradientConfig) -> GradientReport:
    """Check Eq.-style sufficient condition and exact per-site uniqueness
    over the addressed z = 0 layer."""
    eq1_ok = geom.n_x * config.Gx_t_per_m <= config.Gy_t_per_m
    sites = geom.sites()
    min_diff, colliding = nearest_fields(site_fields(geom, config, sites),
                                         sites)
    rng = field_range(geom, config)
    bias_ok = config.B0_t >= config.safety_factor * rng
    return GradientReport(bool(eq1_ok), bool(min_diff > 0.0),
                          float(min_diff), colliding, bool(bias_ok),
                          float(rng))


def plan_gradients(geom: LatticeGeometry, target_gap_hz: float,
                   params: AtomParams, B0_t: float = 100e-4,
                   safety_factor: float = DEFAULT_SAFETY_FACTOR
                   ) -> GradientConfig:
    """Minimal (Gx, Gy) giving per-site gaps >= target on the addressed line.

    Gy = n_x * Gx satisfies the sufficient condition with equality, with
    PLAN_HEADROOM on top.  Gz = max(Gy, one gap step) keeps the z gradient
    of the reference 3D design, so the bias-safety check below covers the
    field range of every layer of a multi-layer lattice.
    """
    if not 0 < target_gap_hz < math.inf:
        raise PlanningError("target gap must be finite and positive")
    config = GradientConfig(B0_t, safety_factor=safety_factor)  # checks both
    slope = abs(float(_addressed_line(register_table(params, [B0_t]))[1][0]))
    if not 0 < slope < math.inf:
        raise PlanningError("addressed transition has no field slope at B0")
    g_unit = PLAN_HEADROOM * target_gap_hz / (slope * geom.spacing_m)
    if geom.n_x > 1:
        gx = g_unit
        gy = geom.n_x * gx
    else:
        gx = 0.0
        gy = g_unit if geom.n_y > 1 else 0.0
    config = replace(config, Gx_t_per_m=gx, Gy_t_per_m=gy,
                     Gz_t_per_m=max(gy, g_unit))
    rng = field_range(geom, config)
    if B0_t < safety_factor * rng:
        raise PlanningError(
            f"gradient range {rng:.3e} T times safety factor exceeds "
            f"B0 = {B0_t:.3e} T; geometry/gap infeasible at this bias")
    return config
