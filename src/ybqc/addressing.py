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
from dataclasses import dataclass

import numpy as np

from .atomic import EP32, GP, AtomParams, register_levels
from .constants import h
from .errors import AddressingError, ConfigError, PlanningError

DEFAULT_SAFETY_FACTOR = 10.0


@dataclass(frozen=True)
class LatticeGeometry:
    n_x: int = 10
    n_y: int = 10
    n_z: int = 1
    spacing_m: float = 266e-9

    def __post_init__(self):
        if min(self.n_x, self.n_y, self.n_z) < 1:
            raise ConfigError("site counts must be >= 1")
        if self.spacing_m <= 0:
            raise ConfigError("lattice spacing must be positive")

    def sites(self, layer: int | None = None):
        ks = range(self.n_z) if layer is None else [layer]
        return [(i, j, k) for k in ks
                for j in range(self.n_y) for i in range(self.n_x)]

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
        if self.B0_t <= 0:
            raise ConfigError("bias field B0 must be positive")


@dataclass(frozen=True)
class ResonanceMap:
    """Per-site local field and addressed-transition offset in one layer."""
    entries: dict  # (i, j, k) -> (B_t, frequency_hz)
    min_gap_hz: float


@dataclass(frozen=True)
class GradientReport:
    eq1_ok: bool            # n_x * Gx <= Gy sufficient condition
    unique_ok: bool         # exhaustive per-site field uniqueness
    min_field_diff_t: float
    colliding_pair: tuple | None
    bias_ok: bool           # B0 >= safety_factor * gradient-induced range
    field_range_t: float


def site_field(geom: LatticeGeometry, config: GradientConfig, site) -> float:
    """Local field B0 + Gx*x + Gy*y + Gz*z at a lattice site."""
    if not geom.contains(site):
        raise IndexError(f"site {site} outside {geom.n_x}x{geom.n_y}x{geom.n_z} lattice")
    x, y, z = geom.position_m(site)
    return float(config.B0_t + config.Gx_t_per_m * x
                 + config.Gy_t_per_m * y + config.Gz_t_per_m * z)


def field_range(geom: LatticeGeometry, config: GradientConfig) -> float:
    """Total gradient-induced field range across the lattice."""
    return geom.spacing_m * (abs(config.Gx_t_per_m) * (geom.n_x - 1)
                             + abs(config.Gy_t_per_m) * (geom.n_y - 1)
                             + abs(config.Gz_t_per_m) * (geom.n_z - 1))


def _addressed_line(params: AtomParams, B: float) -> tuple[float, float]:
    """Offset (Hz) and field slope (Hz/T) of the addressed transition
    1S0(m_I=+1/2) <-> 3P2(F=3/2, m_F=+3/2) at field B."""
    lv = register_levels(params, B)
    return (lv.energy_hz[EP32] - lv.energy_hz[GP],
            (lv.moment_j_per_t[GP] - lv.moment_j_per_t[EP32]) / h)


def resonance_map(geom: LatticeGeometry, config: GradientConfig,
                  params: AtomParams, layer: int = 0) -> ResonanceMap:
    """Addressed-line frequency at every site of one x-y layer."""
    entries = {}
    for site in geom.sites(layer=layer):
        B = site_field(geom, config, site)
        entries[site] = (B, _addressed_line(params, B)[0])
    freqs = [f for _, f in entries.values()]
    if len(freqs) < 2:
        min_gap = math.inf
    else:
        fs = np.sort(np.asarray(freqs))
        min_gap = float(np.min(np.diff(fs)))
    return ResonanceMap(entries, min_gap)


def validate_gradients(geom: LatticeGeometry,
                       config: GradientConfig) -> GradientReport:
    """Check Eq.-style sufficient condition and exact per-site uniqueness."""
    eq1_ok = geom.n_x * config.Gx_t_per_m <= config.Gy_t_per_m
    sites = geom.sites(layer=0)
    fields = [(site_field(geom, config, s), s) for s in sites]
    fields.sort()
    min_diff = math.inf
    colliding = None
    for (b1, s1), (b2, s2) in zip(fields, fields[1:]):
        d = b2 - b1
        if d < min_diff:
            min_diff = d
            if d == 0.0:
                colliding = (s1, s2)
    unique_ok = len(sites) < 2 or min_diff > 0.0
    rng = field_range(geom, config)
    bias_ok = config.B0_t >= config.safety_factor * rng
    return GradientReport(bool(eq1_ok), bool(unique_ok),
                          float(min_diff) if len(sites) > 1 else math.inf,
                          colliding, bool(bias_ok), float(rng))


def plan_gradients(geom: LatticeGeometry, target_gap_hz: float,
                   params: AtomParams, B0_t: float = 100e-4,
                   safety_factor: float = DEFAULT_SAFETY_FACTOR,
                   headroom: float = 1.01) -> GradientConfig:
    """Minimal (Gx, Gy) giving per-site gaps >= target on the addressed line.

    Gy = n_x * Gx satisfies the sufficient condition with equality; the
    small headroom factor covers the residual Zeeman nonlinearity across
    the lattice.  Gz is set equal to Gy for layer selection.
    """
    if target_gap_hz <= 0:
        raise PlanningError("target gap must be positive")
    slope = abs(_addressed_line(params, B0_t)[1])
    if not 0 < slope < math.inf:
        raise PlanningError("addressed transition has no field slope at B0")
    g_unit = headroom * target_gap_hz / (slope * geom.spacing_m)
    if geom.n_x > 1:
        gx = g_unit
        gy = geom.n_x * gx
    else:
        gx = 0.0
        gy = g_unit if geom.n_y > 1 else 0.0
    gz = max(gy, g_unit)
    config = GradientConfig(B0_t, gx, gy, gz, safety_factor)
    rng = field_range(geom, config)
    if B0_t < safety_factor * rng:
        raise PlanningError(
            f"gradient range {rng:.3e} T times safety factor exceeds "
            f"B0 = {B0_t:.3e} T; geometry/gap infeasible at this bias")
    return config


def check_resolvable(geom: LatticeGeometry, config: GradientConfig,
                     params: AtomParams, target_sites, all_sites,
                     rabi_rad_s: float, min_ratio: float = 1.5) -> None:
    """Raise AddressingError unless every non-target site is detuned from
    every target by at least min_ratio times the pulse Rabi frequency."""
    freqs = {s: _addressed_line(params, site_field(geom, config, s))[0]
             for s in all_sites}
    width = rabi_rad_s / (2 * math.pi)
    for t in target_sites:
        for s in all_sites:
            if s in target_sites:
                continue
            gap = abs(freqs[s] - freqs[t])
            if gap < min_ratio * width:
                raise AddressingError(
                    f"sites {t} and {s} separated by {gap:.1f} Hz, below "
                    f"{min_ratio} x pulse width {width:.1f} Hz")
