"""Gradient addressing: per-site fields, uniqueness, and planning."""

import itertools
import math

import numpy as np
import pytest

from ybqc.addressing import (GradientConfig, LatticeGeometry, field_range,
                             plan_gradients, resonance_map, site_fields,
                             site_levels, validate_gradients)
from ybqc.atomic import EP32, GP, AtomParams
from ybqc.constants import CM, GAUSS
from ybqc.errors import ConfigError, PlanningError


def test_site_field_example():
    # 10 G/cm over one 266 nm spacing: 2.66e-4 G increment
    geom = LatticeGeometry(10, 10, 1)
    cfg = GradientConfig(100 * GAUSS, 10 * GAUSS / CM, 100 * GAUSS / CM)
    b0, b1 = site_fields(geom, cfg, [(0, 0, 0), (1, 0, 0)])
    assert (b1 - b0) / GAUSS == pytest.approx(2.66e-4, rel=1e-9)
    # the per-site level tables check the lattice
    with pytest.raises(IndexError):
        site_levels(AtomParams(), geom, ((0, 0, 0), (10, 0, 0)), cfg)


def test_field_range_brute_force():
    geom = LatticeGeometry(4, 3, 2)
    cfg = GradientConfig(100 * GAUSS, 7 * GAUSS / CM, 31 * GAUSS / CM,
                         2 * GAUSS / CM)
    fields = site_fields(
        geom, cfg, list(itertools.product(range(4), range(3), range(2))))
    assert field_range(geom, cfg) == pytest.approx(
        max(fields) - min(fields), rel=1e-12)


def test_uniqueness_matches_all_pairs_brute_force():
    geom = LatticeGeometry(5, 5, 1)
    # Gy = n_x * Gx exactly: every site unique (strict ladder)
    cfg = GradientConfig(100 * GAUSS, GAUSS / CM, 5 * GAUSS / CM)
    rep = validate_gradients(geom, cfg)
    fields = site_fields(geom, cfg, geom.sites()).tolist()
    brute = min(abs(a - b) for a, b in itertools.combinations(fields, 2))
    assert rep.unique_ok
    assert rep.min_field_diff_t == pytest.approx(brute, rel=1e-9)
    # colliding configuration: Gy = (n_x - 1) * Gx makes (n_x-1,0) and
    # (0,1) degenerate
    bad = GradientConfig(100 * GAUSS, GAUSS / CM, 4 * GAUSS / CM)
    rep_bad = validate_gradients(geom, bad)
    assert not rep_bad.unique_ok
    assert rep_bad.colliding_pair is not None


def test_sufficient_condition_implies_uniqueness():
    # property check over random strict configurations: n_x Gx < Gy
    rng = np.random.default_rng(20260824)
    for _ in range(100):
        n_x = int(rng.integers(2, 7))
        n_y = int(rng.integers(2, 7))
        gx = float(rng.uniform(0.1, 20)) * GAUSS / CM
        gy = n_x * gx * float(rng.uniform(1.0001, 3.0))
        geom = LatticeGeometry(n_x, n_y, 1)
        cfg = GradientConfig(100 * GAUSS, gx, gy)
        rep = validate_gradients(geom, cfg)
        assert rep.eq1_ok
        assert rep.unique_ok


def test_plan_round_trip_gap():
    params = AtomParams()
    geom = LatticeGeometry(10, 10, 1)
    cfg = plan_gradients(geom, 1000.0, params)
    rmap = resonance_map(geom, cfg, params)
    assert len(rmap.sites) == 100
    assert rmap.min_gap_hz >= 1000.0
    # within 20% of the requested gap (no gross over-provisioning)
    assert rmap.min_gap_hz <= 1200.0
    rep = validate_gradients(geom, cfg)
    assert rep.eq1_ok and rep.unique_ok and rep.bias_ok


def test_planned_gradients_reference_values():
    params = AtomParams()
    cfg = plan_gradients(LatticeGeometry(10, 10, 1), 1000.0, params)
    assert cfg.Gx_t_per_m * CM / GAUSS == pytest.approx(10.0, rel=0.25)
    assert cfg.Gy_t_per_m * CM / GAUSS == pytest.approx(100.0, rel=0.25)
    assert cfg.Gy_t_per_m == pytest.approx(10 * cfg.Gx_t_per_m, rel=1e-12)


def test_plan_scales_inversely_with_slope_and_gap():
    params = AtomParams()
    geom = LatticeGeometry(10, 10, 1)
    c1 = plan_gradients(geom, 500.0, params)
    c2 = plan_gradients(geom, 1000.0, params)
    assert c2.Gx_t_per_m == pytest.approx(2 * c1.Gx_t_per_m, rel=1e-9)


def test_plan_infeasible_raises():
    params = AtomParams()
    with pytest.raises(PlanningError):
        plan_gradients(LatticeGeometry(100, 100, 1), 1e6, params)
    with pytest.raises(PlanningError):
        plan_gradients(LatticeGeometry(2, 2, 1), -5.0, params)


def test_resonance_comb_monotone_and_nearly_uniform():
    params = AtomParams()
    geom = LatticeGeometry(6, 6, 1)
    cfg = plan_gradients(geom, 1000.0, params)
    rmap = resonance_map(geom, cfg, params)
    gaps = np.diff(rmap.freqs_hz)       # in comb order, ascending
    assert np.all(gaps > 0)
    # comb is nearly uniform: second differences are tiny vs the gap
    assert np.max(np.abs(np.diff(gaps))) < 1e-3 * np.min(gaps)


def test_comb_is_the_per_site_level_tables_bit_for_bit():
    # one array evaluation over the layer gives, site by site, the field
    # and the addressed line of the one-field level table of each site,
    # sorted by frequency and then site; Gx = Gy puts sites (i, j) and
    # (j, i) on one field, so the site order (i, then j) breaks the ties
    params = AtomParams(hyperfine_A_3P2_hz=-3e9)
    geom = LatticeGeometry(7, 5, 1)
    sites = [(i, j, 0) for j in range(5) for i in range(7)]
    for gx in (3 * GAUSS / CM, 23 * GAUSS / CM):
        cfg = GradientConfig(80 * GAUSS, gx, 23 * GAUSS / CM)
        rmap = resonance_map(geom, cfg, params)
        tables = site_levels(params, geom, tuple(sites), cfg)
        want = sorted((t.energy_hz[EP32] - t.energy_hz[GP], site, t.field_t)
                      for site, t in zip(sites, tables))
        assert [(f, tuple(s), B) for f, s, B in zip(
            rmap.freqs_hz.tolist(), rmap.sites.tolist(),
            rmap.fields_t.tolist())] == want


def test_single_site_lattice():
    params = AtomParams()
    geom = LatticeGeometry(1, 1, 1)
    cfg = GradientConfig(100 * GAUSS)
    rmap = resonance_map(geom, cfg, params)
    assert rmap.sites.tolist() == [[0, 0, 0]]
    assert math.isinf(rmap.min_gap_hz)
    assert validate_gradients(geom, cfg).unique_ok


def test_config_validation():
    with pytest.raises(ConfigError):
        GradientConfig(0.0)
    with pytest.raises(ConfigError):
        LatticeGeometry(0, 1, 1)
    with pytest.raises(ConfigError):
        LatticeGeometry(2, 2, 1, spacing_m=-1.0)
