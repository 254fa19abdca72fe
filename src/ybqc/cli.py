"""Command-line interface.

Subcommands: levels, detunings, ddi, address, plan, simulate, feasibility,
compile, run.  Exit codes: 0 success, 2 configuration/scenario error,
3 physics or integrator error.  Stochastic commands require --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .addressing import (GradientConfig, LatticeGeometry, plan_gradients,
                         validate_gradients)
from .atomic import (AtomParams, calibrate_hyperfine_A,
                     three_photon_detunings, zeeman_spectrum)
from .compiler import compile_circuit
from .constants import GAUSS, CM, mu_B, mu_N
from .dipole import cnot_shift, ddi_coupling
from .engine import NoiseParams
from .errors import ConfigError, PhysicsError
from .feasibility import build_feasibility_report
from .scenario import (emit_addressing_spectrum, emit_detuning_curves,
                       emit_level_sweep, load_atom_params, run_scenario,
                       result_to_json, schedule_to_json, simulate_circuit)

EXIT_OK, EXIT_CONFIG, EXIT_PHYSICS = 0, 2, 3


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _atom_params(args) -> AtomParams:
    params = load_atom_params(args.atom_config) if args.atom_config \
        else AtomParams()
    if getattr(args, "calibrate", False):
        params = calibrate_hyperfine_A(params)
    return params


def _geometry(args) -> LatticeGeometry:
    return LatticeGeometry(args.nx, args.ny, args.nz, args.spacing_m)


def _add_atom_flags(p):
    p.add_argument("--atom-config", help="key-value atom parameter file")
    p.add_argument("--calibrate", action="store_true",
                   help="pin the 3P2 hyperfine constant to the 3-photon "
                        "operating point (2 pi x 20 MHz at 650 G)")


def _add_lattice_flags(p, nx=10, ny=10):
    p.add_argument("--nx", type=int, default=nx)
    p.add_argument("--ny", type=int, default=ny)
    p.add_argument("--nz", type=int, default=1)
    p.add_argument("--spacing-m", type=float, default=266e-9)


# ---------------------------------------------------------------------------
# command bodies

def cmd_levels(args) -> int:
    params = _atom_params(args)
    if args.b_max_gauss is not None:
        text = emit_level_sweep(params, args.b_gauss, args.b_max_gauss,
                                args.steps)
    else:
        spec = zeeman_spectrum(params, args.b_gauss * GAUSS)
        lines = ["m_F,branch,energy_hz"]
        for lv in sorted(spec.levels, key=lambda l: l.energy_hz):
            lines.append(f"{lv.m_F!r},{lv.branch},{lv.energy_hz!r}")
        text = "\n".join(lines) + "\n"
    _write_or_print(text, args.out)
    return EXIT_OK


def cmd_detunings(args) -> int:
    params = _atom_params(args)
    if args.b_gauss is not None:
        det = three_photon_detunings(params, args.b_gauss * GAUSS)
        _write_or_print(json.dumps({
            "B_gauss": args.b_gauss,
            "delta1_hz": det.delta1_rad_s / (2 * math.pi),
            "delta2_hz": det.delta2_rad_s / (2 * math.pi),
            "omega0_hz": det.omega0_rad_s / (2 * math.pi)},
            indent=2) + "\n", args.out)
    else:
        _write_or_print(emit_detuning_curves(
            params, args.b_min_gauss, args.b_max_gauss, args.steps),
            args.out)
    return EXIT_OK


def cmd_ddi(args) -> int:
    params = _atom_params(args)
    m1 = args.m1_mub * mu_B + args.m1_mun * mu_N
    m2 = args.m2_mub * mu_B + args.m2_mun * mu_N
    payload = {
        "spacing_m": args.spacing_m,
        "theta_rad": args.theta_rad,
        "coupling_hz": ddi_coupling(m1, m2, args.spacing_m, args.theta_rad),
        "cnot_conditional_shift_hz": cnot_shift(args.spacing_m, params,
                                                args.theta_rad),
    }
    _write_or_print(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_address(args) -> int:
    params = _atom_params(args)
    geom = _geometry(args)
    explicit = (args.gx_g_per_cm, args.gy_g_per_cm, args.gz_g_per_cm)
    if all(g is None for g in explicit):
        config = plan_gradients(geom, args.target_gap_hz, params,
                                B0_t=args.b0_gauss * GAUSS)
    else:   # any explicit gradient: the others are zero, as in a scenario
        config = GradientConfig(args.b0_gauss * GAUSS,
                                *((g or 0.0) * GAUSS / CM for g in explicit))
    report = validate_gradients(geom, config)
    if not report.unique_ok:
        raise PhysicsError(
            f"gradients leave sites degenerate: {report.colliding_pair}")
    _write_or_print(emit_addressing_spectrum(geom, config, params), args.out)
    return EXIT_OK


def cmd_plan(args) -> int:
    params = _atom_params(args)
    geom = _geometry(args)
    config = plan_gradients(geom, args.target_gap_hz, params,
                            B0_t=args.b0_gauss * GAUSS)
    report = validate_gradients(geom, config)
    payload = {
        "B0_gauss": config.B0_t / GAUSS,
        "Gx_g_per_cm": config.Gx_t_per_m * CM / GAUSS,
        "Gy_g_per_cm": config.Gy_t_per_m * CM / GAUSS,
        "Gz_g_per_cm": config.Gz_t_per_m * CM / GAUSS,
        "eq1_ok": report.eq1_ok,
        "unique_ok": report.unique_ok,
        "bias_ok": report.bias_ok,
        "field_range_gauss": report.field_range_t / GAUSS,
    }
    _write_or_print(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _parse_ones(values):
    try:
        return [tuple(int(x) for x in v.split(",")) for v in values or []]
    except ValueError as exc:
        raise ConfigError(f"--one takes integer site coordinates I,J,K "
                          f"({exc})") from None


def _circuit_gradients(geom, params) -> GradientConfig:
    """The circuit commands' gradients: planned for 1 kHz gaps at 100 G."""
    return plan_gradients(geom, 1000.0, params, B0_t=100 * GAUSS)


def cmd_compile(args) -> int:
    params = _atom_params(args)
    geom = _geometry(args)
    schedule = compile_circuit(Path(args.circuit).read_text(), geom, params,
                               _circuit_gradients(geom, params),
                               NoiseParams())
    _write_or_print(schedule_to_json(schedule) + "\n", args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = _atom_params(args)
    geom = _geometry(args)
    noise = NoiseParams.off() if args.noise_off else NoiseParams()
    schedule, result = simulate_circuit(
        Path(args.circuit).read_text(), geom, params,
        _circuit_gradients(geom, params), noise, seed=args.seed,
        initial_ones=_parse_ones(args.one), dipole_scale=args.dipole_scale)
    _write_or_print(result_to_json(schedule, result) + "\n", args.out)
    return EXIT_OK


def cmd_feasibility(args) -> int:
    params = _atom_params(args)
    report = build_feasibility_report(params, LatticeGeometry(),
                                      args.depth_recoils)
    _write_or_print(report.to_json() + "\n", args.out)
    return EXIT_OK


def cmd_run(args) -> int:
    manifest = run_scenario(args.scenario)
    sys.stdout.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybqc",
        description="Feasibility and pulse-level simulation toolkit for a "
                    "gradient-addressed 171Yb optical-lattice qubit "
                    "register.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("levels", help="3P2 Zeeman spectrum (CSV)")
    _add_atom_flags(p)
    p.add_argument("--b-gauss", type=float, default=100.0)
    p.add_argument("--b-max-gauss", type=float,
                   help="sweep upper bound; --b-gauss becomes the lower")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("detunings",
                       help="3-photon ladder detunings (JSON or CSV sweep)")
    _add_atom_flags(p)
    p.add_argument("--b-gauss", type=float,
                   help="single field point (JSON output)")
    p.add_argument("--b-min-gauss", type=float, default=10.0)
    p.add_argument("--b-max-gauss", type=float, default=20000.0)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_detunings)

    p = sub.add_parser("ddi", help="dipole-dipole coupling (JSON)")
    _add_atom_flags(p)
    p.add_argument("--spacing-m", type=float, default=266e-9)
    p.add_argument("--theta-rad", type=float, default=0.0)
    p.add_argument("--m1-mub", type=float, default=0.0,
                   help="moment 1, Bohr-magneton part")
    p.add_argument("--m1-mun", type=float, default=0.0,
                   help="moment 1, nuclear-magneton part")
    p.add_argument("--m2-mub", type=float, default=0.0)
    p.add_argument("--m2-mun", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ddi)

    p = sub.add_parser("address",
                       help="per-site resonance spectrum (spectrum.csv)")
    _add_atom_flags(p)
    _add_lattice_flags(p)
    p.add_argument("--b0-gauss", type=float, default=100.0)
    p.add_argument("--gx-g-per-cm", type=float)
    p.add_argument("--gy-g-per-cm", type=float)
    p.add_argument("--gz-g-per-cm", type=float)
    p.add_argument("--target-gap-hz", type=float, default=1000.0,
                   help="used when no explicit gradients are given")
    p.add_argument("--out")
    p.set_defaults(func=cmd_address)

    p = sub.add_parser("plan", help="minimal gradients for a target gap")
    _add_atom_flags(p)
    _add_lattice_flags(p)
    p.add_argument("--b0-gauss", type=float, default=100.0)
    p.add_argument("--target-gap-hz", type=float, default=1000.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("compile",
                       help="compile a circuit file to a pulse schedule")
    _add_atom_flags(p)
    _add_lattice_flags(p, nx=2, ny=2)
    p.add_argument("--circuit", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate",
                       help="compile and simulate a circuit file")
    _add_atom_flags(p)
    _add_lattice_flags(p, nx=2, ny=2)
    p.add_argument("--circuit", required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="rng seed (mandatory: runs are reproducible)")
    p.add_argument("--one", action="append", metavar="I,J,K",
                   help="site starting in logical 1 (repeatable)")
    p.add_argument("--noise-off", action="store_true")
    p.add_argument("--dipole-scale", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("feasibility",
                       help="experimental-parameter checks (JSON)")
    _add_atom_flags(p)
    p.add_argument("--depth-recoils", type=float, default=50.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_feasibility)

    p = sub.add_parser("run", help="execute a scenario file")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:   # OSError: an input or output file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
