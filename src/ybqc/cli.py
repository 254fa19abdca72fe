"""Command-line interface.

Subcommands: levels, detunings, ddi, address, plan, simulate, feasibility,
compile, run.  Exit codes: 0 success, 2 configuration/scenario error
(sizes too large to allocate included), 3 physics or integrator error.
Stochastic commands require --seed.

Each subcommand reads its flags as scenario keys through
`scenario.scenario_from_dict`; one named after a pipeline stage prints
that stage's artifact.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .addressing import validate_gradients
from .atomic import (calibrate_hyperfine_A, ladder_detunings, level_labels,
                     zeeman_table)
from .compiler import compile_circuit
from .constants import GAUSS, CM, mu_B, mu_N
from .dipole import cnot_shift, ddi_coupling
from .engine import NoiseParams
from .errors import ConfigError, PhysicsError
from .scenario import (build_stage, resolve_gradients, run_scenario,
                       scenario_from_dict, schedule_to_json)

EXIT_OK, EXIT_CONFIG, EXIT_PHYSICS = 0, 2, 3


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _scenario(args, **data):
    """The scenario keys `data`, built from the flags, read by the
    scenario readers; --calibrate then pins the hyperfine constant."""
    if args.atom_config:
        data["atom_config"] = args.atom_config
    scn = scenario_from_dict(data, Path())
    if args.calibrate:
        scn = dataclasses.replace(scn,
                                  params=calibrate_hyperfine_A(scn.params))
    return scn


def _print_stage(args, stage: str, artifact: str, **data) -> int:
    """Print the `artifact` file of the scenario stage `stage`."""
    scn = _scenario(args, pipeline=[stage], **data)
    _write_or_print(build_stage(scn, stage)[artifact], args.out)
    return EXIT_OK


def _lattice(args) -> dict:
    return {"n_x": args.nx, "n_y": args.ny, "n_z": args.nz,
            "spacing_m": args.spacing_m}


def _add_command(sub, name: str, func, help_: str, lattice=None):
    """A subcommand with the atom flags, --out and, given the (nx, ny)
    defaults `lattice`, the lattice flags."""
    p = sub.add_parser(name, help=help_)
    p.set_defaults(func=func)
    p.add_argument("--atom-config", help="key-value atom parameter file")
    p.add_argument("--calibrate", action="store_true",
                   help="pin the 3P2 hyperfine constant to the 3-photon "
                        "operating point (2 pi x 20 MHz at 650 G)")
    p.add_argument("--out")
    if lattice:
        p.add_argument("--nx", type=int, default=lattice[0])
        p.add_argument("--ny", type=int, default=lattice[1])
        p.add_argument("--nz", type=int, default=1)
        p.add_argument("--spacing-m", type=float, default=266e-9)
    return p


# ---------------------------------------------------------------------------
# command bodies

def cmd_levels(args) -> int:
    if args.b_max_gauss is not None:
        return _print_stage(args, "levels", "levels.csv", sweep={
            "b_min_gauss": args.b_gauss, "b_max_gauss": args.b_max_gauss,
            "steps": args.steps})
    params = _scenario(args).params
    energy = zeeman_table(params, [args.b_gauss * GAUSS])[0, :, 0].tolist()
    lines = ["m_F,branch,energy_hz"]
    lines += [f"{m_F!r},{branch},{e!r}" for e, (m_F, branch) in
              sorted(zip(energy, level_labels(params)), key=lambda r: r[0])]
    _write_or_print("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_detunings(args) -> int:
    if args.b_gauss is None:
        return _print_stage(args, "detunings", "detunings.csv", sweep={
            "b_min_gauss": args.b_min_gauss, "b_max_gauss": args.b_max_gauss,
            "steps": args.steps})
    det = ladder_detunings(_scenario(args).params, [args.b_gauss * GAUSS])
    # + 0.0: the ladder's zeros at B = 0 print as 0.0, not -0.0
    d1, d2, w0 = (float(x[0]) / (2 * math.pi) + 0.0 for x in
                  (det.delta1_rad_s, det.delta2_rad_s, det.omega0_rad_s))
    _write_or_print(json.dumps({
        "B_gauss": args.b_gauss, "delta1_hz": d1, "delta2_hz": d2,
        "omega0_hz": w0}, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_ddi(args) -> int:
    params = _scenario(args).params
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
    gradients = {"B0_gauss": args.b0_gauss,
                 "target_gap_hz": args.target_gap_hz}
    for axis in "xyz":
        g = getattr(args, f"g{axis}_g_per_cm")
        if g is not None:
            gradients[f"G{axis}_g_per_cm"] = g
    return _print_stage(args, "address", "spectrum.csv",
                        lattice=_lattice(args), gradients=gradients)


def cmd_plan(args) -> int:
    scn = _scenario(args, lattice=_lattice(args), gradients={
        "B0_gauss": args.b0_gauss, "target_gap_hz": args.target_gap_hz})
    config = resolve_gradients(scn)
    report = validate_gradients(scn.geom, config)
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


def cmd_compile(args) -> int:
    scn = _scenario(args, lattice=_lattice(args), circuit_file=args.circuit)
    schedule = compile_circuit(scn.circuit_text, scn.geom, scn.params,
                               resolve_gradients(scn), scn.noise)
    _write_or_print(schedule_to_json(schedule) + "\n", args.out)
    return EXIT_OK


def _parse_ones(values) -> list[list[int]]:
    try:
        return [[int(x) for x in v.split(",")] for v in values or []]
    except ValueError as exc:
        raise ConfigError(f"--one takes integer site coordinates I,J,K "
                          f"({exc})") from None


def cmd_simulate(args) -> int:
    noise = dataclasses.asdict(NoiseParams.off()) if args.noise_off else {}
    return _print_stage(
        args, "simulate", "result.json", lattice=_lattice(args),
        circuit_file=args.circuit, seed=args.seed, noise=noise,
        initial_ones=_parse_ones(args.one), dipole_scale=args.dipole_scale)


def cmd_feasibility(args) -> int:
    return _print_stage(args, "feasibility", "feasibility.json",
                        depth_recoils=args.depth_recoils)


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

    p = _add_command(sub, "levels", cmd_levels, "3P2 Zeeman spectrum (CSV)")
    p.add_argument("--b-gauss", type=float, default=100.0)
    p.add_argument("--b-max-gauss", type=float,
                   help="sweep upper bound; --b-gauss becomes the lower")
    p.add_argument("--steps", type=int, default=200,
                   help="sweep fields, at most 400")

    p = _add_command(sub, "detunings", cmd_detunings,
                     "3-photon ladder detunings (JSON or CSV sweep)")
    p.add_argument("--b-gauss", type=float,
                   help="single field point (JSON output)")
    p.add_argument("--b-min-gauss", type=float, default=10.0)
    p.add_argument("--b-max-gauss", type=float, default=20000.0)
    p.add_argument("--steps", type=int, default=2000)

    p = _add_command(sub, "ddi", cmd_ddi, "dipole-dipole coupling (JSON)")
    p.add_argument("--spacing-m", type=float, default=266e-9)
    p.add_argument("--theta-rad", type=float, default=0.0)
    p.add_argument("--m1-mub", type=float, default=0.0,
                   help="moment 1, Bohr-magneton part")
    p.add_argument("--m1-mun", type=float, default=0.0,
                   help="moment 1, nuclear-magneton part")
    p.add_argument("--m2-mub", type=float, default=0.0)
    p.add_argument("--m2-mun", type=float, default=0.0)

    p = _add_command(sub, "address", cmd_address,
                     "per-site resonance spectrum (spectrum.csv)", (10, 10))
    p.add_argument("--b0-gauss", type=float, default=100.0)
    p.add_argument("--gx-g-per-cm", type=float)
    p.add_argument("--gy-g-per-cm", type=float)
    p.add_argument("--gz-g-per-cm", type=float)
    p.add_argument("--target-gap-hz", type=float, default=1000.0,
                   help="used when no explicit gradients are given")

    p = _add_command(sub, "plan", cmd_plan,
                     "minimal gradients for a target gap", (10, 10))
    p.add_argument("--b0-gauss", type=float, default=100.0)
    p.add_argument("--target-gap-hz", type=float, default=1000.0)

    p = _add_command(sub, "compile", cmd_compile,
                     "compile a circuit file to a pulse schedule", (2, 2))
    p.add_argument("--circuit", required=True)

    p = _add_command(sub, "simulate", cmd_simulate,
                     "compile and simulate a circuit file", (2, 2))
    p.add_argument("--circuit", required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="rng seed (mandatory: runs are reproducible)")
    p.add_argument("--one", action="append", metavar="I,J,K",
                   help="site starting in logical 1 (repeatable)")
    p.add_argument("--noise-off", action="store_true")
    p.add_argument("--dipole-scale", type=float, default=1.0)

    p = _add_command(sub, "feasibility", cmd_feasibility,
                     "experimental-parameter checks (JSON)")
    p.add_argument("--depth-recoils", type=float, default=50.0)

    p = sub.add_parser("run", help="execute a scenario file")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # OSError: an input or output file; MemoryError: a size too large to
    # allocate, e.g. --steps 1000000000000000
    except (ConfigError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
