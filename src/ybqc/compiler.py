"""Circuit-to-pulse-schedule compiler and schedule executor.

Circuit text format, one gate per line (sites are (i, j) indices in the
addressed z=0 layer; `#` starts a comment):

    X i j theta
    CNOT i1 j1 i2 j2
    MEAS i j

`compile_circuit` is a loop over the gates that strings the `protocols`
pulse builders into the full segment list: transfer pulses, gate drives
and return transfers under the caller's gradients.  Measurements become
'measure' pseudo-segments.  `execute_schedule` runs the segments through
the pulse engine, exponentiating each recurring segment once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .addressing import (GradientConfig, LatticeGeometry, nearest_fields,
                         site_fields, site_levels)
from .atomic import AtomParams
from .engine import (NLEV, NoiseParams, Pulse, PulseSchedule, PulseSegment,
                     RegisterState, Run, apply_segment)
from .errors import ConfigError, PhysicsError, PlanningError
from .protocols import (DetectionReport, cnot_pulse, measure_qubit,
                        rotation_pulse, transfer_pulse)

# Tuned for the default 1 kHz gap.  A spectator one gap Delta away
# peaks near (Omega/Delta)^2 excitation: the 1Q value keeps it below 1e-3
# there, (25/1000)^2 = 6e-4, but not at 500 Hz, (25/500)^2 = 2.5e-3.  The
# 2Q value, faster for the dipole-shifted second atom of a CNOT, promises
# no bound and reaches about 1e-2 at 1 kHz.  See ROADMAP item 13.
TRANSFER_RABI_1Q_RAD_S = 2 * math.pi * 25.0
TRANSFER_RABI_2Q_RAD_S = 2 * math.pi * 100.0


def parse_circuit(text: str):
    """Parse the line-oriented circuit format into gate tuples.

    The first MEAS starts the measurement stage, which parks every atom
    in 3P2: only MEAS of a site not yet measured may follow it."""
    ops, measured = [], set()
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        try:
            if tok[0] == "X" and len(tok) == 4:
                theta = float(tok[3]) + 0.0     # -0.0 becomes +0.0
                if not 0 <= theta < math.inf:
                    raise ValueError("rotation angle must be finite and >= 0")
                ops.append(("X", (int(tok[1]), int(tok[2]), 0), theta))
            elif tok[0] == "CNOT" and len(tok) == 5:
                ops.append(("CNOT", (int(tok[1]), int(tok[2]), 0),
                            (int(tok[3]), int(tok[4]), 0)))
            elif tok[0] == "MEAS" and len(tok) == 3:
                site = (int(tok[1]), int(tok[2]), 0)
                if site in measured:
                    raise ValueError(f"site {site[:2]} is already measured")
                measured.add(site)
                ops.append(("MEAS", site))
            else:
                raise ValueError("unrecognized gate")
            if measured and ops[-1][0] != "MEAS":
                raise ValueError("gate after the first MEAS: the "
                                 "measurement stage parks every atom in 3P2")
        except ValueError as exc:
            raise ConfigError(f"circuit line {ln}: {raw!r}: {exc}") from exc
    return ops


def compile_circuit(circuit_text: str, geom: LatticeGeometry,
                    params: AtomParams, config: GradientConfig,
                    noise: NoiseParams) -> PulseSchedule:
    """The circuit's pulse schedule under `config`, for `params`, `geom`.

    Supported gates: single-qubit rotations about x, adjacent-site CNOT,
    and measurement (no routing).  Circuit sites that share one local
    field cannot be told apart: PlanningError.
    """
    circuit = parse_circuit(circuit_text)
    sites = tuple(sorted({s for op in circuit for s in op[1:]
                          if isinstance(s, tuple)}))
    outside = [s for s in sites if not geom.contains(s)]
    if outside:
        raise ConfigError(f"circuit site {outside[0][:2]} outside the "
                          f"{geom.n_x}x{geom.n_y} lattice")
    shared = nearest_fields(site_fields(geom, config, sites), sites)[1]
    if shared:
        raise PlanningError(f"circuit sites {shared[0][:2]} and "
                            f"{shared[1][:2]} share one local field")
    levels = dict(zip(sites, site_levels(params, geom, sites, config)))
    flat = replace(config, Gx_t_per_m=0.0, Gy_t_per_m=0.0, Gz_t_per_m=0.0)

    segments = []
    in_metastable: set = set()
    for op in circuit:
        n_meta = float(len(in_metastable))
        if op[0] == "X":
            _, site, theta = op
            gate = rotation_pulse(params, levels[site].field_t, site, theta,
                                  n_meta + 1.0)
            leg = transfer_pulse(("site", site), TRANSFER_RABI_1Q_RAD_S,
                                 n_meta + 0.5)
            pulses = (leg, gate, leg)
        elif op[0] == "CNOT":
            _, control, target = op
            flip = cnot_pulse(geom, control, target, levels[control],
                              levels[target], n_meta + 2.0)
            control_leg = transfer_pulse(("site", control),
                                         TRANSFER_RABI_2Q_RAD_S, n_meta + 0.5)
            target_leg = transfer_pulse(("site", target),
                                        TRANSFER_RABI_2Q_RAD_S, n_meta + 1.5)
            pulses = (control_leg, target_leg, flip, target_leg, control_leg)
        else:                   # MEAS
            _, site = op
            if not in_metastable:
                # measurement stage entry: move every qubit to 3P2 with the
                # gradients off, then return selected states one by one
                segments.append(PulseSegment(flat, transfer_pulse(
                    ("all",), TRANSFER_RABI_2Q_RAD_S, 0.5 * len(sites))))
                in_metastable.update(sites)
            pulses = (Pulse("measure", noise.detection_time_s,
                            target=("site", site),
                            metastable_weight=len(in_metastable) - 0.5),)
        segments.extend(PulseSegment(config, p) for p in pulses)
    return PulseSchedule(tuple(segments), sites, params, geom)


@dataclass
class ExecutionResult:
    register: RegisterState
    readouts: list      # (site, bit, probability_one) in measurement order
    detection: DetectionReport    # the loss of every readout of the run


def execute_schedule(reg: RegisterState, schedule: PulseSchedule,
                     noise: NoiseParams, rng_seed=None,
                     dipole_scale: float = 1.0) -> ExecutionResult:
    """Run `schedule` on the 6^n amplitudes `reg` of its n sites as one
    `engine.Run`, made here and dropped with the call; a MEAS reads the
    atom at its site's position in `schedule.sites`.  `noise` and
    `dipole_scale` are fixed for the run, so a segment alone fixes its
    propagators: the run keeps the stacks of a segment that recurs (the
    transfer legs around every gate) from its first run to its last,
    keyed by its physics alone, not by `Pulse.metastable_weight`."""
    has_measure = any(s.pulse.transition == "measure"
                      for s in schedule.segments)
    if has_measure and rng_seed is None:
        raise ConfigError("schedule contains measurements: an rng seed is "
                          "required")
    if rng_seed is not None and rng_seed < 0:
        raise ConfigError(f"rng seed {rng_seed} is negative")
    if reg.amps.size != NLEV ** len(schedule.sites):
        raise ConfigError(f"register of {reg.amps.size} amplitudes does not "
                          f"fit the schedule's {len(schedule.sites)} sites")
    rng = np.random.default_rng(rng_seed) if has_measure else None
    run = Run(noise, dipole_scale, schedule)
    readouts = []
    for seg in schedule.segments:
        if seg.pulse.transition == "measure":
            site = seg.pulse.target[1]
            try:
                bit, reg, p1 = measure_qubit(reg, schedule.sites.index(site),
                                             rng)
            except PhysicsError as exc:
                raise type(exc)(f"readout at {site}: {exc}") from None
            readouts.append((site, bit, p1))
        else:
            reg = apply_segment(reg, seg, run)
    return ExecutionResult(reg, readouts, DetectionReport.from_noise(noise))
