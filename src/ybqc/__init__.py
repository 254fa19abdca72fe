"""Feasibility calculator and pulse-level simulator for a
gradient-addressed 171Yb optical-lattice qubit register."""

from .atomic import (AtomParams, ThreePhotonDetunings, calibrate_hyperfine_A,
                     ladder_detunings, level_labels, register_levels,
                     register_table, zeeman_table)
from .addressing import (GradientConfig, LatticeGeometry, plan_gradients,
                         resonance_map, validate_gradients)
from .dipole import (auxiliary_qubit_moments, cnot_shift, ddi_coupling,
                     pair_coupling)
from .engine import (NoiseParams, Pulse, PulseSchedule, PulseSegment,
                     RegisterState, Run, apply_segment)
from .protocols import measure_qubit, three_photon_scan
from .compiler import compile_circuit, execute_schedule, parse_circuit
from .feasibility import (build_feasibility_report, decoherence_budget,
                          lattice_depth_report, pi_pulse_intensity,
                          scattering_rate)
from .scenario import (load_atom_params, load_scenario, run_scenario,
                       simulate_circuit)
from .errors import (ConfigError, GeometryError, IntegratorError,
                     PhysicsError, PlanningError, ProtocolOrderError,
                     ScenarioError)

__version__ = "0.1.0"
