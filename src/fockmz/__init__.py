"""Exact simulator for post-selected multi-photon linear-optical interferometers."""

from .circuit import (BeamSplitter, Circuit, Mirror, PhaseShifter,
                      UnboundParameterError, check_unitary, compose)
from .dsl import DslError, ParseError, parse, serialize
from .engine import (ConditionalResult, DetectionPattern, ZeroProbabilityError,
                     condition, evolve_elementwise, evolve_full,
                     pattern_probability, permanent, permanent_naive,
                     permanent_ryser, run_circuit, transition_amplitude)
from .experiments import (CHSH_OPTIMAL_SETTINGS, PRESET_NAMES, FringeFit,
                          Outcome, Preset, ScanResult, build_fig1, build_fig2,
                          build_fig3, build_ifm, build_preset, build_sec4,
                          build_single, chsh, correlation_E, fit_fringe,
                          gated_rates, heralded_state, scan_phase,
                          which_path_check)
from .fock import (FockBasis, StateVector, basis_size, enumerate_basis,
                   state_from_sources)

__version__ = "0.1.0"
