"""Variational quantum solver for FEM-discretized Euler-Bernoulli beams."""

from .fem import (BcSpec, BeamProblem, BoundaryCase, LoadSpec,
                  SingularSystemError, assemble, classical_solve,
                  element_stiffness, set_to_zero)
from .pauli_ops import (StructuredOperator, StructuredTerm, build_structured,
                        decompose_element, materialize, materialize_operator)
from .simulator import Statevector, prepare_ansatz, shift_circuit
from .lsbt import LsbtSequence, derive_sequence, expectation_kbc, expectation_kpq
from .driver import (LossBreakdown, OptimizerOptions, build_context,
                     evaluate_loss, gradient, optimize)
from .metrics import MetricsReport, accuracy, fidelity, rmse_and_normalized

__all__ = [
    "BcSpec", "BeamProblem", "BoundaryCase", "LoadSpec", "SingularSystemError",
    "assemble", "classical_solve",
    "element_stiffness", "set_to_zero",
    "StructuredOperator", "StructuredTerm", "build_structured",
    "decompose_element", "materialize", "materialize_operator",
    "Statevector", "prepare_ansatz", "shift_circuit",
    "LsbtSequence", "derive_sequence", "expectation_kbc", "expectation_kpq",
    "LossBreakdown", "OptimizerOptions", "build_context", "evaluate_loss",
    "gradient", "optimize",
    "MetricsReport", "accuracy", "fidelity", "rmse_and_normalized",
]

__version__ = "0.1.0"
