"""Self-contained verification oracles, runnable from the CLI.

Every check compares an independent dense/classical computation, or the
gate-level circuits, against the structured operator or the real engine that
the driver runs, and reports the largest observed error.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import driver, lsbt, simulator
from .fem import (BeamProblem, BoundaryCase, assemble, element_stiffness,
                  set_to_zero)
from .pauli_ops import (Prefix, build_structured, decompose_element,
                        materialize_operator, pair_matrix, pauli_matrix)
from .simulator import Statevector

PAPER_ELEMENT_COEFFS = {"II": 8.0, "IZ": 4.0, "XI": -5.0, "XZ": -7.0,
                        "YY": -6.0, "ZX": 6.0}


def _problem(case: BoundaryCase, n: int) -> BeamProblem:
    return BeamProblem(length=10.0, youngs_modulus=1000.0, second_moment=1.0,
                       num_qubits=n, boundary_case=case)


def quad_form_quantum(ctx: driver.ProblemContext, phi: Statevector) -> float:
    """<phi|K_mod|phi> from structured-term and pair-observable circuits."""
    shifted = simulator.shift_by_two(phi)
    total = 0.0
    for term in ctx.structured.terms:
        total += simulator.expectation_structured_term(phi, term, shifted)
    total += lsbt.expectation_kbc(phi, ctx.structured.bc_pairs)
    return total


def check_element_decomposition() -> dict:
    Ke = element_stiffness(1.0, 1.0, 1.0)
    coeffs = dict((label, c) for c, label in decompose_element(Ke))
    err = max(abs(coeffs[k] - v) for k, v in PAPER_ELEMENT_COEFFS.items())
    recon = sum(c * np.real(pauli_matrix(label))
                for label, c in coeffs.items())
    err = max(err, float(np.max(np.abs(recon - Ke))))
    return {"name": "element_decomposition", "passed": err <= 1e-10,
            "max_error": err}


def check_structured_vs_dense(flip_k2_sign: bool = False) -> dict:
    """The structured operator against the dense K_mod. ``flip_k2_sign`` is
    a negative control: it flips the sign of the wraparound correction's
    terms, so the check must fail."""
    worst = 0.0
    for case in BoundaryCase:
        for n in range(2, 6):
            prob = _problem(case, n)
            K_mod, K_bc = set_to_zero(assemble(prob), prob.bc())
            op = build_structured(prob, K_bc)
            if flip_k2_sign:
                op = dataclasses.replace(op, terms=tuple(
                    dataclasses.replace(t, sign=-t.sign)
                    if t.prefix is Prefix.ZERO_PROJECTOR else t
                    for t in op.terms))
            dense = materialize_operator(op)
            worst = max(worst, float(np.max(np.abs(dense - K_mod))))
    return {"name": "structured_vs_dense", "passed": worst <= 1e-10,
            "max_error": worst}


def check_lsbt_exhaustive() -> dict:
    worst = 0.0
    for n in range(2, 7):
        N = 2 ** n
        target = np.zeros((N, N))
        target[N - 2, N - 1] = target[N - 1, N - 2] = 1.0
        for p in range(N):
            for q in range(p + 1, N):
                seq = lsbt.derive_sequence(p, q, n)
                if len(seq) > 3 * n:
                    return {"name": "lsbt_exhaustive", "passed": False,
                            "max_error": float("inf")}
                T = lsbt.dense_transform(seq)
                got = T.T @ pair_matrix(p, q, 1.0, N) @ T
                worst = max(worst, float(np.max(np.abs(got - target))))
    return {"name": "lsbt_exhaustive", "passed": worst == 0.0,
            "max_error": worst}


def check_engine(n: int = 4, reps: int = 3, samples: int = 10,
                 seed: int = 1234) -> list[dict]:
    """The driver's engine loss vs the dense K_mod and vs the gate circuits.

    Each case carries a dense random load, so the overlap is also checked
    against the gate-built ancilla circuit for a general f. The circuit
    comparison of quad is relative: its terms reach 1e5 here.
    """
    rng = np.random.default_rng(seed)
    dense_err = circuit_err = 0.0
    for case in BoundaryCase:
        prob = _problem(case, n)
        load = rng.normal(size=prob.num_dofs)
        ctx = driver.build_context(dataclasses.replace(prob, load=load), reps)
        for _ in range(samples):
            theta = rng.uniform(-np.pi, np.pi, ctx.n_params)
            engine = driver.evaluate_loss(theta, ctx)
            dense = driver.evaluate_loss_dense(theta, ctx)
            dense_err = max(dense_err, abs(engine.quad - dense.quad),
                            abs(engine.overlap - dense.overlap),
                            abs(engine.loss - dense.loss))
            gates = simulator.ansatz_gates(n, reps, theta)
            phi = simulator.apply_circuit(Statevector.zero(n), gates)
            quad = quad_form_quantum(ctx, phi)
            overlap = simulator.overlap_term(
                simulator.superposition_state(ctx.load.vector, gates, n))
            circuit_err = max(circuit_err, abs(engine.quad - quad) / quad,
                              abs(engine.overlap - overlap))
    return [{"name": "loss_path_equivalence", "passed": dense_err <= 1e-9,
             "max_error": dense_err},
            {"name": "engine_vs_circuit", "passed": circuit_err <= 1e-10,
             "max_error": circuit_err}]


def check_energy_identity(n: int = 4, reps: int = 3) -> dict:
    """The loss at the normalized classical solution equals the target energy."""
    worst = 0.0
    for case in BoundaryCase:
        ctx = driver.build_context(_problem(case, n), reps)
        phi = ctx.u_ref / np.linalg.norm(ctx.u_ref)
        quad = float(phi @ ctx.K_mod @ phi)
        overlap = float(ctx.load.vector @ phi)
        loss = -overlap ** 2 / (2 * quad)
        worst = max(worst, abs(loss - ctx.target_energy)
                    / abs(ctx.target_energy))
    return {"name": "energy_identity", "passed": worst <= 1e-9,
            "max_error": worst}


def verify_oracles(flip_k2_sign: bool = False) -> dict:
    checks = [
        check_element_decomposition(),
        check_structured_vs_dense(flip_k2_sign=flip_k2_sign),
        check_lsbt_exhaustive(),
        *check_engine(),
        check_energy_identity(),
    ]
    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}
