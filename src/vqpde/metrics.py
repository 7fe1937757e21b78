"""Accuracy, RMSE, normalized RMSE and fidelity against the classical reference."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


class NRMSEUndefinedError(ValueError):
    """Reference vector is constant, so the normalization range vanishes."""


@dataclass(frozen=True)
class MetricsReport:
    accuracy_pct: float
    relative_error: float
    rmse_objective: float | None  # None when the loss history is empty
    rmse_deflection: float
    rmse_rotation: float
    nrmse_deflection_pct: float
    nrmse_rotation_pct: float
    fidelity: float

    def to_dict(self) -> dict:
        return asdict(self)


def accuracy(target: float, predicted: float) -> tuple[float, float]:
    """(accuracy %, relative error) of a predicted objective value."""
    if target == 0.0:
        raise ValueError("target objective must be nonzero")
    rel = abs(target - predicted) / abs(target)
    return 100.0 * (1.0 - rel), rel


def rmse(predicted, reference) -> float:
    predicted = np.asarray(predicted, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if predicted.shape != reference.shape:
        raise ValueError("vectors must have equal length")
    return float(np.sqrt(np.mean((predicted - reference) ** 2)))


def rmse_and_normalized(predicted, reference) -> tuple[float, float]:
    """RMSE and 100*RMSE/(max(ref)-min(ref))."""
    reference = np.asarray(reference, dtype=float)
    if reference.size < 2:
        raise ValueError("need at least two samples")
    err = rmse(predicted, reference)
    span = float(np.max(reference) - np.min(reference))
    if span == 0.0:
        raise NRMSEUndefinedError("reference range is zero")
    return err, 100.0 * err / span


def fidelity(a, b) -> float:
    """Squared overlap of the two vectors after unit normalization."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("fidelity of a zero vector is undefined")
    return float((a @ b) ** 2 / (na ** 2 * nb ** 2))


def build_report(target_energy: float, predicted_energy: float,
                 loss_history, deflection_pred, deflection_ref,
                 rotation_pred, rotation_ref,
                 state_pred, state_ref) -> MetricsReport:
    acc, rel = accuracy(target_energy, predicted_energy)
    # Objective RMSE: deviation of the convergence history from the target line.
    obj_rmse = (rmse(loss_history, np.full(len(loss_history), target_energy))
                if len(loss_history) else None)
    d_rmse, d_nrmse = rmse_and_normalized(deflection_pred, deflection_ref)
    r_rmse, r_nrmse = rmse_and_normalized(rotation_pred, rotation_ref)
    return MetricsReport(
        accuracy_pct=acc, relative_error=rel, rmse_objective=obj_rmse,
        rmse_deflection=d_rmse, rmse_rotation=r_rmse,
        nrmse_deflection_pct=d_nrmse, nrmse_rotation_pct=r_nrmse,
        fidelity=fidelity(state_pred, state_ref))
