import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqpde.metrics import (MetricsReport, NRMSEUndefinedError, accuracy,
                           build_report, fidelity, rmse, rmse_and_normalized)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestAccuracy:
    def test_exact_prediction(self):
        acc, rel = accuracy(-0.5, -0.5)
        assert acc == 100.0 and rel == 0.0

    def test_known_value(self):
        acc, rel = accuracy(-1.0, -0.9)
        assert rel == pytest.approx(0.1)
        assert acc == pytest.approx(90.0)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            accuracy(0.0, 1.0)

    @given(finite.filter(lambda t: abs(t) > 1e-6), finite)
    @settings(max_examples=50)
    def test_scale_invariance(self, target, predicted):
        _, rel = accuracy(target, predicted)
        _, rel2 = accuracy(3.0 * target, 3.0 * predicted)
        assert rel2 == pytest.approx(rel, rel=1e-9, abs=1e-12)


class TestRmse:
    def test_zero_for_identical(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_computed(self):
        # errors (1, -1): sqrt(mean([1, 1])) = 1
        assert rmse([2.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])

    def test_normalized_by_reference_range(self):
        err, nerr = rmse_and_normalized([0.5, 2.5], [0.0, 2.0])
        assert err == pytest.approx(0.5)
        assert nerr == pytest.approx(25.0)

    def test_constant_reference_rejected(self):
        with pytest.raises(NRMSEUndefinedError):
            rmse_and_normalized([1.0, 2.0], [3.0, 3.0])

    @given(st.lists(finite, min_size=2, max_size=12))
    @settings(max_examples=50)
    def test_nonnegative_and_bounded_by_max_error(self, ref):
        pred = [v + 0.25 for v in ref]
        assert rmse(pred, ref) == pytest.approx(0.25)


class TestFidelity:
    def test_identical_direction(self):
        assert fidelity([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.0)

    def test_sign_insensitive(self):
        assert fidelity([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert fidelity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            fidelity([0.0, 0.0], [1.0, 0.0])

    @given(st.lists(finite, min_size=2, max_size=8),
           st.lists(finite, min_size=2, max_size=8))
    @settings(max_examples=50)
    def test_bounded_unit_interval(self, a, b):
        m = min(len(a), len(b))
        a, b = np.array(a[:m]), np.array(b[:m])
        if np.linalg.norm(a) < 1e-12 or np.linalg.norm(b) < 1e-12:
            return
        f = fidelity(a, b)
        assert -1e-9 <= f <= 1.0 + 1e-9


class TestBuildReport:
    def test_perfect_prediction(self):
        ref_d = np.array([0.0, 0.1, 0.3])
        ref_r = np.array([0.0, 0.05, 0.02])
        state = np.array([0.0, 0.0, 0.1, 0.05, 0.3, 0.02])
        report = build_report(
            target_energy=-0.5, predicted_energy=-0.5,
            loss_history=[-0.5, -0.5], deflection_pred=ref_d,
            deflection_ref=ref_d, rotation_pred=ref_r, rotation_ref=ref_r,
            state_pred=state, state_ref=state)
        assert isinstance(report, MetricsReport)
        assert report.accuracy_pct == 100.0
        assert report.rmse_objective == 0.0
        assert report.rmse_deflection == 0.0
        assert report.fidelity == pytest.approx(1.0)

    def test_objective_rmse_is_history_vs_target_line(self):
        report = build_report(
            target_energy=-1.0, predicted_energy=-0.9,
            loss_history=[-0.5, -0.7, -0.9],
            deflection_pred=[0.0, 1.0], deflection_ref=[0.0, 1.0],
            rotation_pred=[0.0, 0.5], rotation_ref=[0.0, 0.5],
            state_pred=[0.0, 0.0, 1.0, 0.5], state_ref=[0.0, 0.0, 1.0, 0.5])
        expected = np.sqrt(np.mean((np.array([-0.5, -0.7, -0.9]) + 1.0) ** 2))
        assert report.rmse_objective == pytest.approx(expected)

    def test_empty_history_has_no_objective_rmse(self, recwarn):
        report = build_report(
            target_energy=-1.0, predicted_energy=-0.9, loss_history=[],
            deflection_pred=[0.0, 1.0], deflection_ref=[0.0, 1.0],
            rotation_pred=[0.0, 0.5], rotation_ref=[0.0, 0.5],
            state_pred=[0.0, 0.0, 1.0, 0.5], state_ref=[0.0, 0.0, 1.0, 0.5])
        assert report.rmse_objective is None
        assert len(recwarn) == 0

    def test_to_dict_round_trip(self):
        report = build_report(
            target_energy=-1.0, predicted_energy=-0.95,
            loss_history=[-0.95],
            deflection_pred=[0.0, 1.1], deflection_ref=[0.0, 1.0],
            rotation_pred=[0.0, 0.4], rotation_ref=[0.0, 0.5],
            state_pred=[0.0, 0.0, 1.1, 0.4], state_ref=[0.0, 0.0, 1.0, 0.5])
        d = report.to_dict()
        assert set(d) == {
            "accuracy_pct", "relative_error", "rmse_objective",
            "rmse_deflection", "rmse_rotation", "nrmse_deflection_pct",
            "nrmse_rotation_pct", "fidelity"}
        assert d["relative_error"] == pytest.approx(0.05)
