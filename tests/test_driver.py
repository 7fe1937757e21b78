import dataclasses
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_acceptance import _richardson_gradient

from vqpde import driver, lsbt, simulator
from vqpde.driver import (ConvergenceRecord, DegenerateStateError,
                          NearSingularEnergyError, OptimizerOptions,
                          build_context, evaluate_loss, evaluate_loss_dense,
                          extract_profile, gradient, optimize)
from vqpde.fem import (BcSpec, BeamProblem, BoundaryCase, LoadSpec,
                       SingularSystemError)
from vqpde.simulator import prepare_ansatz
from vqpde.verify import quad_form_quantum


def make_problem(case=BoundaryCase.CANTILEVER, n=3, **kw):
    defaults = dict(length=1.0, youngs_modulus=1.0, second_moment=1.0)
    defaults.update(kw)
    return BeamProblem(num_qubits=n, boundary_case=case, **defaults)


@pytest.fixture(scope="module")
def ctx3():
    return build_context(make_problem(), reps=2)


class TestBuildContext:
    @pytest.mark.parametrize("case", list(BoundaryCase))
    def test_target_energy_matches_direct_solve(self, case):
        ctx = build_context(make_problem(case), reps=2)
        u = np.linalg.solve(ctx.K_mod.toarray(), ctx.load.vector)
        expected = -0.5 * float(ctx.load.vector @ u)
        assert ctx.target_energy == pytest.approx(expected, rel=1e-10)

    def test_three_metre_beam_builds(self):
        ctx = build_context(make_problem(n=6, length=3.0,
                                         youngs_modulus=1000.0), reps=1)
        assert len(ctx.structured.terms) == 18 and ctx.target_energy < 0

    # Constraints that leave a rigid-body mode free: translation for every
    # case, and rotation about the one held deflection on an open chain.
    @pytest.mark.parametrize("case,dofs", [
        (BoundaryCase.PBC, ()), (BoundaryCase.PBC, (1,)),
        (BoundaryCase.SSB, ()), (BoundaryCase.SSB, (0,)),
        (BoundaryCase.CANTILEVER, (2,)),
    ])
    def test_singular_constraints_rejected(self, case, dofs):
        for n in range(3, 11):
            for length in (1.0, 3.0, 10.0):
                problem = make_problem(case, n, length=length,
                                       youngs_modulus=1000.0,
                                       supports=BcSpec(dofs))
                with pytest.raises(SingularSystemError):
                    build_context(problem, reps=0)

    def test_supported_constraints_accepted(self):
        for n in range(4, 14):
            for case in BoundaryCase:
                build_context(make_problem(case, n, length=10.0), reps=0)
            build_context(make_problem(BoundaryCase.SSB, n, length=10.0,
                                       supports=BcSpec((3, 4, 5, 9))), reps=0)

    def test_constrained_dof_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            build_context(make_problem(BoundaryCase.SSB, 3,
                                       supports=BcSpec((3, 4, 5, 9))), reps=0)

    def test_raw_load_is_normalized_against_the_supports(self):
        """The context normalizes the problem's raw load against its own
        supports: a force on the clamped rotation is a reaction, so it
        neither loads the system nor moves the reference solution."""
        raw = np.zeros(16)
        raw[1], raw[14] = 5.0, 1.0
        ctx = build_context(make_problem(n=4, load=raw), reps=0)
        assert ctx.load.vector[1] == 0.0 and ctx.u_ref[1] == 0.0
        assert ctx.load.vector[14] == 1.0 and ctx.load.scale == 1.0
        with pytest.raises(ValueError, match="16"):
            make_problem(n=4, load=np.ones(8))

    def test_load_is_normalized(self, ctx3):
        assert np.linalg.norm(ctx3.load.vector) == pytest.approx(1.0)

    def test_circuit_count_bookkeeping(self, ctx3):
        op = ctx3.structured
        assert ctx3.circuits_per_eval == len(op.terms) + len(op.bc_pairs) + 1

    def test_zero_load_rejected(self):
        with pytest.raises(ValueError):
            LoadSpec(np.zeros(8), 1.0)


class TestLoss:
    def test_circuit_and_dense_paths_agree(self, ctx3):
        rng = np.random.default_rng(0)
        for _ in range(5):
            theta = rng.uniform(-np.pi, np.pi, ctx3.n_params)
            a = evaluate_loss(theta, ctx3)
            b = evaluate_loss_dense(theta, ctx3)
            assert a.loss == pytest.approx(b.loss, abs=1e-10)
            assert a.quad == pytest.approx(b.quad, abs=1e-8)
            assert a.overlap == pytest.approx(b.overlap, abs=1e-10)
            assert a.c_star == pytest.approx(b.c_star, abs=1e-10)

    def test_quad_form_matches_matrix(self, ctx3):
        theta = np.full(ctx3.n_params, 0.4)
        phi = prepare_ansatz(ctx3.n_qubits, ctx3.reps, theta)
        direct = float(phi.real_vector() @ ctx3.K_mod @ phi.real_vector())
        assert quad_form_quantum(ctx3, phi) == pytest.approx(direct, abs=1e-8)

    def test_loss_at_reference_equals_target(self, ctx3):
        """At phi = u_ref/||u_ref|| the reduced loss hits the exact optimum."""
        phi = ctx3.u_ref / np.linalg.norm(ctx3.u_ref)
        quad = float(phi @ ctx3.K_mod @ phi)
        overlap = float(ctx3.load.vector @ phi)
        loss = -overlap ** 2 / (2.0 * quad)
        assert loss == pytest.approx(ctx3.target_energy, rel=1e-10)

    def test_loss_bounded_below_by_target(self, ctx3):
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta = rng.uniform(-np.pi, np.pi, ctx3.n_params)
            assert evaluate_loss_dense(theta, ctx3).loss >= \
                ctx3.target_energy - 1e-12

    def test_collapsed_quadratic_form_raises(self):
        import dataclasses
        ctx = build_context(make_problem(BoundaryCase.CANTILEVER), reps=0)
        # The constrained operator is positive definite, so the guards can only
        # trip on a degenerate system; both paths read the same K_mod.
        bad = dataclasses.replace(ctx, K_mod=0.0 * ctx.K_mod)
        for path in (evaluate_loss_dense, evaluate_loss, gradient):
            with pytest.raises(NearSingularEnergyError):
                path(np.zeros(3), bad)

    def test_loss_and_gradient_scale_as_inverse_stiffness(self):
        """States are unit vectors, so only the 1/EI scale of the loss moves
        with E; a flexible beam is as valid as a stiff one."""
        theta = np.random.default_rng(4).uniform(-np.pi, np.pi, 12)
        reads = {}
        for E in (1000.0, 1e-14):
            ctx = build_context(make_problem(BoundaryCase.SSB, 4, length=10.0,
                                             youngs_modulus=E), reps=2)
            reads[E] = (evaluate_loss(theta, ctx).loss, gradient(theta, ctx)[1])
        (loss_a, grad_a), (loss_b, grad_b) = reads[1000.0], reads[1e-14]
        assert loss_b * 1e-14 == pytest.approx(loss_a * 1000.0, rel=1e-12)
        np.testing.assert_allclose(grad_b * 1e-14, grad_a * 1000.0, rtol=1e-12)

    def test_gradient_is_one_forward_state(self, monkeypatch):
        """One engine call, one state per layer and no gate: the reverse
        sweep does the rest, with no batch of shifted rows. The breakdown it
        returns is the ``evaluate_loss`` read at the same point, and its
        state is the last layer's."""
        rows = []
        ansatz_states = simulator.ansatz_states

        def counted(factors):
            state = ansatz_states(factors)
            rows.append(state.shape)
            return state

        def forbidden(*args, **kwargs):
            raise AssertionError("gate-level path used by the gradient")

        ctx = build_context(make_problem(BoundaryCase.SSB, 5), reps=3)
        theta = np.linspace(-1.0, 1.0, ctx.n_params)
        monkeypatch.setattr(simulator, "ansatz_states", counted)
        monkeypatch.setattr(simulator, "apply_gate", forbidden)
        breakdown, _ = gradient(theta, ctx)
        assert rows == [(ctx.reps + 1, 2 ** ctx.n_qubits)]
        assert np.array_equal(breakdown.state, breakdown.states[-1])
        expected = evaluate_loss(theta, ctx)
        for field in dataclasses.fields(expected):
            a = getattr(breakdown, field.name)
            b = getattr(expected, field.name)
            if isinstance(a, np.ndarray):  # state, k_phi and states
                assert np.array_equal(a, b)
            elif isinstance(a, tuple):  # the layer factors
                assert len(a) == len(b) == 2
                assert all(np.array_equal(x, y) for x, y in zip(a, b))
            else:
                assert a == b
        assert breakdown == expected and hash(breakdown) == hash(expected)

    def test_gradient_builds_layer_factors_once(self, monkeypatch):
        """One ``gradient`` call builds the layer factors once: the forward
        state and the reverse sweep both run on the factors its read
        carries."""
        built, swept = [], []
        layer_factors = simulator.layer_factors
        ansatz_vjp = simulator.ansatz_vjp

        def counted(*args):
            built.append(layer_factors(*args))
            return built[-1]

        def sweep(factors, *args):
            swept.append(factors)
            return ansatz_vjp(factors, *args)

        ctx = build_context(make_problem(BoundaryCase.SSB, 5), reps=3)
        theta = np.linspace(-1.0, 1.0, ctx.n_params)
        monkeypatch.setattr(simulator, "layer_factors", counted)
        monkeypatch.setattr(simulator, "ansatz_vjp", sweep)
        breakdown, _ = gradient(theta, ctx)
        assert len(built) == 1 and len(swept) == 1
        assert breakdown.factors is built[0] and swept[0] is built[0]

    def test_gradient_against_coarse_differences(self, ctx3):
        theta = np.linspace(-1.0, 1.0, ctx3.n_params)
        _, g = gradient(theta, ctx3)
        h = 1e-5
        for k in [0, ctx3.n_params // 2, ctx3.n_params - 1]:
            step = np.zeros_like(theta)
            step[k] = h
            fd = (evaluate_loss_dense(theta + step, ctx3).loss
                  - evaluate_loss_dense(theta - step, ctx3).loss) / (2 * h)
            assert g[k] == pytest.approx(fd, rel=1e-3, abs=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 8), reps=st.integers(0, 4),
           case=st.sampled_from(list(BoundaryCase)),
           seed=st.integers(0, 2 ** 32 - 1))
    # A two-level oracle's O(h^4) truncation error was 6.7e-15 here, twice
    # the bound; the three-level oracle's error is 2.6e-17.
    @example(n=8, reps=0, case=BoundaryCase.PBC, seed=56320)
    def test_gradient_matches_richardson(self, n, reps, case, seed):
        # SSB/FFB at n = 2 as in the engine property below.
        assume(n > 2 or case in (BoundaryCase.CANTILEVER, BoundaryCase.PBC))
        rng = np.random.default_rng(seed)
        problem = make_problem(case, n)
        load = rng.normal(size=problem.num_dofs)
        ctx = build_context(dataclasses.replace(problem, load=load), reps)
        theta = rng.uniform(-np.pi, np.pi, ctx.n_params)
        oracle = _richardson_gradient(theta, ctx)
        err = np.max(np.abs(gradient(theta, ctx)[1] - oracle))
        assert err <= 1e-9 * np.max(np.abs(oracle))

    def test_one_forward_state_per_bfgs_point(self, monkeypatch):
        """Every BFGS objective call is one gradient, which reads the loss
        through one evaluate_loss and so prepares one trial state. BFGS calls
        back at its last evaluated point, whose read the history reuses. The
        end point is read no more, whether the descent ends there or at an
        earlier accepted point (a failed line search)."""
        calls = {"objective": 0, "loss": 0, "gradient": 0, "states": 0}
        moved_back = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        minimize = scipy.optimize.minimize

        def counted_minimize(fun, x0, *args, callback, **kwargs):
            seen = []

            def objective(th):
                seen.append(th.copy())
                return fun(th)

            def checked(intermediate_result):
                assert np.array_equal(intermediate_result.x, seen[-1])
                callback(intermediate_result)

            res = minimize(counted("objective", objective), x0, *args,
                           callback=checked, **kwargs)
            moved_back.append(not np.array_equal(res.x, seen[-1]))
            return res

        monkeypatch.setattr(scipy.optimize, "minimize", counted_minimize)
        monkeypatch.setattr(driver, "evaluate_loss",
                            counted("loss", driver.evaluate_loss))
        monkeypatch.setattr(driver, "gradient",
                            counted("gradient", driver.gradient))
        monkeypatch.setattr(simulator, "ansatz_states",
                            counted("states", simulator.ansatz_states))
        # grad_tol 0 leaves two ways out: max_iter, which ends both restarts
        # at their last evaluation after 20 iterations, and a failed line
        # search, which ends both within 2000 once float64 stops the descent.
        for max_iter, ends in ((20, [1, 1]), (2000, [2, 2])):
            calls.update(dict.fromkeys(calls, 0))
            moved_back.clear()
            record, _, _ = optimize(
                make_problem(),
                OptimizerOptions(seed=1, restarts=2, max_iter=max_iter,
                                 grad_tol=0.0),
                reps=2)
            assert [e["status"] for e in record.restarts] == ends
            assert moved_back == [status == 2 for status in ends]
            assert record.iterations >= 1 and calls["objective"] >= 1
            assert calls["gradient"] == calls["objective"]
            assert calls["states"] == calls["loss"] == calls["objective"]


class TestEngineOracle:
    """The real engine against the gate-level circuits and the dense K_mod."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 8), reps=st.integers(0, 4),
           case=st.sampled_from(list(BoundaryCase)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_engine_matches_circuits_and_dense(self, n, reps, case, seed):
        problem = make_problem(case, n)
        # SSB/FFB at n = 2 constrain the default load's DOF.
        assume(n > 2 or case in (BoundaryCase.CANTILEVER, BoundaryCase.PBC))
        ctx = build_context(problem, reps)
        theta = np.random.default_rng(seed).uniform(-np.pi, np.pi,
                                                    ctx.n_params)
        engine = evaluate_loss(theta, ctx)
        gates = simulator.ansatz_gates(n, reps, theta)
        phi = simulator.apply_circuit(simulator.Statevector.zero(n), gates)
        vec = phi.real_vector()
        for quad in (quad_form_quantum(ctx, phi), vec @ ctx.K_mod @ vec):
            assert engine.quad == pytest.approx(quad, rel=1e-9, abs=1e-9)
        overlap = simulator.overlap_term(
            simulator.superposition_state(ctx.load.vector, gates, n))
        assert engine.overlap == pytest.approx(overlap, abs=1e-9)
        assert engine.overlap == pytest.approx(ctx.load.vector @ vec, abs=1e-9)

    def test_optimize_never_applies_gates(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("gate-level path used in the hot path")

        for module, name in ((simulator, "apply_gate"),
                             (simulator, "apply_circuit"),
                             (simulator, "shift_circuit"),
                             (lsbt, "apply_sequence")):
            monkeypatch.setattr(module, name, forbidden)
        record, _, breakdown = optimize(
            make_problem(), OptimizerOptions(seed=0, restarts=2, max_iter=20),
            reps=2)
        assert record.iterations >= 1 and np.isfinite(breakdown.loss)

    def test_near_zero_overlap_start_descends(self):
        """At this start <f|phi> ~ 0 and L ~ 0. On the plain loss BFGS stopped
        here at nit 0; -log(-L) is scale-free, so it descends."""
        problem = BeamProblem(length=10.0, youngs_modulus=1000.0,
                              second_moment=1.0, num_qubits=10,
                              boundary_case=BoundaryCase.PBC)
        opts = OptimizerOptions(seed=430063189, restarts=1, max_iter=4,
                                grad_tol=0.0)
        ctx = build_context(problem, reps=5)
        start = np.random.default_rng(opts.seed).uniform(-np.pi, np.pi,
                                                         ctx.n_params)
        record, _, breakdown = optimize(problem, opts, ctx=ctx)
        assert record.iterations == 4
        assert record.restarts[0]["error"] is None
        assert breakdown.loss < evaluate_loss(start, ctx).loss

    def test_zero_overlap_start_fails_its_restart(self, monkeypatch):
        """At theta = 0 the state is |0>, and DOF 0 carries no load, so
        <f|phi> = 0 and L = 0, where f = -log(-L) is undefined. That restart
        fails with the reason, with no warning, and the others go on."""
        ctx = build_context(make_problem(), reps=2)
        opts = OptimizerOptions(seed=0, restarts=3, max_iter=20)
        descend, starts = driver._descend, []

        def first_at_zero(theta0, *args):
            starts.append(np.zeros_like(theta0) if not starts else theta0)
            return descend(starts[-1], *args)

        monkeypatch.setattr(driver, "_descend", first_at_zero)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateStateError):
                descend(np.zeros(ctx.n_params), ctx, opts)
            record, _, breakdown = optimize(make_problem(), opts, ctx=ctx)
        assert ctx.load.vector[0] == 0.0 and len(starts) == 3
        assert record.restarts[0] == {
            "loss": None, "nit": None, "nfev": None, "status": None,
            "message": None, "grad_norm": None,
            "error": "<f|phi> is zero, so -log(-L) is undefined"}
        assert [e["error"] for e in record.restarts[1:]] == [None, None]
        assert record.restart_index in (1, 2)
        assert record.iterations == 20 and breakdown.loss < 0.0


class TestExtractProfile:
    def test_reference_state_round_trip(self, ctx3):
        """Feeding the normalized classical solution reproduces it exactly."""
        phi = ctx3.u_ref / np.linalg.norm(ctx3.u_ref)
        quad = float(phi @ ctx3.K_mod @ phi)
        overlap = float(ctx3.load.vector @ phi)
        from vqpde.driver import LossBreakdown
        breakdown = LossBreakdown(quad, overlap, overlap / quad,
                                  -overlap ** 2 / (2 * quad), phi)
        profile = extract_profile(ctx3, breakdown)
        np.testing.assert_allclose(profile.state, ctx3.u_ref, atol=1e-10)
        np.testing.assert_allclose(profile.deflections, ctx3.u_ref[0::2],
                                   atol=1e-10)
        np.testing.assert_allclose(profile.rotations, ctx3.u_ref[1::2],
                                   atol=1e-10)

    def test_sign_gauge(self, ctx3):
        phi = ctx3.u_ref / np.linalg.norm(ctx3.u_ref)
        quad = float(phi @ ctx3.K_mod @ phi)
        overlap = float(ctx3.load.vector @ (-phi))
        from vqpde.driver import LossBreakdown
        breakdown = LossBreakdown(quad, overlap, overlap / quad,
                                  -overlap ** 2 / (2 * quad), -phi)
        profile = extract_profile(ctx3, breakdown)
        np.testing.assert_allclose(profile.state, ctx3.u_ref, atol=1e-10)


class TestOptimize:
    @pytest.mark.parametrize("case", list(BoundaryCase))
    def test_small_problem_converges(self, case):
        problem = make_problem(case)
        opts = OptimizerOptions(seed=0, restarts=3, max_iter=300)
        record, profile, breakdown = optimize(problem, opts, reps=3)
        ctx = build_context(problem, reps=3)
        rel = abs(breakdown.loss - ctx.target_energy) / abs(ctx.target_energy)
        assert rel <= 0.05
        assert isinstance(record, ConvergenceRecord)
        assert record.iterations >= 1
        assert len(record.restart_final_losses) == 3

    def test_deterministic_given_seed(self):
        problem = make_problem()
        opts = OptimizerOptions(seed=11, restarts=2, max_iter=60)
        rec1, prof1, bd1 = optimize(problem, opts, reps=2)
        rec2, prof2, bd2 = optimize(problem, opts, reps=2)
        np.testing.assert_array_equal(rec1.theta_final, rec2.theta_final)
        assert bd1.loss == bd2.loss
        np.testing.assert_array_equal(prof1.state, prof2.state)

    def test_different_seeds_differ(self):
        problem = make_problem()
        a = optimize(problem, OptimizerOptions(seed=1, restarts=1, max_iter=30),
                     reps=2)[0]
        b = optimize(problem, OptimizerOptions(seed=2, restarts=1, max_iter=30),
                     reps=2)[0]
        assert not np.array_equal(a.theta_final, b.theta_final)

    def test_restart_count_validated(self):
        with pytest.raises(ValueError):
            optimize(make_problem(), OptimizerOptions(restarts=0), reps=2)

    def test_history_is_monotone_enough(self):
        """BFGS with line search never ends above its own start."""
        problem = make_problem()
        record, _, bd = optimize(
            problem, OptimizerOptions(seed=5, restarts=1, max_iter=200), reps=2)
        assert bd.loss <= record.loss_history[0] + 1e-12

    def test_path_does_not_depend_on_stiffness(self):
        """L scales as 1/EI, so f = -log(-L) only shifts by log EI and its
        gradient grad L / |L| does not change: same path for any E."""
        runs = []
        for E in (1e-3, 1e3, 1e9):
            problem = make_problem(BoundaryCase.SSB, 5, length=10.0,
                                   youngs_modulus=E)
            runs.append(optimize(problem, OptimizerOptions(
                seed=0, restarts=1, max_iter=15), reps=5)[0])
        for record in runs[1:]:
            assert record.iterations == runs[0].iterations == 15
            assert record.function_evals == runs[0].function_evals
            np.testing.assert_allclose(record.theta_final,
                                       runs[0].theta_final, rtol=0, atol=1e-9)

    def test_default_grad_tol_descends_at_seven_qubits(self):
        """grad_tol bounds max |grad L| / |L|; as an absolute bound it ended
        this run at nit 0, where max |grad L| is 5e-10 and L is -2e-11."""
        problem = make_problem(BoundaryCase.SSB, 7, length=10.0,
                               youngs_modulus=1000.0)
        record, _, _ = optimize(problem, OptimizerOptions(
            seed=0, restarts=1, max_iter=20), reps=5)
        assert record.iterations == 20 and record.status == 1
        assert len(record.loss_history) == 20

    def test_restart_grad_norm_is_end_point_gradient(self, ctx3):
        """Each restart's grad_norm is max |grad L| / |L| at its end point:
        the last callback's value, whether the descent stops at max_iter
        (status 1) or on a failed line search (status 2), and the start's
        evaluation when nit is 0. The end point's breakdown is the read
        there."""
        theta0 = np.random.default_rng(1).uniform(-np.pi, np.pi,
                                                  ctx3.n_params)
        b, g = gradient(theta0, ctx3)
        run, (x, end, history, grad_history) = driver._descend(
            theta0, ctx3, OptimizerOptions(max_iter=0))
        assert run["nit"] == 0 and history == grad_history == []
        assert run["grad_norm"] == np.max(np.abs(g / b.loss))
        assert np.array_equal(x, theta0) and end == b
        # grad_tol 0: only max_iter or a failed line search ends the descent.
        for max_iter, status in ((20, 1), (2000, 2)):
            run, (x, end, history, grad_history) = driver._descend(
                theta0, ctx3, OptimizerOptions(max_iter=max_iter,
                                               grad_tol=0.0))
            assert run["status"] == status and run["nit"] >= 1
            assert run["grad_norm"] == grad_history[-1]
            assert run["loss"] == end.loss == history[-1]
            assert end == evaluate_loss(x, ctx3)
        record, _, _ = optimize(make_problem(), OptimizerOptions(
            seed=0, restarts=2, max_iter=20), reps=2, ctx=ctx3)
        chosen = record.restarts[record.restart_index]
        assert chosen["grad_norm"] == record.grad_norm_history[-1]
        assert (record.iterations, record.function_evals, record.status,
                record.message) == (chosen["nit"], chosen["nfev"],
                                    chosen["status"], chosen["message"])

    def test_arguments_must_match_context(self):
        """reps defaults to the context's, and to 5 without one. A problem
        or reps that disagrees with the context raises instead of being
        ignored; the problem carries its supports and load, so they are
        compared too."""
        ctx = build_context(make_problem(BoundaryCase.SSB, 4), reps=2)
        opts = OptimizerOptions(seed=0, restarts=1, max_iter=2)
        raw = np.zeros(16)
        raw[8] = 1.0
        for wrong in ({"problem": make_problem(BoundaryCase.CANTILEVER, 5)},
                      {"problem": dataclasses.replace(ctx.problem, load=raw)},
                      {"problem": dataclasses.replace(
                          ctx.problem, supports=BcSpec((0, 1, 14)))},
                      {"reps": 7}):
            kwargs = {"problem": ctx.problem, **wrong}
            with pytest.raises(ValueError, match="context"):
                optimize(kwargs.pop("problem"), opts, ctx=ctx, **kwargs)
        # An equal load held in a separate array matches.
        loaded = dataclasses.replace(ctx.problem, load=raw)
        copy = dataclasses.replace(ctx.problem, load=raw.copy())
        for problem, kwargs in ((ctx.problem, {"ctx": ctx, "reps": 2}),
                                (copy, {"ctx": build_context(loaded, 2)})):
            record, profile, _ = optimize(problem, opts, **kwargs)
            assert len(record.theta_final) == 12
            assert len(profile.deflections) == 8
        record, _, _ = optimize(make_problem(), opts)
        assert len(record.theta_final) == 3 * 6


def _same_as_scipy(fun_and_grad, x0, **options):
    """``driver._bfgs`` and scipy's BFGS from ``x0`` under ``options``, both
    through ``scipy.optimize.minimize``, agree bit for bit: the end point,
    its f, gradient and inverse Hessian, nit, nfev, status, message and the
    f of every iterate. Returns _bfgs's result."""
    runs = []
    for method, fun, kwargs in (
            ("BFGS", fun_and_grad, {"jac": True}),
            (driver._bfgs, lambda x: (*fun_and_grad(x), None), {})):
        funs = []

        def callback(intermediate_result):
            funs.append(intermediate_result.fun)

        runs.append((scipy.optimize.minimize(fun, x0, method=method,
                                             callback=callback,
                                             options=options, **kwargs),
                     funs))
    (ref, ref_funs), (res, funs) = runs
    np.testing.assert_array_equal(res.x, ref.x)
    np.testing.assert_array_equal(res.jac, ref.jac)
    np.testing.assert_array_equal(res.hess_inv, ref.hess_inv)
    assert (res.fun, res.nit, res.nfev, res.status, res.message) == (
        ref.fun, ref.nit, ref.nfev, ref.status, ref.message)
    assert funs == ref_funs and len(funs) == res.nit
    return res


def _beam_objective(ctx):
    """f = -log(-L) and its gradient, as ``driver._descend`` descends on."""
    def fun(th):
        b, g = gradient(th, ctx)
        return -np.log(-b.loss), g / -b.loss
    return fun


class TestBfgs:
    """The descent's own BFGS loop is scipy's BFGS bit for bit; scipy's
    ``minimize(method="BFGS", jac=True)`` is the oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("options,status", [
        ({"maxiter": 0}, 1),
        ({"maxiter": 3}, 1),
        ({"gtol": 1e-10}, 0),
        ({"gtol": 1e-10, "xrtol": 1e-2}, 0),  # stops on the step size
    ])
    def test_rosenbrock(self, seed, options, status):
        def rosen(x):
            return scipy.optimize.rosen(x), scipy.optimize.rosen_der(x)

        x0 = np.random.default_rng(seed).uniform(-2.0, 2.0, 6)
        assert _same_as_scipy(rosen, x0, **options).status == status

    @staticmethod
    def _count_fallbacks(monkeypatch) -> list[bool]:
        """One entry per wolfe2 fallback ``_bfgs`` runs: did it find a step.
        scipy's own BFGS calls its line searches directly, uncounted."""
        fallbacks = []
        line_search = scipy.optimize.line_search

        def counted(*args, **kwargs):
            ret = line_search(*args, **kwargs)
            fallbacks.append(ret[0] is not None)
            return ret

        monkeypatch.setattr(scipy.optimize, "line_search", counted)
        return fallbacks

    @pytest.mark.parametrize("objective,x0,options,status,fallbacks", [
        # x^102 / 102 from 10: the gradient 1e101 puts Moré-Thuente's first
        # step 1.01 / |g| under its amin 1e-100, so it fails; wolfe2's step
        # of that length moves x by 1.01 and meets the Wolfe conditions, and
        # the descent goes on to |x^101| <= gtol.
        ("power", [10.0], {"gtol": 1e-8, "maxiter": 2000}, 0, [True]),
        ("power", [10.0], {"gtol": 1e-8, "maxiter": 1}, 1, [True]),
        # 0.5 |x|^2 with the gradient -x: every step the gradient calls
        # downhill goes uphill, so both line searches fail at once.
        ("uphill", [1.0, -2.0, 0.5], {"gtol": 1e-8}, 2, [False]),
    ], ids=["fallback-then-converges", "fallback-then-max-iter",
            "failed-fallback"])
    def test_line_search_branch(self, monkeypatch, objective, x0, options,
                                status, fallbacks):
        """Each exit and both wolfe2 fallback outcomes, reached by an
        objective built for them rather than by a chosen start."""
        fun = {"power": lambda x: (np.sum(x ** 102) / 102, x ** 101),
               "uphill": lambda x: (0.5 * (x @ x), -x)}[objective]
        counted = self._count_fallbacks(monkeypatch)
        res = _same_as_scipy(fun, np.array(x0), **options)
        assert res.status == status and counted == fallbacks

    @pytest.mark.parametrize("case,n,reps,seed,max_iter,status", [
        (BoundaryCase.CANTILEVER, 3, 2, 2, 3000, None),
        (BoundaryCase.CANTILEVER, 4, 1, 3, 100, 1),
        (BoundaryCase.FFB, 3, 2, 0, 10, 1),
    ])
    def test_beam_objective(self, monkeypatch, case, n, reps, seed, max_iter,
                            status):
        """On the beam objective ``_bfgs`` is scipy's BFGS bit for bit, and
        ``_descend`` takes the same path: the same line searches, fallbacks
        included, iterates, nit, nfev and status. The long run ends on
        whichever branch its start's last bits lead to (status None: not
        asserted); the short ones stop at max_iter."""
        fallbacks = self._count_fallbacks(monkeypatch)
        ctx = build_context(make_problem(case, n, length=10.0,
                                         youngs_modulus=1000.0), reps)
        x0 = np.random.default_rng(seed).uniform(-np.pi, np.pi,
                                                 ctx.n_params)
        res = _same_as_scipy(_beam_objective(ctx), x0, gtol=1e-8,
                             maxiter=max_iter)
        assert status is None or res.status == status
        searches = fallbacks[:]
        fallbacks.clear()
        run, (x, end, history, _) = driver._descend(
            x0, ctx, OptimizerOptions(max_iter=max_iter))
        assert fallbacks == searches
        assert (run["nit"], run["nfev"], run["status"]) == (
            res.nit, res.nfev, res.status)
        np.testing.assert_array_equal(x, res.x)
        assert -np.log(-end.loss) == res.fun and len(history) == res.nit
