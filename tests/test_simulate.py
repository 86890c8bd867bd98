import numpy as np
import pytest
import scipy.linalg as la
from conftest import scalar_plant, scipy_phi_oracle

from lqg_codesign import (
    ClosedLoop,
    GainPair,
    Placement,
    Plant,
    SimConfig,
    SimulationDiverged,
    estimate_eta,
    gain_pair,
    phi,
    simulate_path,
)
from lqg_codesign import simulate
from lqg_codesign.simulate import _transition


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0, horizon_T=10.0, n_paths=1)
        with pytest.raises(ValueError):
            SimConfig(dt=0.01, horizon_T=10.0, n_paths=0)
        with pytest.raises(ValueError):
            SimConfig(dt=0.01, horizon_T=10.0, n_paths=4, burn_in=2.0)  # T < 10*burn
        with pytest.raises(ValueError):
            SimConfig(dt=0.01, horizon_T=10.0, n_paths=4, seed=-1)


class TestSimResult:
    @pytest.mark.parametrize(
        "stderr, z_score", [(0.5, 4.0), (0.0, None), (float("nan"), None)]
    )
    def test_z_score(self, stderr, z_score):
        result = simulate.SimResult(3.0, stderr, np.ones(2), phi_reference=1.0)
        assert result.z_score == z_score


class TestUncontrolledStationaryVariance:
    def test_matches_discrete_ou_oracle(self):
        # With u = 0 the sampled chain is x_{k+1} = e^{-dt} x_k + w_k with
        # Var w_k = (1 - e^{-2 dt})/2, whose stationary second moment is
        # exactly 1/2, the continuous-time value.
        plant, placement = scalar_plant(0.0, 0.0)
        cfg = SimConfig(dt=0.01, horizon_T=200.0, n_paths=48, burn_in=20.0, seed=11)
        result = estimate_eta(plant, placement, cfg)
        assert abs(result.eta_hat - 0.5) < 4.0 * result.stderr
        assert result.phi_reference == pytest.approx(0.5, abs=1e-12)

    def test_unbiased_at_every_dt(self):
        # Euler-Maruyama's stationary moment 1/(2 - dt) is 0.667 at dt = 0.5;
        # the exact transition keeps 1/2 at every sampling interval.
        plant, placement = scalar_plant(0.0, 0.0)
        for dt in (0.05, 0.025, 0.5):
            cfg = SimConfig(dt=dt, horizon_T=400.0, n_paths=64, burn_in=20.0, seed=19)
            result = estimate_eta(plant, placement, cfg)
            assert abs(result.eta_hat - 0.5) < 4.0 * result.stderr, dt
        assert abs(result.eta_hat - 1.0 / (2.0 - 0.5)) > 4.0 * result.stderr


class TestScalarClosedLoop:
    def test_concentrates_near_phi(self):
        plant, placement = scalar_plant(3.0, 3.0)
        cfg = SimConfig(dt=1e-3, horizon_T=60.0, n_paths=24, burn_in=6.0, seed=2)
        result = estimate_eta(plant, placement, cfg)
        assert abs(result.eta_hat - 4.0 / 9.0) < 3.0 * result.stderr + 0.01
        assert result.phi_reference == pytest.approx(4.0 / 9.0, abs=1e-12)


class TestDeterminism:
    def test_identical_config_identical_result(self):
        plant, placement = scalar_plant(1.0, 1.0)
        cfg = SimConfig(dt=1e-2, horizon_T=30.0, n_paths=8, burn_in=3.0, seed=5)
        r1 = estimate_eta(plant, placement, cfg)
        r2 = estimate_eta(plant, placement, cfg)
        assert r1.eta_hat == r2.eta_hat
        assert np.array_equal(r1.per_path, r2.per_path)

    def test_path_streams_indexed_by_path(self):
        plant, placement = scalar_plant(1.0, 1.0)
        gains = gain_pair(plant, placement)
        cfg = SimConfig(dt=1e-2, horizon_T=30.0, n_paths=8, burn_in=3.0, seed=5)
        v0 = simulate_path(plant, placement, gains, cfg, 3)
        v1 = simulate_path(plant, placement, gains, cfg, 3)
        v2 = simulate_path(plant, placement, gains, cfg, 4)
        assert v0 == v1
        assert v0 != v2
        # single-path values agree with the batched estimate
        batch = estimate_eta(plant, placement, cfg)
        assert batch.per_path[3] == v0

    @pytest.mark.parametrize("n_paths", [1, 8])
    def test_chunk_length_does_not_change_bits(self, monkeypatch, n_paths):
        plant, placement = scalar_plant(1.0, 1.0)
        cfg = SimConfig(dt=1e-2, horizon_T=30.0, n_paths=n_paths, burn_in=3.0, seed=5)
        default = estimate_eta(plant, placement, cfg).per_path
        monkeypatch.setattr(simulate, "_CHUNK_STEPS", 333)
        assert np.array_equal(estimate_eta(plant, placement, cfg).per_path, default)


def _uncontrolled(a):
    """The scalar plant dx = a x dt + dw with zero gains: both closed loops
    are A itself, unstable for a > 0."""
    plant = Plant(np.array([[a]]), 0.0, 0.0)
    placement = Placement(np.array([1.0]), np.array([1.0]))
    loop = ClosedLoop(plant.A)
    gains = GainPair(
        K_tilde=np.zeros((1, 1)),
        Sigma_tilde=np.zeros((1, 1)),
        residual_K=0.0,
        residual_Sigma=0.0,
        loop_K=loop,
        loop_Sigma=loop,
    )
    return plant, placement, gains


class TestEdgeCases:
    def test_single_path_stderr_flagged(self):
        plant, placement = scalar_plant(0.5, 0.5)
        cfg = SimConfig(dt=1e-2, horizon_T=20.0, n_paths=1, burn_in=2.0, seed=3)
        result = estimate_eta(plant, placement, cfg)
        assert np.isnan(result.stderr)
        assert any("stderr" in f for f in result.flags)

    @staticmethod
    def _with_diverged_paths(monkeypatch, dropped):
        """Run ``estimate_eta`` on 32 paths of which ``dropped`` diverge."""
        values = np.linspace(1.0, 2.0, 32)
        values[dropped] = np.nan
        monkeypatch.setattr(simulate, "_run_paths", lambda *args: values.copy())
        plant, placement = scalar_plant(0.5, 0.5)
        cfg = SimConfig(dt=1e-2, horizon_T=20.0, n_paths=32, burn_in=2.0, seed=3)
        return values, estimate_eta(plant, placement, cfg)

    def test_diverged_paths_within_budget_are_dropped(self, monkeypatch):
        # 3 of 32 is within the 10% budget: the mean is over the other 29.
        values, result = self._with_diverged_paths(monkeypatch, [0, 7, 31])
        assert result.flags == ("dropped 3 diverged paths",)
        assert result.eta_hat == np.mean(np.delete(values, [0, 7, 31]))
        assert np.count_nonzero(np.isnan(result.per_path)) == 3

    def test_diverged_paths_over_budget_raise(self, monkeypatch):
        with pytest.raises(SimulationDiverged, match="4 of 32 paths diverged"):
            self._with_diverged_paths(monkeypatch, [0, 7, 20, 31])

    def test_diverging_path_raises(self):
        # zero gains on an unstable plant: |x| crosses 1e8 well inside T
        plant, placement, gains = _uncontrolled(0.5)
        cfg = SimConfig(dt=0.01, horizon_T=60.0, n_paths=1, burn_in=0.0, seed=1)
        with pytest.raises(SimulationDiverged):
            simulate_path(plant, placement, gains, cfg, 0)

    def test_divergence_inside_the_last_partial_segment(self):
        # |x| first exceeds 1e8 after step k, inside a segment: a horizon of
        # k steps must raise, one of k - 1 must not, although the zero-noise
        # steps that pad that segment carry the state past 1e8.
        plant, placement, gains = _uncontrolled(5.0)
        Phi, L_d = _transition(plant, placement, gains, 0.01)
        rng = np.random.default_rng(np.random.SeedSequence([1, 0]))
        z = np.zeros(2)
        for k, w in enumerate(rng.standard_normal((1000, 2)), start=1):
            z = Phi @ z + L_d @ w
            if abs(z[0]) > 1e8:
                break
        seg = simulate._segment_length(2)
        assert k > seg and k % seg not in (0, 1)

        def run(steps):
            cfg = SimConfig(dt=0.01, horizon_T=steps * 0.01, n_paths=1, seed=1)
            return simulate_path(plant, placement, gains, cfg, 0)

        with pytest.raises(SimulationDiverged):
            run(k)
        assert np.isfinite(run(k - 1))

    def test_coarse_step_stays_on_phi(self):
        # dt > 2/|lambda| made the Euler chain explode; the exact transition
        # of the stable closed loop neither diverges nor biases the mean.
        plant, placement = scalar_plant(0.0, 0.0)
        cfg = SimConfig(dt=2.5, horizon_T=500.0, n_paths=8, burn_in=0.0, seed=7)
        result = estimate_eta(plant, placement, cfg)
        assert not result.flags
        assert abs(result.eta_hat - 0.5) <= 4.0 * result.stderr


class TestPlacementRanking:
    def test_top_pair_beats_second_pair_with_significance(self):
        # paired comparison with common random numbers; the phi-gap is ~0.0049
        plant = Plant(np.diag([-1.0, -2.0]), 0.5, 0.5)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        cfg = SimConfig(dt=1e-3, horizon_T=60.0, n_paths=32, burn_in=6.0, seed=77)
        top = estimate_eta(plant, Placement(e1, e1), cfg)
        second = estimate_eta(plant, Placement(e2, e2), cfg)
        assert phi(plant, Placement(e1, e1)) < phi(plant, Placement(e2, e2))
        diff = second.per_path - top.per_path
        stderr_diff = np.std(diff, ddof=1) / np.sqrt(diff.size)
        assert diff.mean() > 3.0 * stderr_diff


class TestCrossModuleAgreement:
    def test_two_dim_minimum_matches_analytic_value(self):
        from lqg_codesign import Spectrum, analytic_minimum

        plant = Plant(np.diag([-1.0, -2.0]), 0.01, 0.01)
        spectrum = Spectrum.from_matrix(plant.A)
        placement = Placement(spectrum.eigenvector(0), spectrum.eigenvector(0))
        cfg = SimConfig(dt=1e-3, horizon_T=80.0, n_paths=24, burn_in=8.0, seed=6)
        result = estimate_eta(plant, placement, cfg)
        target = analytic_minimum(spectrum, 0.01, 0.01)
        assert result.phi_reference == pytest.approx(target, rel=1e-9)
        assert abs(result.eta_hat - target) < 3.0 * result.stderr + 0.01


def _closed_loop(A, b, c, K, Sigma):
    """Generator G, noise map L and control row kb of the closed loop
    dz = G z dt + L (dw, dnu) on z = (x, xhat), u = -kb . xhat."""
    n = A.shape[0]
    kb = K @ b
    sc = Sigma @ c
    G = np.block(
        [
            [A, -np.outer(b, kb)],
            [np.outer(sc, c), A - np.outer(b, kb) - np.outer(sc, c)],
        ]
    )
    L = np.block([[np.eye(n), np.zeros((n, 1))], [np.zeros((n, n)), sc[:, None]]])
    return G, L, kb


def _reference_averages(Phi, L_d, kb, cfg, path_indices):
    """The exact step, x and xhat stepped in separate lines, one path at a time."""
    n = Phi.shape[0] // 2
    dt = cfg.dt
    n_steps = int(round(cfg.horizon_T / dt))
    burn_steps = int(round(cfg.burn_in / dt))
    averages = []
    for idx in path_indices:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, idx]))
        draws = rng.standard_normal((n_steps, 2 * n))
        x = np.zeros(n)
        xhat = np.zeros(n)
        acc = 0.0
        for k in range(n_steps):
            u = -(kb @ xhat)
            if k >= burn_steps:
                acc += (x @ x + u * u) * dt
            noise = L_d @ draws[k]
            x, xhat = (
                Phi[:n, :n] @ x + Phi[:n, n:] @ xhat + noise[:n],
                Phi[n:, :n] @ x + Phi[n:, n:] @ xhat + noise[n:],
            )
        averages.append(acc / ((n_steps - burn_steps) * dt))
    return np.array(averages)


NONSYM3 = np.array([[0.3, 0.4, 0.0], [0.2, -0.5, 0.3], [0.1, 0.0, -2.0]])


def _check_against_reference(plant, placement, gains, cfg):
    """Batch and single-path averages against ``_reference_averages``."""
    b = np.sqrt(plant.epsilon) * placement.b_unit
    kb = gains.K @ b
    Phi, L_d = _transition(plant, placement, gains, cfg.dt)
    reference = _reference_averages(Phi, L_d, kb, cfg, range(cfg.n_paths))
    batch = estimate_eta(plant, placement, cfg).per_path
    np.testing.assert_allclose(batch, reference, rtol=1e-12, atol=0.0)
    for idx in range(cfg.n_paths):
        single = simulate_path(plant, placement, gains, cfg, idx)
        assert single == pytest.approx(reference[idx], rel=1e-12, abs=0.0)


class TestSchemePinned:
    def test_matches_separate_state_reference(self):
        # Non-symmetric, open-loop unstable n = 3 plant; 5000 steps cross
        # chunk boundaries of the batched simulator.
        plant = Plant(NONSYM3, 0.5, 0.8)
        placement = Placement.normalized([1.0, 0.3, -0.2], [0.1, 1.0, 0.5])
        gains = gain_pair(plant, placement)
        cfg = SimConfig(dt=0.002, horizon_T=10.0, n_paths=3, burn_in=1.0, seed=3)
        b = np.sqrt(plant.epsilon) * placement.b_unit
        c = np.sqrt(plant.delta) * placement.c_unit
        G, L, _ = _closed_loop(plant.A, b, c, gains.K, gains.Sigma)

        Phi, L_d = _transition(plant, placement, gains, cfg.dt)
        np.testing.assert_allclose(Phi, la.expm(G * cfg.dt), rtol=0.0, atol=1e-13)
        P = la.solve_continuous_lyapunov(G, -L @ L.T)
        np.testing.assert_allclose(
            L_d @ L_d.T, P - Phi @ P @ Phi.T, rtol=0.0, atol=1e-12 * np.abs(P).max()
        )
        _check_against_reference(plant, placement, gains, cfg)

    def test_matches_reference_inside_one_segment(self):
        # 25 steps, all inside the first segment of the scan.
        plant = Plant(NONSYM3, 0.5, 0.8)
        placement = Placement.normalized([1.0, 0.3, -0.2], [0.1, 1.0, 0.5])
        gains = gain_pair(plant, placement)
        cfg = SimConfig(dt=0.002, horizon_T=0.05, n_paths=3, burn_in=0.002, seed=3)
        assert 25 < simulate._segment_length(6)
        _check_against_reference(plant, placement, gains, cfg)

    @pytest.mark.parametrize("dt", [0.1, 1.0])
    def test_stiff_coarse_step_keeps_its_covariance(self, dt):
        # |G| dt = 200 at dt = 1, where one Van Loan exponential over the
        # whole step gets the covariance wrong by a factor of 1e64.
        plant = Plant(np.diag([-1.0, -200.0]), 1.0, 1.0)
        placement = Placement.normalized([1.0, 1.0], [1.0, 1.0])
        gains = gain_pair(plant, placement)
        b, c = placement.b_unit, placement.c_unit
        G, L, _ = _closed_loop(plant.A, b, c, gains.K, gains.Sigma)
        Phi, L_d = _transition(plant, placement, gains, dt)
        np.testing.assert_allclose(Phi, la.expm(G * dt), rtol=0.0, atol=1e-13)
        P = la.solve_continuous_lyapunov(G, -L @ L.T)
        np.testing.assert_allclose(
            L_d @ L_d.T, P - Phi @ P @ Phi.T, rtol=0.0, atol=1e-12 * np.abs(P).max()
        )


class TestSegmentBits:
    # At 2n = 6 numpy's gemv and gemm round differently, so these pin that
    # every product of the scan has at least two rows, and that segments
    # are anchored at step 0 whatever the chunk length.
    @pytest.mark.parametrize("n_paths", [1, 4])
    @pytest.mark.parametrize(
        "steps, burn_steps",
        [(20, 1), (173, 10), (500, 45)],
        ids=["inside_one_segment", "partial_last_segment", "burn_in_mid_segment"],
    )
    def test_single_batch_and_chunking_agree(self, monkeypatch, n_paths, steps, burn_steps):
        seg = simulate._segment_length(6)
        assert steps % seg and burn_steps % seg
        plant = Plant(NONSYM3, 0.5, 0.8)
        placement = Placement.normalized([1.0, 0.3, -0.2], [0.1, 1.0, 0.5])
        gains = gain_pair(plant, placement)
        cfg = SimConfig(
            dt=0.01, horizon_T=steps * 0.01, n_paths=n_paths, burn_in=burn_steps * 0.01, seed=9
        )
        default = estimate_eta(plant, placement, cfg).per_path
        for idx in range(n_paths):
            assert simulate_path(plant, placement, gains, cfg, idx) == default[idx]
        for chunk in (333, seg // 4):
            monkeypatch.setattr(simulate, "_CHUNK_STEPS", chunk)
            assert np.array_equal(estimate_eta(plant, placement, cfg).per_path, default)


MONTECARLO = (
    np.diag([-1.0, -2.0, -3.0]),
    Placement.normalized([1.0, 1.0, 1.0], [1.0, 0.5, 0.25]),
)


class TestTraceFormula:
    @pytest.mark.parametrize(
        "A, placement",
        [
            MONTECARLO,
            (NONSYM3, Placement.normalized([1.0, 0.3, -0.2], [0.1, 1.0, 0.5])),
        ],
        ids=["montecarlo", "nonsymmetric3"],
    )
    def test_phi_is_stationary_cost_of_closed_loop(self, A, placement):
        # phi = tr(Q_z P) with Q_z = diag(I, kb kb^T) and P the stationary
        # covariance of the augmented closed loop, built from scipy's CARE.
        eps, delta = 1.0, 1.0
        n = A.shape[0]
        b = np.sqrt(eps) * placement.b_unit
        c = np.sqrt(delta) * placement.c_unit
        K = la.solve_continuous_are(A, b[:, None], np.eye(n), np.eye(1))
        Sigma = la.solve_continuous_are(A.T, c[:, None], np.eye(n), np.eye(1))
        G, L, kb = _closed_loop(A, b, c, K, Sigma)
        P = la.solve_continuous_lyapunov(G, -L @ L.T)
        stationary = np.trace(la.block_diag(np.eye(n), np.outer(kb, kb)) @ P)
        assert phi(Plant(A, eps, delta), placement) == pytest.approx(
            stationary, rel=1e-10
        )


class TestCoarseSampling:
    def test_montecarlo_problem_at_dt_0_05(self):
        # Sampling every 0.05 leaves the mean on phi: Euler-Maruyama's bias
        # at this dt put 9 of these 40 runs outside |z| <= 4.
        A, placement = MONTECARLO
        plant = Plant(A, 1.0, 1.0)
        target = scipy_phi_oracle(A, 1.0, 1.0, placement.b_unit, placement.c_unit)[0]
        z_scores = []
        for seed in range(60, 100):
            cfg = SimConfig(
                dt=0.05, horizon_T=100.0, n_paths=32, burn_in=10.0, seed=seed
            )
            result = estimate_eta(plant, placement, cfg)
            z_scores.append((result.eta_hat - target) / result.stderr)
        assert max(np.abs(z_scores)) <= 4.0
        assert abs(np.mean(z_scores)) < 0.5
