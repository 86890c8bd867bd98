import numpy as np
import pytest
from conftest import scalar_plant

from lqg_codesign import (
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


class TestUncontrolledStationaryVariance:
    def test_matches_discrete_ou_oracle(self):
        # With u = 0 the Euler chain is x_{k+1} = (1 - dt) x_k + w_k, whose
        # stationary second moment is exactly 1/(2 - dt).
        plant, placement = scalar_plant(0.0, 0.0)
        dt = 0.01
        cfg = SimConfig(dt=dt, horizon_T=200.0, n_paths=48, burn_in=20.0, seed=11)
        result = estimate_eta(plant, placement, cfg)
        assert abs(result.eta_hat - 1.0 / (2.0 - dt)) < 4.0 * result.stderr
        # and the continuous-time value 1/2 within bias allowance
        assert abs(result.eta_hat - 0.5) < 4.0 * result.stderr + dt
        assert result.phi_reference == pytest.approx(0.5, abs=1e-12)

    def test_bias_shrinks_when_dt_halves(self):
        # First-order bias of the scalar no-control case is dt/(2(2 - dt)).
        plant, placement = scalar_plant(0.0, 0.0)
        results = {}
        for dt in (0.05, 0.025):
            cfg = SimConfig(dt=dt, horizon_T=400.0, n_paths=64, burn_in=20.0, seed=19)
            results[dt] = estimate_eta(plant, placement, cfg)
        predicted_bias = 0.05 / (2.0 * (2.0 - 0.05))
        assert abs(results[0.05].eta_hat - results[0.025].eta_hat) < 2.0 * predicted_bias


class TestScalarClosedLoop:
    def test_concentrates_near_phi(self):
        plant, placement = scalar_plant(3.0, 3.0)
        cfg = SimConfig(dt=1e-3, horizon_T=60.0, n_paths=24, burn_in=6.0, seed=2)
        result = estimate_eta(plant, placement, cfg)
        assert abs(result.eta_hat - 4.0 / 9.0) < 3.0 * result.stderr + 0.01
        assert result.phi_reference == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_zero_noise_hook_gives_zero_cost(self):
        plant, placement = scalar_plant(3.0, 3.0)
        gains = gain_pair(plant, placement)
        cfg = SimConfig(dt=1e-2, horizon_T=20.0, n_paths=4, burn_in=2.0, seed=0)
        assert simulate_path(plant, placement, gains, cfg, 0, noise_scale=0.0) == 0.0


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


class TestEdgeCases:
    def test_single_path_stderr_flagged(self):
        plant, placement = scalar_plant(0.5, 0.5)
        cfg = SimConfig(dt=1e-2, horizon_T=20.0, n_paths=1, burn_in=2.0, seed=3)
        result = estimate_eta(plant, placement, cfg)
        assert np.isnan(result.stderr)
        assert any("stderr" in f for f in result.flags)

    def test_diverging_path_raises(self):
        # zero gains on an unstable plant: |x| crosses 1e8 well inside T
        plant = Plant(np.array([[0.5]]), 0.0, 0.0)
        placement = Placement(np.array([1.0]), np.array([1.0]))
        gains = GainPair(
            K=np.zeros((1, 1)), Sigma=np.zeros((1, 1)), residual_K=0.0, residual_Sigma=0.0
        )
        cfg = SimConfig(dt=0.01, horizon_T=60.0, n_paths=1, burn_in=0.0, seed=1)
        with pytest.raises(SimulationDiverged):
            simulate_path(plant, placement, gains, cfg, 0)

    def test_unstable_discretization_fails_divergence_budget(self):
        # dt > 2/|lambda| makes the Euler chain explode even though the
        # continuous closed loop is stable
        plant, placement = scalar_plant(0.0, 0.0)
        cfg = SimConfig(dt=2.5, horizon_T=500.0, n_paths=8, burn_in=0.0, seed=7)
        with pytest.raises(SimulationDiverged):
            estimate_eta(plant, placement, cfg)


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


def _reference_averages(plant, placement, gains, cfg, path_indices):
    """Euler-Maruyama with x and xhat stepped in separate lines, one path at a time."""
    n = plant.n
    A = plant.A
    b = np.sqrt(plant.epsilon) * placement.b_unit
    c = np.sqrt(plant.delta) * placement.c_unit
    kb = gains.K @ b
    sc = gains.Sigma @ c
    dt = cfg.dt
    n_steps = int(round(cfg.horizon_T / dt))
    burn_steps = int(round(cfg.burn_in / dt))
    averages = []
    for idx in path_indices:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, idx]))
        draws = np.sqrt(dt) * rng.standard_normal((n_steps, n + 1))
        x = np.zeros(n)
        xhat = np.zeros(n)
        acc = 0.0
        for k in range(n_steps):
            u = -(kb @ xhat)
            if k >= burn_steps:
                acc += (x @ x + u * u) * dt
            dw, dnu = draws[k, :n], draws[k, n]
            innovation = (c @ x) * dt + dnu - (c @ xhat) * dt
            x = x + dt * (A @ x + b * u) + dw
            xhat = xhat + dt * (A @ xhat + b * u) + innovation * sc
        averages.append(acc / ((n_steps - burn_steps) * dt))
    return np.array(averages)


class TestSchemePinned:
    def test_matches_separate_state_reference(self):
        # Non-symmetric, open-loop unstable n = 3 plant; 5000 steps cross
        # one chunk boundary of the batched simulator.
        A = np.array([[0.3, 0.4, 0.0], [0.2, -0.5, 0.3], [0.1, 0.0, -2.0]])
        plant = Plant(A, 0.5, 0.8)
        placement = Placement.normalized([1.0, 0.3, -0.2], [0.1, 1.0, 0.5])
        gains = gain_pair(plant, placement)
        cfg = SimConfig(dt=0.002, horizon_T=10.0, n_paths=3, burn_in=1.0, seed=3)
        reference = _reference_averages(plant, placement, gains, cfg, range(3))
        batch = estimate_eta(plant, placement, cfg).per_path
        np.testing.assert_allclose(batch, reference, rtol=1e-12, atol=0.0)
        for idx in range(3):
            single = simulate_path(plant, placement, gains, cfg, idx)
            assert single == pytest.approx(reference[idx], rel=1e-12, abs=0.0)
