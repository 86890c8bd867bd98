"""Monte Carlo validation of the time-averaged cost.

Simulates the closed-loop stochastic plant under the steady-state LQG law

    u = -b^T K xhat,      b = sqrt(epsilon) b_unit,  c = sqrt(delta) c_unit,
    dx    = A x dt + b u dt + dw,
    dy    = c^T x dt + dnu,
    dxhat = A xhat dt + b u dt + Sigma c (dy - c^T xhat dt),

by Euler-Maruyama with fixed dt (order 1.0 weak for this additive-noise
system) from x0 = xhat0 = 0, and averages (x^T x + u^2) over the window
after burn-in. Each path draws from its own RNG stream derived from
(seed, path_index), so results do not depend on scheduling or chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import phi
from .errors import SimulationDiverged
from .plant import Placement, Plant
from .riccati import GainPair, gain_pair

DIVERGENCE_LIMIT = 1e8
_CHUNK_STEPS = 4096


@dataclass(frozen=True)
class SimConfig:
    """Euler-Maruyama configuration.

    ``burn_in`` is simulated time discarded before averaging, with the
    sanity constraint horizon_T >= 10 * burn_in >= 0.
    """

    dt: float
    horizon_T: float
    n_paths: int
    burn_in: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not all(math.isfinite(t) for t in (self.dt, self.horizon_T, self.burn_in)):
            raise ValueError("dt, horizon_T and burn_in must be finite")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.burn_in < 0.0 or self.horizon_T < 10.0 * self.burn_in:
            raise ValueError("need horizon_T >= 10 * burn_in >= 0")
        if self.horizon_T <= self.dt:
            raise ValueError("horizon_T must exceed dt")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if int(self.seed) < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class SimResult:
    """Aggregated Monte Carlo estimate of the time-averaged cost."""

    eta_hat: float
    stderr: float
    per_path: np.ndarray
    phi_reference: float
    flags: tuple[str, ...] = ()


def _path_rngs(seed: int, path_indices) -> list[np.random.Generator]:
    return [
        np.random.default_rng(np.random.SeedSequence([int(seed), int(idx)]))
        for idx in path_indices
    ]


def _run_paths(
    plant: Plant,
    placement: Placement,
    gains: GainPair,
    cfg: SimConfig,
    path_indices,
    noise_scale: float = 1.0,
) -> np.ndarray:
    """Per-path time averages; diverged paths come back as NaN.

    Each row of Z is the augmented state z = (x, xhat), advanced by the
    Euler-Maruyama step z <- G z + L (dw, dnu) of the closed loop.
    """
    n = plant.n
    n_paths = len(path_indices)
    A = plant.A
    b = np.sqrt(plant.epsilon) * placement.b_unit
    c = np.sqrt(plant.delta) * placement.c_unit
    kb = gains.K @ b  # u = -(K b) . xhat
    sc = gains.Sigma @ c  # estimator injection direction

    dt = cfg.dt
    n_steps = int(round(cfg.horizon_T / dt))
    burn_steps = int(round(cfg.burn_in / dt))
    averaging_time = (n_steps - burn_steps) * dt

    regulator = np.outer(b, kb)
    injection = np.outer(sc, c)
    G = np.eye(2 * n) + dt * np.block(
        [[A, -regulator], [injection, A - regulator - injection]]
    )
    # (dw, dnu) -> (dw, sc dnu), scaled to increments over dt.
    L = noise_scale * np.sqrt(dt) * np.block(
        [[np.eye(n), np.zeros((n, 1))], [np.zeros((n, n)), sc[:, None]]]
    )
    G_T, L_T = G.T, L.T

    rngs = _path_rngs(cfg.seed, path_indices)
    Z = np.zeros((n_paths, 2 * n))
    acc = np.zeros(n_paths)
    alive = np.ones(n_paths, dtype=bool)

    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while done < n_steps:
            m = min(_CHUNK_STEPS, n_steps - done)
            # (m, n_paths, n + 1): step j's draws are one contiguous block.
            draws = np.stack(
                [rng.standard_normal((m, n + 1)) for rng in rngs], axis=1
            )
            for j in range(m):
                if done + j >= burn_steps:
                    X = Z[:, :n]
                    u = Z[:, n:] @ kb
                    acc += ((X * X).sum(axis=1) + u * u) * dt
                Z = Z @ G_T + draws[j] @ L_T
            done += m
            state_norm = np.linalg.norm(Z[:, :n], axis=1)
            alive &= np.isfinite(state_norm) & (state_norm <= DIVERGENCE_LIMIT)

    averages = acc / averaging_time
    averages[~alive] = np.nan
    return averages


def simulate_path(
    plant: Plant,
    placement: Placement,
    gains: GainPair,
    cfg: SimConfig,
    path_index: int,
    *,
    noise_scale: float = 1.0,
) -> float:
    """Time-averaged cost of one path, deterministic in (seed, path_index).

    ``noise_scale = 0`` is a validation hook that disables both noise
    sources, making the zero-initialized closed loop stay at the origin.

    Raises
    ------
    SimulationDiverged
        If |x| exceeds 1e8 (non-Hurwitz closed loop or dt too large).
    """
    value = _run_paths(plant, placement, gains, cfg, [path_index], noise_scale)[0]
    if np.isnan(value):
        raise SimulationDiverged(
            f"path {path_index} exceeded |x| = {DIVERGENCE_LIMIT:g}"
        )
    return float(value)


def estimate_eta(plant: Plant, placement: Placement, cfg: SimConfig) -> SimResult:
    """Monte Carlo estimate of the time-averaged cost over cfg.n_paths paths.

    Diverged paths are dropped from the average; more than 10% of them is an
    error. With a single path the standard error is undefined and reported
    as NaN with a flag.

    Raises
    ------
    SimulationDiverged
        If more than 10% of the paths diverge.
    """
    gains = gain_pair(plant, placement)
    per_path = _run_paths(plant, placement, gains, cfg, range(cfg.n_paths))
    diverged = int(np.count_nonzero(np.isnan(per_path)))
    if diverged > 0.1 * cfg.n_paths:
        raise SimulationDiverged(
            f"{diverged} of {cfg.n_paths} paths diverged (over the 10% budget)"
        )
    valid = per_path[~np.isnan(per_path)]
    flags = []
    if diverged:
        flags.append(f"dropped {diverged} diverged paths")
    eta_hat = float(np.mean(valid))
    if valid.size >= 2:
        stderr = float(np.std(valid, ddof=1) / np.sqrt(valid.size))
    else:
        stderr = float("nan")
        flags.append("stderr undefined for a single path")
    return SimResult(
        eta_hat=eta_hat,
        stderr=stderr,
        per_path=per_path,
        phi_reference=phi(plant, placement),
        flags=tuple(flags),
    )
