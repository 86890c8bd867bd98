"""Monte Carlo validation of the time-averaged cost.

Simulates the closed-loop stochastic plant under the steady-state LQG law

    u = -b^T K xhat,      b = sqrt(epsilon) b_unit,  c = sqrt(delta) c_unit,
    dx    = A x dt + b u dt + dw,
    dy    = c^T x dt + dnu,
    dxhat = A xhat dt + b u dt + Sigma c (dy - c^T xhat dt),

from x0 = xhat0 = 0, sampled every dt by the exact transition of this
linear SDE (Van Loan, IEEE TAC 23(3), 1978), and averages (x^T x + u^2)
over the samples after burn-in, which is unbiased for phi in stationarity
at any dt. Each path draws from its own RNG stream derived from
(seed, path_index), so results do not depend on scheduling or chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

# ``phi`` is unused but stays importable: benchmark/tracer.py wraps it.
from .cost import phi, phi_from_gains  # noqa: F401
from .errors import SimulationDiverged
from .plant import Placement, Plant
from .riccati import GainPair, gain_pair

DIVERGENCE_LIMIT = 1e8
_CHUNK_STEPS = 1024  # peak memory: a few (steps, paths, 2n) arrays


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo configuration; ``dt`` is the sampling interval.

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


def _transition(
    plant: Plant, placement: Placement, gains: GainPair, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """(Phi, L_d) of the exact step z <- Phi z + L_d w, w ~ N(0, I), over dt.

    Phi = e^{G dt} and Q_d = L_d L_d^T = int_0^dt e^{Gs} L L^T e^{G^T s} ds
    come from the exponential of [[-G, L L^T], [0, G^T]] h (Van Loan), taken
    on h = dt / 2^k with |G| h <= 1 because e^{-G h} swamps Q_d once |G| h
    nears 30, then doubled k times: Q(2h) = Q(h) + Phi(h) Q(h) Phi(h)^T and
    Phi(2h) = Phi(h)^2. Q_d is singular when epsilon or delta is 0, so it is
    factored by eigh (roundoff negatives clipped), not Cholesky, and the
    factor is rotated onto the one nearest sqrt(dt) L (orthogonal
    Procrustes): draw i then feeds the same noise source at every placement,
    and common random numbers couple paired runs.
    """
    n = plant.n
    A = plant.A
    b = np.sqrt(plant.epsilon) * placement.b_unit
    c = np.sqrt(plant.delta) * placement.c_unit
    sc = gains.Sigma @ c  # estimator injection direction
    regulator = np.outer(b, gains.K @ b)  # u = -(K b) . xhat
    injection = np.outer(sc, c)
    G = np.block([[A, -regulator], [injection, A - regulator - injection]])
    dim = 2 * n
    # (dw, dnu) -> (dw, sc dnu), padded with zero columns to a square L.
    L = np.zeros((dim, dim))
    L[:n, :n] = np.eye(n)
    L[n:, n] = sc
    k = math.ceil(math.log2(max(np.linalg.norm(G, 1) * dt, 1.0)))
    block = np.block([[-G, L @ L.T], [np.zeros((dim, dim)), G.T]])
    V = la.expm(dt / 2**k * block)
    Phi = V[dim:, dim:].T
    Q_d = Phi @ V[:dim, dim:]
    for _ in range(k):
        Q_d = Q_d + Phi @ Q_d @ Phi.T
        Phi = Phi @ Phi
    w, U = np.linalg.eigh(0.5 * (Q_d + Q_d.T))
    F = U * np.sqrt(np.clip(w, 0.0, None))
    return Phi, F @ la.polar(F.T @ (np.sqrt(dt) * L))[0]


def _run_paths(
    plant: Plant,
    placement: Placement,
    gains: GainPair,
    cfg: SimConfig,
    path_indices,
) -> np.ndarray:
    """Per-path time averages; diverged paths come back as NaN.

    Each row of Z is the augmented state z = (x, xhat), advanced by the
    exact step of ``_transition``; the cost is read before each step.
    """
    n = plant.n
    n_paths = len(path_indices)
    kb = gains.K @ (np.sqrt(plant.epsilon) * placement.b_unit)

    dt = cfg.dt
    n_steps = int(round(cfg.horizon_T / dt))
    burn_steps = int(round(cfg.burn_in / dt))
    averaging_time = (n_steps - burn_steps) * dt

    Phi, L_d = _transition(plant, placement, gains, dt)
    Phi_T, L_T = Phi.T, L_d.T

    rngs = _path_rngs(cfg.seed, path_indices)
    Z = np.zeros((n_paths, 2 * n))
    acc = np.zeros(n_paths)
    alive = np.ones(n_paths, dtype=bool)

    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while done < n_steps:
            m = min(_CHUNK_STEPS, n_steps - done)
            # (m, n_paths, 2n): step j's noise is one contiguous block.
            noise = np.stack(
                [rng.standard_normal((m, 2 * n)) for rng in rngs], axis=1
            ) @ L_T
            states = np.empty_like(noise)
            for j in range(m):
                states[j] = Z
                Z = Z @ Phi_T + noise[j]
            # The cost of each state before its step, summed in step order
            # (cumsum adds sequentially, so chunking does not move bits).
            kept = states[max(burn_steps - done, 0):]
            X, Xhat = kept[..., :n], kept[..., n:]
            costs = (X * X).sum(axis=2) + (Xhat * kb).sum(axis=2) ** 2
            acc = np.concatenate([acc[None], costs * dt]).cumsum(axis=0)[-1]
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
) -> float:
    """Time-averaged cost of one path, deterministic in (seed, path_index).

    Raises
    ------
    SimulationDiverged
        If |x| exceeds 1e8 (gains that leave the closed loop non-Hurwitz).
    """
    # Two copies of the path: numpy steps a lone row with gemv, whose
    # rounding differs from the gemm that steps a batch.
    value = _run_paths(plant, placement, gains, cfg, [path_index] * 2)[0]
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
        phi_reference=phi_from_gains(plant.A, gains),
        flags=tuple(flags),
    )
