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
(seed, path_index).

The chain z <- Phi z + L_d w is stepped as a segmented linear scan
(Blelloch, CMU-CS-90-190, 1990) over segments of L steps anchored at step 0:
L = 32 while 2n < 32, else L = 1, the plain recursion, because from there
on the extra products cost more than the interpreter saves. Chunks are
whole segments, so no state's operations depend on the chunk length, and
neither do the results. A lone path is stepped as two copies, because numpy
rounds a one-row product (gemv) differently from a batch (gemm); below
2n = 32 ``simulate_path`` then reproduces the batch bit for bit.
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
#: Most steps one path may take: 1e4 times the 1e5 of T = 100 at dt = 1e-3.
MAX_STEPS = 10**9
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
        if not self.horizon_T / self.dt <= MAX_STEPS:  # an overflow to inf fails too
            raise ValueError(f"horizon_T / dt, the step count, must be at most {MAX_STEPS:.0e}")
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

    @property
    def z_score(self) -> float | None:
        """(eta_hat - phi_reference) / stderr; None where stderr is 0 or NaN."""
        known = self.stderr and not math.isnan(self.stderr)
        return (self.eta_hat - self.phi_reference) / self.stderr if known else None


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
    Phi = V[dim:, dim:].T.copy()  # C-ordered, see _run_paths
    Q_d = Phi @ V[:dim, dim:]
    for _ in range(k):
        Q_d = Q_d + Phi @ Q_d @ Phi.T
        Phi = Phi @ Phi
    w, U = np.linalg.eigh(0.5 * (Q_d + Q_d.T))
    F = U * np.sqrt(np.clip(w, 0.0, None))
    return Phi, F @ la.polar(F.T @ (np.sqrt(dt) * L))[0]


def _segment_length(dim: int) -> int:
    """Steps per segment of the scan for a state of dimension ``dim``."""
    return 32 if dim < 32 else 1


def _run_paths(
    plant: Plant,
    placement: Placement,
    gains: GainPair,
    cfg: SimConfig,
    path_indices,
) -> np.ndarray:
    """Per-path time averages; diverged paths come back as NaN.

    Each path's augmented state z = (x, xhat) is a row of Z, advanced by
    Z <- Z Phi^T + E, the exact step of ``_transition``; the cost is read
    before each step. Per chunk of segments of L steps, every segment of
    every path is stepped from zero together (L - 1 products), the true start
    of each segment is carried from the one before by (Phi^T)^L (one product
    per segment) and its free response start (Phi^T)^r, 0 < r < L, added
    (one product per r). The state at step n_steps, read for divergence, is
    taken inside the last segment, not from the zero-noise steps that pad it.

    Below 2n = 32 every product multiplies by the transpose of a C-ordered
    matrix, and OpenBLAS rounds each row of such a product alike for any
    number of rows from 2 up; its small-matrix kernels, which do not, take
    these products only from an inner dimension of 32. From 2n = 32 on
    every product has one row per path, whatever the chunk.
    """
    n = plant.n
    dim = 2 * n
    n_paths = len(path_indices)
    rows = list(path_indices) * (2 if n_paths == 1 else 1)  # no gemv
    kb = gains.K @ (np.sqrt(plant.epsilon) * placement.b_unit)

    dt = cfg.dt
    n_steps = int(round(cfg.horizon_T / dt))
    burn_steps = int(round(cfg.burn_in / dt))
    averaging_time = (n_steps - burn_steps) * dt

    Phi, L_d = _transition(plant, placement, gains, dt)
    seg = _segment_length(dim)
    powers = [Phi]  # Phi^r for r = 1 .. seg
    for _ in range(seg - 1):
        powers.append(powers[-1] @ Phi)
    chunk = -(-_CHUNK_STEPS // seg) * seg

    rngs = _path_rngs(cfg.seed, rows)
    Z = np.zeros((len(rows), dim))
    acc = np.zeros(len(rows))
    alive = np.ones(len(rows), dtype=bool)

    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while done < n_steps:
            m = min(chunk, n_steps - done)
            n_seg = -(-m // seg)
            # Each path draws into its own rows, zero past the horizon.
            draws = np.empty((len(rows), n_seg * seg, dim))
            draws[:, m:] = 0.0
            for rng, out in zip(rngs, draws):
                rng.standard_normal(out=out[:m])
            # One (paths x 2n) product per step: (segments, seg, paths, 2n).
            noise = (draws.transpose(1, 0, 2) @ L_d.T).reshape(n_seg, seg, -1, dim)
            # states[s, r]: the state before step r of segment s, first from
            # a zero start; Y: the zero-start state after the segment.
            states = np.empty_like(noise)
            Y = noise[:, 0]
            for r in range(1, seg):
                states[:, r] = Y
                Y = (Y.reshape(-1, dim) @ Phi.T).reshape(Y.shape) + noise[:, r]
            for s in range(n_seg):
                states[s, 0] = Z
                Z = Z @ powers[-1].T + Y[s]
            starts = states[:, 0].reshape(-1, dim)
            for r in range(1, seg):
                states[:, r] += (starts @ powers[r - 1].T).reshape(Y.shape)
            states = states.reshape(-1, len(rows), dim)
            if m < len(states):
                Z = states[m]
            # The cost of each state before its step, summed in step order
            # (cumsum adds sequentially, so chunking does not move bits).
            kept = states[max(burn_steps - done, 0) : m]
            X, Xhat = kept[..., :n], kept[..., n:]
            # einsum, not a gemv with kb, whose rounding depends on the row.
            u = np.einsum("kpi,i->kp", Xhat, kb)
            costs = np.einsum("kpi,kpi->kp", X, X) + u * u
            acc = np.concatenate([acc[None], costs * dt]).cumsum(axis=0)[-1]
            done += m
            state_norm = np.linalg.norm(Z[:, :n], axis=1)
            alive &= np.isfinite(state_norm) & (state_norm <= DIVERGENCE_LIMIT)

    averages = acc[:n_paths] / averaging_time
    averages[~alive[:n_paths]] = np.nan
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
    value = _run_paths(plant, placement, gains, cfg, [path_index])[0]
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
        phi_reference=phi_from_gains(plant, gains),
        flags=tuple(flags),
    )
