"""Riemannian gradient descent on the product of unit spheres.

The matrix-space descent flow is the double-bracket system

    dB/dt = eps*delta [B, [B, K M K]],    dC/dt = eps*delta [C, [C, Sigma N Sigma]],

which lifts exactly to the unit-sphere pair through B = b b^T:

    db/dt = eps*delta (I - b b^T) S_b b,      S_b = K M K,

(and the same for c with S_c = Sigma N Sigma). The iteration is explicit
Euler with secant (Barzilai-Borwein) trial steps, backtracking and
renormalization, so the orbit constraint holds exactly at every iterate.
``OrbitGradient.g_b`` stores the *gradient* (ascent) direction
-scale*(I - b b^T) S_b b, so a step moves along ``b - step * g_b``; the
scale is eps*delta for the plain flow and 1 for the rescaled field, which is
also substituted automatically when eps*delta is numerically zero (the plain
field vanishes identically there and the descent acts on the potential
phi_bar instead of phi).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cost import CostReport, cost_report, drive_matrices
from .errors import AllStartsFailed, CodesignError, DegenerateStep
from .plant import Placement, Plant
from .riccati import pbh_check

#: Below this value of eps*delta the natural flow field is identically zero
#: and the rescaled field is used instead.
SCALE_TINY = 1e-12

_ARMIJO_C1 = 1e-4
_STEP_INIT = 1.0
_STEP_MAX = 1e15
_DEGENERATE_NORM = 1e-14

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_NO_DECREASE = "no_decrease"
STATUS_SOLVER_FAILURE = "solver_failure"


@dataclass(frozen=True)
class FlowOptions:
    """Termination parameters and field choice for the descent."""

    grad_tol: float = 1e-9
    max_iters: int = 100_000
    rescaled: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0.0):
            raise ValueError("grad_tol must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class OrbitGradient:
    """Gradient data at a placement.

    ``g_b`` and ``g_c`` are the sphere-lifted gradient (ascent) vectors,
    orthogonal to b_unit and c_unit; ``norm`` is the normal-metric norm of
    the gradient, which vanishes exactly when [B, K M K] = 0 and
    [C, Sigma N Sigma] = 0; ``scale`` records the field scaling in effect
    (eps*delta, or 1 for the rescaled field).
    """

    S_b: np.ndarray
    S_c: np.ndarray
    g_b: np.ndarray
    g_c: np.ndarray
    norm: float
    scale: float


@dataclass(frozen=True)
class FlowIterate:
    """One accepted iterate; ``step`` is the step that produced it (0 at the start)."""

    placement: Placement
    phi: float
    objective: float
    grad_norm: float
    step: float


@dataclass(frozen=True)
class FlowTrace:
    """History of a descent run."""

    iterates: tuple[FlowIterate, ...]
    status: str
    final: Placement

    @property
    def phis(self) -> np.ndarray:
        return np.array([it.phi for it in self.iterates])


@dataclass(frozen=True)
class MultiStartResult:
    best: FlowTrace
    all: tuple[FlowTrace, ...]


def is_zero_gain(plant: Plant) -> bool:
    """eps*delta ~ 0: phi ignores the placement and the descent acts on phi_bar."""
    return plant.epsilon * plant.delta < SCALE_TINY


def effective_scale(plant: Plant, rescaled: bool) -> float:
    """Field scaling: eps*delta, or 1 when rescaled or eps*delta ~ 0."""
    if rescaled or is_zero_gain(plant):
        return 1.0
    return plant.epsilon * plant.delta


def gradient(
    plant: Plant,
    placement: Placement,
    *,
    rescaled: bool = False,
    report: CostReport | None = None,
) -> OrbitGradient:
    """Normal-metric gradient of the cost at a placement.

    Passing a precomputed ``report`` avoids re-solving the four equations.
    """
    if report is None:
        report = cost_report(plant, placement)
    S_b, S_c = drive_matrices(report.gains, report.adjoints)
    b, c = placement.b_unit, placement.c_unit
    proj_b = S_b @ b - (b @ S_b @ b) * b
    proj_c = S_c @ c - (c @ S_c @ c) * c
    scale = effective_scale(plant, rescaled)
    norm = scale * np.sqrt(2.0 * (proj_b @ proj_b + proj_c @ proj_c))
    return OrbitGradient(
        S_b=S_b,
        S_c=S_c,
        g_b=-scale * proj_b,
        g_c=-scale * proj_c,
        norm=float(norm),
        scale=scale,
    )


def flow_step(
    plant: Plant, placement: Placement, grad: OrbitGradient, step: float
) -> Placement:
    """One explicit Euler step with renormalization retraction.

    Returns the placement with b_unit = normalize(b_unit - step * g_b) and
    c_unit = normalize(c_unit - step * g_c).
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if placement.n != plant.n:
        raise ValueError("placement dimension does not match plant")
    b_new = placement.b_unit - step * grad.g_b
    c_new = placement.c_unit - step * grad.g_c
    nb, nc = np.linalg.norm(b_new), np.linalg.norm(c_new)
    if nb < _DEGENERATE_NORM or nc < _DEGENERATE_NORM:
        raise DegenerateStep(
            f"pre-normalization vector norm {min(nb, nc):.3e} below 1e-14"
        )
    return Placement(b_new / nb, c_new / nc)


def run_flow(plant: Plant, init: Placement, opts: FlowOptions) -> FlowTrace:
    """Gradient descent from ``init`` with secant trial steps.

    After the first trial step (1), each is the Barzilai-Borwein step s.s/s.y
    of the last move in R^{2n}, or twice the last step if s.y <= 0. It is
    halved until Armijo's test holds or, where the objective moved by at most
    4 ulps, the gradient norm falls.

    Ends with one of four statuses:

    - ``converged``: the normal-metric gradient norm dropped below
      ``opts.grad_tol``;
    - ``no_decrease``: no step that moves the placement lowers the
      objective, nor, within its rounding, the gradient norm. Backtracking
      ends once step * max(|g_b|, |g_c|) <= eps: a smaller move is lost in
      the rounding of the renormalization;
    - ``max_iters``: ``opts.max_iters`` steps were accepted;
    - ``solver_failure``: the start point could not be evaluated. This is
      recorded rather than raised.
    """
    use_phi_bar = is_zero_gain(plant)

    def objective_of(report: CostReport) -> float:
        return report.phi_bar if use_phi_bar else report.phi

    placement = init
    iterates: list[FlowIterate] = []
    try:
        report = cost_report(plant, placement)
        grad = gradient(plant, placement, rescaled=opts.rescaled, report=report)
    except CodesignError:
        return FlowTrace(iterates=(), status=STATUS_SOLVER_FAILURE, final=init)

    obj = objective_of(report)
    iterates.append(FlowIterate(placement, report.phi, obj, grad.norm, 0.0))
    # Slope of the objective in the step parameter along (-g_b, -g_c); the
    # factor eps*delta/scale accounts for descending phi with a rescaled
    # field (for phi_bar at eps*delta ~ 0 the field is its own gradient).
    slope_factor = 1.0 if use_phi_bar else plant.epsilon * plant.delta / grad.scale
    resolution = np.finfo(float).eps

    step = _STEP_INIT
    for _ in range(opts.max_iters):
        if grad.norm < opts.grad_tol:
            break
        slope = -slope_factor * grad.norm**2
        # Positive whenever grad.norm is, so the backtracking below ends.
        reach = max(np.linalg.norm(grad.g_b), np.linalg.norm(grad.g_c))
        while step * reach > resolution:
            try:
                candidate = flow_step(plant, placement, grad, step)
                cand_report = cost_report(plant, candidate)
            except CodesignError:
                step *= 0.5
                continue
            cand_obj = objective_of(cand_report)
            cand_grad = gradient(
                plant, candidate, rescaled=opts.rescaled, report=cand_report
            )
            if cand_obj <= obj + _ARMIJO_C1 * step * slope or (
                abs(cand_obj - obj) <= 4.0 * resolution * abs(obj)
                and cand_grad.norm < grad.norm
            ):
                break
            step *= 0.5
        else:
            return FlowTrace(tuple(iterates), STATUS_NO_DECREASE, placement)
        iterates.append(
            FlowIterate(candidate, cand_report.phi, cand_obj, cand_grad.norm, step)
        )
        # Next trial: the secant step s.s / s.y of this move in R^{2n}.
        s_b = candidate.b_unit - placement.b_unit
        s_c = candidate.c_unit - placement.c_unit
        sy = s_b @ (cand_grad.g_b - grad.g_b) + s_c @ (cand_grad.g_c - grad.g_c)
        ss = s_b @ s_b + s_c @ s_c
        step = min(ss / sy if sy > 0.0 else 2.0 * step, _STEP_MAX)
        placement, grad, obj = candidate, cand_grad, cand_obj
    status = STATUS_CONVERGED if grad.norm < opts.grad_tol else STATUS_MAX_ITERS
    return FlowTrace(tuple(iterates), status, placement)


def random_placement(n: int, rng: np.random.Generator) -> Placement:
    """Independent uniform draws of (b_unit, c_unit) on the unit sphere."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    vecs = []
    for _ in range(2):
        v = rng.standard_normal(n)
        norm = np.linalg.norm(v)
        while norm == 0.0:  # pragma: no cover - probability zero
            v = rng.standard_normal(n)
            norm = np.linalg.norm(v)
        vecs.append(v / norm)
    return Placement(vecs[0], vecs[1])


def pbh_passing_placement(
    plant: Plant, rng: np.random.Generator, max_tries: int = 128
) -> Placement | None:
    """First ``random_placement`` draw from ``rng`` passing both PBH tests.

    Returns None when ``max_tries`` draws all fail.
    """
    A, eigs = plant.A, plant.eigenvalues
    for _ in range(max_tries):
        candidate = random_placement(plant.n, rng)
        pbh_b = pbh_check(A, candidate.b_unit, "stabilizability", eigenvalues=eigs)
        pbh_c = pbh_check(A, candidate.c_unit, "detectability", eigenvalues=eigs)
        if pbh_b.ok and pbh_c.ok:
            return candidate
    return None


def default_workers() -> int:
    """Worker count from CODESIGN_THREADS (0 or unset means sequential auto)."""
    raw = os.environ.get("CODESIGN_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        return 1
    if value <= 0:
        return 1
    return value


def multi_start(
    plant: Plant,
    n_starts: int,
    seed: int,
    opts: FlowOptions,
    *,
    max_workers: int | None = None,
) -> MultiStartResult:
    """Run the descent from ``n_starts`` seeded uniform placements.

    Start points are drawn from independent per-start RNG streams (spawned
    from ``seed``), rejection-checked against the PBH tests, so the result is
    deterministic in ``seed`` and independent of execution order. The best
    trace is the lowest-index usable start with final phi <= phi_min + 8 u
    |phi_min| (u the float eps); at zero gain, where phi ignores the
    placement, the same rule then applies to the descended objective.

    Raises
    ------
    AllStartsFailed
        If every start ends with a solver failure (or no PBH-passing start
        could be drawn).
    """
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    streams = np.random.SeedSequence(seed).spawn(n_starts)
    placements = [
        pbh_passing_placement(plant, np.random.default_rng(s)) for s in streams
    ]

    def run_one(start: Placement | None) -> FlowTrace:
        if start is None:
            return FlowTrace((), STATUS_SOLVER_FAILURE, _fallback_placement(plant.n))
        return run_flow(plant, start, opts)

    workers = default_workers() if max_workers is None else max_workers
    if workers > 1 and n_starts > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(run_one, placements))
    else:
        traces = [run_one(p) for p in placements]

    usable = [t for t in traces if t.status != STATUS_SOLVER_FAILURE]
    if not usable:
        raise AllStartsFailed(f"all {n_starts} starts ended in solver failure")
    # Starts that reach one minimum differ in the last bits of phi, which
    # must not switch the reported start.
    for value in (lambda t: t.iterates[-1].phi, lambda t: t.iterates[-1].objective):
        low = min(value(t) for t in usable)
        tie = 8.0 * np.finfo(float).eps * abs(low)
        usable = [t for t in usable if value(t) <= low + tie]
    return MultiStartResult(best=usable[0], all=tuple(traces))


def _fallback_placement(n: int) -> Placement:
    e1 = np.zeros(n)
    e1[0] = 1.0
    return Placement(e1, e1.copy())
