"""Riemannian gradient descent on the product of unit spheres.

The matrix-space descent flow is the double-bracket system

    dB/dt = eps*delta [B, [B, K M K]],    dC/dt = eps*delta [C, [C, Sigma N Sigma]],

which lifts exactly to the unit-sphere pair through B = b b^T:

    db/dt = eps*delta (I - b b^T) S_b b,      S_b = K M K,

(and the same for c with S_c = Sigma N Sigma). Each iteration steps
against a limited-memory secant (L-BFGS) direction H g, built from the
last few moves in R^{2n}, with backtracking and renormalization, so the
orbit constraint holds exactly at every iterate.

``gradient`` is the one place that forms this field, from a ``CostReport``
alone. ``OrbitGradient`` keeps the tangent residual r_b = (I - b b^T) S_b b
(and r_c), which vanishes exactly at an equilibrium, and the gradient
(ascent) direction g_b = -scale * r_b. The scale (``field_scale``) is
eps*delta, or 1 when eps*delta is numerically zero: the eps*delta field
vanishes identically there, and the descent acts on the potential phi_bar
instead of phi. A ``Direction`` is any ascent pair (g_b, g_c), the gradient
among them, and a step moves along ``b - step * g_b``. Every tangent of the
sphere pair is such a pair, so the one first variation of the descended
potential is ``OrbitGradient.slope``: moving to b - t d_b, c - t d_c changes
it at the rate -slope(d) = -2 g . d. The line search steps on that slope, and
``codesign verify`` checks it against finite differences.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .cost import CostReport, cost_report
from .errors import AllStartsFailed, CodesignError, DegenerateStep
from .plant import Placement, Plant
from .riccati import pbh_check

#: Below this value of eps*delta the natural flow field is identically zero
#: and the field of scale 1, the gradient of phi_bar, is used instead.
SCALE_TINY = 1e-12

_ARMIJO_C1 = 1e-4
_STEP_INIT = 1.0
_STEP_MAX = 1e15
_DEGENERATE_NORM = 1e-14
#: Secant pairs (s, y) the descent keeps for its direction.
_MEMORY = 10

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_NO_DECREASE = "no_decrease"
STATUS_SOLVER_FAILURE = "solver_failure"
#: Why a start, or a ``verify`` check, has no placement to run on.
NO_PLACEMENT = "no placement passes both PBH tests"
#: Draws ``pbh_passing_placement`` makes before it gives up.
PBH_DRAWS = 128


@dataclass(frozen=True)
class FlowOptions:
    """Termination parameters for the descent."""

    grad_tol: float = 1e-9
    max_iters: int = 100_000

    def __post_init__(self):
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0.0):
            raise ValueError("grad_tol must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class OrbitGradient:
    """Gradient data at a placement.

    ``r_b`` and ``r_c`` are the tangent residuals (I - b b^T) S_b b and
    (I - c c^T) S_c c, orthogonal to b_unit and c_unit; ``g_b`` and ``g_c``
    are the sphere-lifted gradient (ascent) vectors -scale * r; ``norm`` is
    the normal-metric norm of the gradient, which vanishes exactly when
    [B, K M K] = 0 and [C, Sigma N Sigma] = 0; ``scale`` records the field
    scaling in effect (eps*delta, or 1 at zero gain). S_b and S_c themselves
    are ``cost.drive_matrices``.
    """

    r_b: np.ndarray
    r_c: np.ndarray
    norm: float
    scale: float

    @property
    def g_b(self) -> np.ndarray:
        return -self.scale * self.r_b

    @property
    def g_c(self) -> np.ndarray:
        return -self.scale * self.r_c

    def slope(self, direction: Direction) -> float:
        """2 g . d: the rate at which the descended potential (phi, or phi_bar
        at zero gain) falls along b - t d_b, c - t d_c at t = 0, for d a
        tangent ``direction``. The gradient's own slope is ``norm`` squared."""
        return 2.0 * (self.g_b @ direction.g_b + self.g_c @ direction.g_c)


@dataclass(frozen=True)
class Direction:
    """An ascent pair in R^{2n}: ``flow_step`` moves against it, to
    normalize(b_unit - step * g_b) and normalize(c_unit - step * g_c).
    ``OrbitGradient`` is one; ``run_flow`` builds the others."""

    g_b: np.ndarray
    g_c: np.ndarray


@dataclass(frozen=True)
class FlowIterate:
    """One accepted iterate. ``step`` is the multiplier of the direction that
    produced it (0 at the start): the iterate is ``flow_step`` of the one
    before along that direction, with this step."""

    placement: Placement
    phi: float
    objective: float
    grad_norm: float
    step: float


@dataclass(frozen=True)
class FlowCounters:
    """Work a descent run did, none of which changes its result.

    ``evaluations`` counts ``cost_report`` calls and ``backtracks`` halved
    trial steps. ``memory_resets`` counts the times the secant memory was
    dropped: on a move with s.y <= 0, and on a direction along which no step
    was accepted. ``swallowed_errors`` counts the ``CodesignError``s the
    line search caught and backtracked from (the last message is kept), and
    ``modal_fallbacks`` the evaluations whose gain pair fell back from the
    modal to the Hamiltonian path (``GainPair.fallback``; the last reason is
    kept). That count is 0 on a symmetric plant with positive gains and
    separated |lambda|, and on every non-symmetric plant.
    """

    evaluations: int = 0
    backtracks: int = 0
    memory_resets: int = 0
    swallowed_errors: int = 0
    last_swallowed_error: str | None = None
    modal_fallbacks: int = 0
    last_modal_fallback: str | None = None


@dataclass(frozen=True)
class FlowTrace:
    """History of a descent run."""

    iterates: tuple[FlowIterate, ...]
    status: str
    #: Why a ``solver_failure`` start stopped; None for every other status.
    error: str | None = None
    counters: FlowCounters = FlowCounters()
    #: The ``cost_report`` of ``final``; None for a start never evaluated.
    report: CostReport | None = None

    @property
    def final(self) -> Placement | None:
        """The last iterate's placement; None for a start never evaluated."""
        return self.iterates[-1].placement if self.iterates else None

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


def field_scale(plant: Plant) -> float:
    """The scale of the descent field: eps*delta, or 1 at zero gain."""
    return 1.0 if is_zero_gain(plant) else plant.epsilon * plant.delta


def gradient(report: CostReport) -> OrbitGradient:
    """Normal-metric gradient of the cost at the report's placement: of phi,
    or of phi_bar at zero gain."""
    gains, adjoints, placement = report.gains, report.adjoints, report.placement
    r_b = _residual(gains, gains.K_tilde, adjoints.M_tilde, placement.b_unit)
    r_c = _residual(gains, gains.Sigma_tilde, adjoints.N_tilde, placement.c_unit)
    scale = field_scale(report.plant)
    norm = scale * np.sqrt(2.0 * (r_b @ r_b + r_c @ r_c))
    return OrbitGradient(r_b=r_b, r_c=r_c, norm=float(norm), scale=scale)


def _residual(gains, X: np.ndarray, Y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(I - v v^T) X Y X v for X, Y held in the coordinates of ``gains``,
    in the plant's: with beta = v in those coordinates, s = X (Y (X beta)) by
    three mat-vecs and s - (beta . s) beta mapped back."""
    beta = gains.coords(v)
    s = X @ (Y @ (X @ beta))
    return gains.to_plant(s - (beta @ s) * beta)


def flow_step(
    plant: Plant, placement: Placement, direction: Direction, step: float
) -> Placement:
    """One explicit Euler step against ``direction`` with renormalization
    retraction.

    Returns the placement with b_unit = normalize(b_unit - step * g_b) and
    c_unit = normalize(c_unit - step * g_c), for (g_b, g_c) the
    ``direction``: an ``OrbitGradient`` or any other ``Direction``.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if placement.n != plant.n:
        raise ValueError("placement dimension does not match plant")
    b_new = placement.b_unit - step * direction.g_b
    c_new = placement.c_unit - step * direction.g_c
    nb, nc = np.linalg.norm(b_new), np.linalg.norm(c_new)
    if nb < _DEGENERATE_NORM or nc < _DEGENERATE_NORM:
        raise DegenerateStep(
            f"pre-normalization vector norm {min(nb, nc):.3e} below 1e-14"
        )
    return Placement(b_new / nb, c_new / nc)


def _secant_direction(
    grad: OrbitGradient, placement: Placement, pairs, gamma: float
) -> Direction:
    """H g for the limited-memory inverse model H of the secant ``pairs``
    (s, y, 1 / s.y), oldest first, with H_0 = gamma I: the two-loop
    recursion (Nocedal, Math. Comp. 35(151), 1980) in R^{2n}, its result
    projected onto the tangent space at ``placement``. With no pair it is
    gamma g, which is tangent already."""
    if not pairs:
        return Direction(gamma * grad.g_b, gamma * grad.g_c)
    q = np.concatenate((grad.g_b, grad.g_c))
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * (s @ q)
        q = q - alpha * y
        alphas.append(alpha)
    r = gamma * q
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        r = r + (alpha - rho * (y @ r)) * s
    d_b, d_c = r[: placement.n], r[placement.n :]
    b, c = placement.b_unit, placement.c_unit
    return Direction(d_b - (b @ d_b) * b, d_c - (c @ d_c) * c)


def run_flow(plant: Plant, init: Placement, opts: FlowOptions) -> FlowTrace:
    """Descent from ``init`` along limited-memory secant directions.

    Each move x -> x' in R^{2n}, with gradients g -> g', gives a secant pair
    s = x' - x, y = g' - g. The direction d is H g for the L-BFGS inverse
    model of the last ``_MEMORY`` pairs, with H_0 = gamma I and gamma the
    Barzilai-Borwein step s.s / s.y of the last move (1 at the start, so the
    first direction is g), projected onto the tangent space. Its step
    multiplier starts at 1 and is halved until Armijo's test on the slope
    2 g.d holds or, where the objective moved by at most 4 ulps, the
    gradient norm falls. Where the model is wrong the memory is dropped
    (``counters.memory_resets``): on a move with s.y <= 0, after which gamma
    doubles the step taken along gamma g; and when no step along d is
    accepted, after which the search runs once more along gamma g.

    Ends with one of four statuses:

    - ``converged``: the normal-metric gradient norm dropped below
      ``opts.grad_tol``;
    - ``no_decrease``: no step along d, nor then along gamma g with the
      memory dropped, that moves the placement lowers the objective, nor,
      within its rounding, the gradient norm. Backtracking along a direction
      ends once step * max(|d_b|, |d_c|) <= eps: a smaller move is lost in
      the rounding of the renormalization;
    - ``max_iters``: ``opts.max_iters`` steps were accepted;
    - ``solver_failure``: the start point could not be evaluated. This is
      recorded, with the solver's message in ``error``, rather than raised.

    ``counters`` tallies the evaluations, backtracks, memory resets,
    swallowed errors and modal fallbacks of the run, and ``report`` keeps the
    evaluation of the last accepted iterate.
    """
    use_phi_bar = is_zero_gain(plant)
    tally = asdict(FlowCounters())

    def objective_of(report: CostReport) -> float:
        return report.phi_bar if use_phi_bar else report.phi

    def evaluate(candidate: Placement) -> CostReport:
        tally["evaluations"] += 1
        report = cost_report(plant, candidate)
        if report.gains.fallback is not None:
            tally["modal_fallbacks"] += 1
            tally["last_modal_fallback"] = report.gains.fallback
        return report

    def finish(status: str, error: str | None = None) -> FlowTrace:
        counters = FlowCounters(**tally)
        return FlowTrace(tuple(iterates), status, error, counters, report)

    def line_search(direction: Direction):
        """(step, placement, report, objective, gradient) of the first
        accepted trial along ``direction``, or None."""
        slope = grad.slope(direction)
        # A direction of positive slope is nonzero, so the backtracking ends;
        # one of no descent (or NaN) slope is refused untried.
        reach = max(np.linalg.norm(direction.g_b), np.linalg.norm(direction.g_c))
        step = 1.0
        while slope > 0.0 and step * reach > resolution:
            try:
                candidate = flow_step(plant, placement, direction, step)
                cand_report = evaluate(candidate)
            except CodesignError as exc:
                tally["swallowed_errors"] += 1
                tally["last_swallowed_error"] = str(exc)
            else:
                cand_obj = objective_of(cand_report)
                cand_grad = gradient(cand_report)
                if cand_obj <= obj - _ARMIJO_C1 * step * slope or (
                    abs(cand_obj - obj) <= 4.0 * resolution * abs(obj)
                    and cand_grad.norm < grad.norm
                ):
                    return step, candidate, cand_report, cand_obj, cand_grad
            tally["backtracks"] += 1
            step *= 0.5
        return None

    def drop_memory() -> None:
        if pairs:
            pairs.clear()
            tally["memory_resets"] += 1

    placement, report = init, None
    iterates: list[FlowIterate] = []
    try:
        report = evaluate(placement)
        grad = gradient(report)
    except CodesignError as exc:
        return finish(STATUS_SOLVER_FAILURE, str(exc))

    obj = objective_of(report)
    iterates.append(FlowIterate(placement, report.phi, obj, grad.norm, 0.0))
    resolution = np.finfo(float).eps

    pairs: deque = deque(maxlen=_MEMORY)
    gamma = _STEP_INIT
    for _ in range(opts.max_iters):
        if grad.norm < opts.grad_tol:
            break
        accepted = line_search(_secant_direction(grad, placement, pairs, gamma))
        if accepted is None and pairs:
            drop_memory()
            accepted = line_search(_secant_direction(grad, placement, pairs, gamma))
        if accepted is None:
            return finish(STATUS_NO_DECREASE)
        step, candidate, cand_report, cand_obj, cand_grad = accepted
        iterates.append(
            FlowIterate(candidate, cand_report.phi, cand_obj, cand_grad.norm, step)
        )
        s = np.concatenate(
            (candidate.b_unit - placement.b_unit, candidate.c_unit - placement.c_unit)
        )
        y = np.concatenate((cand_grad.g_b - grad.g_b, cand_grad.g_c - grad.g_c))
        sy = s @ y
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
            gamma = min((s @ s) / sy, _STEP_MAX)
        else:
            drop_memory()
            gamma = min(2.0 * step * gamma, _STEP_MAX)
        placement, grad, obj, report = candidate, cand_grad, cand_obj, cand_report
    return finish(STATUS_CONVERGED if grad.norm < opts.grad_tol else STATUS_MAX_ITERS)


def random_placement(n: int, rng: np.random.Generator) -> Placement:
    """Independent uniform draws of (b_unit, c_unit) on the unit sphere."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return Placement.normalized(rng.standard_normal(n), rng.standard_normal(n))


def pbh_passing_placement(plant: Plant, rng: np.random.Generator) -> Placement | None:
    """First ``random_placement`` draw from ``rng`` passing both PBH tests.

    Returns None when ``PBH_DRAWS`` draws all fail.
    """
    for _ in range(PBH_DRAWS):
        candidate = random_placement(plant.n, rng)
        pbh_b = pbh_check(plant.A, candidate.b_unit, "stabilizability", setup=plant.pbh)
        pbh_c = pbh_check(plant.A, candidate.c_unit, "detectability", setup=plant.pbh)
        if pbh_b.ok and pbh_c.ok:
            return candidate
    return None


def default_workers() -> int:
    """Worker count from CODESIGN_THREADS; unset, below 1 or not an int is 1."""
    try:
        return max(int(os.environ.get("CODESIGN_THREADS", "0")), 1)
    except ValueError:
        return 1


def multi_start(
    plant: Plant, n_starts: int, seed: int, opts: FlowOptions
) -> MultiStartResult:
    """Run the descent from ``n_starts`` seeded uniform placements on
    w = min(``default_workers()``, n_starts) workers. Worker k runs starts
    k, k + w, ... in order and stops at its first error; worker 0 is the
    calling thread and each other worker gets a thread of its own. Once every
    worker is done, the first error in start order is raised: every start
    before it in its worker's group succeeded, so it is the same for every w.

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
        could be drawn); the message ends with the first start's error.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    streams = np.random.SeedSequence(seed).spawn(n_starts)
    placements = [
        pbh_passing_placement(plant, np.random.default_rng(s)) for s in streams
    ]
    workers = min(default_workers(), n_starts)
    traces: list = [None] * n_starts

    def run_group(k: int) -> None:
        for i in range(k, n_starts, workers):
            try:
                if placements[i] is None:
                    traces[i] = FlowTrace((), STATUS_SOLVER_FAILURE, NO_PLACEMENT)
                else:
                    traces[i] = run_flow(plant, placements[i], opts)
            except Exception as exc:  # raised below, in start order
                traces[i] = exc
                return

    threads = [threading.Thread(target=run_group, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    run_group(0)
    for thread in threads:
        thread.join()
    for trace in traces:
        if isinstance(trace, Exception):
            raise trace

    usable = [t for t in traces if t.status != STATUS_SOLVER_FAILURE]
    if not usable:
        raise AllStartsFailed(
            f"all {n_starts} starts ended in solver failure; the first: "
            f"{traces[0].error}"
        )
    # Starts that reach one minimum differ in the last bits of phi, which
    # must not switch the reported start.
    for value in (lambda t: t.iterates[-1].phi, lambda t: t.iterates[-1].objective):
        low = min(value(t) for t in usable)
        tie = 8.0 * np.finfo(float).eps * abs(low)
        usable = [t for t in usable if value(t) <= low + tie]
    return MultiStartResult(best=usable[0], all=tuple(traces))
