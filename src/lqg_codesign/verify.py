"""Self-checks behind ``codesign verify``: each one compares the library with
an independent route to the same numbers (finite differences, closed forms)
on PBH-passing placements drawn from a seeded stream, and returns a dict
with its ``name``, ``passed`` and the worst error seen. A draw whose solve
has no certified result is skipped and counted, not fatal. A check that
cannot run on the plant (no draw passes PBH or solves, or the closed forms
do not apply) returns ``passed`` with a ``skipped`` reason instead of errors
it never measured. The closed forms read the plant's own spectrum
(``Spectrum.of``) and zero-mode rule (``equilibria.top_mode``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.linalg as sla

from .cost import cost_report, phi, phi_bar, phi_gain_sensitivity
from .equilibria import Spectrum, analytic_gains_at_v1, top_mode
from .errors import CodesignError, NonNegativeEigenvalue, PBHViolation
from .flow import NO_PLACEMENT, Direction, gradient, is_zero_gain, pbh_passing_placement
from .plant import Placement, Plant


def richardson_derivative(f: Callable[[float], float], h: float) -> float:
    """Richardson-extrapolated central difference of f at 0 (O(h^4))."""
    d1 = (f(h) - f(-h)) / (2.0 * h)
    d2 = (f(0.5 * h) - f(-0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def _skipped(name: str, reason: str) -> dict:
    return {"name": name, "passed": True, "skipped": reason}


def _sampled_check(
    name: str,
    plant: Plant,
    rng: np.random.Generator,
    draws: int,
    evaluate: Callable[[Placement], object],
    summarize: Callable[[list], dict],
) -> dict:
    """Check ``name`` over ``draws`` PBH-passing placements from ``rng``.

    ``evaluate`` maps a placement to its errors and ``summarize`` the list of
    them to ``passed`` and the worst errors. A draw whose evaluation raises a
    ``CodesignError`` (a solve without a certified result) is skipped: the
    verdict is over the draws evaluated, with ``skipped_draws`` and the
    ``last_skip_reason``, and a check left with none is skipped for that
    reason (or NO_PLACEMENT when no draw passed PBH).
    """
    results, skipped, reason = [], 0, None
    for _ in range(draws):
        placement = pbh_passing_placement(plant, rng)
        if placement is None:
            continue
        try:
            results.append(evaluate(placement))
        except CodesignError as exc:
            skipped, reason = skipped + 1, str(exc)
    if not results:
        return _skipped(name, reason or NO_PLACEMENT)
    return {
        "name": name,
        **summarize(results),
        "skipped_draws": skipped,
        "last_skip_reason": reason,
    }


def _random_skew(n: int, rng: np.random.Generator) -> np.ndarray:
    W = rng.standard_normal((n, n))
    return 0.5 * (W - W.T)


def check_gradient_vs_fd(plant: Plant, seed: int, flip_sign: bool = False) -> dict:
    """``OrbitGradient.slope``, the pairing the descent steps on, vs finite
    differences of the potential it differentiates (phi, or phi_bar at zero
    gain) along orbit curves b(t) = expm(-t W_b) b, c(t) = expm(-t W_c) c for
    seeded skew W_b, W_c. Those curves leave (b, c) along -(W_b b, W_c c), so
    the derivative is -slope(W_b b, W_c c). ``flip_sign`` plants a sign error."""
    rng = np.random.default_rng(seed)
    potential = phi_bar if is_zero_gain(plant) else phi

    def evaluate(placement: Placement) -> float:
        # Drawn before any solve, so a skipped draw leaves the stream as is.
        skews = [
            (_random_skew(plant.n, rng), _random_skew(plant.n, rng)) for _ in range(4)
        ]
        grad = gradient(cost_report(plant, placement))
        b, c = placement.b_unit, placement.c_unit
        worst = 0.0
        for W_b, W_c in skews:
            pairing = -grad.slope(Direction(W_b @ b, W_c @ c))
            if flip_sign:
                pairing = -pairing

            def value(t: float) -> float:
                b_t = sla.expm(-t * W_b) @ b
                c_t = sla.expm(-t * W_c) @ c
                return potential(plant, Placement.normalized(b_t, c_t))

            # Step 1e-2: large enough to dominate solver-level noise in the
            # cost (the derivative scale carries eps*delta), Richardson keeps
            # truncation at O(h^4).
            fd = richardson_derivative(value, 1e-2)
            worst = max(worst, abs(pairing - fd) / max(abs(pairing), abs(fd), 1e-10))
        return worst

    def summarize(errors: list) -> dict:
        worst = max(0.0, *errors)
        return {"passed": bool(worst < 1e-5), "max_relative_error": worst}

    return _sampled_check("gradient_vs_fd", plant, rng, 3, evaluate, summarize)


def check_gain_monotonicity(plant: Plant, seed: int) -> dict:
    """Sign and finite-difference match of dphi/dr, dphi/ds at sampled gains."""
    rng = np.random.default_rng(seed + 1)
    base_eps = max(plant.epsilon, 0.05)
    base_delta = max(plant.delta, 0.05)

    def evaluate(placement: Placement) -> tuple[float, ...]:
        r = base_eps * rng.uniform(0.5, 2.0)
        s = base_delta * rng.uniform(0.5, 2.0)
        dr, ds = phi_gain_sensitivity(Plant(plant.A, r, s), placement)
        # Steps sized against noise, capped so the gain stays positive.
        h_r = min(1e-2 * (1.0 + r), 0.4 * r)
        h_s = min(1e-2 * (1.0 + s), 0.4 * s)
        fd_r = richardson_derivative(
            lambda h: phi(Plant(plant.A, r + h, s), placement), h_r
        )
        fd_s = richardson_derivative(
            lambda h: phi(Plant(plant.A, r, s + h), placement), h_s
        )
        scale = max(abs(dr), abs(ds), 1e-10)
        return dr, ds, abs(dr - fd_r) / scale, abs(ds - fd_s) / scale

    def summarize(errors: list) -> dict:
        worst_sign = max(-np.inf, *(x for draw in errors for x in draw[:2]))
        worst_fd = max(0.0, *(x for draw in errors for x in draw[2:]))
        return {
            "passed": bool(worst_sign <= 1e-10 and worst_fd < 1e-6),
            "max_partial": worst_sign,
            "max_fd_relative_error": worst_fd,
        }

    return _sampled_check("gain_monotonicity", plant, rng, 6, evaluate, summarize)


def check_phi_bar_sign(plant: Plant, seed: int) -> dict:
    """Largest phi_bar over 20 sampled placements must be <= 1e-10."""

    def summarize(values: list) -> dict:
        worst = max(-np.inf, *values)
        return {"passed": bool(worst <= 1e-10), "max_phi_bar": worst}

    rng = np.random.default_rng(seed + 2)
    return _sampled_check(
        "phi_bar_nonpositive", plant, rng, 20, lambda p: phi_bar(plant, p), summarize
    )


def check_analytic_gains(plant: Plant) -> dict:
    """Closed-form gains and adjoints at (v_1, v_1) against the solvers. They
    hold in any eigenbasis that contains v_1, so repeated eigenvalues need no
    rule here; ``top_mode`` refuses a repeated zero mode, which is skipped.
    Each of K, Sigma, M and N passes when its largest error is below 1e-9
    max(1, largest |entry| of its closed form): ``max_scaled_error``."""
    name = "analytic_gains_match"
    try:
        spectrum = Spectrum.of(plant)
    except ValueError:
        return _skipped(name, "A not symmetric")
    try:
        top_mode(spectrum.Lambda, plant.epsilon, plant.delta)
    except NonNegativeEigenvalue as exc:
        return _skipped(name, str(exc))
    except ValueError:
        return _skipped(name, "zero mode at zero gain")
    v1 = spectrum.eigenvector(0)
    placement = Placement(v1, v1.copy())
    try:
        report = cost_report(plant, placement)
    except PBHViolation as exc:
        return _skipped(name, str(exc))
    gains, adjoints = report.gains, report.adjoints
    K_d, S_d, M_d, N_d = analytic_gains_at_v1(spectrum, plant.epsilon, plant.delta)
    Theta = spectrum.Theta
    pairs = ((gains.K, K_d), (gains.Sigma, S_d), (adjoints.M, M_d), (adjoints.N, N_d))
    errors = [float(np.max(np.abs(Theta.T @ X @ Theta - np.diag(d)))) for X, d in pairs]
    scaled = max(e / max(1.0, float(np.max(np.abs(d)))) for e, (_, d) in zip(errors, pairs))
    return {
        "name": name,
        "passed": bool(scaled < 1e-9),
        "max_abs_error": max(errors),
        "max_scaled_error": scaled,
    }


def run_checks(plant: Plant, seed: int, *, flip_gradient_sign: bool = False) -> dict:
    """All four checks; returns {"checks": [...], "all_passed": bool}, where
    ``all_passed`` needs at least one check that was not skipped."""
    checks = [
        check_gradient_vs_fd(plant, seed, flip_gradient_sign),
        check_gain_monotonicity(plant, seed),
        check_phi_bar_sign(plant, seed),
        check_analytic_gains(plant),
    ]
    ran = any("skipped" not in c for c in checks)
    return {"checks": checks, "all_passed": ran and all(c["passed"] for c in checks)}
