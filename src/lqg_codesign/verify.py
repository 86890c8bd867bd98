"""Self-checks behind ``codesign verify``: each one compares the library with
an independent route to the same numbers (finite differences, closed forms)
on PBH-passing placements drawn from a seeded stream, and returns a dict
with its ``name``, ``passed`` and the worst error seen. A check that cannot
run on the plant (no draw passes PBH, or the closed forms do not apply)
returns ``passed`` with a ``skipped`` reason instead of errors it never
measured.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.linalg as sla

from .cost import phi, phi_bar, phi_gain_sensitivity
from .equilibria import ZERO_EIGENVALUE_TOL, Spectrum, analytic_gains_at_v1
from .flow import NO_PLACEMENT, gradient, is_zero_gain, pbh_passing_placement
from .plant import Placement, Plant
from .riccati import adjoint_pair, gain_pair


def richardson_derivative(f: Callable[[float], float], h: float) -> float:
    """Richardson-extrapolated central difference of f at 0 (O(h^4))."""
    d1 = (f(h) - f(-h)) / (2.0 * h)
    d2 = (f(0.5 * h) - f(-0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def _skipped(name: str, reason: str) -> dict:
    return {"name": name, "passed": True, "skipped": reason}


def _random_skew(n: int, rng: np.random.Generator) -> np.ndarray:
    W = rng.standard_normal((n, n))
    return 0.5 * (W - W.T)


def check_gradient_vs_fd(plant: Plant, seed: int, flip_sign: bool = False) -> dict:
    """Orbit derivative of ``flow.gradient`` vs finite differences of the
    potential it descends (phi, or phi_bar at zero gain); ``flip_sign``
    plants a sign error."""
    rng = np.random.default_rng(seed)
    potential = phi_bar if is_zero_gain(plant) else phi
    worst = 0.0
    tested = 0
    for _ in range(3):
        placement = pbh_passing_placement(plant, rng)
        if placement is None:
            continue
        tested += 1
        grad = gradient(plant, placement)
        b, c = placement.b_unit, placement.c_unit
        for _ in range(4):
            W_b = _random_skew(plant.n, rng)
            W_c = _random_skew(plant.n, rng)
            # The curves below move b along -W_b b and c along -W_c c.
            pairing = -2.0 * (grad.g_b @ W_b @ b + grad.g_c @ W_c @ c)
            if flip_sign:
                pairing = -pairing

            def value(t: float) -> float:
                b_t = sla.expm(-t * W_b) @ placement.b_unit
                c_t = sla.expm(-t * W_c) @ placement.c_unit
                return potential(plant, Placement.normalized(b_t, c_t))

            # Step 1e-2: large enough to dominate solver-level noise in the
            # cost (the derivative scale carries eps*delta), Richardson keeps
            # truncation at O(h^4).
            fd = richardson_derivative(value, 1e-2)
            err = abs(pairing - fd) / max(abs(pairing), abs(fd), 1e-10)
            worst = max(worst, err)
    if not tested:
        return _skipped("gradient_vs_fd", NO_PLACEMENT)
    return {
        "name": "gradient_vs_fd",
        "passed": bool(worst < 1e-5),
        "max_relative_error": worst,
    }


def check_gain_monotonicity(plant: Plant, seed: int) -> dict:
    """Sign and finite-difference match of dphi/dr, dphi/ds at sampled gains."""
    rng = np.random.default_rng(seed + 1)
    worst_sign = -np.inf
    worst_fd = 0.0
    base_eps = max(plant.epsilon, 0.05)
    base_delta = max(plant.delta, 0.05)
    tested = 0
    for _ in range(6):
        placement = pbh_passing_placement(plant, rng)
        if placement is None:
            continue
        tested += 1
        r = base_eps * rng.uniform(0.5, 2.0)
        s = base_delta * rng.uniform(0.5, 2.0)
        dr, ds = phi_gain_sensitivity(Plant(plant.A, r, s), placement)
        worst_sign = max(worst_sign, dr, ds)
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
        worst_fd = max(worst_fd, abs(dr - fd_r) / scale, abs(ds - fd_s) / scale)
    if not tested:
        return _skipped("gain_monotonicity", NO_PLACEMENT)
    return {
        "name": "gain_monotonicity",
        "passed": bool(worst_sign <= 1e-10 and worst_fd < 1e-6),
        "max_partial": worst_sign,
        "max_fd_relative_error": worst_fd,
    }


def check_phi_bar_sign(plant: Plant, seed: int) -> dict:
    """Largest phi_bar over 20 sampled placements must be <= 1e-10."""
    rng = np.random.default_rng(seed + 2)
    worst = -np.inf
    tested = 0
    for _ in range(20):
        placement = pbh_passing_placement(plant, rng)
        if placement is None:
            continue
        tested += 1
        worst = max(worst, phi_bar(plant, placement))
    if not tested:
        return _skipped("phi_bar_nonpositive", NO_PLACEMENT)
    return {
        "name": "phi_bar_nonpositive",
        "passed": bool(worst <= 1e-10),
        "max_phi_bar": worst,
    }


def check_analytic_gains(plant: Plant) -> dict:
    """Closed-form gains and adjoints at (v_1, v_1) against the solvers."""
    A = plant.A
    if sla.norm(A - A.T, "fro") > 1e-10 * (1.0 + sla.norm(A, "fro")):
        return _skipped("analytic_gains_match", "A not symmetric")
    spectrum = Spectrum.from_matrix(A)
    lam = spectrum.Lambda
    # |lambda_1| <= ZERO_EIGENVALUE_TOL is the zero mode, whatever the sign
    # of eigh's roundoff, as in the closed forms.
    if lam[0] > ZERO_EIGENVALUE_TOL or (lam.size > 1 and np.min(-np.diff(lam)) < 1e-8):
        return _skipped(
            "analytic_gains_match", "spectrum not negative with distinct eigenvalues"
        )
    if abs(lam[0]) <= ZERO_EIGENVALUE_TOL and (plant.epsilon <= 0 or plant.delta <= 0):
        return _skipped("analytic_gains_match", "zero mode at zero gain")
    v1 = spectrum.eigenvector(0)
    placement = Placement(v1, v1.copy())
    gains = gain_pair(plant, placement)
    adjoints = adjoint_pair(plant, placement, gains)
    K_d, S_d, M_d, N_d = analytic_gains_at_v1(spectrum, plant.epsilon, plant.delta)
    Theta = spectrum.Theta
    err = max(
        float(np.max(np.abs(Theta.T @ gains.K @ Theta - np.diag(K_d)))),
        float(np.max(np.abs(Theta.T @ gains.Sigma @ Theta - np.diag(S_d)))),
        float(np.max(np.abs(Theta.T @ adjoints.M @ Theta - np.diag(M_d)))),
        float(np.max(np.abs(Theta.T @ adjoints.N @ Theta - np.diag(N_d)))),
    )
    return {
        "name": "analytic_gains_match",
        "passed": bool(err < 1e-9),
        "max_abs_error": err,
    }


def run_checks(plant: Plant, seed: int, *, flip_gradient_sign: bool = False) -> dict:
    """All four checks; returns {"checks": [...], "all_passed": bool}."""
    checks = [
        check_gradient_vs_fd(plant, seed, flip_gradient_sign),
        check_gain_monotonicity(plant, seed),
        check_phi_bar_sign(plant, seed),
        check_analytic_gains(plant),
    ]
    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}
