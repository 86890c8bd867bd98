"""Seeded workload inputs, the CLI calls one pass makes, and their gates.

Every workload writes its problem files from ``--seed`` alone; the program
sees only those files. Each gate checks the reports against an oracle
computed here from the generated inputs (closed forms, or scipy's own
Riccati and Lyapunov solvers), never against the library under test.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg as sla

# Distinct tags keep the input streams of the workloads independent.
_TAGS = {"descent": 11, "enumerate": 12, "montecarlo": 13, "solve_large": 14}


@dataclass(frozen=True)
class Call:
    """One ``codesign`` invocation: command, problem file, output directory."""

    command: str
    problem: Path
    out: Path

    def argv(self) -> list[str]:
        return [self.command, "--problem", str(self.problem), "--out", str(self.out)]

    def outputs(self) -> dict[str, bytes]:
        return {
            str(path.relative_to(self.out.parent)): path.read_bytes()
            for path in sorted(self.out.iterdir())
        }


def digest(outputs: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name, data in sorted(outputs.items()):
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def _write_problem(path: Path, problem: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(problem))
    return path


def _rel_err(value, reference: float) -> float:
    if value is None:
        return math.inf
    return abs(value - reference) / max(abs(reference), 1e-300)


def _care_oracle(A: np.ndarray, gain: float, unit: np.ndarray) -> np.ndarray:
    """Stabilizing solution of A^T P + P A - gain P u u^T P + I = 0 (scipy)."""
    n = A.shape[0]
    return sla.solve_continuous_are(
        A, math.sqrt(gain) * unit[:, None], np.eye(n), np.eye(1)
    )


def phi_oracle(A: np.ndarray, eps: float, delta: float, b: np.ndarray, c: np.ndarray):
    """(phi, phi_bar) from scipy's CARE and Lyapunov solvers."""
    K = _care_oracle(A, eps, b)
    S = _care_oracle(A.T, delta, c)
    B, C = np.outer(b, b), np.outer(c, c)
    phi = float(np.trace(A.T @ K @ S + S @ K @ A + K + S))
    M = sla.solve_continuous_lyapunov(A - eps * B @ K, -S @ C @ S)
    N = sla.solve_continuous_lyapunov((A - delta * S @ C).T, -K @ B @ K)
    return phi, float(np.trace(A.T @ M @ N + N @ M @ A))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


class Workload:
    """Problem files plus the CLI calls of one pass and the gate on their outputs.

    ``ops_per_pass`` is the number of operations a pass attempts; ``gate``
    returns how many of them failed, with one message per failure.
    ``context`` carries input facts the per-layer metrics need.
    """

    name = ""
    calls: list[Call]
    ops_per_pass: int
    context: dict

    def __init__(self, seed: int, workdir: Path, small: bool):
        self.rng = np.random.default_rng([_TAGS[self.name], seed])
        self.context = {}

    @property
    def problem_files(self) -> list[Path]:
        return [call.problem for call in self.calls]

    def outputs(self) -> dict[str, bytes]:
        merged: dict[str, bytes] = {}
        for call in self.calls:
            merged.update(call.outputs())
        return merged

    def gate(self, outputs: dict[str, bytes]) -> tuple[int, list[str]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# descent: codesign flow on weighted Laplacian plants


def laplacian_graph(rng: np.random.Generator, n: int):
    """Ring plus n/2 random chords with weights in [0.5, 1.5].

    Redrawn until the Laplacian spectrum is distinct (gaps above 1e-3), so
    the ones-vector pair is the unique optimum. Returns (edges, eigenvalues
    of L ascending).
    """
    ring = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    while True:
        chords: set[tuple[int, int]] = set()
        while len(chords) < n // 2:
            i, j = sorted(int(x) for x in rng.choice(n, 2, replace=False))
            if (i, j) not in ring:
                chords.add((i, j))
        edges = [[i, j, float(rng.uniform(0.5, 1.5))] for i, j in sorted(ring | chords)]
        weights = np.zeros((n, n))
        for i, j, w in edges:
            weights[i, j] += w
            weights[j, i] += w
        mu = np.linalg.eigvalsh(np.diag(weights.sum(axis=1)) - weights)
        if np.min(np.diff(mu)) > 1e-3:
            return edges, mu


def laplacian_minimum(mu: np.ndarray, eps: float, delta: float) -> float:
    """Closed-form minimum of phi for A = -L, with lambda_1 = 0 exactly.

    (sqrt(eps) + sqrt(delta)) / (sqrt(eps) sqrt(delta)) + sum_{k>=2} 1/(2 mu_k),
    mu_k the nonzero Laplacian eigenvalues.
    """
    a, b = math.sqrt(eps), math.sqrt(delta)
    return (a + b) / (a * b) + float(np.sum(1.0 / (2.0 * mu[1:])))


class Descent(Workload):
    """Multi-start double-bracket descent to the ones-vector placement.

    The graph is one fixed draw; ``--seed`` relabels its vertices and seeds
    the starts. Every seed then poses the same problem up to symmetry, so
    the work varies only through the starts: across independent graph draws
    the flow's iteration count varies by up to 4x, which would swamp any
    timing difference. A pass solves two relabelled copies, 8 starts each,
    which halves the spread of the work that the starts leave.
    """

    name = "descent"
    EPS = DELTA = 0.5

    def __init__(self, seed, workdir, small):
        super().__init__(seed, workdir, small)
        n, starts, copies = (8, 2, 1) if small else (16, 8, 2)
        edges, mu = laplacian_graph(np.random.default_rng([_TAGS[self.name], n]), n)
        self.calls = []
        for k in range(copies):
            relabel = self.rng.permutation(n)
            problem = {
                "A": {
                    "generator": "laplacian",
                    "n": n,
                    "edges": sorted(
                        [int(min(relabel[i], relabel[j])), int(max(relabel[i], relabel[j])), w]
                        for i, j, w in edges
                    ),
                },
                "epsilon": self.EPS,
                "delta": self.DELTA,
                "flow": {"grad_tol": 1e-9, "max_iters": 3000},
                "seed": copies * seed + k,
                "n_starts": starts,
            }
            path = _write_problem(workdir / f"copy{k}.json", problem)
            self.calls.append(Call("flow", path, workdir / f"copy{k}"))
        self.n = n
        self.starts = starts
        self.phi_star = laplacian_minimum(mu, self.EPS, self.DELTA)
        self.ops_per_pass = starts * copies

    def gate(self, outputs):
        ones = np.ones(self.n) / math.sqrt(self.n)
        failed, notes = 0, []
        for call in self.calls:
            report = json.loads(outputs[f"{call.out.name}/flow.json"])
            best = report["best"]
            err = _rel_err(best["phi"], self.phi_star)
            align_b = abs(float(np.dot(best["placement"]["b"], ones)))
            align_c = abs(float(np.dot(best["placement"]["c"], ones)))
            if err > 1e-9 or min(align_b, align_c) < 1 - 1e-8:
                failed += self.starts
                notes.append(
                    f"{call.out.name}: best phi rel err {err:.3e}, |b.1| = {align_b:.12f}, "
                    f"|c.1| = {align_c:.12f}"
                )
                continue
            bad = [
                i
                for i, start in enumerate(report["starts"])
                if start["status"] == "solver_failure"
                or start["phi"] is None
                or not math.isfinite(start["phi"])
            ]
            if bad:
                failed += len(bad)
                notes.append(f"{call.out.name}: starts {bad} ended in solver failure")
        return failed, notes


# ---------------------------------------------------------------------------
# enumerate: codesign equilibria at zero gain


def spaced_spectrum_plant(rng: np.random.Generator, n: int):
    """Eigenvalues evenly spaced on [-3, -0.5], in a seeded orthonormal basis.

    Returns (A, eigenvalues descending, Q) with A = Q diag(lam) Q^T
    symmetrized, so column k of Q is the eigenvector of lam[k].
    """
    lam = np.linspace(-0.5, -3.0, n)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    A = Q @ np.diag(lam) @ Q.T
    return 0.5 * (A + A.T), lam, Q


def eq19_residual(b, c, lam: np.ndarray, Q: np.ndarray) -> float:
    """Residual of the coupled zero-gain eigen-equations at a placement.

    beta = Lambda^{-1} Q^T b, gamma likewise; the equations are
    diag(gamma) Psi diag(gamma) beta = mu Lambda^2 beta and its mirror, with
    Psi = [-1/(lam_i + lam_j)]. The residual is invariant under the sign of
    each eigenvector.
    """
    beta = (Q.T @ np.asarray(b)) / lam
    gamma = (Q.T @ np.asarray(c)) / lam
    psi = -1.0 / (lam[:, None] + lam[None, :])
    lhs_b = gamma * (psi @ (gamma * beta))
    lhs_c = beta * (psi @ (beta * gamma))
    res_b = lhs_b - (beta @ lhs_b) * lam**2 * beta
    res_c = lhs_c - (gamma @ lhs_c) * lam**2 * gamma
    return float(max(np.linalg.norm(res_b), np.linalg.norm(res_c)))


class Enumerate(Workload):
    """Zero-gain equilibrium enumeration and Hessian classification."""

    name = "enumerate"
    #: Candidate counts for evenly spaced spectra: common-support candidates
    #: plus n(n-1) disjoint-support representatives.
    EXPECTED_CANDIDATES = {4: 27, 8: 315}
    PROBE_N = 9

    def __init__(self, seed, workdir, small):
        super().__init__(seed, workdir, small)
        n = 4 if small else 8
        A, self.lam, self.Q = spaced_spectrum_plant(self.rng, n)
        problem = {"A": A.tolist(), "epsilon": 0.0, "delta": 0.0}
        self.calls = [
            Call("equilibria", _write_problem(workdir / "spectrum.json", problem), workdir / "out")
        ]
        self.n = n
        self.ops_per_pass = self.EXPECTED_CANDIDATES[n]
        self.probe_A = spaced_spectrum_plant(self.rng, self.PROBE_N)[0]

    def gate(self, outputs):
        report = json.loads(outputs["out/equilibria.json"])
        cands = report["candidates"]
        notes = []
        lam_err = float(np.max(np.abs(np.asarray(report["eigenvalues"]) - self.lam)))
        if report["n_candidates"] != self.ops_per_pass or len(cands) != self.ops_per_pass:
            notes.append(f"{report['n_candidates']} candidates, expected {self.ops_per_pass}")
        if lam_err > 1e-12:
            notes.append(f"reported eigenvalues off by {lam_err:.3e}")
        stable = report["stable_indices"]
        v1 = self.Q[:, 0]
        if len(stable) != 1:
            notes.append(f"stable candidates {stable}, expected exactly one")
        else:
            top = cands[stable[0]]["placement"]
            align = min(abs(float(np.dot(top["b"], v1))), abs(float(np.dot(top["c"], v1))))
            if align < 1 - 1e-8:
                notes.append(f"stable candidate is not (v1, v1): alignment {align:.12f}")
        if notes:
            return self.ops_per_pass, notes
        failed = 0
        for i, cand in enumerate(cands):
            if cand["stability"] is None:
                failed += 1
                notes.append(f"candidate {i} unclassified")
            elif cand["kind"] == "common_support":
                res = eq19_residual(cand["placement"]["b"], cand["placement"]["c"], self.lam, self.Q)
                if not res < 1e-8:
                    failed += 1
                    notes.append(f"candidate {i} eq19 residual {res:.3e}")
        return failed, notes

    def probe(self) -> str | None:
        """Enumeration alone at n = 9; returns the error text, or None on success.

        At the time this benchmark was written it raises ``SingularBlock``
        (a Cauchy block with condition number 1.56e12).
        """
        from lqg_codesign.equilibria import Spectrum, enumerate_equilibria_zero
        from lqg_codesign.errors import CodesignError

        try:
            enumerate_equilibria_zero(Spectrum.from_matrix(self.probe_A))
        except CodesignError as exc:
            return f"{type(exc).__name__}: {exc}"
        return None


# ---------------------------------------------------------------------------
# montecarlo: codesign simulate


class MonteCarlo(Workload):
    """Euler-Maruyama estimate of the cost of a fixed n = 3 placement."""

    name = "montecarlo"
    A = np.diag([-1.0, -2.0, -3.0])
    B_UNIT = _unit(np.array([1.0, 1.0, 1.0]))
    C_UNIT = _unit(np.array([1.0, 0.5, 0.25]))

    def __init__(self, seed, workdir, small):
        super().__init__(seed, workdir, small)
        paths, horizon, burn = (16, 20.0, 2.0) if small else (32, 100.0, 10.0)
        dt = 1e-3
        problem = {
            "A": {"generator": "diag", "eigenvalues": [-1.0, -2.0, -3.0]},
            "epsilon": 1.0,
            "delta": 1.0,
            "placement": {"b": self.B_UNIT.tolist(), "c": self.C_UNIT.tolist()},
            "sim": {"dt": dt, "horizon_T": horizon, "n_paths": paths, "burn_in": burn},
            "seed": seed,
        }
        self.calls = [
            Call("simulate", _write_problem(workdir / "sim.json", problem), workdir / "out")
        ]
        self.ops_per_pass = paths
        self.context = {"sim_steps": int(round(horizon / dt))}
        self.phi_ref = phi_oracle(self.A, 1.0, 1.0, self.B_UNIT, self.C_UNIT)[0]

    def gate(self, outputs):
        report = json.loads(outputs["out/simulate.json"])
        notes = []
        err = _rel_err(report["phi_reference"], self.phi_ref)
        z = report["z_score"]
        if err > 1e-9:
            notes.append(f"phi_reference rel err {err:.3e} against the scipy oracle")
        if z is None or abs(z) > 4.0:
            notes.append(f"z-score {z} outside [-4, 4]")
        if notes:
            return self.ops_per_pass, notes
        diverged = sum(1 for v in report["per_path"] if v is None)
        if diverged:
            notes.append(f"{diverged} paths diverged")
        return diverged, notes


# ---------------------------------------------------------------------------
# solve_large: codesign solve at the n = 50 edge of the envelope


def pbh_margin(M: np.ndarray, v: np.ndarray) -> float:
    """Smallest singular value of [M - lam I, v] over eigenvalues with Re >= 0."""
    n = M.shape[0]
    return min(
        np.linalg.svd(np.hstack([M - lam * np.eye(n), v[:, None]]), compute_uv=False)[-1]
        for lam in np.linalg.eigvals(M)
        if lam.real >= 0.0
    )


class SolveLarge(Workload):
    """Dense, non-symmetric, open-loop-unstable plants solved one per call."""

    name = "solve_large"
    EPS = DELTA = 2.0
    #: Placements closer than this to the PBH boundary are redrawn: there phi
    #: reaches 1e9 and up, which is a conditioning test, not a timing one.
    MIN_PBH_MARGIN = 0.02

    def __init__(self, seed, workdir, small):
        super().__init__(seed, workdir, small)
        n, batch = (12, 2) if small else (50, 8)
        self.calls = []
        self.plants = {}
        for k in range(batch):
            A, b, c = self._plant(n)
            problem = {
                "A": A.tolist(),
                "epsilon": self.EPS,
                "delta": self.DELTA,
                "placement": {"b": b.tolist(), "c": c.tolist()},
            }
            out = workdir / f"plant{k}"
            self.calls.append(
                Call("solve", _write_problem(workdir / f"plant{k}.json", problem), out)
            )
            self.plants[out.name] = (A, b, c)
        self.ops_per_pass = batch
        self._oracle: dict[str, tuple[float, float]] = {}

    def _plant(self, n: int):
        """(A, b, c): A = G / sqrt(n) - 0.8 I with exactly three unstable
        eigenvalues, one of them a complex pair, and unit b, c whose PBH
        margins reach MIN_PBH_MARGIN. A plant where 32 draws of b (or of c)
        stay below the margin is itself redrawn."""
        while True:
            A = self.rng.standard_normal((n, n)) / math.sqrt(n) - 0.8 * np.eye(n)
            ev = np.linalg.eigvals(A)
            unstable = ev[ev.real >= 0.0]
            if unstable.size != 3 or np.count_nonzero(unstable.imag) != 2:
                continue
            b, c = self._direction(A), self._direction(A.T)
            if b is not None and c is not None:
                return A, b, c

    def _direction(self, M: np.ndarray):
        for _ in range(32):
            v = _unit(self.rng.standard_normal(M.shape[0]))
            if pbh_margin(M, v) >= self.MIN_PBH_MARGIN:
                return v
        return None

    def gate(self, outputs):
        failed, notes = 0, []
        for name, (A, b, c) in self.plants.items():
            if name not in self._oracle:
                self._oracle[name] = phi_oracle(A, self.EPS, self.DELTA, b, c)
            phi_ref, phi_bar_ref = self._oracle[name]
            report = json.loads(outputs[f"{name}/solve.json"])
            K, S = np.asarray(report["K"]), np.asarray(report["Sigma"])
            eye = np.eye(A.shape[0])
            res_K = sla.norm(A.T @ K + K @ A - self.EPS * K @ np.outer(b, b) @ K + eye)
            res_S = sla.norm(A @ S + S @ A.T - self.DELTA * S @ np.outer(c, c) @ S + eye)
            problems = []
            if _rel_err(report["phi"], phi_ref) > 1e-8:
                problems.append(f"phi rel err {_rel_err(report['phi'], phi_ref):.3e}")
            if _rel_err(report["phi_bar"], phi_bar_ref) > 1e-8:
                problems.append(f"phi_bar rel err {_rel_err(report['phi_bar'], phi_bar_ref):.3e}")
            if res_K > 1e-10 * (1 + sla.norm(K) ** 2) or res_S > 1e-10 * (1 + sla.norm(S) ** 2):
                problems.append(f"CARE residuals {res_K:.3e}, {res_S:.3e} over tolerance")
            if problems:
                failed += 1
                notes.append(f"{name}: " + "; ".join(problems))
        return failed, notes


WORKLOADS = {w.name: w for w in (Descent, Enumerate, MonteCarlo, SolveLarge)}
