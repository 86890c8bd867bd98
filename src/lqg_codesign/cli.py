"""Command-line front end.

    codesign solve|flow|equilibria|simulate|verify --problem <file.json> --out <dir>
             [--seed N] [--starts N]

Problem files are JSON with a dense system matrix ("A": [[...]]) or a named
generator ({"generator": "diag", "eigenvalues": [...]} or
{"generator": "laplacian", "n": N, "edges": [[i, j, w], ...]} which builds
A = -L from nonnegative undirected edge weights), gains "epsilon"/"delta",
and optional "placement" ({"b": [...], "c": [...]}, normalized on load),
"flow" options, "sim" config ("dt", "horizon_T", "n_paths", "burn_in"),
"seed", and "n_starts". An unknown key in "flow" or "sim" is a parse error.

Reports are JSON with floats printed to 17 significant digits (lossless
round-trip); finite float vectors and matrices are written a row at a time,
with the same bytes. Flow traces are CSV with the fixed column schema
iter,phi,grad_norm,step,b0..b{n-1},c0..c{n-1}. Exit codes: 0 ok, 1 usage,
2 parse, 3 solver (or failed verification), 4 all starts failed,
5 dimension cap, 6 simulation divergence. CODESIGN_THREADS caps multi-start
parallelism (0 = sequential).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .cost import CostReport, cost_report
from .equilibria import (
    KIND_COMMON,
    STABLE,
    EquilibriumCandidate,
    Spectrum,
    analytic_minimum,
    classify_candidates,
    classify_stability,
    enumerate_equilibria_zero,
    is_equilibrium,
    top_mode,
)
from .errors import (
    AllStartsFailed,
    CodesignError,
    DimensionTooLarge,
    ProblemFormatError,
    SimulationDiverged,
)
from .flow import FlowOptions, FlowTrace, multi_start
from .plant import Placement, Plant
from .riccati import pbh_check  # noqa: F401 - unused, but benchmark/tracer.py wraps it
from .simulate import SimConfig, estimate_eta
from .verify import run_checks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_ALL_STARTS_FAILED = 4
EXIT_DIMENSION = 5
EXIT_DIVERGED = 6


# ---------------------------------------------------------------------------
# JSON emission with 17-significant-digit floats


def _float_template(shape: tuple, indent: int) -> str:
    """What ``dumps`` writes for a float array of ``shape``, "%.17g" per entry."""
    item = _float_template(shape[1:], indent + 2) if shape[1:] else "%.17g"
    rows = ",\n".join([" " * (indent + 2) + item] * shape[0])
    return "[\n" + rows + "\n" + " " * indent + "]"


def dumps(obj, indent: int = 0) -> str:
    """Serialize nested dict/list/scalar data with %.17g floats; a finite float
    array or list fills its shape's template at once, in the same bytes."""
    if isinstance(obj, (float, np.floating)):
        return "%.17g" % obj if math.isfinite(obj) else "null"
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {dumps(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and 0 < obj.ndim < 3 and obj.size and np.isfinite(obj).all():
            return _float_template(obj.shape, indent) % tuple(obj.ravel().tolist())
        return dumps(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is float and math.isfinite(v) for v in obj):
            return _float_template((len(obj),), indent) % tuple(obj)
        items = [f"{inner}{dumps(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    return json.dumps(obj)


def _write_report(out_dir: Path, name: str, report: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(dumps(report) + "\n")
    return path


# ---------------------------------------------------------------------------
# Problem files


@dataclasses.dataclass
class Problem:
    plant: Plant
    placement: Placement | None
    flow_options: FlowOptions
    sim_config_raw: dict
    seed: int
    n_starts: int


def _build_matrix(entry) -> np.ndarray:
    if isinstance(entry, list):
        return np.asarray(entry, dtype=float)
    if not isinstance(entry, dict):
        raise ProblemFormatError("'A' must be a matrix or a generator object")
    kind = entry.get("generator")
    if kind == "diag":
        eigenvalues = entry.get("eigenvalues")
        if not isinstance(eigenvalues, list) or not eigenvalues:
            raise ProblemFormatError("diag generator needs a nonempty 'eigenvalues' list")
        return np.diag(np.asarray(eigenvalues, dtype=float))
    if kind == "laplacian":
        n = entry.get("n")
        edges = entry.get("edges")
        if not isinstance(n, int) or n < 1:
            raise ProblemFormatError("laplacian generator needs an integer 'n' >= 1")
        if not isinstance(edges, list):
            raise ProblemFormatError("laplacian generator needs an 'edges' list")
        weights = np.zeros((n, n))
        for edge in edges:
            if len(edge) != 3:
                raise ProblemFormatError(f"edge {edge!r} is not [i, j, w]")
            i, j, w = int(edge[0]), int(edge[1]), float(edge[2])
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ProblemFormatError(f"edge {edge!r} has invalid endpoints")
            if w < 0.0:
                raise ProblemFormatError(f"edge {edge!r} has a negative weight")
            weights[i, j] += w
            weights[j, i] += w
        laplacian = np.diag(weights.sum(axis=1)) - weights
        return -laplacian
    raise ProblemFormatError(f"unknown generator {kind!r}")


def _section(raw: dict, name: str, known) -> dict:
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ProblemFormatError(f"'{name}' must be an object")
    for key in section:
        if key not in known:
            raise ProblemFormatError(f"unknown key {key!r} in '{name}'")
    return section


def load_problem(path: Path) -> Problem:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ProblemFormatError("problem file must hold a JSON object")
    if "A" not in raw:
        raise ProblemFormatError("problem file is missing 'A'")
    try:
        A = _build_matrix(raw["A"])
        plant = Plant(A, float(raw.get("epsilon", 0.0)), float(raw.get("delta", 0.0)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFormatError(f"invalid plant: {exc}") from exc

    placement = None
    if "placement" in raw:
        spot = raw["placement"]
        if not isinstance(spot, dict) or "b" not in spot or "c" not in spot:
            raise ProblemFormatError("'placement' must hold vectors 'b' and 'c'")
        try:
            placement = Placement.normalized(
                np.asarray(spot["b"], dtype=float), np.asarray(spot["c"], dtype=float)
            )
        except (TypeError, ValueError) as exc:
            raise ProblemFormatError(f"invalid placement: {exc}") from exc
        if placement.n != plant.n:
            raise ProblemFormatError("placement dimension does not match A")

    flow_raw = _section(raw, "flow", {f.name for f in dataclasses.fields(FlowOptions)})
    try:
        flow_options = FlowOptions(
            grad_tol=float(flow_raw.get("grad_tol", 1e-9)),
            max_iters=int(flow_raw.get("max_iters", 100_000)),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFormatError(f"invalid flow options: {exc}") from exc

    sim_raw = _section(raw, "sim", {f.name for f in dataclasses.fields(SimConfig)} - {"seed"})

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise ProblemFormatError("'seed' must be a nonnegative integer")
    n_starts = raw.get("n_starts", 8)
    if not isinstance(n_starts, int):
        raise ProblemFormatError("'n_starts' must be an integer")
    return Problem(
        plant=plant,
        placement=placement,
        flow_options=flow_options,
        sim_config_raw=dict(sim_raw),
        seed=seed,
        n_starts=n_starts,
    )


def _sim_config(problem: Problem) -> SimConfig:
    raw = problem.sim_config_raw
    try:
        return SimConfig(
            dt=float(raw.get("dt", 1e-3)),
            horizon_T=float(raw.get("horizon_T", 100.0)),
            n_paths=int(raw.get("n_paths", 32)),
            burn_in=float(raw.get("burn_in", 10.0)),
            seed=problem.seed,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFormatError(f"invalid sim config: {exc}") from exc


def _require_placement(problem: Problem) -> Placement:
    if problem.placement is None:
        raise ProblemFormatError("this command requires a 'placement' in the problem file")
    return problem.placement


# ---------------------------------------------------------------------------
# Commands


def _pbh_report_dict(reports) -> dict:
    return {
        rep.mode: {
            "ok": rep.ok,
            "min_margin": rep.min_margin,
            "tested": [
                {"eigenvalue_re": lam.real, "eigenvalue_im": lam.imag, "margin": margin}
                for lam, margin in rep.tested
            ],
        }
        for rep in reports
    }


def cmd_solve(problem: Problem, args) -> dict:
    plant = problem.plant
    placement = _require_placement(problem)
    report = cost_report(plant, placement)
    return {
        "n": plant.n,
        "epsilon": plant.epsilon,
        "delta": plant.delta,
        "placement": {"b": placement.b_unit, "c": placement.c_unit},
        "phi": report.phi,
        "phi_bar": report.phi_bar,
        "K": report.gains.K,
        "Sigma": report.gains.Sigma,
        "M": report.adjoints.M,
        "N": report.adjoints.N,
        "residuals": {
            "K": report.gains.residual_K,
            "Sigma": report.gains.residual_Sigma,
            "M": report.adjoints.residual_M,
            "N": report.adjoints.residual_N,
        },
        "hurwitz_margins": {
            "regulator": report.gains.loop_K.margin,
            "filter": report.gains.loop_Sigma.margin,
        },
        "pbh": _pbh_report_dict(report.gains.pbh),
    }


def _trace_csv_lines(trace: FlowTrace, n: int) -> list[str]:
    header = (
        ["iter", "phi", "grad_norm", "step"]
        + [f"b{i}" for i in range(n)]
        + [f"c{i}" for i in range(n)]
    )
    lines = [",".join(header)]
    for k, it in enumerate(trace.iterates):
        row = (
            [str(k), "%.17g" % it.phi, "%.17g" % it.grad_norm, "%.17g" % it.step]
            + ["%.17g" % x for x in it.placement.b_unit]
            + ["%.17g" % x for x in it.placement.c_unit]
        )
        lines.append(",".join(row))
    return lines


def _classify_or_none(plant: Plant, placement: Placement, report: CostReport) -> dict:
    try:
        eigs, verdict = classify_stability(
            plant, placement, eq_tol=1e-6, report=report
        )
    except CodesignError as exc:
        return {"stability": None, "note": str(exc)}
    return {"stability": verdict, "hessian_eigs": list(eigs)}


def cmd_flow(problem: Problem, args) -> dict:
    plant = problem.plant
    opts = problem.flow_options
    result = multi_start(plant, problem.n_starts, problem.seed, opts)
    best = result.best
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "flow_trace.csv").write_text(
        "\n".join(_trace_csv_lines(best, plant.n)) + "\n"
    )
    report = cost_report(plant, best.final)
    eq_flag, eq_res = is_equilibrium(
        plant, best.final, 10.0 * opts.grad_tol, report=report
    )
    summary = {
        "seed": problem.seed,
        "n_starts": problem.n_starts,
        "best": {
            "placement": {"b": best.final.b_unit, "c": best.final.c_unit},
            "phi": best.iterates[-1].phi,
            "status": best.status,
            "iterations": len(best.iterates) - 1,
            "grad_norm": best.iterates[-1].grad_norm,
            "counters": dataclasses.asdict(best.counters),
            "equilibrium": {
                "within_10x_grad_tol": eq_flag,
                "residuals": list(eq_res),
            },
            **_classify_or_none(plant, best.final, report),
        },
        "starts": [
            {
                "status": tr.status,
                "phi": tr.iterates[-1].phi if tr.iterates else None,
                "iterations": max(len(tr.iterates) - 1, 0),
                "counters": dataclasses.asdict(tr.counters),
                **({} if tr.error is None else {"error": tr.error}),
            }
            for tr in result.all
        ],
    }
    return summary


def cmd_equilibria(problem: Problem, args) -> dict:
    plant = problem.plant
    spectrum = Spectrum.of(plant)
    # top_mode raises for lambda_1 > 0, a zero mode at zero gain or a repeated one.
    if top_mode(spectrum.Lambda, plant.epsilon, plant.delta)[0] < 0.0:
        candidates = classify_candidates(spectrum, enumerate_equilibria_zero(spectrum))
        regime = "negative_definite_zero_gain"
    else:
        # Negative semidefinite spectrum (e.g. Laplacian): the zero-gain
        # enumeration is unavailable, but the cost-minimizing placement is
        # still the top-eigenvector pair; classify it at the problem's gains.
        v1 = spectrum.eigenvector(0)
        placement = Placement(v1, v1.copy())
        eigs, verdict = classify_stability(plant, placement)
        candidates = [
            EquilibriumCandidate(
                placement=placement,
                kind=KIND_COMMON,
                support=(0,),
                sign_s=(1,) + (0,) * (plant.n - 1),
                xi=None,
                hessian_eigs=tuple(float(e) for e in eigs),
                stability=verdict,
            )
        ]
        regime = "negative_semidefinite_v1_only"
    candidates_out = [
        {
            "kind": cand.kind,
            "support": cand.support,
            "sign_s": cand.sign_s,
            "xi": cand.xi,
            "placement": {"b": cand.placement.b_unit, "c": cand.placement.c_unit},
            "stability": cand.stability,
            "hessian_eigs": cand.hessian_eigs,
        }
        for cand in candidates
    ]
    stable_idx = [i for i, c in enumerate(candidates) if c.stability == STABLE]
    return {
        "regime": regime,
        "eigenvalues": spectrum.Lambda,
        "n_candidates": len(candidates),
        "stable_indices": stable_idx,
        "candidates": candidates_out,
        "analytic_minimum": analytic_minimum(spectrum, plant.epsilon, plant.delta),
    }


def cmd_simulate(problem: Problem, args) -> dict:
    plant = problem.plant
    placement = _require_placement(problem)
    cfg = _sim_config(problem)
    result = estimate_eta(plant, placement, cfg)
    z_score = (
        (result.eta_hat - result.phi_reference) / result.stderr
        if result.stderr and not math.isnan(result.stderr)
        else None
    )
    return {
        "config": dataclasses.asdict(cfg),
        "eta_hat": result.eta_hat,
        "stderr": result.stderr,
        "phi_reference": result.phi_reference,
        "z_score": z_score,
        "per_path": result.per_path,
        "flags": list(result.flags),
    }


def cmd_verify(problem: Problem, args) -> dict:
    flip = bool(getattr(args, "inject_wrong_sign_gradient", False))
    return run_checks(problem.plant, problem.seed, flip_gradient_sign=flip)


# ---------------------------------------------------------------------------
# Entry point


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="codesign", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "flow", "equilibria", "simulate", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--problem", required=True, type=Path)
        p.add_argument("--out", required=True, type=Path)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--starts", type=int, default=None)
        if name == "verify":
            p.add_argument(
                "--inject-wrong-sign-gradient",
                action="store_true",
                help=argparse.SUPPRESS,
            )
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "flow": cmd_flow,
    "equilibria": cmd_equilibria,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        problem = load_problem(args.problem)
    except (OSError, ProblemFormatError) as exc:
        print(f"problem error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    if args.seed is not None:
        if args.seed < 0:
            print("usage error: --seed must be nonnegative", file=sys.stderr)
            return EXIT_USAGE
        problem.seed = args.seed
    if args.starts is not None:
        problem.n_starts = args.starts
    if args.command == "flow" and problem.n_starts < 1:
        print("usage error: need at least one start", file=sys.stderr)
        return EXIT_USAGE
    if args.command == "simulate":
        try:
            too_few_paths = int(problem.sim_config_raw.get("n_paths", 32)) < 1
        except (TypeError, ValueError, OverflowError):
            too_few_paths = False  # not a count at all: _sim_config reports it
        if too_few_paths:
            print("usage error: need at least one simulation path", file=sys.stderr)
            return EXIT_USAGE

    try:
        report = _COMMANDS[args.command](problem, args)
    except ProblemFormatError as exc:
        print(f"problem error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AllStartsFailed as exc:
        print(f"flow error: {exc}", file=sys.stderr)
        return EXIT_ALL_STARTS_FAILED
    except DimensionTooLarge as exc:
        print(f"dimension error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except SimulationDiverged as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (CodesignError, ValueError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    path = _write_report(Path(args.out), f"{args.command}.json", report)
    print(f"wrote {path}")
    if args.command == "solve":
        print(f"phi = {report['phi']!r}, phi_bar = {report['phi_bar']!r}")
    elif args.command == "flow":
        print(
            f"best phi = {report['best']['phi']!r} ({report['best']['status']}, "
            f"{report['best']['iterations']} iterations)"
        )
    elif args.command == "equilibria":
        print(
            f"{report['n_candidates']} candidates, "
            f"stable: {report['stable_indices']}"
        )
    elif args.command == "simulate":
        print(
            f"eta_hat = {report['eta_hat']!r} +/- {report['stderr']!r} "
            f"(phi = {report['phi_reference']!r})"
        )
    elif args.command == "verify":
        for check in report["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            print(f"[{'SKIP' if 'skipped' in check else status}] {check['name']}")
        if not report["all_passed"]:
            return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
