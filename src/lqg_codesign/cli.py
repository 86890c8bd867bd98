"""Command-line front end.

    codesign solve|flow|equilibria|simulate|verify --problem <file.json> --out <dir>
             [--seed N] [--starts N]

Problem files are JSON with a dense system matrix ("A": [[...]]) or a named
generator ({"generator": "diag", "eigenvalues": [...]} or
{"generator": "laplacian", "n": N, "edges": [[i, j, w], ...]} which builds
A = -L from nonnegative undirected edge weights), gains "epsilon"/"delta",
and optional "placement" ({"b": [...], "c": [...]}, normalized on load),
"flow" options, "sim" config ("dt", "horizon_T", "n_paths", "burn_in"),
"seed", and "n_starts". --seed and --starts stand in for "seed" and
"n_starts". ``load_problem`` checks every value, "sim" included, whatever the
command, and returns the frozen ``Problem`` that the command runs. An unknown
key, at the top level or in "A", "placement", "flow" or "sim", is a parse error.

Reports are JSON with floats printed to 17 significant digits (lossless
round-trip). Every report is read once into a shape and its values, and
filled from one template per shape, in the bytes of writing each value on
its own. Flow traces are CSV with the fixed column schema
iter,phi,grad_norm,step,b0..b{n-1},c0..c{n-1}, each row filled from one
template. Exit codes: 0 ok, 1 usage (the command line), 2 problem file,
3 solver (or failed verification), 4 all starts failed, 5 dimension cap,
6 simulation divergence. CODESIGN_THREADS caps multi-start workers (0 = one
worker, the calling thread); each worker stops at its first error, and the
first error in start order is raised.
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
    STABLE,
    Spectrum,
    analytic_minimum,
    classify_candidates,
    classify_stability,
    enumerate_equilibria_zero,
    is_equilibrium,
    top_mode,
    top_pair_candidate,
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


#: The format of one slot of a template, by the shape of the value it holds.
_SLOTS = {"f": "%.17g", "d": "%d", "s": "%s"}


def _shape(obj, slots: list):
    """The shape of ``obj``, with the values of its slots appended to ``slots``.

    A shape is "f", "d" or "s" for one finite float, int or string slot;
    "null", "true", "false", "[]" or "{}" for that literal; ("f", L) or
    ("d", L) for a list of L finite floats or ints; ("[", s1, ...) for any
    other list, tuple or array; and ("{", (key, s1), ...) for a dict. A
    finite nonempty square float64 matrix that is bitwise symmetric (-0.0
    facing 0.0 across the diagonal is not), as every report's matrix is, has
    each value of its upper triangle formatted once, and its rows are all
    ("s", n) of those strings; any other array is read as its ``tolist()``.
    A value that JSON cannot hold raises ``json.dumps``'s TypeError.
    """
    kind = type(obj)
    if kind is not dict and kind is not list and kind is not tuple:
        if isinstance(obj, np.ndarray):
            if obj.dtype == np.float64 and obj.ndim == 2 and obj.size and np.isfinite(obj).all():
                rows, cols = obj.shape
                bits = obj.view(np.int64)
                if rows == cols and np.array_equal(bits, bits.T):
                    upper, mirror = _triangle(rows)
                    text = ["%.17g" % value for value in obj[upper].tolist()]
                    slots.extend(map(text.__getitem__, mirror))
                    return ("[", *[("s", cols)] * rows)
            return _shape(obj.tolist(), slots)
        if kind is str:
            slots.append(json.dumps(obj))
            return "s"
        if isinstance(obj, (float, np.floating)):
            if not math.isfinite(obj):
                return "null"
            slots.append(obj)
            return "f"
        if obj is None or kind is bool:
            return json.dumps(obj)
        if isinstance(obj, (int, np.integer)):
            slots.append(int(obj))
            return "d"
        if not isinstance(obj, (dict, list, tuple)):
            slots.append(json.dumps(obj))  # a str subclass; another type raises TypeError
            return "s"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return _canonical(("{", *[(str(key), _shape(value, slots)) for key, value in obj.items()]))
    if not obj:
        return "[]"
    kinds = set(map(type, obj))
    if kinds == {float} and math.isfinite(sum(obj)):  # a sum is finite only if every term is
        slots.extend(obj)
        return ("f", len(obj))
    if kinds == {int}:
        slots.extend(obj)
        return ("d", len(obj))
    return ("[", *[_shape(value, slots) for value in obj])


def _template(shape, indent: int) -> str:
    """What ``dumps`` writes for a value of ``shape``, a slot per value. A
    list's items, the rows that repeat, take theirs from ``_item_template``,
    so that no kept template holds a whole report."""
    if isinstance(shape, str):
        return _SLOTS.get(shape, shape)
    head = shape[0]
    if head in _SLOTS:
        items = [_SLOTS[head]] * shape[1]
    elif head == "{":
        items = [
            f"{json.dumps(key).replace('%', '%%')}: {_template(sub, indent + 2)}"
            for key, sub in shape[1:]
        ]
    else:
        items = [_item_template(sub, indent + 2) for sub in shape[1:]]
    brackets = "{}" if head == "{" else "[]"
    inner = "\n" + " " * (indent + 2)
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{' ' * indent}{brackets[1]}"


@functools.lru_cache(maxsize=64)
def _triangle(n: int) -> tuple[tuple[np.ndarray, np.ndarray], list[int]]:
    """The upper triangle of an n x n matrix, as row-major indices, and for
    each entry (i, j) in row-major order the position of (min, max) in it."""
    upper = np.triu_indices(n)
    position = np.empty((n, n), dtype=np.intp)
    position[upper] = position.T[upper] = np.arange(upper[0].size)
    return upper, position.ravel().tolist()


#: ``_template`` of a list item, built once per shape and indent.
_item_template = functools.lru_cache(maxsize=1024)(_template)
#: The first instance read of each dict shape: the rows of a long report share
#: one shape each, so reading them leaves no tuples for the garbage collector.
_canonical = functools.lru_cache(maxsize=1024)(lambda shape: shape)


def dumps(obj, indent: int = 0) -> str:
    """Serialize nested dict/list/scalar data with %.17g floats, in the bytes
    of writing each value on its own: ``obj`` is read once into its shape and
    its values, and the values fill the one template of that shape."""
    slots = []
    shape = _shape(obj, slots)
    return _template(shape, indent) % tuple(slots)


def _write_report(out_dir: Path, name: str, report: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(dumps(report) + "\n")
    return path


# ---------------------------------------------------------------------------
# Problem files


@dataclasses.dataclass(frozen=True)
class Problem:
    plant: Plant
    placement: Placement | None
    flow_options: FlowOptions
    sim_config: SimConfig
    seed: int
    n_starts: int


def _is_int(value) -> bool:
    """A JSON integer: an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A JSON number: an ``int`` or ``float`` that is not a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _real_array(values, what: str, matrix: bool = False) -> np.ndarray:
    """A vector (a flat list of JSON numbers) or, with ``matrix``, a list of
    rows of them, as a float array."""
    rows = values if matrix and isinstance(values, list) else [values]
    # One pass over the entry types: JSON numbers parse as int or float only.
    # A row that is not a list, or an entry that is one, is of the wrong rank.
    kinds = {type(x) for row in rows for x in row} if all(type(r) is list for r in rows) else {list}
    if list in kinds:
        raise ProblemFormatError(f"{what} must be a list of {'rows of ' * matrix}numbers")
    if not kinds <= {int, float}:
        raise ProblemFormatError(f"{what} must hold only numbers")
    return np.asarray(values, dtype=float)


def _build_matrix(entry) -> np.ndarray:
    if isinstance(entry, list):
        return _real_array(entry, "'A'", matrix=True)
    if not isinstance(entry, dict):
        raise ProblemFormatError("'A' must be a matrix or a generator object")
    kind = entry.get("generator")
    if kind == "diag":
        _known(entry, ("generator", "eigenvalues"), "'A'")
        eigenvalues = entry.get("eigenvalues")
        if not isinstance(eigenvalues, list) or not eigenvalues:
            raise ProblemFormatError("diag generator needs a nonempty 'eigenvalues' list")
        return np.diag(_real_array(eigenvalues, "'eigenvalues'"))
    if kind == "laplacian":
        _known(entry, ("generator", "n", "edges"), "'A'")
        n = entry.get("n")
        edges = entry.get("edges")
        if not _is_int(n) or n < 1:
            raise ProblemFormatError("laplacian generator needs an integer 'n' >= 1")
        if not isinstance(edges, list):
            raise ProblemFormatError("laplacian generator needs an 'edges' list")
        weights = np.zeros((n, n))
        for edge in edges:
            if len(edge) != 3:
                raise ProblemFormatError(f"edge {edge!r} is not [i, j, w]")
            i, j, w = edge
            if not (_is_int(i) and _is_int(j) and 0 <= i < n and 0 <= j < n) or i == j:
                raise ProblemFormatError(f"edge {edge!r} has invalid endpoints")
            if not _is_real(w):
                raise ProblemFormatError(f"edge {edge!r} has a weight that is not a number")
            if w < 0.0:
                raise ProblemFormatError(f"edge {edge!r} has a negative weight")
            weights[i, j] += w
            weights[j, i] += w
        laplacian = np.diag(weights.sum(axis=1)) - weights
        return -laplacian
    raise ProblemFormatError(f"unknown generator {kind!r}")


def _known(obj: dict, known, where: str) -> dict:
    """``obj``, refused if a key, say a misspelled one, is not in ``known``."""
    for key in obj:
        if key not in known:
            raise ProblemFormatError(f"unknown key {key!r} in {where}")
    return obj


def _section(raw: dict, name: str, known) -> dict:
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ProblemFormatError(f"'{name}' must be an object")
    return _known(section, known, f"'{name}'")


#: The "sim" section of a problem file, where the file leaves a key out.
SIM_DEFAULTS = {"dt": 1e-3, "horizon_T": 100.0, "n_paths": 32, "burn_in": 10.0}


def load_problem(path: Path, seed: int | None = None, n_starts: int | None = None) -> Problem:
    """The problem in the file at ``path``, every value checked, with ``seed``
    and ``n_starts`` (from --seed and --starts) over the file's where given."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ProblemFormatError("problem file must hold a JSON object")
    if "A" not in raw:
        raise ProblemFormatError("problem file is missing 'A'")
    problem_keys = ("A", "epsilon", "delta", "placement", "flow", "sim", "seed", "n_starts")
    _known(raw, problem_keys, "the problem file")
    flow_raw = _section(raw, "flow", {f.name for f in dataclasses.fields(FlowOptions)})
    sim_raw = _section(raw, "sim", {f.name for f in dataclasses.fields(SimConfig)} - {"seed"})
    counts = ((flow_raw, "max_iters"), (sim_raw, "n_paths"), (raw, "seed"), (raw, "n_starts"))
    for section, key in counts:  # JSON integers: no float truncated, no bool read as 0/1
        if not _is_int(section.get(key, 0)):
            raise ProblemFormatError(f"'{key}' must be an integer")
    reals = (
        (raw, "epsilon"), (raw, "delta"), (flow_raw, "grad_tol"),
        (sim_raw, "dt"), (sim_raw, "horizon_T"), (sim_raw, "burn_in"),
    )
    for section, key in reals:  # JSON numbers: no bool read as 0/1, no string parsed
        if not _is_real(section.get(key, 0.0)):
            raise ProblemFormatError(f"'{key}' must be a number")
    try:
        A = _build_matrix(raw["A"])
        plant = Plant(A, float(raw.get("epsilon", 0.0)), float(raw.get("delta", 0.0)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFormatError(f"invalid plant: {exc}") from exc

    placement = None
    if "placement" in raw:
        spot = _section(raw, "placement", ("b", "c"))
        if "b" not in spot or "c" not in spot:
            raise ProblemFormatError("'placement' must hold vectors 'b' and 'c'")
        try:
            placement = Placement.normalized(
                _real_array(spot["b"], "'b'"), _real_array(spot["c"], "'c'")
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProblemFormatError(f"invalid placement: {exc}") from exc
        if placement.n != plant.n:
            raise ProblemFormatError("placement dimension does not match A")

    try:
        flow_options = FlowOptions(**flow_raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFormatError(f"invalid flow options: {exc}") from exc

    seed = raw.get("seed", 0) if seed is None else seed
    n_starts = raw.get("n_starts", 8) if n_starts is None else n_starts
    if seed < 0:
        raise ProblemFormatError("'seed' must be a nonnegative integer")
    if n_starts < 1:
        raise ProblemFormatError("'n_starts' must be at least 1")
    sim = {**SIM_DEFAULTS, **sim_raw}
    try:
        dt, horizon_T, burn_in = (float(sim[key]) for key in ("dt", "horizon_T", "burn_in"))
        sim_config = SimConfig(dt, horizon_T, sim["n_paths"], burn_in, seed)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFormatError(f"invalid sim config: {exc}") from exc
    return Problem(plant, placement, flow_options, sim_config, seed, n_starts)


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
    header = ["iter", "phi", "grad_norm", "step"] + [f"{v}{i}" for v in "bc" for i in range(n)]
    row = "%d" + ",%.17g" * (3 + 2 * n)
    return [",".join(header)] + [
        row % (k, it.phi, it.grad_norm, it.step, *it.placement.b_unit, *it.placement.c_unit)
        for k, it in enumerate(trace.iterates)
    ]


def _classify_or_none(report: CostReport) -> dict:
    try:
        eigs, verdict = classify_stability(report, eq_tol=1e-6)
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
    # The descent's own evaluation of its last iterate: nothing is solved again.
    eq_flag, eq_res = is_equilibrium(best.report, 10.0 * opts.grad_tol)
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
            **_classify_or_none(best.report),
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
        # Negative semidefinite spectrum (e.g. Laplacian): only (v_1, v_1).
        candidates = [top_pair_candidate(plant, spectrum)]
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
    result = estimate_eta(plant, placement, problem.sim_config)
    return {
        "config": dataclasses.asdict(problem.sim_config),
        "eta_hat": result.eta_hat,
        "stderr": result.stderr,
        "phi_reference": result.phi_reference,
        "z_score": result.z_score,
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


def _at_least(least: int, message: str):
    """An argparse type: an integer of at least ``least``, else ``message``."""
    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        if int(text) < least:
            raise argparse.ArgumentTypeError(message)
        return int(text)
    return integer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="codesign", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "flow", "equilibria", "simulate", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--problem", required=True, type=Path)
        p.add_argument("--out", required=True, type=Path)
        p.add_argument("--seed", type=_at_least(0, "--seed must be nonnegative"))
        p.add_argument("--starts", type=_at_least(1, "--starts must be at least 1"))
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

#: The line a command prints after its report, filled from the report;
#: ``verify`` prints one line per check instead.
_SUMMARIES = {
    "solve": "phi = {phi!r}, phi_bar = {phi_bar!r}",
    "flow": "best phi = {best[phi]!r} ({best[status]}, {best[iterations]} iterations)",
    "equilibria": "{n_candidates} candidates, stable: {stable_indices}",
    "simulate": "eta_hat = {eta_hat!r} +/- {stderr!r} (phi = {phi_reference!r})",
}

#: A command's error, by the first row whose type it is: exit code and stderr
#: prefix. The last row holds every type above it.
_ERRORS = (
    (ProblemFormatError, EXIT_PARSE, "problem"),
    (AllStartsFailed, EXIT_ALL_STARTS_FAILED, "flow"),
    (DimensionTooLarge, EXIT_DIMENSION, "dimension"),
    (SimulationDiverged, EXIT_DIVERGED, "simulation"),
    ((CodesignError, ValueError), EXIT_SOLVER, "solver"),
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        problem = load_problem(args.problem, args.seed, args.starts)
    except (OSError, ProblemFormatError) as exc:
        print(f"problem error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        report = _COMMANDS[args.command](problem, args)
    except _ERRORS[-1][0] as exc:
        code, prefix = next((c, p) for kind, c, p in _ERRORS if isinstance(exc, kind))
        print(f"{prefix} error: {exc}", file=sys.stderr)
        return code

    path = _write_report(Path(args.out), f"{args.command}.json", report)
    print(f"wrote {path}")
    if args.command in _SUMMARIES:
        print(_SUMMARIES[args.command].format(**report))
        return EXIT_OK
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{'SKIP' if 'skipped' in check else status}] {check['name']}")
    return EXIT_OK if report["all_passed"] else EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
