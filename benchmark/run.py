"""Benchmark of the ``codesign`` CLI on four seeded workloads.

    python3 benchmark/run.py --workload descent --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --smoke

Run it from the repository root: it imports the package from ``src/`` and
writes problem files, reports and a result record under ``.bench_out/``.

With ``--trace 0`` it prints the end-to-end metrics of one workload:
set-up time of a fresh interpreter, median time to solution over passes of
the workload's CLI calls (made in-process through ``cli.main`` after a
warm-up pass on a reduced instance), peak resident memory, and the share of
operations whose outputs pass the workload's gate. With ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics of
the traced ones. ``--smoke`` runs every workload at reduced size in both
modes, plus the tracer's self-checks, and fails on any gate or on a metric
name that does not match ``BENCHMARK.json``. See ``benchmark/NOTES.md``.
"""

from __future__ import annotations

import os

#: Thread settings fixed before numpy is first imported. With two OpenBLAS
#: threads a 3x3 solve is over 100x slower than with one, so unpinned
#: numbers would measure the scheduler.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "CODESIGN_THREADS": "0",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh-interpreter set-ups timed per run; the median is reported.
SETUP_REPEATS = 5
#: Passes per run at least, so byte-identity across passes is always checked.
MIN_PASSES = 2

_SETUP_CHILD = (
    "import sys\n"
    "from lqg_codesign import cli\n"
    "for path in sys.argv[1:]:\n"
    "    cli.load_problem(path)\n"
)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {key: os.environ.get(key) for key in PINNED_ENV},
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }


class Speedometer:
    """Samples the host's speed while a block of work runs.

    The shared 2-vCPU host this benchmark was written on changes speed by
    1.5x to 3x, for seconds to minutes at a time, as neighbouring load comes
    and goes; the same pass then takes 3.4 s in one run and 5.1 s in the
    next. Every 50 ms of a timed block, a timer signal runs a fixed kernel of
    about 1.5 ms and records how long it took. The kernel mixes what the
    program spends its time on, in about equal parts: small-array numpy
    steps in an interpreter loop, a sorted real Schur form of a 32x32
    matrix, and 8x8 Lyapunov solves. A block's time at the host's usual
    speed is its time minus the time spent in the kernel, scaled by
    ``NOMINAL_S`` over the median kernel time during that block.
    """

    INTERVAL_S = 0.05
    #: Median kernel time on the host above at its usual speed.
    NOMINAL_S = 1.5e-3

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20180609)
        self._x0 = rng.standard_normal((32, 3))
        self._step = 1e-4 * rng.standard_normal((3, 3))
        self._H = rng.standard_normal((32, 32))
        self._F = rng.standard_normal((8, 8)) - 6.0 * np.eye(8)
        self._Q = np.eye(8)
        self.samples: list[float] = []
        #: (raw seconds, median kernel seconds) per normalized block.
        self.blocks: list[tuple[float, float]] = []

    def _kernel(self) -> None:
        import scipy.linalg as sla

        x = self._x0
        for _ in range(150):
            x = x + x @ self._step
        sla.schur(self._H, output="real", sort="lhp")
        for _ in range(3):
            sla.solve_continuous_lyapunov(self._F, self._Q)

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def running(self):
        """Sample every INTERVAL_S until the block ends; ``samples`` restarts."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def normalize(self, elapsed: float, serial: bool = True) -> float:
        """Time at usual speed of the block just run, from its samples.

        ``serial`` says the samples ran in the timed process and their time
        is taken out; a child process keeps running while they do. A block
        too short to be sampled is topped up with samples taken right after.
        """
        spent = sum(self.samples) if serial else 0.0
        while len(self.samples) < 5:
            self._sample()
        kernel = statistics.median(self.samples)
        self.blocks.append((elapsed, kernel))
        return (elapsed - spent) * self.NOMINAL_S / kernel


def measure_setup(files: list[Path], repeats: int, speedometer: Speedometer) -> list[float]:
    """Times, at the host's usual speed, of fresh interpreters that import
    the package and load ``files``; the children run one at a time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        with speedometer.running():
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", _SETUP_CHILD, *map(str, files)],
                cwd=ROOT,
                env=env,
                check=True,
                stdout=subprocess.DEVNULL,
                timeout=120,
            )
            elapsed = time.perf_counter() - start
        times.append(speedometer.normalize(elapsed, serial=False))
    return times


def run_pass(workload, speedometer: Speedometer | None = None) -> tuple[float, list[int]]:
    """Run the workload's CLI calls once; returns (seconds, exit codes).

    With a speedometer, the seconds are at the host's usual speed.
    """
    from lqg_codesign import cli

    sampling = speedometer.running() if speedometer else contextlib.nullcontext()
    with contextlib.redirect_stdout(io.StringIO()), sampling:
        start = time.perf_counter()
        codes = [cli.main(call.argv()) for call in workload.calls]
        elapsed = time.perf_counter() - start
    if speedometer:
        return speedometer.normalize(elapsed), codes
    return elapsed, codes


class Gatekeeper:
    """Gates every pass and keeps the tally; identical output bytes reuse
    the first verdict."""

    def __init__(self, workload):
        self.workload = workload
        self.verdicts: dict[str, tuple[int, list[str]]] = {}
        self.attempted = self.failed = 0
        self.notes: list[str] = []

    def check(self, codes: list[int]) -> None:
        from workloads import digest

        if any(codes):
            failed, messages = self.workload.ops_per_pass, [f"exit codes {codes}"]
        else:
            outputs = self.workload.outputs()
            key = digest(outputs)
            if key not in self.verdicts:
                self.verdicts[key] = self.workload.gate(outputs)
            failed, messages = self.verdicts[key]
        self.attempted += self.workload.ops_per_pass
        self.failed += failed
        self.notes.extend(m for m in messages if m not in self.notes)

    @property
    def identical(self) -> bool:
        """Every gated pass wrote the same report bytes."""
        return len(self.verdicts) <= 1


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False,
                 min_traced: int = 1) -> dict:
    """One benchmark run; returns the result record (metrics, gate outcome, notes).

    Untraced, it times passes for ``seconds`` (at least MIN_PASSES). Traced,
    it alternates an untraced and a traced pass for ``seconds`` (at least
    ``min_traced`` rounds), and the untraced ones only give the overhead.
    """
    from tracer import Tracer, combine_passes, layer_metrics
    from workloads import WORKLOADS

    work = OUT / f"{name}-{seed}{'-small' if small else ''}"
    shutil.rmtree(work, ignore_errors=True)
    workload = WORKLOADS[name](seed, work / "timed", small)
    speed = None if trace else Speedometer()
    setup_times = [] if trace else measure_setup(
        workload.problem_files, 2 if small else SETUP_REPEATS, speed
    )
    _, warmup_codes = run_pass(WORKLOADS[name](seed, work / "warmup", True))

    gate = Gatekeeper(workload)
    untraced, traced, layer_passes = [], [], []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        elapsed, codes = run_pass(workload, speed)
        untraced.append(elapsed)
        gate.check(codes)
        if trace:
            with Tracer() as tracer:
                elapsed, codes = run_pass(workload)
            traced.append(elapsed)
            gate.check(codes)
            layer_passes.append(layer_metrics(tracer.spans, workload.context))
        now = time.perf_counter()
        rounds = len(traced) >= min_traced if trace else len(untraced) >= MIN_PASSES
        if rounds and now - started + (now - round_start) > seconds:
            break

    notes = gate.notes
    if any(warmup_codes):
        notes.append(f"warm-up exit codes {warmup_codes}")
    if not gate.identical:
        notes.append("report bytes differ between passes of the same input")
    record = {"workload": name, "seed": seed, "trace": int(trace), "env": environment()}
    if trace:
        metrics, mismatches = combine_passes(layer_passes)
        notes.extend(mismatches)
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
        record.update(untraced_pass_s=untraced, traced_pass_s=traced)
    else:
        mismatches = []
        ok, total = gate.attempted - gate.failed, gate.attempted
        probe = getattr(workload, "probe", None)
        if probe is not None:
            # The known-defect probe counts as one operation of every pass,
            # outside the timed region.
            record["probe"] = probe()
            ok += len(untraced) * (record["probe"] is None)
            total += len(untraced)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": ok / total,
        }
        # Normalized times, then (raw seconds, median kernel seconds) of every
        # timed block: the set-up children first, then the passes.
        record.update(setup_s=setup_times, pass_s=untraced, raw_and_kernel_s=speed.blocks)
    sound = not any(warmup_codes) and gate.identical and not mismatches
    record.update(
        notes=notes,
        metrics=metrics,
        correct=sound and not gate.failed,
        attempted=gate.attempted,
        failed=gate.failed,
    )
    return record


def units() -> dict[str, str]:
    from tracer import LAYER_METRICS

    return {
        "setup_s": "s",
        "wall_s": "s",
        "peak_rss_mb": "MB",
        "ok_frac": "ratio",
        **{name: unit for name, (unit, _) in LAYER_METRICS.items()},
    }


def result_line(record: dict) -> str:
    unit_of = units()
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": value, "unit": unit_of[name]}
                for name, value in record["metrics"].items()
            },
        }
    )


def smoke() -> int:
    """Reduced-size run of every workload and mode, plus tracer self-checks."""
    from tracer import LAYER_METRICS, TARGETS, TIME_UNITS, Tracer, layer_metrics
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads do not match the benchmark's")
    for name in WORKLOADS:
        for trace in (0, 1):
            record = run_workload(name, 1, 0.0, bool(trace), small=True, min_traced=2)
            line = json.loads(result_line(record))
            printed = {k: v["unit"] for k, v in line["metrics"].items()}
            status = "ok" if record["correct"] else "FAILED"
            print(f"{name} trace={trace}: {status}, {record['attempted']} ops, "
                  f"notes {record['notes']}")
            if not record["correct"]:
                problems.append(f"{name} trace={trace}: {record['notes']}")
            if printed != declared[trace]:
                problems.append(f"{name} trace={trace}: metrics {printed} do not match "
                                f"BENCHMARK.json {declared[trace]}")

    # A renamed or deleted target reads as zero calls instead of crashing,
    # and uninstalling restores every attribute.
    from lqg_codesign import riccati

    original = riccati.solve_care
    with Tracer(targets=TARGETS + [("riccati", "no_such_solver", "riccati.gone", None)]) as tracer:
        pass
    if tracer.missing != ["riccati.no_such_solver"] or riccati.solve_care is not original:
        problems.append(f"tracer: missing {tracer.missing}, restored "
                        f"{riccati.solve_care is original}")

    # Multi-start threads keep their own span stacks: counts match the
    # sequential run, and every span lies inside its parent, on its thread.
    descent = WORKLOADS["descent"](2, OUT / "descent-threads", True)
    counts = []
    for threads in ("0", "2"):
        os.environ["CODESIGN_THREADS"] = threads
        try:
            with Tracer() as tracer:
                _, codes = run_pass(descent)
        finally:
            os.environ["CODESIGN_THREADS"] = PINNED_ENV["CODESIGN_THREADS"]
        metrics = layer_metrics(tracer.spans, descent.context)
        counts.append({k: v for k, v in metrics.items() if LAYER_METRICS[k][0] not in TIME_UNITS})
        outside = [s.name for s in tracer.spans
                   if s.parent is not None
                   and not (s.parent.start <= s.start and s.end <= s.parent.end)]
        run_flow_threads = {s.thread for s in tracer.spans if s.name == "flow.run_flow"}
        if any(codes) or outside or len(run_flow_threads) != (1 if threads == "0" else 2):
            problems.append(f"tracer with CODESIGN_THREADS={threads}: exit codes {codes}, "
                            f"{len(outside)} spans outside their parent, starts ran on "
                            f"{len(run_flow_threads)} threads")
    if counts[0] != counts[1]:
        problems.append(f"tracer: threaded counts {counts[1]} != sequential {counts[0]}")

    for problem in problems:
        print(f"smoke failure: {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own child process, one at a time, as a table."""
    from workloads import WORKLOADS

    all_correct = True
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True, timeout=600,
        )
        result = json.loads(child.stdout.splitlines()[-1])
        all_correct &= result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:38s} {entry['value']:>16.6g} {entry['unit']}")
    return 0 if all_correct else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "lqg_codesign" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'lqg_codesign'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lqg_codesign

    if Path(lqg_codesign.__file__).resolve().parent != (SRC / "lqg_codesign").resolve():
        print(f"error: imported {lqg_codesign.__file__} instead of the checkout's package",
              file=sys.stderr)
        return 2

    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in ("env", "notes", "probe") if k in record}))
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
