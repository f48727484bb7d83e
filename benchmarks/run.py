"""krflab benchmark: one workload in one fresh process, one closed-loop caller.

    python3 benchmarks/run.py --workload flow-n1 --seed 1 --seconds 25 --trace 0

The caller solves one round of the workload, checks it, and starts the
next round only while another round still fits in ``--seconds``; the
first round always runs.  Inputs come from ``--seed`` alone, and every
round gets fresh inputs.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
repeated set-ups of a fresh-interpreter import plus input generation and
warm-up), ``wall_scaled_s`` (the median round time at reference host
speed, see ``reference.py``; the plain median round goes to the record)
and ``peak_rss_mb``.  ``--trace 1`` first runs untraced rounds, then
installs span wrappers and runs the same rounds again, and prints the
per-layer metrics together with ``trace.overhead_s``, the traced minus
the untraced median scaled round.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, seed, checks, workload figures, spans) goes under
``benchmarks/out/``.  The package is imported from ``src/`` next to this
directory and nowhere else; without it the run exits with code 1 and
prints no result.
"""

from __future__ import annotations

import os

# one process, one thread per library: pinned before numpy is imported
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARIABLES:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7


def fresh_import_seconds() -> float:
    """Wall time of a new interpreter that imports the CLI module and exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import krflab.cli"],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    return time.perf_counter() - start


def import_package():
    """Import the package from this checkout's src/, or fail."""
    if not (SRC / "krflab" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no krflab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import krflab

    if not Path(krflab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: krflab imported from {krflab.__file__}, not {SRC}")
    import workloads

    return workloads


def environment(seed: int) -> dict:
    import numpy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in THREAD_VARIABLES},
        "seed": seed,
    }


class Rounds:
    """Outcome of one phase of closed-loop rounds."""

    def __init__(self):
        self.seconds: list[float] = []
        #: reference times before the first round and after every round
        self.reference: list[float] = []
        self.run_ids: set[str] = set()
        self.simulated_time = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def scaled(self) -> list[float]:
        return reference.scaled_seconds(self.seconds, self.reference)


def run_rounds(workload, seed: int, budget: float, tracer, label: str) -> Rounds:
    """Solve, then check, round after round while another round fits."""
    out = Rounds()
    phase_start = time.perf_counter()
    out.reference.append(reference.reference_seconds())
    while not out.seconds or (
        time.perf_counter() - phase_start + statistics.median(out.seconds) <= budget
    ):
        index = len(out.seconds)
        inputs = workload.make_inputs(seed, index)
        run_id = f"{label}-{index}"
        if tracer is not None:
            tracer.start(run_id)
        start = time.perf_counter()
        try:
            outputs = workload.solve(inputs)
        except Exception as err:  # a raised round is one failed task
            outputs, error = None, f"{type(err).__name__}: {err}"
        finally:
            out.seconds.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.stop()
            out.reference.append(reference.reference_seconds())
        out.run_ids.add(run_id)
        if outputs is None:
            out.attempted += 1
            out.failures.append(f"round {index} raised {error}")
            continue
        out.simulated_time += workload.simulated_time(outputs)
        for name, values in workload.samples(outputs).items():
            out.samples.setdefault(name, []).extend(values)
        for task in workload.check(inputs, outputs):
            out.attempted += 1
            if task.failed:
                bad = [f"{c.name} ({c.detail})" for c in task.checks if not c.passed]
                out.failures.append(f"round {index} {task.task}: {task.error or '; '.join(bad)}")
    return out


def set_up(workload, seed: int, tracer) -> tuple[float, float]:
    """Median fresh import and median input generation plus warm-up."""
    imports = [fresh_import_seconds() for _ in range(SETUP_REPEATS)]
    builds = []
    for _ in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.start("setup")
        start = time.perf_counter()
        inputs = workload.make_inputs(seed, 0, span=tracer.span if tracer else None)
        workload.warm_up(inputs)
        builds.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.stop()
    return statistics.median(imports), statistics.median(builds)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    import_s, build_s = set_up(workload, args.seed, tracer)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "setup": {"import_s": import_s, "build_s": build_s},
    }

    if args.trace:
        untraced = run_rounds(workload, args.seed, args.seconds / 2, None, "untraced")
        tracing.install_layer_wrappers(tracer)
        try:
            traced = run_rounds(workload, args.seed, args.seconds / 2, tracer, "traced")
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
        backgrounds = [
            (s.end - s.start) * 1e-9 for s in tracer.spans if s.name == "maflow.background"
        ]
        layers = tracing.layer_metrics(
            tracer.spans, traced.run_ids, traced.simulated_time / len(traced.seconds)
        )
        layers["maflow.background_s"] = statistics.median(backgrounds) if backgrounds else 0.0
        layers["cli.import_s"] = import_s
        layers["trace.overhead_s"] = statistics.median(traced.scaled()) - statistics.median(
            untraced.scaled()
        )
        metrics = {name: metric(value, LAYER_UNITS[name]) for name, value in layers.items()}
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.csv"
        tracer.write_csv(spans_path)
        record["spans"] = str(spans_path.relative_to(HERE.parent))
    else:
        rounds = run_rounds(workload, args.seed, args.seconds, None, "round")
        phases = [rounds]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": metric(import_s + build_s, "s"),
            "wall_scaled_s": metric(statistics.median(rounds.scaled()), "s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
        }

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    # workload figures come from untraced rounds only
    figures = workload.figures(phases[0].samples)
    figures["wall_median_s"] = statistics.median(phases[0].seconds)
    figures["reference_median_s"] = statistics.median(phases[0].reference)
    figures["fail_ratio"] = len(failures) / attempted
    record.update(
        rounds=[p.seconds for p in phases],
        reference=[p.reference for p in phases],
        attempted=attempted,
        failed=len(failures),
        failures=failures,
        figures=figures,
        metrics=metrics,
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    env = record["environment"]
    print(
        f"# {workload.name} seed={args.seed} trace={args.trace} python {env['python']} "
        f"numpy {env['numpy']} scipy {env['scipy']} nproc {env['nproc']}"
    )
    print(f"# rounds: {', '.join(f'{len(p.seconds)}' for p in phases)}; figures: {json.dumps(figures)}")
    for line in failures[:20]:
        print(f"# FAILED {line}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


LAYER_UNITS = {
    "maflow.rhs_calls": "count",
    "maflow.rhs_per_unit_t": "calls/t",
    "maflow.loop_self_s": "s",
    "maflow.rhs_s": "s",
    "maflow.rhs_us": "us",
    "maflow.fft_calls": "count",
    "maflow.fft_s": "s",
    "maflow.snapshot_calls": "count",
    "maflow.snapshot_s": "s",
    "maflow.tail_s": "s",
    "maflow.background_s": "s",
    "cli.import_s": "s",
    "gh.heuristic_calls": "count",
    "gh.heuristic_s": "s",
    "gh.exhaustive_calls": "count",
    "gh.exhaustive_s": "s",
    "gh.epsilon_calls": "count",
    "gh.epsilon_s": "s",
    "gh.collapse_s": "s",
    "coh.cone_us": "us",
    "coh.maxtime_us": "us",
    "coh.limit_us": "us",
    "coh.volume_us": "us",
    "coh.null_locus_us": "us",
    "ansatz.crosscheck_us": "us",
    "ansatz.integrate_s": "s",
    "trace.overhead_s": "s",
}


if __name__ == "__main__":
    sys.exit(main())
