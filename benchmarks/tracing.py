"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent, run id); parent is the index of the
enclosing span or -1.  Spans are recorded from the benchmark's own files:
explicit ``span`` blocks around benchmark calls, and wrappers that
``install_layer_wrappers`` puts on public names of the package by
attribute replacement.  Only the traced run installs them, and
``uninstall`` restores every original.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional


@dataclass(slots=True)
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int
    run: str


class Tracer:
    """Records spans while ``recording``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self.run_id = ""
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def start(self, run_id: str) -> None:
        self.run_id, self.recording = run_id, True

    def stop(self) -> None:
        self.recording = False

    def open(self, name: str) -> int:
        if not self.recording:
            return -1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.run_id))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if index < 0:
            return
        self.spans[index].end = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        rename: Optional[Callable[[object], str]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``rename`` maps the call's result to the span name, for entry
        points whose cost class is only known from their answer.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if rename is not None and index >= 0:
                tracer.spans[index].name = rename(result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write_csv(self, path: Path) -> None:
        own = self_times(self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "run", "name", "start_ns", "end_ns", "self_ns"])
            for i, (s, self_ns) in enumerate(zip(self.spans, own)):
                out.writerow([i, s.parent, s.run, s.name, s.start, s.end, self_ns])


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    The run is single-threaded, so children of one span never overlap and
    their durations add up to the part of the parent they cover.
    """
    covered = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


#: numpy.fft transforms; numpy's own nested calls bypass these names
FFT_ENTRY_POINTS = (
    "fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
    "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn",
)


def install_layer_wrappers(tracer: Tracer) -> None:
    import numpy.fft

    import krflab.ansatz as az
    import krflab.cohomology as coh
    import krflab.ghmetric as gh
    import krflab.maflow as mf
    import krflab.maflow.solver as solver

    tracer.wrap(mf, "run", "maflow.run")
    tracer.wrap(mf.TorusBackground, "fast_metric_fields", "maflow.rhs")
    tracer.wrap(mf.TorusBackground, "tail_energy_fraction", "maflow.tail")
    tracer.wrap(solver, "snapshot", "maflow.snapshot")
    for name in FFT_ENTRY_POINTS:
        tracer.wrap(numpy.fft, name, "maflow.fft")
    tracer.wrap(
        gh,
        "gh_upper_bound",
        "gh.bound",
        rename=lambda bound: "gh.exhaustive" if bound.exact else "gh.heuristic",
    )
    tracer.wrap(gh, "gh_epsilon", "gh.epsilon")
    tracer.wrap(gh, "collapse_series", "gh.collapse")
    tracer.wrap(coh, "is_kahler", "coh.cone")
    tracer.wrap(coh, "max_existence_time", "coh.maxtime")
    tracer.wrap(coh, "limiting_class", "coh.limit")
    tracer.wrap(coh, "volume", "coh.volume")
    tracer.wrap(coh, "null_locus", "coh.null_locus")
    tracer.wrap(az, "crosscheck_T", "ansatz.crosscheck")
    tracer.wrap(az, "integrate", "ansatz.integrate")


def layer_metrics(spans: list[Span], runs: set[str], simulated_time: float) -> dict[str, float]:
    """Per-layer figures from the spans of the given runs, per run.

    Counts and seconds are averaged over the runs; ``*_us`` figures are
    the mean duration of one call; ``simulated_time`` is the mean flow
    time of one run.  A layer the workload never calls reads 0.
    """
    count: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    own_total: dict[str, int] = defaultdict(int)
    for s, own in zip(spans, self_times(spans)):
        if s.run in runs:
            count[s.name] += 1
            total[s.name] += s.end - s.start
            own_total[s.name] += own
    per_run = 1.0 / max(len(runs), 1)

    def calls(name):
        return count[name] * per_run

    def seconds(name):
        return total[name] * 1e-9 * per_run

    def mean_us(name):
        return total[name] * 1e-3 / count[name] if count[name] else 0.0

    return {
        "maflow.rhs_calls": calls("maflow.rhs"),
        "maflow.rhs_per_unit_t": calls("maflow.rhs") / simulated_time if simulated_time else 0.0,
        "maflow.loop_self_s": own_total["maflow.run"] * 1e-9 * per_run,
        "maflow.rhs_s": seconds("maflow.rhs"),
        "maflow.rhs_us": mean_us("maflow.rhs"),
        "maflow.fft_calls": calls("maflow.fft"),
        "maflow.fft_s": seconds("maflow.fft"),
        "maflow.snapshot_calls": calls("maflow.snapshot"),
        "maflow.snapshot_s": seconds("maflow.snapshot"),
        "maflow.tail_s": seconds("maflow.tail"),
        "gh.heuristic_calls": calls("gh.heuristic"),
        "gh.heuristic_s": seconds("gh.heuristic"),
        "gh.exhaustive_calls": calls("gh.exhaustive"),
        "gh.exhaustive_s": seconds("gh.exhaustive"),
        "gh.epsilon_calls": calls("gh.epsilon"),
        "gh.epsilon_s": seconds("gh.epsilon"),
        "gh.collapse_s": seconds("gh.collapse"),
        "coh.cone_us": mean_us("coh.cone"),
        "coh.maxtime_us": mean_us("coh.maxtime"),
        "coh.limit_us": mean_us("coh.limit"),
        "coh.volume_us": mean_us("coh.volume"),
        "coh.null_locus_us": mean_us("coh.null_locus"),
        "ansatz.crosscheck_us": mean_us("ansatz.crosscheck"),
        "ansatz.integrate_s": seconds("ansatz.integrate"),
    }
