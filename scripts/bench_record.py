"""Append one parent-vs-change entry to BENCH_krflab.json.

Reads the untraced records that ``benchmarks/run.py`` writes, one per
workload and seed, from a parent checkout's and a change checkout's
``benchmarks/out/``:

    for seed in 201 202 203; do for w in flow-n1 flow-n2 gh-search exact-queries; do
        (cd parent && python3 benchmarks/run.py --workload $w --seed $seed --seconds 25)
        (cd change && python3 benchmarks/run.py --workload $w --seed $seed --seconds 25)
    done; done
    python3 scripts/bench_record.py --label <name> --parent parent --change change \\
        --seeds 201,202,203

For every workload and every end-to-end metric the entry holds the
median and the interquartile range over the seeds, for the parent and
for the change, next to the seeds and the change run's environment.  A
workload uses each listed seed that both checkouts have a record for;
a record on one side only is an error.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

METRICS = ("wall_scaled_s", "setup_s", "peak_rss_mb")
WORKLOADS = ("flow-n1", "flow-n2", "gh-search", "exact-queries")


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1, "runs": values}


def record_path(checkout: Path, workload: str, seed: int) -> Path:
    return checkout / "benchmarks" / "out" / f"{workload}-seed{seed}-trace0.json"


def side(checkout: Path, workload: str, seeds: list[int]) -> tuple[dict, list[dict]]:
    records = [json.loads(record_path(checkout, workload, s).read_text()) for s in seeds]
    for r in records:
        if r["failed"]:
            raise SystemExit(f"{checkout}: {workload} seed {r['seed']}: {r['failed']} failed tasks")
    metrics = {m: summary([r["metrics"][m]["value"] for r in records]) for m in METRICS}
    return metrics, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--output", type=Path, default=Path("BENCH_krflab.json"))
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    workloads, environment = {}, None
    for w in WORKLOADS:
        present = [s for s in seeds if record_path(args.parent, w, s).exists()]
        lone = [s for s in seeds if (s in present) != record_path(args.change, w, s).exists()]
        if lone or not present:
            raise SystemExit(f"{w}: seeds {lone or seeds} lack a parent or a change record")
        parent, _ = side(args.parent, w, present)
        change, records = side(args.change, w, present)
        environment = {k: v for k, v in records[0]["environment"].items() if k != "seed"}
        workloads[w] = {"seeds": present, "parent": parent, "change": change}
    entry = {
        "label": args.label,
        "seconds": records[0]["seconds"],
        "environment": environment,
        "workloads": workloads,
    }
    bench = (
        json.loads(args.output.read_text())
        if args.output.exists()
        else {"schema": 1, "entries": []}
    )
    bench["entries"].append(entry)
    args.output.write_text(json.dumps(bench, indent=2) + "\n")
    for w, sides in workloads.items():
        cells = [
            f"{m} {sides['parent'][m]['median']:.4g} -> {sides['change'][m]['median']:.4g}"
            for m in METRICS
        ]
        print(f"{w}: " + "; ".join(cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
