"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload {tune,serve_mixed} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the end-to-end metrics are measured with no wrappers installed.
With ``--trace 1`` the workload runs twice, untraced and then traced, and
the per-layer metrics come from the traced pass (``trace.overhead`` is the
ratio of the two passes' headline metric).  Human-readable lines come first;
the last line of standard output is one JSON object.  Spans of a traced run
are written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("tune", "serve_mixed")
#: The end-to-end metric whose traced/untraced ratio is ``trace.overhead``.
#: Not ``p50_ms`` for ``serve_mixed``: the socket stall pins it whatever the
#: program costs.  Nor ``wall_s``: recovery runs untraced.
HEADLINE = {"tune": "wall_s", "serve_mixed": "tail_ms"}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, recorder, work_dir: Path):
    import workloads

    if name == "tune":
        return workloads.run_tune(seed, seconds, recorder)
    return workloads.run_serve_mixed(seed, seconds, recorder, str(work_dir))


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    # OpenBLAS worker threads spin between calls and take the cores the
    # server's own threads need; with them the same set-up read 10 or 32 ms.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path[:0] = [str(HERE), str(SRC)]
    import spans

    work_dir = ROOT / ".bench_build" / "perfbench"
    work_dir.mkdir(parents=True, exist_ok=True)
    outcome = run_workload(args.workload, args.seed, args.seconds, None, work_dir)
    for note in outcome.notes:
        print(f"[{args.workload}] {note}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"[{args.workload}] {name} = {value:.6g} {unit}")
    for name, (value, unit) in outcome.details.items():
        print(f"[{args.workload}] detail {name} = {value:.8g} {unit}")
    print(
        f"[{args.workload}] correct={outcome.correct} attempted={outcome.attempted} "
        f"failed={outcome.failed} error_rate={outcome.failed / max(1, outcome.attempted):.4g}"
    )
    result = {"correct": outcome.correct, "attempted": outcome.attempted, "failed": outcome.failed}
    if args.trace:
        recorder = spans.Recorder()
        traced = run_workload(args.workload, args.seed, args.seconds, recorder, work_dir)
        headline = HEADLINE[args.workload]
        metrics, self_ms = spans.summarize(
            recorder, traced.ops, traced.measured_wall, traced.operations,
            overhead=traced.metrics[headline][0] / outcome.metrics[headline][0],
            extra=traced.extra_layer,
        )
        for name, value in metrics.items():
            print(f"[{args.workload}] layer {name} = {value:.6g} {spans.unit_of(name)}")
        total_self = sum(self_ms.values()) or 1.0
        unit = "request" if traced.ops else "tuner iteration"
        print(f"[{args.workload}] self time by layer, ms per {unit} (share):")
        for layer, value in self_ms.items():
            print(f"    {layer:<20} {value:12.4f}  {100.0 * value / total_self:6.2f}%")
        if not traced.ops:
            print(f"[{args.workload}] wall by top-level call (share of {traced.measured_wall:.2f} s):")
            for layer, seconds in spans.top_level_seconds(recorder).items():
                print(f"    {layer:<20} {seconds:12.3f} s  {100 * seconds / traced.measured_wall:6.2f}%")
        spans_path = work_dir / f"spans-{args.workload}-{args.seed}.json"
        recorder.dump(str(spans_path))
        print(f"[{args.workload}] {len(recorder.spans)} spans written to {spans_path}")
        result["correct"] = outcome.correct and traced.correct
        result["attempted"] += traced.attempted
        result["failed"] += traced.failed
        result["metrics"] = {
            name: {"value": float(value), "unit": spans.unit_of(name)}
            for name, value in metrics.items()
        }
    else:
        result["metrics"] = {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
