"""Benchmark of archscale, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload diurnal-ref --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, traced

One run makes passes of the workload while another one fits in
``--seconds`` (at least one, and two on a simulation workload), checks
every operation's outputs, times cold set-up in fresh interpreters spread
over the run and prints, as its last line, one
JSON object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics of one more, traced pass (``--trace 1``). The metric names and
units are those of ``BENCHMARK.json``. It exits 1 when an output check
fails and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 11

sys.path[0] = str(ROOT)  # import the benchmark as the ``bench`` package

from bench import metrics  # noqa: E402
from bench.measure import SetupProbes  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited-for
    child; the set-up probes are not waited for yet."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def run_one(args) -> int:
    from bench.workloads import WORKLOADS

    out = ROOT / ".bench_run" / str(os.getpid())
    probes = SetupProbes([sys.executable, str(ROOT / "bench" / "setup_probe.py")],
                         SETUP_PROBES, args.seconds)
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), out,
                                           probes.due)
        setup = probes.finish()
        outcome.end_to_end["peak_rss_mb"] = peak_rss_mb()
    finally:
        probes.reap()
        shutil.rmtree(out, ignore_errors=True)
        if out.parent.is_dir() and not any(out.parent.iterdir()):
            out.parent.rmdir()
    outcome.end_to_end["setup_s"] = setup.pop("setup_s")
    if outcome.per_layer is not None:
        outcome.per_layer.update(setup)

    tally = outcome.tally
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in outcome.exact.items():
        print(f"exact {key} {value}")
    samples = outcome.calibration.samples_ns
    print(f"calibration best_ms {min(samples) / 1e6} samples {len(samples)}")
    for group in (outcome.end_to_end, outcome.per_layer or {}):
        for name, value in group.items():
            print(f"metric {name} {value} {metrics.UNITS[name]}")
    for problem in tally.problems[:50]:
        print(f"FAILED {problem}")
    if len(tally.problems) > 50:
        print(f"FAILED ... and {len(tally.problems) - 50} more")
    print(f"operations attempted {tally.attempted} failed {tally.failed}")

    reported = outcome.per_layer if args.trace else outcome.end_to_end
    expected = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    if set(reported) != set(expected):
        raise RuntimeError(f"metric set mismatch: {sorted(set(reported) ^ set(expected))}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": reported[name], "unit": metrics.UNITS[name]}
                    for name in expected},
    }))
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process; returns non-zero if any run failed."""
    status = 0
    for name in (*metrics.WORKLOADS, *metrics.EXTRA_WORKLOADS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*metrics.WORKLOADS, *metrics.EXTRA_WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)
    if not (SRC / "archscale" / "__init__.py").is_file():
        print(f"error: no archscale sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        args.trace = 1 if args.trace is None else args.trace
        return run_all(args)
    args.trace = args.trace or 0
    try:
        return run_one(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
