"""Benchmark of the hamfp command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in perfbench/workloads.py, or ``all``, which
runs each workload in its own process and prints every result. One client
calls ``hamfp.cli.main`` in a closed loop, one operation at a time, on inputs
made from the seed, for about S seconds in whole passes. Outputs are checked
after each operation, outside the timed region.

With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
reports the per-layer metrics: each input runs twice, translated so that no
input repeats, once untraced and once with spans around hamfp's public
functions, and the two give the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The run is also recorded, with its
environment, in perfbench/out/.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Any

from calibration import REF_S, at_reference, calibrate
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_SAMPLES = 10
SPAN_CAP = 100_000
TAIL_SAMPLES = 10  # the tail percentile keeps at least this many samples above it

# Times the import and the parser, then takes calibration samples in the same
# interpreter, so that each set-up time can be put at the reference speed.
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import hamfp.cli\n"
    "hamfp.cli.build_parser()\n"
    "elapsed = time.perf_counter() - start\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from calibration import calibrate\n"
    "print(elapsed, *(calibrate() for _ in range(5)))\n"
)


def setup_samples(count: int) -> list[tuple[float, float]]:
    """For each of count fresh interpreters, the seconds to import hamfp.cli
    and build its parser, and the median of its calibration samples."""
    samples = []
    for _ in range(count):
        child = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(Path(__file__).parent)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        elapsed, *speed = map(float, child.stdout.split())
        samples.append((elapsed, statistics.median(speed)))
    return samples


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(latencies: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least TAIL_SAMPLES samples above
    it, and that percentile; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= TAIL_SAMPLES:
        return ordered[-1], 100
    percentile = 100 * (count - TAIL_SAMPLES) // count
    index = max(0, -(-percentile * count // 100) - 1)  # nearest rank
    return ordered[index], percentile


def run_op(main: Any, argv: list[str]) -> tuple[int | None, str, float, str | None]:
    """One call of the CLI: exit code, standard output, seconds, traceback."""
    out = io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed op; keep measuring
            code = None
            error = traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
    return code, out.getvalue(), elapsed, error


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    import hamfp.cli  # only now: main puts src/ on the path first

    workload = WORKLOADS[name]()
    rng = random.Random(seed)
    shift = rng.randrange(-10**6, 10**6)  # op k translates its input by shift + k
    tracer = Tracer(SPAN_CAP) if trace else None
    scratch = OUT / f"input-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    path = scratch / "input.json"
    latencies = {False: [], True: []}
    # An untraced run takes a calibration sample before its first op and
    # after each op, and reports its timed metrics at the reference speed.
    speed: list[float] = []
    failures: list[str] = []
    ops = passes = warmups = 0

    def one(item: Any, traced: bool, warmup: bool = False) -> None:
        nonlocal ops, warmups
        k = -1 - warmups if warmup else ops  # a warm-up gets a translation of its own
        path.write_text(json.dumps(workload.document(item, shift + k)))
        if traced:
            tracer.op = ops
            tracer.install()
        try:
            code, out, elapsed, error = run_op(
                hamfp.cli.main, [workload.command, str(path), *workload.flags]
            )
        finally:
            if traced:
                tracer.uninstall()
        if warmup:
            warmups += 1
        else:
            latencies[traced].append(elapsed)
            if not trace:
                speed.append(calibrate())
            ops += 1
        try:
            problem = error or workload.check(item, shift + k, code, out)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            failures.append(f"op {k}: {problem}")

    # Half the set-up samples before the loop and half after, so that a slow
    # spell of the machine weighs on fewer of them. The very first sample is
    # dropped: it may compile the bytecode.
    setup = [] if trace else setup_samples(SETUP_SAMPLES // 2 + 1)[1:]
    try:
        all_passes = workload.passes(rng)
        first = next(all_passes)
        calibrate()  # warm-up, as is the op that follows
        one(first[0], False, warmup=True)
        speed.append(calibrate())
        start = perf_counter()
        for items in itertools.chain([first], all_passes):
            pass_start = perf_counter()
            for item in items:
                if not trace:
                    one(item, False)
                    continue
                for traced in (False, True) if ops % 4 == 0 else (True, False):
                    one(item, traced)
                if perf_counter() - start >= seconds:
                    break
            passes += 1
            now = perf_counter()
            # An untraced run measures whole passes, so it starts another only
            # if that should end in time. A traced run stops when time is up.
            if seconds - (now - start) <= (0 if trace else now - pass_start):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops": ops,
        "passes": passes,
        "attempted": ops + warmups,
        "failed": len(failures),
        "failures": failures[:5],
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "commit": git_commit(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
    }
    if trace:
        untraced = statistics.fmean(latencies[False])
        traced = statistics.fmean(latencies[True])
        result["metrics"] = tracer.metrics(len(latencies[True]), traced / untraced)
        result["module_shares"] = tracer.module_shares()
        spans = OUT / f"spans-{name}-seed{seed}.jsonl.gz"
        tracer.write(spans)
        result["spans"] = str(spans.relative_to(ROOT))
    else:
        lat = latencies[False]
        norm = at_reference(lat, speed)
        tail_value, percentile = tail(lat)
        result["tail"] = {"percentile": percentile, "samples": len(lat)}
        result["failed_ratio"] = len(failures) / result["attempted"]
        setup += setup_samples(SETUP_SAMPLES // 2)
        result["samples"] = {
            "latency_s": lat, "calibration_s": speed, "setup_s_and_calibration_s": setup,
        }
        result["wall"] = {
            "wall_setup_s": (statistics.median(t for t, _ in setup), "s"),
            "wall_ops_per_s": (len(lat) / sum(lat), "1/s"),
            "wall_latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
            "wall_latency_tail_ms": (tail_value * 1000, "ms"),
            "calibration_ms": (statistics.median(speed) * 1000, "ms"),
        }
        result["metrics"] = {
            "setup_s": (statistics.median(t * REF_S / c for t, c in setup), "s"),
            "norm_ops_per_s": (len(norm) / sum(norm), "1/s"),
            "norm_latency_p50_ms": (statistics.median(norm) * 1000, "ms"),
            "norm_latency_tail_ms": (tail(norm)[0] * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return result


def print_result(result: dict[str, Any]) -> None:
    env = result["env"]
    print(
        f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"ops {result['ops']}  passes {result['passes']}  failed {result['failed']}"
    )
    print(
        f"  env python {env['python']}  commit {env['commit'][:12]}  nproc {env['nproc']}"
    )
    for name, (value, unit) in [*result["metrics"].items(), *result.get("wall", {}).items()]:
        note = ""
        if name.endswith("latency_tail_ms"):
            note = f"  (p{result['tail']['percentile']} of {result['tail']['samples']} ops)"
        print(f"  {name:38s} {value:14.6g} {unit}{note}")
    if "failed_ratio" in result:
        print(f"  {'failed_ratio':38s} {result['failed_ratio']:14.6g} ratio")
    if "module_shares" in result:
        shares = "  ".join(f"{m} {s:.1%}" for m, s in result["module_shares"].items())
        print(f"  self-time share by module: {shares}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def summary(result: dict[str, Any]) -> dict[str, Any]:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so that peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(child.stderr, file=sys.stderr)
            return 1
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, entry in last["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hamfp" / "__init__.py").is_file():
        print(f"perfbench: no hamfp sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
