"""Run one corrq benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload dme --seed 1 --seconds 20 --trace 0

The workload's fixed list of calls (a round) is repeated on the same
inputs for as many whole rounds as fit in --seconds, and every round's
outputs are checked. --trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced rounds and reports the per-layer metrics and the
tracing overhead. Run from the root of a checkout: the package is
imported from its src/ directory. Details and trace spans go to
perfbench/results/.
"""

import os

# One Python thread and single-threaded BLAS/OpenMP, fixed before numpy loads,
# so a small shared machine measures the program and not its scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

_SCRIPT_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOADS = ("dme", "scalar-exact", "tasks")


def seconds_since_process_start() -> float:
    """Elapsed time since the kernel started this process, interpreter
    start-up included; the script's own start where /proc cannot say."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        elapsed = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        elapsed = -1.0
    if not 0.0 < elapsed < 3600.0:
        elapsed = time.perf_counter() - _SCRIPT_START
    return elapsed


def import_package():
    """Import corrq from this checkout's src/, and only from there."""
    sys.path.insert(0, str(SRC))
    try:
        import corrq
    except ImportError as exc:
        raise SystemExit(f"cannot import corrq from {SRC}: {exc}")
    if not Path(corrq.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"corrq came from {corrq.__file__}, not from {SRC}")
    return corrq


def run_round(workload):
    """Time one pass over the workload's calls; returns (wall seconds,
    per-call seconds, outputs by label, failed labels)."""
    outputs, failed, times = {}, [], []
    start = time.perf_counter()
    for label, call in workload.ops:
        t0 = time.perf_counter()
        try:
            outputs[label] = call()
        except Exception as exc:  # counted as failed; the run goes on
            failed.append(label)
            print(f"{label} failed: {exc!r}", file=sys.stderr)
        times.append(time.perf_counter() - t0)
    return time.perf_counter() - start, times, outputs, failed


def fastest_wall(rounds: list[list[float]]) -> float:
    """A round's wall time with each call at its fastest across rounds.

    On a shared machine other tenants slow this process for part of the
    time; the fastest repeat of a call is the steadiest estimate of what
    the call itself costs (see README, "Why the fastest repeat")."""
    return sum(min(call) for call in zip(*rounds))


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True  # leave nothing behind in the checkout
    import_package()
    import tracer as tracing  # the benchmark's own modules, after corrq's path
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.BUILDERS[args.workload](args.seed)
    workload.ops[0][1]()  # warm-up call
    setup_s = seconds_since_process_start()
    if tracer is not None:
        tracer.uninstall()
        # layers whose work is done once, in set-up, not in the rounds
        setup_layers = {f"{name}_s": tracer.self_s[name] for name in tracing.SETUP_LAYERS}

    walls = {False: [], True: []}
    call_times = {False: [], True: []}  # per round, each call's seconds
    layer_rounds, problems = [], []
    attempted = failed = 0
    first = None
    begin = time.perf_counter()
    # whole rounds, as many as fit in --seconds (at least one of each kind)
    while len(walls[False]) + len(walls[True]) < 1 + args.trace or (
        time.perf_counter() - begin + statistics.median(walls[False] + walls[True])
        <= args.seconds
    ):
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        if traced:
            tracer.reset()
            tracer.install()
        wall, times, outputs, failed_labels = run_round(workload)
        if traced:
            tracer.uninstall()
            layer_rounds.append(tracer.layer_metrics())
            if len(layer_rounds) == 1:
                spans = tracer.spans
        walls[traced].append(wall)
        call_times[traced].append(times)
        attempted += len(workload.ops)
        failed += len(failed_labels)
        if failed_labels:
            continue
        problems.extend(workload.check(outputs))
        if first is None:
            first = outputs
        elif outputs != first:
            problems.append("a round's outputs differ from the first round's")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = fastest_wall(call_times[False])
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (untraced, "s"),
            "coords_per_s": (workload.coords / untraced, "coords/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        counted = [m for m, unit in tracing.METRICS.items() if unit in tracing.COUNT_UNITS]
        if any(r[m] != layer_rounds[0][m] for r in layer_rounds for m in counted):
            problems.append("per-layer counts differ between traced rounds")
        traced_wall = fastest_wall(call_times[True])
        layers = {name: min(r[name] for r in layer_rounds) for name in layer_rounds[0]}
        layers.update(setup_layers)
        layers["trace.untraced_round_s"] = untraced
        layers["trace.overhead"] = 100.0 * (traced_wall - untraced) / untraced
        metrics = {name: (layers[name], unit) for name, unit in tracing.METRICS.items()}

    problems = list(dict.fromkeys(problems))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(
        result,
        rounds={"untraced": walls[False], "traced": walls[True]},
        call_p50_s=quantile(sum(call_times[False], []), 0.5),
        call_p90_s=quantile(sum(call_times[False], []), 0.9),
        call_seconds=call_times[False],
        calls_per_round=len(workload.ops),
        coords_per_round=workload.coords,
        problems=problems,
        machine={
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "platform": platform.platform(),
        },
    )
    if tracer is not None:
        detail["layers"] = layers
        origin = min(span[3] for span in spans)
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as f:
            f.write('["id", "name", "layer", "start_s", "end_s", "parent"]\n')
            for sid, name, layer, start, end, parent in spans:
                row = [sid, name, layer, round(start - origin, 7), round(end - origin, 7), parent]
                f.write(json.dumps(row) + "\n")
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
