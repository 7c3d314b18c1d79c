"""hill-octant benchmark: one closed-loop, single-threaded workload per process.

    python3 perfbench/run.py --workload bands_corpus --seed 1 --seconds 10 --trace 0

Runs whole rounds of the workload's operations, one after another, until
--seconds have passed (at least one round), checks every output after its
round, and prints as its last stdout line a JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the process runs one traced and one untraced
round and reports the per-layer figures from the traced one.  Without --workload it runs every
workload, each in its own process.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402

# one BLAS/OpenMP thread, set before numpy loads: the first LAPACK call with
# the default thread pool costs close to a second and varies run to run
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("bands_corpus", "halfsolid_sweep", "octant_model")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: every workload, one process each")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_package():
    """Import hill_octant from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import hill_octant
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import hill_octant from {SRC}: {exc}")
    if Path(hill_octant.__file__).resolve().parent != (SRC / "hill_octant").resolve():
        sys.exit(f"perfbench: hill_octant was imported from {hill_octant.__file__}, not {SRC}")


def _run_round(ops, tracer=None):
    """Run each op once, then check the outputs.

    Returns (op durations, failed count, unexpected failures, peak RSS in MB
    after the ops).  The checks run after the whole round so that their own
    memory (large check bases) does not count in the program's peak.
    """
    durations, outcomes = [], []
    for op in ops:
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            outcomes.append((op.run(), None))
        except Exception as exc:  # a raising op is a failed op; the loop goes on
            outcomes.append((None, [f"raised {type(exc).__name__}: {exc}"]))
            traceback.print_exc(file=sys.stderr)
        durations.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.enabled = False
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"perfbench: round{' (traced)' if tracer else ''} {sum(durations):.3f} s: "
          + " ".join(f"{op.kind}={d:.3f}" for op, d in zip(ops, durations)), file=sys.stderr)

    failed, unexpected = 0, []
    for op, (result, problems) in zip(ops, outcomes):
        if problems is None:
            try:
                problems = op.check(result)
            except Exception as exc:  # a check that cannot run is a failed check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
                traceback.print_exc(file=sys.stderr)
        if problems:
            failed += 1
            tag = "known fault" if op.known_fault else "FAILED"
            print(f"perfbench: {op.kind} {tag}: {'; '.join(problems)}", file=sys.stderr)
            if not op.known_fault:
                unexpected.append(op.kind)
    return durations, failed, unexpected, peak_mb


def _with_units(values: dict) -> dict:
    """Attach each metric's unit as BENCHMARK.json declares it."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def _run_workload(args) -> int:
    _import_package()
    import numpy
    import scipy

    import spans
    import workloads

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    workloads.warm_engines()
    setup_s = time.perf_counter() - T_START

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ops_per_round": len(ops),
    }))

    attempted, failed, unexpected = 0, 0, []
    if args.trace:
        # traced round first, so its spans see the same cold process as the
        # single round of an untraced run; the untraced round then runs warm
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, f1, u1, _ = _run_round(ops, tracer)
        finally:
            tracer.uninstall()
        plain, f2, u2, _ = _run_round(ops)
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        attempted, failed, unexpected = 2 * len(ops), f1 + f2, u1 + u2
        values = spans.layer_metrics(tracer)
        values["trace.overhead_s"] = sum(traced) - sum(plain)
    else:
        round_s, op_s, peaks = [], [], []
        t_loop = time.perf_counter()
        while not round_s or time.perf_counter() - t_loop < args.seconds:
            durations, f, u, peak = _run_round(ops)
            attempted += len(ops)
            failed += f
            unexpected += u
            round_s.append(sum(durations))
            op_s += durations
            peaks.append(peak)
        values = {
            "setup_s": setup_s,
            "run_s": statistics.median(round_s),
            "op_p50_s": statistics.median(op_s),
            # later rounds start above the high-water mark the checks left
            "peak_rss_mb": peaks[0],
        }
    metrics = _with_units(values)
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _run_all(args) -> int:
    rc = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        rc = max(rc, subprocess.run(cmd, check=False).returncode)
    return rc


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload is None:
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
