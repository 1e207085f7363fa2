"""Sweep benchmark for scmimo.

    python3 perfbench/run.py --workload fixed --seed 12345 --seconds 30 --trace 0

Runs one workload (see workloads.py), or each in turn with ``--workload
all``, from the root of a source checkout:
`experiments_cli.run_sweep` on ``configs/fig1.cfg`` / ``configs/fig3.cfg``
through KEY=VALUE overrides, with every CSV written into a temporary
directory that is removed afterwards. Every output row is checked
(checks.py). The last line of standard output is one JSON object:

    {"correct": ..., "attempted": rows, "failed": rows, "metrics": {...}}

Each measurement runs the workload once in a fresh process (worker.py),
because the CLI runs one sweep per process and the first sweep in a
process is the one users wait for. A run covers the workload's seeds
(``--seed`` and, for beta_grid, one derived from it; see workloads.py) in
rounds of one process per seed, started together. With ``--trace 0`` the
metrics are the end-to-end ones, measured without tracing over rounds
started until they add up to ``--seconds`` (at least one): ``sweep_s``
(median over the rounds of the wall time until the round's run_sweep calls
are all done, i.e. of its slowest process's sweep time), ``setup_s``
(median over 6 processes, run alone and stopped there, of process start to
the first run_sweep call) and ``peak_rss_mb`` (median high-water RSS of the
sweeping processes). With ``--trace 1`` they are the per-layer ones from
one traced process at ``--seed``, with calls and busy/self seconds per
traced function (tracing.py); ``trace.overhead_s`` is its sweep time minus
that of an untraced process run just before. ``--spans FILE`` also writes
the raw spans as JSON lines. Rows must be identical across the processes
of a run that share a seed.

``--smoke`` runs the same path at toy dimensions (M=8, K=2, 20 trials)
against its own reference rows, in a few seconds; the smoke tests run it
(``python3 -m pytest perfbench/tests``). ``make_reference.py`` regenerates
the reference rows.
"""

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/scmimo/experiments_cli.py", "configs/fig1.cfg",
            "configs/fig3.cfg")
SETUP_SAMPLES = 6         # fresh processes timed for setup_s
RUN_LIMIT_S = 170.0       # stop a run that would miss its time limit


def start_workers(args, workload, seeds, workdir, deadline, *extra):
    """Run worker.py once per seed, all at the same time, each in a fresh
    interpreter; their JSON results, each with the seed it ran at."""
    procs = []
    try:
        for seed in seeds:
            result = Path(tempfile.mkstemp(suffix=".json", dir=workdir)[1])
            cmd = [sys.executable, str(HERE / "worker.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--workdir", workdir, "--result", str(result), *extra]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.Popen(cmd + ["--t0", repr(time.monotonic())],
                                    stdout=sys.stderr)
            procs.append((seed, result, proc))
        for _, _, proc in procs:
            if proc.wait(timeout=max(deadline - time.monotonic(), 1.0)):
                raise subprocess.CalledProcessError(proc.returncode,
                                                    proc.args)
    finally:
        for _, _, proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return [{"seed": seed, **json.loads(result.read_text())}
            for seed, result, _ in procs]


def measure(args, workload):
    """Untraced rounds of worker results, one process per seed of the run
    in each, until --seconds of rounds are timed; or an untraced and then
    a traced round at --seed. Then the setup_s samples."""
    deadline = time.monotonic() + RUN_LIMIT_S
    seeds = WORKLOADS[workload].run_seeds(args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        if args.trace:
            untraced = start_workers(args, workload, seeds[:1], work,
                                     deadline)
            extra = ["--spans", str(Path(args.spans).resolve())] \
                if args.spans else []
            traced = start_workers(args, workload, seeds[:1], work, deadline,
                                   "--trace", "1", "--untraced-s",
                                   repr(untraced[0]["sweep_s"]), *extra)
            return [untraced, traced], []
        rounds = []
        while sum(map(round_seconds, rounds)) < args.seconds or not rounds:
            rounds.append(start_workers(args, workload, seeds, work,
                                        deadline))
        setup = [start_workers(args, workload, seeds[:1], work, deadline,
                               "--setup-only")[0]["setup_s"]
                 for _ in range(SETUP_SAMPLES)]
    return rounds, setup


def round_seconds(runs):
    """Time until a round's sweeps are all done: its slowest sweep time."""
    return max(run["sweep_s"] for run in runs)


def sweep_seconds(rounds):
    return statistics.median(map(round_seconds, rounds))


def report(args, workload, rounds, setup):
    runs = [run for runs in rounds for run in runs]
    print(f"perfbench workload={workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print("environment " + " ".join(f"{k}={v}" for k, v
                                    in runs[0]["environment"].items()))
    print("sweep_s per process (seed): " + ", ".join(
        f"{run['sweep_s']:.3f} ({run['seed']})" for run in runs))
    failures = {}     # (process, sweep, row) -> reasons
    first_of_seed = {}
    for n, run in enumerate(runs):
        for sweep, i, reason in run["failures"]:
            failures.setdefault((n, sweep, i), []).append(reason)
        m = first_of_seed.setdefault(run["seed"], n)
        for sweep, rows, first in zip(WORKLOADS[workload].sweeps,
                                      run["rows"], runs[m]["rows"]):
            for i, row in enumerate(rows):
                if i >= len(first) or row != first[i]:
                    failures.setdefault((n, sweep.name, i), []).append(
                        f"differs from process {m}")
    for (n, sweep, i), reasons in sorted(failures.items()):
        print(f"FAILED process {n} {sweep} row {i}: " + "; ".join(reasons))
    attempted = sum(run["attempted"] for run in runs)
    print(f"rows checked: {attempted}, failed: {len(failures)}")

    if args.trace:
        rows = runs[-1]["per_layer"]
    else:
        rows = [("sweep_s", "s", sweep_seconds(rounds)),
                ("setup_s", "s", statistics.median(setup)),
                ("peak_rss_mb", "MB",
                 statistics.median(run["peak_rss_mb"] for run in runs))]
    metrics = {}
    for name, unit, value in rows:
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value!r} {unit}")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args(argv)

    # Turn SIGTERM into SystemExit, so that start_workers kills and reaps
    # the workers and the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a scmimo checkout, missing {missing}",
              file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" \
        else [args.workload]
    results = {}
    for workload in workloads:
        try:
            rounds, setup = measure(args, workload)
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {workload} failed: {exc}", file=sys.stderr)
            return 1
        results[workload] = report(args, workload, rounds, setup)
    if len(results) == 1:
        final = results[workloads[0]]
    else:   # every workload's metrics, prefixed with its name
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
