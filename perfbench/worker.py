"""Run a workload once in a fresh process and write its measurements as JSON.

run.py starts this script; it is not meant to be run by hand. The parent
passes the monotonic clock reading it took just before starting the
process, so ``setup_s`` covers interpreter start, imports and
`load_config` up to the first `run_sweep` call. With ``--setup-only`` the
process stops there. With ``--trace 1`` every traced function records
spans from before `load_config` on, and the result holds the per-layer
metrics.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from scmimo import experiments_cli as cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Span names whose traced children make a separate self time meaningful.
WITH_SELF_TIME = ("channel.draw_channel", "dl_precoding.zfp_bank",
                  "dl_precoding.rzfp_bank", "analysis.mc_buckets",
                  "analysis.sum_rate_mc", "experiments_cli.optimize_beta")
BETA_BANKS = ("dl_precoding.rzfp_bank", "ul_equalization.mmsee_bank")


def per_layer_names():
    """(name, unit) of every per-layer metric, in print order."""
    names = []
    for span in tracing.SPAN_NAMES:
        names += [(span + ".calls", "count"), (span + ".s", "s")]
        if span in WITH_SELF_TIME:
            names.append((span + ".self_s", "s"))
    return names + [
        ("corr_models.builds_per_cell", "ratio"),
        ("channel.draws_per_needed", "ratio"),
        ("experiments_cli.beta_rate_evals", "ratio"),
        ("beta_shortfall_bpcu", "bpcu"),
        ("trace.spans", "count"),
        ("trace.sweep_s", "s"),
        ("trace.overhead_s", "s"),
    ]


def load_configs(args):
    """[(Sweep, ScenarioConfig)] with the run's seed and a scratch output."""
    out = []
    for sweep in WORKLOADS[args.workload].sweeps:
        output = os.path.join(args.workdir, f"{sweep.name}-{os.getpid()}.csv")
        out.append((sweep, cli.load_config(
            str(ROOT / sweep.config),
            sweep.overrides(args.seed, output, smoke=args.smoke))))
    return out


def run_once(configs):
    """Wall time of the workload's run_sweep calls, and for each sweep the
    returned rows plus the header and rows read back from its CSV."""
    elapsed = 0.0
    outputs = []
    for sweep, cfg in configs:
        start = time.perf_counter()
        rows = cli.run_sweep(cfg, workers=sweep.workers)
        elapsed += time.perf_counter() - start
        outputs.append((rows, *checks.read_sweep_csv(cfg.output)))
    return elapsed, outputs


def check(args, configs, outputs):
    """Peak RSS so far, then the row checks of every sweep."""
    out = {"peak_rss_mb":
           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "attempted": 0, "failures": [], "environment": environment(),
           "rows": [rows for rows, _, _ in outputs]}
    for (sweep, cfg), (rows, header, csv_rows) in zip(configs, outputs):
        ref = checks.load_reference(args.smoke, args.workload, sweep)
        problems, attempted = checks.check_sweep(sweep, cfg, rows, header,
                                                 csv_rows, ref)
        out["attempted"] += attempted
        out["failures"] += [(sweep.name, i, "; ".join(reasons))
                            for i, reasons in sorted(problems.items())]
    return out


def shortfall(args, configs, outputs):
    """beta_shortfall_bpcu: rerun each beta sweep at fixed beta = 0."""
    worst = 0.0
    for (sweep, cfg), (rows, _, _) in zip(configs, outputs):
        if not any(f in cli.BETA_FILTERS for f in sweep.filters):
            continue
        cfg0 = cli.load_config(
            str(ROOT / sweep.config),
            sweep.overrides(args.seed, cfg.output, smoke=args.smoke)
            + ["beta.mode=fixed", "beta.value=0"])
        rows0 = cli.run_sweep(cfg0, workers=sweep.workers)
        worst = max(worst, checks.beta_shortfall(rows, rows0))
    return worst


def per_layer(configs, spans, traced_s, untraced_s):
    """Calls and busy/self seconds per span name, plus three ratios:
    correlation builds per (filter, alpha) cell, channel draws per draw the
    cells report on (cells x trials), and beta-filter banks built inside
    optimize_beta per beta.trials per search, i.e. rate evaluations per
    search."""
    totals = tracing.layer_totals(spans)
    metrics = {}
    for name, (calls, busy, self_s) in totals.items():
        metrics[name + ".calls"] = calls
        metrics[name + ".s"] = busy
        if name in WITH_SELF_TIME:
            metrics[name + ".self_s"] = self_s
    cells = sum(len(s.filters) * len(s.alphas) for s, _ in configs)
    needed = sum(len(s.filters) * len(s.alphas) * cfg.trials
                 for s, cfg in configs)
    searches = totals["experiments_cli.optimize_beta"][0]
    beta_banks = sum(tracing.count_under(spans, bank,
                                         "experiments_cli.optimize_beta")
                     for bank in BETA_BANKS)
    beta_trials = configs[0][1].beta_trials
    metrics.update({
        "corr_models.builds_per_cell":
            totals["corr_models.build"][0] / cells,
        "channel.draws_per_needed":
            totals["channel.draw_channel"][0] / needed,
        "experiments_cli.beta_rate_evals":
            beta_banks / (beta_trials * searches) if searches else 0.0,
        "trace.spans": len(spans),
        "trace.sweep_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    return metrics


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    env = {"cpus": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "blas": blas}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--untraced-s", type=float, default=0.0,
                        help="untraced sweep time, for trace.overhead_s")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            configs = load_configs(args)
            sweep_s, outputs = run_once(configs)
        result = {"sweep_s": sweep_s, **check(args, configs, outputs)}
        values = per_layer(configs, tracer.spans, sweep_s, args.untraced_s)
        values["beta_shortfall_bpcu"] = shortfall(args, configs, outputs)
        result["per_layer"] = [(name, unit, values[name])
                               for name, unit in per_layer_names()]
        if args.spans:
            tracer.write_jsonl(args.spans)
    else:
        configs = load_configs(args)
        result = {"setup_s": time.monotonic() - args.t0}
        if not args.setup_only:
            sweep_s, outputs = run_once(configs)
            result.update(sweep_s=sweep_s, **check(args, configs, outputs))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
