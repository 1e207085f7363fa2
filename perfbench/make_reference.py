"""Regenerate the reference rows that checks.py compares sweeps against.

    python3 perfbench/make_reference.py [--smoke]

Runs every workload at seed 12345 and stores, for each sweep, the CSV that
run_sweep wrote plus the jackknife standard error and beta of every row
(``stderr.json``; beta only for the beta-searched rows). Regenerate only for a change that is meant to move the
sweep numbers, and say so in that change.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from scmimo import experiments_cli as cli  # noqa: E402

from checks import reference_path  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def capture(results, fn):
    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        meta = result.meta
        results[(meta["filter"].upper(), repr(float(meta["corr_param"])),
                 repr(float(meta["rho_f_db"])))] = result
        return result
    return wrapped


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    results = {}
    cli.buckets_to_result = capture(results, cli.buckets_to_result)
    cli.sum_rate_mc = capture(results, cli.sum_rate_mc)
    meta = {"seed": DEFAULT_SEED, "stderr": {}, "beta_star": {}}
    for workload, spec in WORKLOADS.items():
        for sweep in spec.sweeps:
            path = reference_path(args.smoke, workload, sweep)
            path.parent.mkdir(parents=True, exist_ok=True)
            cfg = cli.load_config(
                str(ROOT / sweep.config),
                sweep.overrides(DEFAULT_SEED, str(path), smoke=args.smoke))
            rows = cli.run_sweep(cfg, workers=sweep.workers)
            found = [results[(r["filter"], r["corr_param"], r["rho_f_db"])]
                     for r in rows]
            key = f"{workload}.{sweep.name}"
            meta["stderr"][key] = [r.stderr for r in found]
            if any(f in cli.BETA_FILTERS for f in sweep.filters):
                meta["beta_star"][key] = [r.meta["beta"] for r in found]
            print(f"wrote {len(rows)} rows to {path}")
    (path.parent / "stderr.json").write_text(json.dumps(meta, indent=1)
                                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
