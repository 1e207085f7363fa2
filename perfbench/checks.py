"""Row checks for the sweep CSVs a workload writes.

Every row is one operation; a row that fails any check counts as failed.
The checks:

* the file's header is `experiments_cli.CSV_HEADER`, the file holds the
  rows `run_sweep` returned, and the rows come in config order with the
  expected filter, correlation parameter, power, trial count and seed;
* every rate and power bucket is finite, the rate positive and the
  buckets nonnegative;
* CMFP rows at alpha = 0 lie within 3% of `cmfp_rate_closed` (the
  tolerance of the closed_forms suite);
* within a fixed-beta cell all power points reuse one bucket stack, so
  desired/IF/ISI/MUI scale exactly with the power, AWGN is constant and
  the rate never falls as the power rises;
* against the reference CSVs in ``reference/`` (generated at seed 12345):
  at that seed, fixed-beta rows match to a relative 1e-9 and beta rows lie
  within 3 jackknife standard errors of the reference rate (a better beta
  search may move them); at any other seed every row lies within
  6 * sqrt(2) standard errors, the spread of two independent Monte Carlo
  estimates of the same rate.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

from scmimo.analysis import cmfp_rate_closed
from scmimo.experiments_cli import BETA_FILTERS, CSV_HEADER

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
NUMERIC = ("rate_bpcu", "desired", "if", "isi", "mui", "awgn")
SCALED = ("desired", "if", "isi", "mui")   # proportional to the power

REF_RTOL = 1e-9
SCALE_RTOL = 1e-9
CLOSED_FORM_RTOL = 0.03
BETA_REF_Z = 3.0
OTHER_SEED_Z = 6.0


@dataclass(frozen=True)
class Reference:
    seed: int
    rows: list
    stderr: list     # jackknife standard error of each row's rate


def reference_path(smoke, workload, sweep):
    return REFERENCE_DIR / ("smoke" if smoke else "paper") / \
        f"{workload}.{sweep.name}.csv"


def load_reference(smoke, workload, sweep):
    path = reference_path(smoke, workload, sweep)
    meta = json.loads((path.parent / "stderr.json").read_text())
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return Reference(seed=meta["seed"], rows=rows,
                     stderr=meta["stderr"][f"{workload}.{sweep.name}"])


def read_sweep_csv(path):
    """(header line, rows) of a CSV written by run_sweep."""
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        fh.seek(0)
        return header, list(csv.DictReader(fh))


def expected_keys(sweep, cfg):
    return [dict(link=cfg.link, filter=f.upper(), corr_model=cfg.corr_model,
                 corr_param=repr(float(a)), mu="", rho_f_db=repr(float(r)),
                 trials=str(cfg.trials), seed=str(cfg.seed))
            for f in sweep.filters for a in sweep.alphas for r in sweep.grid]


def check_sweep(sweep, cfg, rows, csv_header, csv_rows, reference):
    """{row index: [reasons]} for the rows that fail, and rows attempted.

    `rows` are run_sweep's return value, `csv_header`/`csv_rows` what it
    wrote to disk, `reference` a Reference or None.
    """
    problems = {}

    def fail(i, reason):
        problems.setdefault(i, []).append(reason)

    keys = expected_keys(sweep, cfg)
    attempted = max(len(keys), len(rows))
    for i in range(len(rows), len(keys)):
        fail(i, "row missing")
    for i in range(len(keys), len(rows)):
        fail(i, "unexpected extra row")
    if csv_header != CSV_HEADER:
        for i in range(attempted):
            fail(i, f"CSV header {csv_header!r} != CSV_HEADER")
    if csv_rows != rows:
        for i in range(attempted):
            if i >= len(csv_rows) or i >= len(rows) or csv_rows[i] != rows[i]:
                fail(i, "CSV file differs from the returned row")

    values = []
    for i, (row, key) in enumerate(zip(rows, keys)):
        got = {k: row.get(k) for k in key}
        if got != key:
            fail(i, f"row key {got} != expected {key}")
        try:
            vals = {k: float(row[k]) for k in NUMERIC}
        except (KeyError, TypeError, ValueError) as exc:
            fail(i, f"unparsable value: {exc!r}")
            vals = None
        if vals is not None:
            if not all(math.isfinite(v) for v in vals.values()):
                fail(i, f"non-finite value in {vals}")
            elif vals["rate_bpcu"] <= 0:
                fail(i, f"rate {vals['rate_bpcu']} <= 0")
            elif min(vals[k] for k in NUMERIC[1:]) < 0:
                fail(i, f"negative power bucket in {vals}")
        values.append(vals)

    for i, (vals, key) in enumerate(zip(values, keys)):
        if vals is None:
            continue
        rho_db = float(key["rho_f_db"])
        if key["filter"] == "CMFP" and float(key["corr_param"]) == 0.0:
            closed = cmfp_rate_closed(10.0 ** (rho_db / 10.0), cfg.M, cfg.K,
                                      float(cfg.M))
            err = abs(vals["rate_bpcu"] - closed) / closed
            if err > CLOSED_FORM_RTOL:
                fail(i, f"CMFP alpha=0 rate {vals['rate_bpcu']:.6f} is "
                        f"{err:.2%} from cmfp_rate_closed {closed:.6f}")
        if reference is not None and i < len(reference.rows):
            _check_reference(i, vals, key, reference, cfg.seed, fail)

    n_grid = len(sweep.grid)
    for start in range(0, min(len(values), len(keys)), n_grid):
        if keys[start]["filter"].lower() in BETA_FILTERS:
            continue
        _check_fixed_cell(start, values[start:start + n_grid],
                          keys[start:start + n_grid], fail)
    return problems, attempted


def _check_reference(i, vals, key, reference, seed, fail):
    ref = reference.rows[i]
    stderr = reference.stderr[i]
    is_beta = key["filter"].lower() in BETA_FILTERS
    rate, ref_rate = vals["rate_bpcu"], float(ref["rate_bpcu"])
    if seed != reference.seed:
        tol = OTHER_SEED_Z * math.sqrt(2.0) * stderr
        if abs(rate - ref_rate) > tol:
            fail(i, f"rate {rate:.6f} is more than {tol:.3g} from the "
                    f"seed-{reference.seed} reference {ref_rate:.6f}")
    elif is_beta:
        tol = BETA_REF_Z * stderr
        if abs(rate - ref_rate) > tol:
            fail(i, f"beta-row rate {rate:.6f} is more than {tol:.3g} "
                    f"(3 stderr) from the reference {ref_rate:.6f}")
    else:
        for k in NUMERIC:
            want = float(ref[k])
            if abs(vals[k] - want) > REF_RTOL * abs(want):
                fail(i, f"{k} {vals[k]!r} differs from the reference "
                        f"{want!r}")


def _check_fixed_cell(start, values, keys, fail):
    """One bucket stack serves every power point of a fixed-beta cell."""
    if any(v is None for v in values):
        return
    rhos = [10.0 ** (float(k["rho_f_db"]) / 10.0) for k in keys]
    first = values[0]
    for j, (vals, rho) in enumerate(zip(values, rhos)):
        for k in SCALED:
            want = first[k] / rhos[0] * rho
            if abs(vals[k] - want) > SCALE_RTOL * max(abs(want), 1e-300):
                fail(start + j, f"{k} {vals[k]!r} does not scale with "
                                f"power from the cell's first row ({want!r})")
        if vals["awgn"] != first["awgn"]:
            fail(start + j, f"awgn {vals['awgn']!r} differs within the cell")
        if j and vals["rate_bpcu"] < values[j - 1]["rate_bpcu"]:
            fail(start + j, "rate falls as power rises")


def beta_shortfall(rows, rows_beta0):
    """Largest amount by which a beta row reports less than the same filter
    at beta = 0 on the same reporting draws (0 when none does)."""
    worst = 0.0
    for row, row0 in zip(rows, rows_beta0):
        if row["filter"].lower() in BETA_FILTERS:
            worst = max(worst, float(row0["rate_bpcu"])
                        - float(row["rate_bpcu"]))
    return worst

