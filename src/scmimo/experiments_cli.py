"""Sweep orchestration and command-line harness.

Subcommands:

* ``sweep --config <file> [--override k=v ...]`` — run a configured
  (filter x correlation-parameter x power-grid) sweep and write a CSV.
* ``validate --suite <closed_forms|appendix|zero_forcing|figures>`` —
  run a named acceptance suite; prints one line per check and exits
  nonzero on any failure.
* ``plot --csv <file> --out <script.py>`` — emit a standalone matplotlib
  script that renders the sweep curves (one curve per filter/parameter).
* ``beta --config <file> --rho-db <x>`` — report the optimized ridge
  parameter for the config's regularized filter at one power point.

Config files are flat ``key = value`` text with dotted keys ('#' starts
a comment); every value can be overridden from the command line. The
seed is the config's ``seed``, else 12345; ``--override seed=N`` reseeds.
"""

import argparse
import csv
import ctypes
import dataclasses
import functools
import math
import os
from collections import namedtuple

from . import analysis
from .analysis import (Scenario, _load_library, _one_blas_thread,
                       buckets_to_result)
# perfbench traces these names, and every correlation build, on this module
from .analysis import mc_buckets, sum_rate_mc  # noqa: F401
from .channel import (DEFAULT_SEED, SimulationDims, check_seed,
                      exponential_pdp, positive_finite_power)
from .channel import draw_channel  # noqa: F401
from .corr_models import (ArrayGeometry, bessel_correlation,
                          correlation_label, exponential_correlation)
from .corr_models import identity_correlation  # noqa: F401
from .dl_precoding import ridge_beta

CSV_HEADER = ("link,filter,corr_model,corr_param,mu,rho_f_db,rate_bpcu,"
              "desired,if,isi,mui,awgn,trials,seed")

BETA_FILTERS = analysis.RIDGE

RHO_GRID_DEFAULT = [-10.0 + 2.5 * i for i in range(13)]

CONFIG_KEYS = frozenset([
    "link", "filters", "corr.model", "corr.alpha", "corr.pairs",
    "geometry.kind", "geometry.m", "geometry.m_x", "geometry.spacing",
    "dims.k", "dims.l", "dims.n", "dims.t", "dims.t_c",
    "grid.rho_db", "trials", "seed",
    "beta.mode", "beta.value", "beta.trials", "output",
])


@dataclasses.dataclass
class ScenarioConfig:
    link: str
    filters: list
    corr_model: str
    corr_params: list          # floats (alpha) or (eta, mu) tuples
    geometry: ArrayGeometry
    K: int
    L: int
    N: int
    T: int
    T_c: int
    rho_grid: list
    trials: int
    seed: int
    beta_mode: str = "grid_opt"
    beta_value: float = 0.0
    beta_trials: int = 100
    output: str = "sweep.csv"

    @property
    def M(self):
        return self.geometry.M


def _parse_kv_file(path):
    kv, first_line = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', "
                                 f"got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in kv:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r} "
                                 f"(first set on line {first_line[key]})")
            kv[key], first_line[key] = value, lineno
    return kv


def _number(key, text, kind):
    """kind(text) (int or float), naming the config key on failure."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{key}: expected {kind.__name__}, "
                         f"got {text!r}") from None


def _floats(key, text):
    """The comma-separated numbers of text, [] for a blank text; an empty
    entry (',,' or a trailing comma) is an error that names the key."""
    if not text.strip():
        return []
    tokens = text.split(",")
    if not all(tok.strip() for tok in tokens):
        raise ValueError(f"{key}: empty entry in {text!r}")
    return [_number(key, tok, float) for tok in tokens]


def _distinct(key, values):
    """values, after checking that no entry repeats: a repeated filter,
    correlation parameter or power would only write duplicate rows."""
    seen = set()
    for value in values:
        if value in seen:
            raise ValueError(f"{key}: repeated entry {value!r}")
        seen.add(value)
    return values


def load_config(path, overrides=()):
    """Parse a flat key=value config file, then apply KEY=VALUE overrides;
    reject, by key, each value whose check needs no correlation matrix."""
    kv = _parse_kv_file(path)
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override must look like key=value: {item!r}")
        key, value = item.split("=", 1)
        kv[key.strip()] = value.strip()

    unknown = sorted(k for k in kv if k not in CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")

    def need(key):
        if key not in kv:
            raise ValueError(f"{key}: missing required config key")
        return kv[key]

    def number(key, kind, default=None):
        """The key's value (its default when absent, if it has one) as an
        int or float."""
        return _number(key, need(key) if default is None
                       else kv.get(key, default), kind)

    link = need("link")
    if link not in analysis.LINK_FILTERS:
        raise ValueError(f"link: expected downlink or uplink, got {link!r}")
    filters = _distinct("filters", [f.strip().lower()
                                    for f in need("filters").split(",")])
    for f in filters:
        try:
            analysis._check_combo(link, f)
        except ValueError as err:
            raise ValueError(f"filters: {err}") from None

    corr_model = need("corr.model")
    if corr_model == "exponential":
        params = _distinct("corr.alpha",
                           _floats("corr.alpha", need("corr.alpha")))
        if not params:
            raise ValueError("corr.alpha: correlation list must be non-empty")
        for alpha in params:
            if not 0 <= alpha < 1:
                raise ValueError(f"corr.alpha: must lie in [0, 1), "
                                 f"got {alpha}")
    elif corr_model == "bessel":
        params = []
        for pair in need("corr.pairs").split(";"):
            eta_mu = _floats("corr.pairs", pair)
            if len(eta_mu) != 2:
                raise ValueError(f"corr.pairs: expected 'eta,mu' pairs "
                                 f"separated by ';', got {pair!r}")
            if not (eta_mu[0] >= 0 and all(map(math.isfinite, eta_mu))):
                raise ValueError(f"corr.pairs: need a finite eta >= 0 and a "
                                 f"finite mu, got {pair!r}")
            params.append((eta_mu[0], eta_mu[1]))
        _distinct("corr.pairs", params)
    else:
        raise ValueError(f"corr.model: unknown model {corr_model!r}")
    for key, model in (("corr.alpha", "exponential"),
                       ("corr.pairs", "bessel")):
        if key in kv and corr_model != model:
            raise ValueError(f"{key}: only the {model} model reads it, "
                             f"but corr.model is {corr_model}")

    M = number("geometry.m", int)
    M_x = number("geometry.m_x", int, str(M))
    spacing = number("geometry.spacing", float, "0.5")
    try:
        geometry = ArrayGeometry(kv.get("geometry.kind", "ula"), M, M_x,
                                 spacing)
    except ValueError as err:
        raise ValueError(f"geometry: {err}") from None
    dims = {name: number(f"dims.{name.lower()}", int)
            for name in ("K", "L", "N", "T", "T_c")}
    try:
        SimulationDims(M=M, **dims)
    except ValueError as err:
        raise ValueError(f"dims: {err}") from None
    cfg = ScenarioConfig(
        link=link, filters=filters, corr_model=corr_model,
        corr_params=params, geometry=geometry, **dims,
        rho_grid=_distinct("grid.rho_db", _floats(
            "grid.rho_db",
            kv.get("grid.rho_db", ",".join(map(str, RHO_GRID_DEFAULT))))),
        trials=number("trials", int, "500"),
        seed=number("seed", int, str(DEFAULT_SEED)),
        beta_mode=kv.get("beta.mode", "grid_opt"),
        beta_value=number("beta.value", float, "0"),
        beta_trials=number("beta.trials", int, "100"),
        output=kv.get("output", "sweep.csv"))

    if not cfg.rho_grid:
        raise ValueError("grid.rho_db: power grid must be non-empty")
    for rho_db in cfg.rho_grid:
        if not positive_finite_power(rho_db):
            raise ValueError(f"grid.rho_db: powers must be finite with a "
                             f"positive finite linear value, got {rho_db}")
    for key, check, value in (("trials", analysis._check_trials, cfg.trials),
                              ("beta.trials", analysis._check_trials,
                               cfg.beta_trials),
                              ("beta.value", ridge_beta, cfg.beta_value),
                              ("seed", check_seed, cfg.seed)):
        try:
            check(value)
        except ValueError as err:
            raise ValueError(f"{key}: {err}") from None
    if cfg.beta_mode not in ("grid_opt", "fixed"):
        raise ValueError(f"beta.mode: expected grid_opt or fixed, "
                         f"got {cfg.beta_mode!r}")
    if "beta.value" in kv and cfg.beta_mode != "fixed":
        raise ValueError(f"beta.value: only beta.mode = fixed reads it, "
                         f"but beta.mode is {cfg.beta_mode}")
    return cfg


def _scenario(cfg, filt, param, rho_db):
    dims = SimulationDims(M=cfg.M, K=cfg.K, L=cfg.L, N=cfg.N, T=cfg.T,
                          T_c=cfg.T_c, rho_f_db=rho_db, seed=cfg.seed)
    corr = (bessel_correlation(cfg.geometry, *param)
            if cfg.corr_model == "bessel"
            else exponential_correlation(cfg.geometry, param))
    return Scenario(link=cfg.link, filt=filt, dims=dims, corr=corr,
                    pdp=exponential_pdp(cfg.K, cfg.L))


# ---------------------------------------------------------------------------
# ridge-parameter optimization


def _brent_min(f, a, b, tol):
    """Minimize f on [a, b] by Brent's bounded parabolic/golden search
    (R. P. Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 5; the scheme of the classic `fminbound`).

    Each step fits a parabola through the three best points and takes its
    vertex when it falls well inside the bracket and shrinks the step,
    else a golden-section step into the larger side; no step is shorter
    than tol. Stops once the best point x lies within 2 tol of both ends
    of the bracket, which still holds the minimum of a unimodal f.
    Returns (x, f(x)), the best point evaluated.
    """
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    x = w = v = a + golden * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while max(x - a, b - x) > 2.0 * tol:
        mid = 0.5 * (a + b)
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        p, q = (-p, q) if q > 0 else (p, -q)
        if (abs(e) > tol and abs(p) < abs(0.5 * q * e)
                and q * (a - x) < p < q * (b - x)):
            e, d = d, p / q
            if min(x + d - a, b - x - d) < 2.0 * tol:
                d = math.copysign(tol, mid - x)
        else:
            e = (a if x >= mid else b) - x
            d = golden * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v in (x, w):
                v, fv = u, fu
    return x, fx


@_one_blas_thread()
def optimize_beta(scenario, rho_f, trials=100, *, factors=None):
    """Ridge parameter maximizing the Monte Carlo sum rate at power rho_f.

    Climbs the grid {0} union {10^k : k = -6..6} under common random
    numbers (one shared set of channel draws): from the positive point
    nearest the classical MMSE ridge beta_0 in log10 (K / rho_f on the
    downlink, 1 / rho_f on the uplink: Peel, Hochwald & Swindlehurst,
    IEEE Trans. Commun. 53(1), 2005), it rates the current point and its
    two neighbours and moves to the best until the current point beats
    both. Exact ties go to the earlier grid point, biasing toward beta =
    0. The climb ends at a local maximum of the grid's rates, which is
    the winner of a scan of the whole grid when those rates are unimodal.
    When beta = 0 wins the search returns 0.0 without refinement; else it
    refines log beta over the winner's two grid neighbours with Brent's
    bounded search (`_brent_min`) until the best point is within
    log(1.01)/2 of both ends of its bracket, and never returns a refined
    point that rates below the grid winner. Deterministic given the
    scenario seed.

    The draws are factored once (analysis.DrawFactors), so each candidate
    costs only a rescale of the cached per-bin eigendecompositions.
    `factors` supplies them for draws 0 .. trials - 1 of the scenario
    (from analysis.factor_draws); by default they are built here. They
    keep the stacks of every beta evaluated, so a later search or a
    reporting pass on them evaluates none of those again. The search runs
    with OpenBLAS on one thread (`analysis._one_blas_thread`).
    """
    if scenario.filt not in BETA_FILTERS:
        raise ValueError(f"filter {scenario.filt!r} has no ridge parameter")
    if not (math.isfinite(rho_f) and rho_f > 0):
        raise ValueError(f"rho_f: power must be finite and > 0, got {rho_f}")
    analysis._check_trials(trials)
    dims = scenario.dims
    # a scenario already at rho_f is rated as it is: a dB round trip can
    # move the power by an ulp
    base = scenario if dims.rho_f == rho_f else dataclasses.replace(
        scenario, dims=dataclasses.replace(
            dims, rho_f_db=10.0 * math.log10(rho_f)))
    if factors is None:
        factors = analysis.factor_draws(scenario, trials)

    def rate(beta):
        return analysis.rate_from_breakdown(analysis._aggregate(
            base, *factors.buckets(scenario.filt, beta, trials)))[0]

    grid = [0.0] + [10.0 ** k for k in range(-6, 7)]
    rates = {}

    def rank(i):
        if i not in rates:
            rates[i] = rate(grid[i])
        return rates[i], -i

    # grid[i] = 10^(i - 7) for i >= 1; log10 beta_0 without overflow
    log_beta0 = math.log10(dims.K if scenario.link == "downlink" else 1) \
        - math.log10(rho_f)
    best = min(max(math.floor(log_beta0 + 0.5) + 7, 1), len(grid) - 1)
    while (step := max(range(max(best - 1, 0), min(best + 2, len(grid))),
                       key=rank)) != best:
        best = step
    if best == 0:
        return 0.0

    # the bracket ends are distinct grid points, both positive
    lo = grid[max(best - 1, 1)]
    hi = grid[min(best + 1, len(grid) - 1)]
    x, loss = _brent_min(lambda t: -rate(math.exp(t)), math.log(lo),
                         math.log(hi), math.log(1.01) / 4.0)
    # never return a refined point that lost to the coarse winner
    return math.exp(x) if -loss >= rates[best] else grid[best]


# ---------------------------------------------------------------------------
# sweeps


CellRow = namedtuple("CellRow", "own row")  # see `_sweep_group`


def _sweep_group(cfg, params):
    """One mapping per correlation parameter of the group (`params`
    order), from (filter, power in dB) to the cell's CellRow there.

    The row rule lives here, where the candidates are made: a searched
    ridge filter's row is its beta* result unless beta = 0 rates strictly
    higher on the same reporting draws; any other filter's row is its own
    result. So a row's beta* is `own.meta["beta"]`, and beta = 0 won
    exactly when `row is not own`.

    With a beta search, each cell in turn factors its draws
    0 .. beta.trials - 1 for every filter, searches beta at every power
    point on them (`optimize_beta`) and reads every row's stacks there;
    those factors keep the stacks of every beta evaluated, and are
    released before the next cell's search. The group then draws each
    later draw's fading once for all its cells (every draw with a fixed
    beta; `analysis.mc_buckets_group`), and holds every cell's reporting
    stacks until it ends. A draw's stacks depend only on (seed, t) and its
    own correlation, so no row depends on the grouping.
    """
    fixed = {f: cfg.beta_value if f in BETA_FILTERS else 0.0
             for f in cfg.filters}
    search = next((f for f in cfg.filters if f in BETA_FILTERS),
                  None) if cfg.beta_mode == "grid_opt" else None
    cells = []

    def at(scn0, filt, rho_db, beta):
        return dataclasses.replace(
            scn0, filt=filt, beta=beta,
            dims=dataclasses.replace(scn0.dims, rho_f_db=rho_db))

    def searched(param):
        scn0 = _scenario(cfg, cfg.filters[0], param, cfg.rho_grid[0])
        requests = [(f, beta) for f, beta in fixed.items() if f != search]
        factors, betas = None, [None] * len(cfg.rho_grid)
        if search:
            factors = analysis.factor_draws(
                at(scn0, search, cfg.rho_grid[0], 0.0), cfg.beta_trials,
                filters=cfg.filters)
            betas = [optimize_beta(scn, scn.dims.rho_f,
                                   trials=cfg.beta_trials, factors=factors)
                     for scn in (at(scn0, search, rho_db, 0.0)
                                 for rho_db in cfg.rho_grid)]
            requests += [(search, b) for b in sorted(set(betas) | {0.0})]
        cells.append((scn0, requests, betas))
        return scn0, requests, factors

    def cell_row(scn0, stacks, filt, rho_db, beta_star):
        candidates = (beta_star, 0.0) if filt == search else (fixed[filt],)
        own, *rest = [buckets_to_result(at(scn0, filt, rho_db, b),
                                        cfg.trials, *stacks[filt, b])
                      for b in dict.fromkeys(candidates)]
        return CellRow(own, max([own, *rest], key=lambda r: r.rate_bpcu))

    # lazy: a cell's search runs once the previous cell's factors are read
    per_cell = analysis.mc_buckets_group(map(searched, params), cfg.trials)
    return [{(filt, rho_db): cell_row(scn0, dict(zip(requests, stacks)),
                                      filt, rho_db, beta)
             for filt in cfg.filters
             for rho_db, beta in zip(cfg.rho_grid, betas)}
            for (scn0, requests, betas), stacks in zip(cells, per_cell)]


def _result_row(result):
    meta = result.meta
    bd = result.breakdown
    return {
        "link": meta["link"],
        "filter": meta["filter"].upper(),
        "corr_model": meta["corr_model"],
        "corr_param": repr(float(meta["corr_param"])),
        "mu": "" if meta["mu"] is None else repr(float(meta["mu"])),
        "rho_f_db": repr(float(meta["rho_f_db"])),
        "rate_bpcu": repr(float(result.rate_bpcu)),
        "desired": repr(bd.desired),
        "if": repr(bd.if_power),
        "isi": repr(bd.isi),
        "mui": repr(bd.mui),
        "awgn": repr(bd.awgn),
        "trials": str(meta["trials"]),
        "seed": str(meta["seed"]),
    }


# glibc's mallopt parameter numbers, and the thresholds pool workers set:
# well above the 3-4 MB a bucket-core chunk allocates and frees, and 32 MB
# is the largest mmap threshold glibc accepts on 64-bit.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_WORKER_MMAP_THRESHOLD, _WORKER_TRIM_THRESHOLD = 32 << 20, 64 << 20


def _init_worker():
    """Pool-worker initializer: keep this process's heap mapped between
    bucket-core chunks by fixing glibc's mmap and trim thresholds; under
    any other C library it does nothing. Never raises. It leaves the BLAS
    thread count to its owners (`run_sweep`).

    Left dynamic, the thresholds rise only to twice the largest mmapped
    block ever freed (about 1 MB in `analysis.DrawFactors.fill`), so the
    heap top went back to the kernel after every 8-draw chunk and the next
    chunk faulted it in again: on the fig1 CMFP/ZFP and fig3 CMFE/ZFE
    sweeps at two workers, the workers took 381 k minor page faults and
    0.78 s of system time, against 23 k and 0.10 s with the heap kept.
    """
    libc = _load_library(None)
    # the parameter numbers are glibc's own: no other libc is passed them
    if hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt"):
        mallopt = libc.mallopt
        mallopt.argtypes, mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _WORKER_MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _WORKER_TRIM_THRESHOLD)


def check_output(path):
    """Reject an output path that cannot name a new or existing file: an
    empty one, a directory, or one whose directory does not exist. Opens
    nothing, so a file already there is left as it is."""
    if not path or os.path.isdir(path):
        raise ValueError(f"output: expected a file path, got {path!r}")
    directory = os.path.dirname(path)
    if directory and not os.path.isdir(directory):
        raise ValueError(f"output: no directory {directory!r}")


def run_sweep(cfg, workers=None):
    """Evaluate the config's full (filter x parameter x power) grid and
    write it to cfg.output in filter-major config order, whatever order
    the cells finish in; returns the row dicts. Each is its cell's
    `CellRow.row`, picked by the row rule of `_sweep_group`. The output
    path is checked (`check_output`) before any cell runs.

    Each correlation parameter is one cell serving every filter, run in a
    group (`_sweep_group`) that draws each reporting draw's fading once
    for all its cells; no row depends on the grouping. With more than one
    worker (by default one per CPU, at most one per cell; more than the
    CPUs only oversubscribe them), worker i runs the group
    params[i::workers] in a process forked where the platform can fork,
    else spawned, under glibc with a heap kept mapped between bucket-core
    chunks (`_init_worker`). The pool is shut down before this returns or
    raises. Otherwise all the cells are one group in this process, whose
    malloc settings are left as they are.

    Every cell runs its BLAS on one thread, with one owner per process:
    a multithreaded BLAS in each of one worker per CPU only oversubscribes
    the CPUs (on a 2-CPU box such workers ran their cells about 10%
    slower). This process, and a worker forked from it, run on the one
    thread of the scope this holds around the cells (`_one_blas_thread`),
    so a forked worker starts no BLAS helper thread. A spawned worker
    starts on its BLAS's default and makes every BLAS call of its cells,
    correlation builds included, inside the bucket core's own one-thread
    scopes (`analysis.mc_buckets_group`).
    """
    params = cfg.corr_params
    if not params:
        raise ValueError("corr_params: a sweep needs at least one "
                         "correlation parameter")
    check_output(cfg.output)
    if workers is None:
        workers = os.cpu_count() or 1
    elif workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, len(params))
    with _one_blas_thread():
        if workers > 1:
            # imported here, so that loading the module pays no multiprocessing
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            method = ("fork"
                      if "fork" in multiprocessing.get_all_start_methods()
                      else "spawn")
            groups = [params[i::workers] for i in range(workers)]
            per_cell = [None] * len(params)
            with ProcessPoolExecutor(
                    workers, mp_context=multiprocessing.get_context(method),
                    initializer=_init_worker) as pool:
                for i, cells in enumerate(pool.map(
                        functools.partial(_sweep_group, cfg), groups)):
                    per_cell[i::workers] = cells
        else:
            per_cell = _sweep_group(cfg, params)
    rows = [_result_row(cell[filt, rho_db].row) for filt in cfg.filters
            for cell in per_cell for rho_db in cfg.rho_grid]
    write_csv(rows, cfg.output)
    return rows


def write_csv(rows, path):
    fieldnames = CSV_HEADER.split(",")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# plot-script emission


PLOT_TEMPLATE = '''\
#!/usr/bin/env python3
"""Render sum-rate curves from {csv_name} (auto-generated; edit freely)."""
import csv
import os

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = os.path.dirname(os.path.abspath(__file__))
CSV = os.path.join(HERE, {csv_rel!r})
OUT = os.path.join(HERE, {png_rel!r})

MARKERS = ["o", "s", "^", "v", "D", "x", "*", "P", "<", ">", "h", "+"]

with open(CSV, newline="") as fh:
    rows = list(csv.DictReader(fh))

curves = {{}}
for row in rows:
    key = (row["filter"], row["corr_param"], row["mu"])
    curves.setdefault(key, []).append(
        (float(row["rho_f_db"]), float(row["rate_bpcu"])))

plt.figure(figsize=(7.2, 5.4))
for i, (key, pts) in enumerate(sorted(curves.items())):
    filt, param, mu = key
    label = filt
    if param:
        label += " ({param_symbol}=" + param + ")"
    if mu:
        label += " (mu=" + mu + ")"
    pts.sort()
    plt.plot([p[0] for p in pts], [p[1] for p in pts],
             marker=MARKERS[i % len(MARKERS)], label=label)

plt.xlabel("long-term average power (dB)")
plt.ylabel("achievable sum rate (bpcu)")
plt.grid(True, alpha=0.4)
plt.legend(fontsize=8)
plt.tight_layout()
plt.savefig(OUT, dpi=150)
print("wrote", OUT)
'''


def emit_plot_script(table, path, csv_path):
    """Write a standalone plotting script for a sweep table.

    The script references the CSV by a path relative to its own location,
    so the pair can move together. Regenerating with identical inputs is
    byte-identical. Raises on an empty table (nothing to plot), and on a
    path that names the CSV itself, before touching any file.
    """
    if not table:
        raise ValueError("cannot emit a plot script for an empty table")
    if os.path.realpath(path) == os.path.realpath(csv_path):
        raise ValueError(f"the script would overwrite its CSV {csv_path}")
    out_dir = os.path.dirname(os.path.abspath(path)) or "."
    csv_rel = os.path.relpath(os.path.abspath(csv_path), out_dir)
    png_rel = os.path.splitext(os.path.basename(path))[0] + ".png"
    param_symbol = "eta" if any(r.get("corr_model") == "bessel"
                                for r in table) else "alpha"
    text = PLOT_TEMPLATE.format(csv_name=os.path.basename(csv_path),
                                csv_rel=csv_rel, png_rel=png_rel,
                                param_symbol=param_symbol)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def __getattr__(name):  # PEP 562: the suites load only when asked for
    if name != "validate":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .validation import validate
    return validate


# ---------------------------------------------------------------------------
# CLI


def main(argv=None):
    from . import validation
    parser = argparse.ArgumentParser(
        prog="scmimo",
        description="Sum-rate sweeps for correlated single-carrier "
                    "massive MIMO links")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a configured sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--override", action="append", default=[],
                         metavar="KEY=VALUE")
    p_sweep.add_argument(
        "--workers", type=int, default=None,
        help="worker processes the correlation cells run in (default: "
             "one per CPU, at most one per cell; 1 runs them in the "
             "sweep's own process). Each worker draws each channel's "
             "fading once for its cells and holds their draws; more "
             "workers than CPUs only oversubscribe them")

    p_val = sub.add_parser("validate", help="run an acceptance suite")
    p_val.add_argument("--suite", required=True, choices=validation.SUITES)

    p_plot = sub.add_parser("plot", help="emit a plotting script for a CSV")
    p_plot.add_argument("--csv", required=True)
    p_plot.add_argument("--out", required=True)

    p_beta = sub.add_parser("beta", help="optimize the ridge parameter "
                                         "at one power point")
    p_beta.add_argument("--config", required=True)
    p_beta.add_argument("--rho-db", type=float, required=True)
    p_beta.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE")

    args = parser.parse_args(argv)

    def read(flag, path, reader, *rest):
        """reader(path, *rest); a path that cannot be read is a usage
        error naming the flag."""
        try:
            return reader(path, *rest)
        except OSError as err:
            parser.error(f"{flag}: cannot read {path}: {err.strerror}")

    def checked(call, *rest):
        """call(*rest); a ValueError is a usage error."""
        try:
            return call(*rest)
        except ValueError as err:
            parser.error(str(err))

    def config():
        return checked(read, "--config", args.config, load_config,
                       args.override)

    if args.command == "sweep":
        if args.workers is not None and args.workers < 1:
            parser.error(f"--workers: must be >= 1, got {args.workers}")
        cfg = config()
        checked(check_output, cfg.output)
        rows = run_sweep(cfg, workers=args.workers)
        print(f"wrote {len(rows)} rows to {cfg.output}")
        return 0

    if args.command == "validate":
        ok, lines = validation.validate(args.suite)
        for line in lines:
            print(line)
        print(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1

    if args.command == "plot":
        table = read("--csv", args.csv, read_csv)
        if not table:
            parser.error(f"--csv: {args.csv} holds no rows to plot")
        try:
            emit_plot_script(table, args.out, csv_path=args.csv)
        except ValueError as err:
            parser.error(f"--out: {err}")
        except OSError as err:
            parser.error(f"--out: cannot write {args.out}: {err.strerror}")
        print(f"wrote {args.out}")
        return 0

    if args.command == "beta":
        if not positive_finite_power(args.rho_db):
            parser.error(f"--rho-db: must be finite with a positive finite "
                         f"linear value, got {args.rho_db}")
        cfg = config()
        filt = next((f for f in cfg.filters if f in BETA_FILTERS), None)
        if filt is None:
            parser.error("config has no ridge-regularized filter")
        # one filter at one power, one line per correlation parameter; beta
        # is searched whatever beta.mode says
        cfg = dataclasses.replace(cfg, filters=[filt],
                                  rho_grid=[args.rho_db], beta_mode="grid_opt")
        for cell in _sweep_group(cfg, cfg.corr_params):
            result = cell[filt, args.rho_db].own
            meta, rate = result.meta, result.rate_bpcu
            label = correlation_label(meta["corr_model"], meta["corr_param"],
                                      meta["mu"])
            print(f"beta* = {meta['beta']!r}  (sum rate {rate:.4f} bpcu at "
                  f"{args.rho_db:+.1f} dB, filter {filt}, {label})")
        return 0
