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
default seed comes from the config, else the SCMIMO_SEED environment
variable, else 12345.
"""

import argparse
import csv
import dataclasses
import functools
import math
import os

import numpy as np

from . import analysis
from .analysis import (Scenario, buckets_to_result, cmfe_rate_closed,
                       cmfp_rate_closed, coop_capacity, mc_buckets,
                       sum_rate_mc)
from .channel import (DEFAULT_SEED, SimulationDims, draw_channel,
                      exponential_pdp, rekey, taps_to_freq, trial_rng)
from .corr_models import (ArrayGeometry, bessel_correlation,
                          exponential_correlation, identity_correlation, ula)

CSV_HEADER = ("link,filter,corr_model,corr_param,mu,rho_f_db,rate_bpcu,"
              "desired,if,isi,mui,awgn,trials,seed")

BETA_FILTERS = ("rzfp", "mmsee")

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
    return [_number(key, tok, float) for tok in text.split(",")
            if tok.strip()]


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
    reject, by key, each value whose check needs no correlation matrix,
    except the seed's range, which the sweep's cells check."""
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
    if link not in ("downlink", "uplink"):
        raise ValueError(f"link: expected downlink or uplink, got {link!r}")
    filters = _distinct("filters", [f.strip().lower()
                                    for f in need("filters").split(",")])
    expected = analysis.DL_FILTERS if link == "downlink" \
        else analysis.UL_FILTERS
    for f in filters:
        if f not in expected:
            raise ValueError(f"filters: {f!r} is not a {link} filter "
                             f"(expected a subset of {expected})")

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
    elif corr_model == "identity":
        params = [None]
    else:
        raise ValueError(f"corr.model: unknown model {corr_model!r}")
    for key, model in (("corr.alpha", "exponential"),
                       ("corr.pairs", "bessel")):
        if key in kv and corr_model != model:
            raise ValueError(f"{key}: only the {model} model reads it, "
                             f"but corr.model is {corr_model}")

    if "seed" in kv or "SCMIMO_SEED" not in os.environ:
        seed = number("seed", int, str(DEFAULT_SEED))
    else:
        seed = _number("SCMIMO_SEED", os.environ["SCMIMO_SEED"], int)
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
        seed=seed,
        beta_mode=kv.get("beta.mode", "grid_opt"),
        beta_value=number("beta.value", float, "0"),
        beta_trials=number("beta.trials", int, "100"),
        output=kv.get("output", "sweep.csv"))

    if not cfg.rho_grid:
        raise ValueError("grid.rho_db: power grid must be non-empty")
    for rho_db in cfg.rho_grid:
        if not math.isfinite(rho_db):
            raise ValueError(f"grid.rho_db: powers must be finite, "
                             f"got {rho_db}")
    if cfg.trials < 1:
        raise ValueError("trials: must be >= 1")
    if cfg.beta_trials < 1:
        raise ValueError("beta.trials: must be >= 1")
    if not (math.isfinite(cfg.beta_value) and cfg.beta_value >= 0):
        raise ValueError(f"beta.value: must be finite and >= 0, "
                         f"got {cfg.beta_value}")
    if cfg.beta_mode not in ("grid_opt", "fixed"):
        raise ValueError(f"beta.mode: expected grid_opt or fixed, "
                         f"got {cfg.beta_mode!r}")
    return cfg


def _correlation(cfg, param):
    if cfg.corr_model == "identity":
        return identity_correlation(cfg.M)
    if cfg.corr_model == "exponential":
        return exponential_correlation(cfg.geometry, param)
    eta, mu = param
    return bessel_correlation(cfg.geometry, eta, mu)


def _scenario(cfg, filt, param, rho_db):
    dims = SimulationDims(M=cfg.M, K=cfg.K, L=cfg.L, N=cfg.N, T=cfg.T,
                          T_c=cfg.T_c, rho_f_db=rho_db, seed=cfg.seed)
    if cfg.corr_model == "bessel":
        corr_param, mu = param
    elif cfg.corr_model == "identity":
        corr_param, mu = None, None
    else:
        corr_param, mu = param, None
    return Scenario(link=cfg.link, filt=filt, dims=dims,
                    corr=_correlation(cfg, param),
                    pdp=exponential_pdp(cfg.K, cfg.L),
                    corr_model=cfg.corr_model,
                    corr_param=corr_param, mu=mu)


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


def optimize_beta(scenario, rho_f, trials=100, *, factors=None):
    """Ridge parameter maximizing the Monte Carlo sum rate at power rho_f.

    Evaluates beta in {0} union {10^k : k = -6..6} under common random
    numbers (one shared set of channel draws), then refines log beta over
    the winner's two grid neighbours with Brent's bounded search
    (`_brent_min`) until the best point is within log(1.01)/2 of both
    ends of its bracket. Exact ties return the earliest candidate, biasing
    toward beta = 0; when beta = 0 wins outright the search returns 0.0
    without refinement, and a refined point that rates below the grid
    winner is never returned. Deterministic given the scenario seed.

    The draws are factored once (analysis.DrawFactors), so each candidate
    costs only a rescale of the cached per-bin eigendecompositions.
    `factors` supplies them for draws 0 .. trials - 1 of the scenario
    (from analysis.factor_draws); by default they are built here. They
    keep the stacks of every beta evaluated, so a later search or a
    reporting pass on them evaluates none of those again.
    """
    if scenario.filt not in BETA_FILTERS:
        raise ValueError(f"filter {scenario.filt!r} has no ridge parameter")
    if not (math.isfinite(rho_f) and rho_f > 0):
        raise ValueError(f"rho_f: power must be finite and > 0, got {rho_f}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dims = scenario.dims
    rho_db = 10.0 * math.log10(rho_f)
    base = dataclasses.replace(
        scenario, dims=dataclasses.replace(dims, rho_f_db=rho_db))
    if factors is None:
        factors = analysis.factor_draws(scenario, trials)

    def rate(beta):
        return analysis.rate_from_breakdown(analysis._aggregate(
            base, *factors.buckets(scenario.filt, beta, trials)))[0]

    grid = [0.0] + [10.0 ** k for k in range(-6, 7)]
    rates = [rate(b) for b in grid]
    best = max(range(len(grid)), key=lambda i: (rates[i], -i))
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


def _sweep_group(cfg, params):
    """Every result a group of correlation parameters compared: per
    parameter (`params` order), filter (config order) and power point, a
    list of SumRateResults: a searched ridge filter's beta*, then beta =
    0's when beta* != 0; any other filter's one result at its fixed beta.

    With a beta search, each cell in turn factors its draws
    0 .. beta.trials - 1 for every filter, searches beta at every power
    point on them (`optimize_beta`) and reads every row's stacks there;
    those factors keep the stacks of every beta evaluated, and are
    released before the next cell's search. The group then draws each
    later draw's fading once for all its cells (every draw with a fixed
    beta; `analysis.mc_buckets_group`), and holds every cell's reporting
    stacks until it ends. A draw's stacks depend only on (seed, t) and its
    own correlation, so no row depends on the grouping. A sweep row
    (`run_sweep`) keeps beta* unless beta = 0 rates strictly higher on
    the reporting draws.
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
            betas = [optimize_beta(at(scn0, search, rho_db, 0.0),
                                   10.0 ** (rho_db / 10.0),
                                   trials=cfg.beta_trials, factors=factors)
                     for rho_db in cfg.rho_grid]
            requests += [(search, b) for b in sorted(set(betas) | {0.0})]
        cells.append((scn0, requests, betas))
        return scn0, requests, factors

    def results(scn0, stacks, filt, rho_db, beta_star):
        candidates = (beta_star, 0.0) if filt == search else (fixed[filt],)
        return [buckets_to_result(at(scn0, filt, rho_db, b), cfg.trials,
                                  *stacks[filt, b])
                for b in dict.fromkeys(candidates)]

    # lazy: a cell's search runs once the previous cell's factors are read
    per_cell = analysis.mc_buckets_group(map(searched, params), cfg.trials)
    return [[[results(scn0, dict(zip(requests, stacks)), filt, rho_db, beta)
              for rho_db, beta in zip(cfg.rho_grid, betas)]
             for filt in cfg.filters]
            for (scn0, requests, betas), stacks in zip(cells, per_cell)]


def _result_row(result):
    meta = result.meta
    bd = result.breakdown
    return {
        "link": meta["link"],
        "filter": meta["filter"].upper(),
        "corr_model": meta["corr_model"],
        "corr_param": "" if meta["corr_param"] is None
                      else repr(float(meta["corr_param"])),
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
    """Pool-worker initializer: run this process's BLAS on one thread and
    keep its heap mapped between bucket-core chunks. Never raises.

    By default the pool runs one worker per CPU, so a multithreaded BLAS
    in each worker only oversubscribes the CPUs: on a 2-CPU box, workers
    without this ran their cells about 10% slower, and 12 of 32 ran a
    64 x 64 `eigh` 10-100x slower. Calls OpenBLAS's set_num_threads,
    found through the library NumPy's linalg module links; any other BLAS
    is left as it is.

    Under glibc it also fixes malloc's mmap and trim thresholds. Left
    dynamic, they rise only to twice the largest mmapped block ever freed
    (about 1 MB in `analysis.DrawFactors.fill`), so the heap top went back
    to the kernel after every 8-draw chunk and the next chunk faulted it
    in again: on the fig1 CMFP/ZFP and fig3 CMFE/ZFE sweeps at two
    workers, the workers took 381 k minor page faults and 0.78 s of
    system time, against 23 k and 0.10 s with the heap kept. Under any
    other C library this part does nothing.
    """
    import ctypes

    def load(path):
        try:
            return ctypes.CDLL(path)
        except (OSError, TypeError):
            return None

    try:
        blas = load(np.linalg._umath_linalg.__file__)
    except AttributeError:
        blas = None
    for name in ("scipy_openblas_set_num_threads64_",
                 "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads"):
        if hasattr(blas, name):
            getattr(blas, name)(1)
            break
    libc = load(None)
    # the parameter numbers are glibc's own: no other libc is passed them
    if hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt"):
        mallopt = libc.mallopt
        mallopt.argtypes, mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _WORKER_MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _WORKER_TRIM_THRESHOLD)


def run_sweep(cfg, workers=None):
    """Evaluate the config's full (filter x parameter x power) grid and
    write it to cfg.output in filter-major config order, whatever order
    the cells finish in; returns the row dicts. A row reports the best
    result its cell compared at that point.

    Each correlation parameter is one cell serving every filter, run in a
    group (`_sweep_group`) that draws each reporting draw's fading once
    for all its cells; no row depends on the grouping. With more than one
    worker (by default one per CPU, at most one per cell; more than the
    CPUs only oversubscribe them), worker i runs the group
    params[i::workers] in a process forked where the platform can fork,
    else spawned, with its BLAS on one thread and, under glibc, a heap
    kept mapped between bucket-core chunks (`_init_worker`); the pool is
    shut down before this returns or raises. Otherwise all the cells are
    one group in this process, whose BLAS threads and malloc settings are
    left as they are.
    """
    params = cfg.corr_params
    if workers is None:
        workers = os.cpu_count() or 1
    elif workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, len(params))
    if workers > 1:
        # imported here, so that loading the module pays no multiprocessing
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
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
    rows = [_result_row(max(results, key=lambda r: r.rate_bpcu))
            for i in range(len(cfg.filters)) for cell in per_cell
            for results in cell[i]]
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
    byte-identical. Raises on an empty table (nothing to plot) before
    touching the output file.
    """
    if not table:
        raise ValueError("cannot emit a plot script for an empty table")
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


# ---------------------------------------------------------------------------
# validation suites


class _Report:
    def __init__(self):
        self.lines = []
        self.ok = True

    def check(self, name, expected, measured, tol, kind="rel"):
        if kind == "rel":
            err = abs(measured - expected) / abs(expected)
        else:
            err = abs(measured - expected)
        verdict = "PASS" if err <= tol else "FAIL"
        if verdict == "FAIL":
            self.ok = False
        self.lines.append(
            f"{name:<52s} expected={expected:<14.6g} "
            f"measured={measured:<14.6g} tol={tol:<10.3g} {verdict}")

    def check_order(self, name, lhs, rhs, strict=True, slack=0.0):
        good = lhs > rhs if strict else lhs >= rhs - slack
        if not good:
            self.ok = False
        op = ">" if strict else ">="
        self.lines.append(
            f"{name:<52s} expected={'lhs ' + op + ' rhs':<14s} "
            f"measured={lhs:.4f} vs {rhs:.4f}{'':<4s} "
            f"tol={slack:<10.3g} {'PASS' if good else 'FAIL'}")


def _quick_cfg(link, filters, M=64, K=10, L=4, T=100, trials=500,
               kind="ula", M_x=None):
    return ScenarioConfig(
        link=link, filters=list(filters), corr_model="exponential",
        corr_params=[0.0], geometry=ArrayGeometry(kind, M, M_x or M, 0.5),
        K=K, L=L, N=20, T=T, T_c=20, rho_grid=list(RHO_GRID_DEFAULT),
        trials=trials, seed=DEFAULT_SEED)


def _validate_closed_forms(rep):
    M, K, L, T = 16, 4, 4, 64
    trials = 2000
    cfg = _quick_cfg("downlink", ["cmfp"], M=M, K=K, L=L, T=T,
                     trials=trials)
    pdp = exponential_pdp(K, L)
    rho = 1.0

    for alpha in (0.0, 0.7, 0.9, 0.99):
        scn = _scenario(cfg, "cmfp", alpha, 0.0)
        g, isi_u, mui_u, _ = mc_buckets(scn, trials)
        mean_g = g.mean(axis=0)
        mean_g2 = (np.abs(g) ** 2).mean(axis=0)
        desired = rho * np.abs(mean_g) ** 2
        eff = rho * (mean_g2 - np.abs(mean_g) ** 2) \
            + rho * isi_u.mean(axis=0) + rho * mui_u.mean(axis=0) + 1.0
        trA2 = scn.corr.trace_A2
        rep.check(f"cmfp desired power (alpha={alpha})", M * rho / K,
                  float(desired.mean()), 0.03)
        rep.check(f"cmfp effective noise (alpha={alpha})",
                  trA2 * rho / M + 1.0, float(eff.mean()), 0.05)

    ul_cfg = _quick_cfg("uplink", ["cmfe"], M=M, K=K, L=L, T=T,
                        trials=trials)
    for alpha in (0.0, 0.7):
        scn = _scenario(ul_cfg, "cmfe", alpha, 0.0)
        stacks = mc_buckets(scn, trials)
        awgn = stacks[3].mean()
        rep.check(f"cmfe post-filter AWGN (alpha={alpha})",
                  scn.corr.trace_A / (M * K), float(awgn), 0.03)
        rate_mc = buckets_to_result(scn, trials, *stacks).rate_bpcu
        rate_closed = cmfe_rate_closed(rho, M, K, scn.corr.trace_A,
                                       scn.corr.trace_A2, pdp.d[0])
        rep.check(f"cmfe sum rate vs closed form (alpha={alpha})",
                  rate_closed, rate_mc, 0.05)

    rep.check("cmfp closed-form rate (M=64, K=10, rho=1, A=I)",
              10.352, cmfp_rate_closed(1.0, 64, 10, 64.0), 1e-3, kind="abs")
    rep.check("cmfp closed-form high-power limit",
              14.44, cmfp_rate_closed(np.inf, 64, 10, 64.0), 1e-2,
              kind="abs")
    rep.check("cooperative bound (M=64, K=10, rho=1)",
              coop_capacity(1.0, 64, 10), 14.4376, 1e-3)

    big = _quick_cfg("downlink", ["cmfp"])
    mc = sum_rate_mc(_scenario(big, "cmfp", 0.0, 0.0), big.trials).rate_bpcu
    rep.check("cmfp Monte Carlo rate vs closed form (M=64)",
              cmfp_rate_closed(1.0, 64, 10, 64.0), mc, 0.03)


def _validate_appendix(rep):
    M, K, L = 8, 3, 3
    draws = 100_000
    seed = DEFAULT_SEED
    geom = ula(M, 0.5)
    corr = exponential_correlation(geom, 0.5)
    pdp = exponential_pdp(K, L)
    cases = [
        ("k=q l=l' b=0", (1, 1, 0, 1, 1)),
        ("k=q l=l' b!=0", (1, 1, 1, 1, 1)),
        ("k=q l!=l' b=0", (1, 2, 0, 1, 1)),
        ("k=q l!=l' b!=0", (1, 2, 1, 1, 1)),
        ("k!=q l=l' b=0", (1, 1, 0, 0, 2)),
        ("k!=q l=l' b!=0", (1, 1, 1, 0, 2)),
        ("k!=q l!=l'", (1, 2, 0, 0, 2)),
    ]
    sqrt_d = np.sqrt(pdp.d.T)                      # (L, K)
    chunk, done = 5000, 0
    sums = {name: 0.0 + 0.0j for name, _ in cases}
    sqsums = {name: 0.0 for name, _ in cases}
    ci = 0
    while done < draws:
        n = min(chunk, draws - done)
        rng = trial_rng(seed, 10_000 + ci)
        H = (rng.standard_normal((n, L, M, K))
             + 1j * rng.standard_normal((n, L, M, K))) / np.sqrt(2)
        Hhat = (corr.sqrt_A @ H) * sqrt_d[None, :, None, :]
        for name, (l, lp, b, k, q) in cases:
            f1 = np.einsum("nm,nm->n", np.conj(Hhat[:, l, :, k]),
                           Hhat[:, l - b, :, q])
            f2 = np.einsum("nm,nm->n", np.conj(Hhat[:, lp, :, k]),
                           Hhat[:, lp - b, :, q])
            z = f1 * np.conj(f2)
            sums[name] += z.sum()
            sqsums[name] += float(np.sum(np.abs(z) ** 2))
        done += n
        ci += 1
    for name, (l, lp, b, k, q) in cases:
        closed = analysis.appendix_moment(l, lp, b, k, q, corr, pdp)
        mean = sums[name] / draws
        var = sqsums[name] / draws - abs(mean) ** 2
        stderr = math.sqrt(max(var, 0.0) / draws)
        if abs(closed) > 0:
            rep.check(f"appendix moment {name}", float(closed.real),
                      float(mean.real), 0.05)
        else:
            rep.check(f"appendix moment {name} (zero case, 3 sigma)",
                      0.0, abs(mean), 3.0 * stderr, kind="abs")


def _validate_zero_forcing(rep):
    M, K, L, N = 16, 4, 4, 20
    dims = SimulationDims(M=M, K=K, L=L, N=N, T=N, T_c=N,
                          rho_f_db=0.0, seed=DEFAULT_SEED)
    corr = exponential_correlation(ula(M, 0.5), 0.7)
    pdp = exponential_pdp(K, L)
    from .dl_precoding import synthesis_bins, zfp_bank
    from .ul_equalization import zfe_bank

    worst_dl = worst_ul = 0.0
    worst_isi_dl = worst_isi_ul = 0.0
    rng = trial_rng(dims.seed, 0)
    for t in range(5):
        ch = draw_channel(dims, pdp, corr, rekey(rng, dims.seed, t))
        wb = zfp_bank(ch)
        B = synthesis_bins(ch.Hhat, N)
        for nu in range(N):
            prod = np.conj(B[nu].T) @ (wb.norm * wb.freq[nu])
            a = np.trace(prod).real / K
            worst_dl = max(worst_dl,
                           float(np.max(np.abs(prod - a * np.eye(K)))) / a)
        qb = zfe_bank(ch)
        Hnu = taps_to_freq(ch.Hhat, N)
        for nu in range(N):
            prod = qb.freq[nu] @ Hnu[nu]
            worst_ul = max(worst_ul,
                           float(np.max(np.abs(prod - np.eye(K)))))
        blocks = analysis.SignalBlocks(rho_f=1.0, T=N, noise=None)
        bd_dl = analysis.decompose("downlink", "zfp", ch, blocks)
        bd_ul = analysis.decompose("uplink", "zfe", ch, blocks)
        worst_isi_dl = max(worst_isi_dl,
                           float((bd_dl.isi_k + bd_dl.mui_k).max()))
        worst_isi_ul = max(worst_isi_ul,
                           float((bd_ul.isi_k + bd_ul.mui_k).max()))
    rep.check("zfp per-bin cascade is scaled identity", 0.0, worst_dl,
              1e-8, kind="abs")
    rep.check("zfe per-bin cascade is identity", 0.0, worst_ul,
              1e-8, kind="abs")
    rep.check("zfp measured ISI+MUI at rho=1 (T=N)", 0.0, worst_isi_dl,
              1e-6, kind="abs")
    rep.check("zfe measured ISI+MUI at rho=1 (CP framing)", 0.0,
              worst_isi_ul, 1e-6, kind="abs")


def _validate_figures(rep):
    def cell(cfg, alpha, rho_grid):
        """{(filter, rho_db): rate} of one sweep cell, a ridge filter at
        its own beta* (the sweep row, the better of beta* and 0, would
        make "rzfp >= zfp" hold by construction)."""
        cfg = dataclasses.replace(cfg, rho_grid=rho_grid)
        [per_filter] = _sweep_group(cfg, [alpha])
        return {(filt, rho_db): results[0].rate_bpcu
                for filt, per_power in zip(cfg.filters, per_filter)
                for rho_db, results in zip(rho_grid, per_power)}

    dl_cfg = _quick_cfg("downlink", ["cmfp", "zfp", "rzfp"])
    ul_cfg = _quick_cfg("uplink", ["cmfe", "zfe", "mmsee"])
    upa_cfg = _quick_cfg("downlink", ["cmfp"], kind="upa", M_x=8)
    from_m5 = [g for g in RHO_GRID_DEFAULT if g >= -5.0]
    dl = {0.0: cell(dl_cfg, 0.0, [-10.0]), 0.7: cell(dl_cfg, 0.7, from_m5),
          0.9: cell(dl_cfg, 0.9, [20.0]), 0.99: cell(dl_cfg, 0.99, [20.0])}
    ul = {alpha: cell(ul_cfg, alpha, [20.0])
          for alpha in (0.0, 0.7, 0.9, 0.99)}
    upa = {alpha: cell(upa_cfg, alpha, [20.0]) for alpha in (0.7, 0.9)}

    # uncorrelated downlink at low power: matched filter wins
    for filt in ("zfp", "rzfp"):
        rep.check_order(f"downlink alpha=0, -10 dB: cmfp >= {filt}",
                        dl[0.0]["cmfp", -10.0], dl[0.0][filt, -10.0],
                        strict=False)

    # alpha=0.7: regularized zero-forcing overtakes from -5 dB up
    for rho_db in from_m5:
        rep.check_order(f"downlink alpha=0.7, {rho_db:+.1f} dB: "
                        f"rzfp > cmfp", dl[0.7]["rzfp", rho_db],
                        dl[0.7]["cmfp", rho_db])

    # uplink at 20 dB: ridge equalizer beats matched filter at every alpha
    for alpha, rates in ul.items():
        rep.check_order(f"uplink alpha={alpha}, 20 dB: mmsee > cmfe",
                        rates["mmsee", 20.0], rates["cmfe", 20.0])

    # planar array degrades the matched-filter downlink at high power
    for alpha, rates in upa.items():
        rep.check_order(f"cmfp 20 dB alpha={alpha}: ULA > UPA",
                        dl[alpha]["cmfp", 20.0], rates["cmfp", 20.0])

    # 20 dB ordering chain and its growth with correlation. "Growth" is
    # multiplicative: at extreme correlation every filter's rate collapses,
    # so the absolute lead over the matched filter eventually shrinks while
    # the rate ratio keeps rising.
    ratio_zfp, ratio_rzfp = [], []
    for alpha in (0.7, 0.9, 0.99):
        cm, zf, rz = (dl[alpha][filt, 20.0] for filt in dl_cfg.filters)
        rep.check_order(f"20 dB alpha={alpha}: zfp > cmfp", zf, cm)
        rep.check_order(f"20 dB alpha={alpha}: rzfp >= zfp", rz, zf,
                        strict=False, slack=1e-9)
        ratio_zfp.append(zf / cm)
        ratio_rzfp.append(rz / cm)
    for name, r in (("zfp/cmfp", ratio_zfp), ("rzfp/cmfp", ratio_rzfp)):
        rep.check_order(f"{name} rate ratio grows 0.7 -> 0.9", r[1], r[0])
        rep.check_order(f"{name} rate ratio grows 0.9 -> 0.99", r[2], r[1])

    # regularization never hurts the uplink under an optimized ridge
    rep.check_order("uplink alpha=0.9, 20 dB: mmsee >= zfe",
                    ul[0.9]["mmsee", 20.0], ul[0.9]["zfe", 20.0],
                    strict=False, slack=1e-9)


def validate(suite):
    """Run one named validation suite; returns (all_passed, report_lines)."""
    suites = {
        "closed_forms": _validate_closed_forms,
        "appendix": _validate_appendix,
        "zero_forcing": _validate_zero_forcing,
        "figures": _validate_figures,
    }
    if suite not in suites:
        raise ValueError(f"unknown suite {suite!r} "
                         f"(expected one of {sorted(suites)})")
    rep = _Report()
    suites[suite](rep)
    return rep.ok, rep.lines


# ---------------------------------------------------------------------------
# CLI


def main(argv=None):
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
    p_val.add_argument("--suite", required=True,
                       choices=["closed_forms", "appendix", "zero_forcing",
                                "figures"])

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

    if args.command == "sweep":
        if args.workers is not None and args.workers < 1:
            parser.error(f"--workers: must be >= 1, got {args.workers}")
        cfg = load_config(args.config, args.override)
        rows = run_sweep(cfg, workers=args.workers)
        print(f"wrote {len(rows)} rows to {cfg.output}")
        return 0

    if args.command == "validate":
        ok, lines = validate(args.suite)
        for line in lines:
            print(line)
        print(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1

    if args.command == "plot":
        table = read_csv(args.csv)
        emit_plot_script(table, args.out, csv_path=args.csv)
        print(f"wrote {args.out}")
        return 0

    if args.command == "beta":
        if not math.isfinite(args.rho_db):
            parser.error(f"--rho-db: must be finite, got {args.rho_db}")
        cfg = load_config(args.config, args.override)
        filt = next((f for f in cfg.filters if f in BETA_FILTERS), None)
        if filt is None:
            parser.error("config has no ridge-regularized filter")
        # one filter at one power, one line per correlation parameter; beta
        # is searched whatever beta.mode says
        cfg = dataclasses.replace(cfg, filters=[filt],
                                  rho_grid=[args.rho_db], beta_mode="grid_opt")
        for param, cell in zip(cfg.corr_params,
                               _sweep_group(cfg, cfg.corr_params)):
            result = cell[0][0][0]
            beta, rate = result.meta["beta"], result.rate_bpcu
            if cfg.corr_model == "exponential":
                label = f", exponential alpha={param!r}"
            elif cfg.corr_model == "bessel":
                label = f", bessel eta={param[0]!r} mu={param[1]!r}"
            else:
                label = ""
            print(f"beta* = {beta!r}  (sum rate {rate:.4f} bpcu at "
                  f"{args.rho_db:+.1f} dB, filter {filt}{label})")
        return 0
    return 2
