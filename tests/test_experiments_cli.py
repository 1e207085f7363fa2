"""Config parsing, sweeps, CSV/plot emission, beta search, CLI wiring."""

import ast
import ctypes
import dataclasses
import importlib.util
import json
import mmap
import multiprocessing
import os
import platform
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import scmimo
from scmimo import analysis, channel, dl_precoding, experiments_cli as cli
from scmimo.analysis import Scenario, _draw_buckets, sum_rate_mc
from scmimo.channel import (DEFAULT_SEED, SimulationDims, draw_channel,
                            exponential_pdp, trial_rng)
from scmimo.corr_models import exponential_correlation, identity_correlation, ula
from scmimo.experiments_cli import (CSV_HEADER, _brent_min, _correlation,
                                    _scenario, _sweep_group, emit_plot_script,
                                    load_config, main, optimize_beta,
                                    read_csv, run_sweep, validate)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

BASE_CFG = """
# small downlink sweep for tests
link = downlink
filters = cmfp,zfp,rzfp
corr.model = exponential
corr.alpha = 0.0,0.5,0.9,0.99
geometry.m = 8
dims.k = 2
dims.l = 2
dims.n = 4
dims.t = 8
dims.t_c = 4
trials = 3
seed = 99
beta.mode = fixed
beta.value = 0.01
"""


def cfg_file(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return str(p)


# ---------------------------------------------------------------------------
# load_config


def test_load_config_roundtrip(tmp_path):
    cfg = load_config(cfg_file(tmp_path, BASE_CFG))
    assert cfg.link == "downlink"
    assert cfg.filters == ["cmfp", "zfp", "rzfp"]
    assert cfg.corr_model == "exponential"
    assert cfg.corr_params == [0.0, 0.5, 0.9, 0.99]
    assert (cfg.M, cfg.K, cfg.L, cfg.N, cfg.T, cfg.T_c) == (8, 2, 2, 4, 8, 4)
    assert cfg.trials == 3 and cfg.seed == 99
    assert cfg.beta_mode == "fixed" and cfg.beta_value == 0.01
    assert len(cfg.rho_grid) == 13          # default -10..20 dB by 2.5
    assert cfg.rho_grid[0] == -10.0 and cfg.rho_grid[-1] == 20.0
    assert cfg.output == "sweep.csv"


def test_load_config_overrides(tmp_path):
    path = cfg_file(tmp_path, BASE_CFG)
    cfg = load_config(path, overrides=["trials=7", "dims.k = 1",
                                       "output=other.csv"])
    assert cfg.trials == 7 and cfg.K == 1 and cfg.output == "other.csv"
    with pytest.raises(ValueError, match="key=value"):
        load_config(path, overrides=["trials"])


def test_load_config_missing_key_names_it(tmp_path):
    text = BASE_CFG.replace("dims.t_c = 4", "")
    with pytest.raises(ValueError, match="dims.t_c"):
        load_config(cfg_file(tmp_path, text))


def test_load_config_bad_values(tmp_path):
    base = cfg_file(tmp_path, BASE_CFG)
    for override, match in [
            ("link=sidelink", "link"),
            ("filters=cmfe", "not a downlink filter"),
            ("corr.model=gaussian", "corr.model"),
            ("trials=0", "trials"),
            ("grid.rho_db=", "non-empty"),
            ("corr.alpha=", "^corr.alpha: "),
            ("beta.mode=newton", "beta.mode"),
            ("dl_framing=sliding", "dl_framing"),
            # numbers no sweep can use: rejected at load, not as nan rows
            # or mid-sweep
            ("beta.trials=0", "^beta.trials: "),
            ("beta.trials=-2", "^beta.trials: "),
            ("grid.rho_db=nan", "^grid.rho_db: "),
            ("grid.rho_db=0,inf", "^grid.rho_db: "),
            ("grid.rho_db=-inf,0", "^grid.rho_db: "),
            ("beta.value=nan", "^beta.value: "),
            ("beta.value=-1", "^beta.value: "),
            ("beta.value=inf", "^beta.value: "),
            ("dims.n=2", "^dims: need N > L"),
            ("dims.t=3", "^dims: need T >= N"),
            ("dims.t_c=2", "^dims: need T_c > L"),
            ("dims.t_c=9", "^dims: need T_c <= T"),
            ("dims.k=9", "^dims: need K <= M"),
            ("corr.alpha=0.5,1.5", "^corr.alpha: "),
            ("corr.alpha=-0.1", "^corr.alpha: "),
            ("corr.alpha=nan", "^corr.alpha: "),
            ("geometry.spacing=inf", "^geometry: element spacing"),
            ("geometry.spacing=nan", "^geometry: element spacing")]:
        with pytest.raises(ValueError, match=match):
            load_config(base, overrides=[override])
    for pairs in ("20,0;-1,0", "nan,0", "inf,0.5", "20,0;20,nan", "20,-inf"):
        with pytest.raises(ValueError, match="^corr.pairs: need a finite"):
            load_config(base, overrides=["corr.model=bessel",
                                         f"corr.pairs={pairs}"])


def test_load_config_rejects_unknown_keys(tmp_path):
    # a typo'd key must not silently fall back to a default
    text = BASE_CFG + "rho_db = 0,10\n"
    with pytest.raises(ValueError, match="rho_db"):
        load_config(cfg_file(tmp_path, text))
    with pytest.raises(ValueError, match="trails"):
        load_config(cfg_file(tmp_path, BASE_CFG), overrides=["trails=9"])
    # downlink blocks are always circular: there is no framing switch
    with pytest.raises(ValueError, match="unknown config key.*dl_framing"):
        load_config(cfg_file(tmp_path, BASE_CFG + "dl_framing = linear\n",
                             name="framed.cfg"))


def test_load_config_rejects_duplicate_key(tmp_path):
    path = cfg_file(tmp_path, BASE_CFG + "trials = 5\n")
    line = len(textwrap.dedent(BASE_CFG).splitlines()) + 1
    with pytest.raises(ValueError,
                       match=rf"run\.cfg:{line}: duplicate key 'trials'"):
        load_config(path)


@pytest.mark.parametrize("overrides,match", [
    (["filters=zfp,zfp"], r"^filters: repeated entry 'zfp'$"),
    (["filters=cmfp,ZFP,zfp"], r"^filters: repeated entry 'zfp'$"),
    (["corr.alpha=0.5,0.9,0.50"], r"^corr\.alpha: repeated entry 0\.5$"),
    (["corr.model=bessel", "corr.pairs=20,0;40,1;20,0.0"],
     r"^corr\.pairs: repeated entry \(20\.0, 0\.0\)$"),
    (["grid.rho_db=0,10,0"], r"^grid\.rho_db: repeated entry 0\.0$")],
    ids=["filter", "filter-case", "alpha", "eta-mu", "power"])
def test_load_config_rejects_repeated_entries(tmp_path, overrides, match):
    """A repeated filter, correlation parameter or power would write the
    same rows twice; like a repeated key, it is rejected by name."""
    with pytest.raises(ValueError, match=match):
        load_config(cfg_file(tmp_path, BASE_CFG), overrides=overrides)


@pytest.mark.parametrize("override,seed_env,match", [
    ("trials=abc", None, r"^trials: expected int, got 'abc'$"),
    ("dims.k=2.5", None, r"^dims\.k: expected int, got '2\.5'$"),
    ("grid.rho_db=1,a", None, r"^grid\.rho_db: expected float, got 'a'$"),
    ("corr.alpha=0.5,z", None, r"^corr\.alpha: expected float, got 'z'$"),
    ("geometry.m_x=four", None, r"^geometry\.m_x: expected int"),
    ("beta.value=1e", None, r"^beta\.value: expected float"),
    ("seed=abc", "7", r"^seed: expected int, got 'abc'$"),
    (None, "abc", r"^SCMIMO_SEED: expected int, got 'abc'$")],
    ids=["trials", "dims.k", "grid.rho_db", "corr.alpha", "geometry.m_x",
         "beta.value", "seed", "SCMIMO_SEED"])
def test_load_config_names_the_key_of_a_bad_number(tmp_path, monkeypatch,
                                                  override, seed_env, match):
    """A number that does not parse is reported with its key, or with
    SCMIMO_SEED when the seed came from the environment."""
    if seed_env is None:
        monkeypatch.delenv("SCMIMO_SEED", raising=False)
    else:
        monkeypatch.setenv("SCMIMO_SEED", seed_env)
    path = cfg_file(tmp_path, BASE_CFG.replace("seed = 99", ""))
    with pytest.raises(ValueError, match=match):
        load_config(path, overrides=[override] if override else [])


def test_load_config_rejects_row_length_on_ula(tmp_path):
    with pytest.raises(ValueError, match="ULA requires M_x == M"):
        load_config(cfg_file(tmp_path, BASE_CFG + "geometry.m_x = 3\n"))


@pytest.mark.parametrize("name", [f"fig{i}.cfg" for i in range(1, 9)])
def test_shipped_configs_load_and_build_every_correlation(name):
    cfg = load_config(os.path.join(CONFIG_DIR, name))
    for param in cfg.corr_params:
        corr = _correlation(cfg, param)
        assert corr.A.shape == (cfg.M, cfg.M)


def test_load_config_rejects_malformed_lines(tmp_path):
    path = cfg_file(tmp_path, "link downlink\n")
    with pytest.raises(ValueError, match="run.cfg:1"):
        load_config(path)


def test_load_config_bessel_pairs(tmp_path):
    text = BASE_CFG.replace("corr.model = exponential", "corr.model = bessel")
    text = text.replace("corr.alpha = 0.0,0.5,0.9,0.99",
                        "corr.pairs = 20,0 ; 40,1.5708")
    cfg = load_config(cfg_file(tmp_path, text))
    assert cfg.corr_params == [(20.0, 0.0), (40.0, 1.5708)]
    bad = text.replace("corr.pairs = 20,0 ; 40,1.5708", "corr.pairs = 20;40,1")
    with pytest.raises(ValueError, match="corr.pairs"):
        load_config(cfg_file(tmp_path, bad, name="bad.cfg"))


def test_load_config_identity_model(tmp_path):
    text = BASE_CFG.replace("corr.model = exponential", "corr.model = identity")
    text = text.replace("corr.alpha = 0.0,0.5,0.9,0.99\n", "")
    cfg = load_config(cfg_file(tmp_path, text))
    assert cfg.corr_params == [None]


@pytest.mark.parametrize("model,override", [
    ("bessel", "corr.alpha=0.5"), ("identity", "corr.alpha=0.5"),
    ("exponential", "corr.pairs=20,0"), ("identity", "corr.pairs=20,0")])
def test_load_config_rejects_a_correlation_key_its_model_ignores(
        tmp_path, model, override):
    """corr.alpha is read only by the exponential model and corr.pairs
    only by the Bessel model; either one under another model would be
    silently ignored, so it is rejected by name."""
    text = BASE_CFG.replace("corr.model = exponential",
                            f"corr.model = {model}")
    text = text.replace("corr.alpha = 0.0,0.5,0.9,0.99", {
        "bessel": "corr.pairs = 20,0 ; 40,1.5708",
        "identity": "", "exponential": "corr.alpha = 0.0,0.5"}[model])
    key = override.split("=")[0]
    with pytest.raises(ValueError, match=rf"^{re.escape(key)}: only the "
                                         rf".* model reads it"):
        load_config(cfg_file(tmp_path, text), overrides=[override])


def test_seed_priority(tmp_path, monkeypatch):
    """Config seed beats the environment, which beats the default."""
    with_seed = cfg_file(tmp_path, BASE_CFG, name="seeded.cfg")
    without = cfg_file(tmp_path, BASE_CFG.replace("seed = 99", ""),
                       name="unseeded.cfg")
    monkeypatch.setenv("SCMIMO_SEED", "777")
    assert load_config(with_seed).seed == 99
    assert load_config(without).seed == 777
    monkeypatch.delenv("SCMIMO_SEED")
    assert load_config(without).seed == DEFAULT_SEED


def test_sweep_rejects_negative_seed_before_writing(tmp_path):
    out = tmp_path / "neg.csv"
    cfg = load_config(cfg_file(tmp_path, BASE_CFG),
                      overrides=["seed=-1", f"output={out}"])
    with pytest.raises(ValueError, match="seed=-1"):
        run_sweep(cfg)
    assert not out.exists()


def test_scenario_meta_split(tmp_path):
    text = BASE_CFG.replace("corr.model = exponential", "corr.model = bessel")
    text = text.replace("corr.alpha = 0.0,0.5,0.9,0.99", "corr.pairs = 20,0.5")
    cfg = load_config(cfg_file(tmp_path, text))
    scn = _scenario(cfg, "cmfp", cfg.corr_params[0], 0.0)
    assert scn.corr_model == "bessel"
    assert scn.corr_param == 20.0 and scn.mu == 0.5


# ---------------------------------------------------------------------------
# optimize_beta


def small_beta_scenario(filt="mmsee", alpha=0.7, rho_db=10.0, seed=31):
    dims = SimulationDims(M=8, K=3, L=2, N=4, T=8, T_c=4,
                          rho_f_db=rho_db, seed=seed)
    return Scenario(link="uplink", filt=filt, dims=dims,
                    corr=exponential_correlation(ula(8, 0.5), alpha),
                    pdp=exponential_pdp(3, 2))


def test_optimize_beta_rejects_plain_filters():
    scn = small_beta_scenario(filt="zfe")
    with pytest.raises(ValueError, match="ridge"):
        optimize_beta(scn, 1.0, trials=2)


def test_optimize_beta_keeps_zero_when_unregularized_wins():
    """At T = N the zero-forcing equalizer is interference-free, and at
    extreme power any ridge trades rho-scaled interference for a fixed
    noise saving, so beta = 0 wins outright and is returned exactly."""
    dims = SimulationDims(M=8, K=2, L=2, N=4, T=4, T_c=4,
                          rho_f_db=120.0, seed=5)
    scn = Scenario(link="uplink", filt="mmsee", dims=dims,
                   corr=identity_correlation(8), pdp=exponential_pdp(2, 2))
    assert optimize_beta(scn, 1e12, trials=4) == 0.0


def test_optimize_beta_deterministic():
    scn = small_beta_scenario()
    b1 = optimize_beta(scn, 10.0, trials=25)
    b2 = optimize_beta(scn, 10.0, trials=25)
    assert b1 == b2


def test_optimize_beta_dominates_grid_endpoints():
    """The returned ridge never loses to the coarse endpoints under the
    same draws (they are grid candidates, and the refinement is guarded)."""
    scn = small_beta_scenario(rho_db=10.0)
    trials = 40
    beta_star = optimize_beta(scn, 10.0, trials=trials)

    def rate(beta):
        return sum_rate_mc(dataclasses.replace(scn, beta=beta),
                           trials).rate_bpcu

    assert rate(beta_star) >= rate(1e-6) - 1e-12
    assert rate(beta_star) >= rate(1e6) - 1e-12
    assert rate(beta_star) >= rate(0.0) - 1e-12


class _PerDrawSearch:
    """Reference for optimize_beta's factor cache: whole draws, each
    evaluated on its own through _draw_buckets."""

    def __init__(self, scn, trials):
        self.scn = scn
        self.chans = [draw_channel(scn.dims, scn.pdp, scn.corr,
                                   trial_rng(scn.dims.seed, t))
                      for t in range(trials)]

    def buckets(self, filt, beta, n):
        scn = dataclasses.replace(self.scn, filt=filt, beta=beta)
        return tuple(np.array(b) for b in zip(
            *(_draw_buckets(scn, ch) for ch in self.chans[:n])))


@pytest.mark.parametrize("link,filt", [("downlink", "rzfp"),
                                       ("uplink", "mmsee")])
@pytest.mark.parametrize("rho_db", [0.0, 10.0, 30.0])
def test_optimize_beta_matches_per_draw_search(link, filt, rho_db):
    dims = SimulationDims(M=8, K=3, L=2, N=4, T=8, T_c=4,
                          rho_f_db=rho_db, seed=31)
    scn = Scenario(link=link, filt=filt, dims=dims,
                   corr=exponential_correlation(ula(8, 0.5), 0.7),
                   pdp=exponential_pdp(3, 2))
    rho = 10.0 ** (rho_db / 10.0)
    assert optimize_beta(scn, rho, trials=25) == optimize_beta(
        scn, rho, trials=25, factors=_PerDrawSearch(scn, 25))


@pytest.mark.parametrize("rho_f", [float("nan"), float("inf"),
                                   float("-inf"), 0.0, -1.0])
def test_optimize_beta_rejects_bad_power(rho_f):
    with pytest.raises(ValueError, match="^rho_f: "):
        optimize_beta(small_beta_scenario(filt="mmsee"), rho_f, trials=2)


@pytest.mark.parametrize("trials", [0, -3])
def test_optimize_beta_rejects_fewer_than_one_trial(trials):
    """No draws give no rate to compare, as for sum_rate_mc."""
    with pytest.raises(ValueError, match=r"^trials must be >= 1$"):
        optimize_beta(small_beta_scenario(filt="mmsee"), 1.0, trials=trials)
    with pytest.raises(ValueError, match=r"^trials must be >= 1$"):
        sum_rate_mc(small_beta_scenario(filt="mmsee"), trials)


@pytest.mark.parametrize("link,filt", [("downlink", "rzfp"),
                                       ("uplink", "mmsee")])
@pytest.mark.parametrize("rho_db", [0.0, 10.0, 30.0])
def test_optimize_beta_refinement_matches_dense_scan(link, filt, rho_db):
    """On the search's own draws, beta* rates within 1e-9 of the best
    point of a 0.005-decade scan over the bracket around the grid winner
    (or is 0 when beta = 0 wins the grid)."""
    dims = SimulationDims(M=8, K=3, L=2, N=4, T=8, T_c=4,
                          rho_f_db=rho_db, seed=31)
    scn = Scenario(link=link, filt=filt, dims=dims,
                   corr=exponential_correlation(ula(8, 0.5), 0.7),
                   pdp=exponential_pdp(3, 2))
    rho = 10.0 ** (rho_db / 10.0)
    factors = analysis.factor_draws(scn, 25)
    beta_star = optimize_beta(scn, rho, trials=25, factors=factors)

    def rate(beta):
        at = dataclasses.replace(scn, beta=beta)
        return analysis.rate_from_breakdown(analysis._aggregate(
            at, *factors.buckets(filt, beta, 25)))[0]

    grid = [0.0] + [10.0 ** k for k in range(-6, 7)]
    rates = [rate(b) for b in grid]
    best = int(np.argmax(rates))
    if best == 0:
        assert beta_star == 0.0
        return
    lo, hi = grid[max(best - 1, 1)], grid[min(best + 1, len(grid) - 1)]
    scan = 10.0 ** np.arange(np.log10(lo), np.log10(hi) + 1e-9, 0.005)
    assert lo <= beta_star <= hi
    assert rate(beta_star) >= max(rate(b) for b in scan) - 1e-9
    assert rate(beta_star) >= rates[best]


@pytest.mark.parametrize("f,a,b,x_min", [
    (lambda x: (x - 1.234) ** 2 + 0.1 * (x - 1.234) ** 4, 0.0, 3.0, 1.234),
    (lambda x: np.exp(x) - 2.0 * x, -1.0, 3.0, np.log(2.0)),
    (lambda x: abs(x - 0.3), -1.0, 2.0, 0.3),
    (lambda x: -np.sin(x), 0.0, 3.0, np.pi / 2),
])
def test_brent_min_reaches_tolerance(f, a, b, x_min):
    """The minimizer stops with its best point within 2 tol of a unimodal
    function's minimizer, in fewer evaluations than a golden-section
    search needs for the same bracket."""
    tol = np.log(1.01) / 4.0
    calls = []
    x, fx = _brent_min(lambda t: calls.append(t) or f(t), a, b, tol)
    assert abs(x - x_min) <= 2.0 * tol
    assert fx == f(x) and x in calls
    golden_evals = 1 + np.ceil(np.log(2.0 * tol / (b - a))
                               / np.log((np.sqrt(5.0) - 1.0) / 2.0))
    assert len(calls) < golden_evals


def test_beta_search_shares_its_coarse_grid_across_a_cell(tmp_path,
                                                          monkeypatch):
    """One grid_opt cell with three power points evaluates each coarse
    grid beta once on the search's draws, each refinement takes at most
    12 evaluations, and the reporting pass evaluates no beta on those
    draws again."""
    path = cfg_file(tmp_path, SHORTFALL_CFG.format(
        link="downlink", filt="rzfp"))
    cfg = load_config(path, overrides=[
        "corr.alpha=0.7", "grid.rho_db=0,10,20",
        f"output={tmp_path / 'out.csv'}"])
    log = []
    ridge = analysis.DrawFactors._ridge_buckets
    search = optimize_beta

    def counted_ridge(self, beta, a, b, filt):
        if (self.first, self.n) == (0, cfg.beta_trials):
            log[-1].append((a, beta))
        return ridge(self, beta, a, b, filt)

    def counted_search(*args, **kwargs):
        log.append([])
        beta = search(*args, **kwargs)
        log.append([])              # the chunks run until the next search
        return beta

    monkeypatch.setattr(analysis.DrawFactors, "_ridge_buckets",
                        counted_ridge)
    monkeypatch.setattr(cli, "optimize_beta", counted_search)
    run_sweep(cfg, workers=1)
    # one evaluation on the search's draws is one chunk call at slot 0
    searches = [[beta for a, beta in calls if a == 0] for calls in log[::2]]
    assert len(searches) == 3
    assert log[1::2] == [[], [], []]
    grid = [0.0] + [10.0 ** k for k in range(-6, 7)]
    assert searches[0][:len(grid)] == grid
    evals = [beta for betas in searches for beta in betas]
    for beta in grid:
        assert evals.count(beta) == 1
    refinements = [searches[0][len(grid):], *searches[1:]]
    assert any(refinements)
    assert all(len(r) <= 12 for r in refinements)


CELL_CFG = """
link = {link}
filters = {filters}
corr.model = exponential
corr.alpha = 0.0,0.7
geometry.m = 8
dims.k = 3
dims.l = 2
dims.n = 4
dims.t = 8
dims.t_c = 4
trials = 30
beta.trials = 10
beta.value = 0.05
grid.rho_db = 0,10,20
seed = 5
"""


@pytest.mark.parametrize("link,filters", [("downlink", "cmfp,zfp,rzfp"),
                                          ("uplink", "cmfe,zfe,mmsee")])
@pytest.mark.parametrize("mode", ["grid_opt", "fixed"])
def test_sweep_cell_draws_each_trial_once(tmp_path, monkeypatch, link,
                                          filters, mode):
    """A one-worker sweep is one group, which draws each trial's fading
    once for all its cells and all the link's filters: `trials` fading
    draws with a fixed beta, and with a beta search the `trials` -
    `beta.trials` reporting draws once plus each cell's own search draws.
    Its rows are byte for byte those of one single-filter sweep per
    filter, concatenated."""
    path = cfg_file(tmp_path, CELL_CFG.format(link=link, filters=filters))
    overrides = [f"beta.mode={mode}", f"output={tmp_path / 'all.csv'}"]
    calls = []
    draw = channel.draw_fading
    for module in (channel, analysis):
        monkeypatch.setattr(module, "draw_fading",
                            lambda *args: calls.append(args) or draw(*args))
    cfg = load_config(path, overrides=overrides)
    rows = run_sweep(cfg, workers=1)
    searched = cfg.beta_trials if mode == "grid_opt" else 0
    assert len(calls) == (cfg.trials - searched
                          + len(cfg.corr_params) * searched)
    for module in (channel, analysis):
        monkeypatch.setattr(module, "draw_fading", draw)

    single, body = [], []
    for filt in cfg.filters:
        out = tmp_path / f"{filt}.csv"
        single += run_sweep(load_config(path, overrides=overrides + [
            f"filters={filt}", f"output={out}"]), workers=2)
        body += out.read_text().splitlines()[1:]
    assert rows == single
    assert (tmp_path / "all.csv").read_text().splitlines() == [
        CSV_HEADER, *body]


GROUP_CFG = CELL_CFG.replace("corr.alpha = 0.0,0.7",
                             "corr.alpha = 0.0,0.5,0.7,0.9")


@pytest.mark.parametrize("link,filters", [("downlink", "cmfp,zfp,rzfp"),
                                          ("uplink", "cmfe,zfe,mmsee")])
@pytest.mark.parametrize("mode", ["grid_opt", "fixed"])
def test_sweep_csv_does_not_depend_on_the_grouping(tmp_path, link, filters,
                                                   mode):
    """Four correlation cells give the same CSV bytes as one group, as
    groups of two, as groups of two and one and one, one cell per worker,
    and at more workers than cells."""
    path = cfg_file(tmp_path, GROUP_CFG.format(link=link, filters=filters))
    out = []
    for workers in (1, 2, 3, 4, 5):
        cfg = load_config(path, [f"beta.mode={mode}",
                                 f"output={tmp_path / f'{workers}.csv'}"])
        run_sweep(cfg, workers=workers)
        out.append((tmp_path / f"{workers}.csv").read_bytes())
    assert len(out[0].splitlines()) == 1 + 3 * 4 * 3
    assert out == [out[0]] * 5


def test_bucket_group_needs_cells_that_share_their_draws():
    """A group draws one fading block per trial for all its cells: each
    cell's stacks are bit for bit its own, and cells with another seed,
    other (M, K, L) or another number of factored draws are rejected."""
    scn, other = (small_beta_scenario(filt="zfe", alpha=alpha)
                  for alpha in (0.7, 0.0))
    requests = [("zfe", 0.0), ("mmsee", 0.1)]
    group = analysis.mc_buckets_group(
        [(scn, requests, None), (other, requests, None)], 11)
    for cell, stacks in zip((scn, other), group):
        alone, = analysis.mc_buckets_group([(cell, requests, None)], 11)
        assert all(np.array_equal(a, b)
                   for want, got in zip(alone, stacks)
                   for a, b in zip(want, got))
    for bad, factors in [
            (small_beta_scenario(filt="zfe", seed=32), None),
            (dataclasses.replace(scn, dims=dataclasses.replace(scn.dims, K=2),
                                 pdp=exponential_pdp(2, 2)), None),
            (scn, analysis.factor_draws(scn, 4, filters=("zfe", "mmsee")))]:
        with pytest.raises(ValueError, match="must share their seed"):
            analysis.mc_buckets_group(
                [(scn, requests, None), (bad, requests, factors)], 11)


def test_grid_opt_cell_evaluates_beta_zero_once_on_search_draws(
        tmp_path, monkeypatch):
    """The beta search's stacks at beta = 0 serve the reporting pass: on
    the search's factored draws, each slot is evaluated at beta = 0 once
    per cell, although the coarse grid and the ridge filter's better-of
    comparison both use it (the zero-forcing rows come from the bin
    inverses, not from this path)."""
    path = cfg_file(tmp_path, CELL_CFG.format(link="downlink",
                                              filters="cmfp,zfp,rzfp"))
    cfg = load_config(path, overrides=[f"output={tmp_path / 'out.csv'}"])
    evaluated = []
    ridge = analysis.DrawFactors._ridge_buckets

    def counted(self, beta, a, b, filt):
        if beta == 0.0 and self.first == 0:
            evaluated.append((self, a, b))
        return ridge(self, beta, a, b, filt)

    monkeypatch.setattr(analysis.DrawFactors, "_ridge_buckets", counted)
    run_sweep(cfg, workers=1)
    cells = list(dict.fromkeys(f for f, _, _ in evaluated))
    assert len(cells) == len(cfg.corr_params)
    for factors in cells:
        assert factors.n == cfg.beta_trials
        slots = sorted(i for f, a, b in evaluated if f is factors
                       for i in range(a, b))
        assert slots == list(range(cfg.beta_trials))


def _run_fresh(code, *args):
    """Run `code` in a fresh interpreter that imports this checkout's
    scmimo; return its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        analysis.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code),
                           *args],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_search_leaves_scipy_optimize_unimported():
    """An exponential-model sweep, β search included, loads no SciPy at
    all: the search has its own minimizer, and only the Bessel model
    imports scipy.special, which alone doubles the package's import time
    and memory."""
    code = """
        import sys, tempfile, os
        import scmimo
        from scmimo.experiments_cli import load_config, run_sweep
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w") as fh:
                fh.write(sys.argv[1])
            cfg = load_config(path, [f"output={tmp}/out.csv"])
            run_sweep(cfg, workers=1)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """
    assert _run_fresh(code, SHORTFALL_CFG.format(
        link="uplink", filt="mmsee")) == "[]"


def test_bessel_sweep_imports_scipy_at_its_cells():
    """A Bessel sweep loads scipy.special at its first cells. Run first
    with two pool processes that build their correlations together, it
    still writes the same bytes as a one-worker sweep."""
    code = """
        import sys, tempfile, os
        from scmimo.experiments_cli import load_config, run_sweep
        sys.setswitchinterval(1e-6)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w") as fh:
                fh.write(sys.argv[1])
            out = []
            for workers in (2, 1):
                cfg = load_config(path, [f"output={tmp}/{workers}.csv"])
                run_sweep(cfg, workers=workers)
                with open(cfg.output, "rb") as fh:
                    out.append(fh.read())
        print("scipy.special" in sys.modules, out[0] == out[1])
    """
    text = SHORTFALL_CFG.format(link="downlink", filt="cmfp,zfp").replace(
        "corr.model = exponential\ncorr.alpha = 0.0,0.5,0.9",
        "corr.model = bessel\ncorr.pairs = 0,0 ; 5,0.5")
    assert "corr.pairs" in text
    assert _run_fresh(code, text) == "True True"


def test_import_leaves_pool_modules_unloaded():
    """Loading the CLI module imports no process-pool machinery: only a
    sweep that runs cells in worker processes pays the import of
    multiprocessing."""
    code = """
        import sys
        import scmimo.experiments_cli
        print([m for m in ("multiprocessing", "concurrent.futures.process")
               if m in sys.modules])
    """
    assert _run_fresh(code) == "[]"


def test_readme_quick_start_runs_on_the_package_root(capsys):
    """The README's quick start runs as written, and the package root
    exports exactly the names it imports."""
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        block, = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    names = {alias.name for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.ImportFrom) and node.module == "scmimo"
             for alias in node.names}
    assert sorted(scmimo.__all__) == sorted(names)
    assert all(callable(getattr(scmimo, name)) for name in names)
    exec(block, {})
    assert capsys.readouterr().out.startswith("sum rate ")


def test_import_leaves_cli_unloaded():
    """Importing the package loads the library modules only: the sweep
    and command-line module is imported from its submodule when used."""
    code = """
        import sys
        import scmimo
        print("scmimo.experiments_cli" in sys.modules)
    """
    assert _run_fresh(code) == "False"


def test_pool_start_method_is_pinned():
    """run_sweep picks its workers' start method itself, fork where the
    platform has it, whatever the interpreter's default: with the default
    set to spawn, a two-worker grid_opt sweep still forks its workers and
    writes the same bytes as a one-worker sweep."""
    code = """
        import multiprocessing, sys, tempfile, os
        from multiprocessing.process import BaseProcess
        from scmimo.experiments_cli import load_config, run_sweep
        multiprocessing.set_start_method("spawn", force=True)
        methods, start = set(), BaseProcess.start

        def recorded_start(self):
            methods.add(self._start_method)
            start(self)

        BaseProcess.start = recorded_start
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w") as fh:
                fh.write(sys.argv[1])
            out = []
            for workers in (2, 1):
                cfg = load_config(path, [f"output={tmp}/{workers}.csv"])
                run_sweep(cfg, workers=workers)
                with open(cfg.output, "rb") as fh:
                    out.append(fh.read())
        print(sorted(methods), out[0] == out[1])
    """
    method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
              else "spawn")
    assert _run_fresh(code, SHORTFALL_CFG.format(
        link="downlink", filt="rzfp")) == f"['{method}'] True"


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the checking cell reaches workers by fork")
def test_pool_workers_run_blas_on_one_thread():
    """Where NumPy links OpenBLAS, every pool worker runs its cells on one
    BLAS thread: by default the pool runs one worker per CPU."""
    code = """
        import ctypes, os, sys, tempfile
        import numpy as np
        from scmimo import experiments_cli as cli
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        getters = [getattr(lib, name) for name in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
            "openblas_get_num_threads") if hasattr(lib, name)]
        cell = cli._sweep_group

        def checked_cell(cfg, params):
            if getters[0]() != 1:
                raise RuntimeError(f"{getters[0]()} BLAS threads")
            return cell(cfg, params)

        cli._sweep_group = checked_cell
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w") as fh:
                fh.write(sys.argv[1])
            if getters:
                cli.run_sweep(cli.load_config(path, [f"output={tmp}/o.csv"]),
                              workers=2)
        print("OpenBLAS" if getters else "another BLAS")
    """
    assert _run_fresh(code, SHORTFALL_CFG.format(
        link="uplink", filt="zfe")) in ("OpenBLAS", "another BLAS")


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc"
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers keep their heap through glibc's mallopt, and the "
           "churning cell reaches them by fork")
def test_pool_workers_keep_their_heap_between_chunks():
    """A pool worker's heap stays mapped when a cell frees its arrays:
    a cell that allocates twenty 512 KB arrays and frees them all, round
    after round, faults their pages in at most in its first round (with
    the default thresholds, glibc returns the heap top to the kernel
    after each round, and each later round faults every page again)."""
    code = """
        import json, resource, sys, tempfile, os
        import numpy as np
        from scmimo import experiments_cli as cli
        cell = cli._sweep_group

        def churning_cell(cfg, params):
            for param in params:
                growth = []
                for _ in range(8):
                    before = resource.getrusage(
                        resource.RUSAGE_SELF).ru_minflt
                    arrays = [np.ones(1 << 16) for _ in range(20)]
                    del arrays
                    growth.append(resource.getrusage(
                        resource.RUSAGE_SELF).ru_minflt - before)
                with open(f"{os.path.dirname(cfg.output)}/{param}.json",
                          "w") as fh:
                    json.dump(growth, fh)
            return cell(cfg, params)

        cli._sweep_group = churning_cell
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w") as fh:
                fh.write(sys.argv[1])
            cfg = cli.load_config(path, [f"output={tmp}/o.csv"])
            cli.run_sweep(cfg, workers=2)
            growth = []
            for param in cfg.corr_params:
                with open(f"{tmp}/{param}.json") as fh:
                    growth.append(json.load(fh))
        print(json.dumps(growth))
    """
    growth = json.loads(_run_fresh(code, SHORTFALL_CFG.format(
        link="downlink", filt="cmfp,zfp")))
    pages = 20 * (1 << 16) * 8 // mmap.PAGESIZE
    assert len(growth) == 3
    for rounds in growth:
        assert max(rounds[1:]) < pages // 20, rounds


def test_serial_sweep_leaves_its_process_alone(tmp_path, monkeypatch):
    """A one-worker sweep runs its cells in the caller's process and never
    runs the pool-worker initializer there."""
    def refused():
        raise AssertionError("pool-worker initializer in the caller")

    monkeypatch.setattr(cli, "_init_worker", refused)
    path = cfg_file(tmp_path, SHORTFALL_CFG.format(link="uplink",
                                                   filt="cmfe,zfe"))
    cfg = load_config(path, overrides=[f"output={tmp_path / 'o.csv'}"])
    assert len(run_sweep(cfg, workers=1)) == 2 * 3 * 5


@pytest.mark.parametrize("library", ["missing", "bare"])
def test_worker_initializer_is_quiet_without_its_libraries(monkeypatch,
                                                            library):
    """Where no library can be loaded, or one has neither mallopt nor an
    OpenBLAS thread setter, the pool-worker initializer does nothing and
    raises nothing."""
    loaded = []

    def cdll(path):
        loaded.append(path)
        if library == "missing":
            raise OSError(f"cannot load {path}")
        return object()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli._init_worker() is None
    assert len(loaded) == 2


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the patched threshold reaches workers by fork")
def test_pool_passes_errors_through_and_leaves_no_workers(tmp_path,
                                                          monkeypatch):
    """A cell that fails in a worker process raises its own error, which
    still names the filter, seed, trial and bin, from run_sweep; no worker
    outlives run_sweep, whether it returns or raises."""
    path = cfg_file(tmp_path, CELL_CFG.format(link="downlink",
                                              filters="zfp"))
    cfg = load_config(path, overrides=[f"output={tmp_path / 'out.csv'}"])
    run_sweep(cfg, workers=2)
    assert multiprocessing.active_children() == []
    # a rank threshold no Gram matrix meets: every draw fails its check
    monkeypatch.setattr(dl_precoding, "RCOND_MIN", 1.0)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"\(exponential alpha=0, zfp, seed 5, "
                             r"trial 0\): .*bin \d+"):
        run_sweep(cfg, workers=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("link,filters,zf", [
    ("downlink", "cmfp,zfp,rzfp", "zfp"), ("uplink", "cmfe,zfe,mmsee", "zfe")])
def test_grid_opt_cell_rejects_zero_forcing_draws_before_the_search(
        tmp_path, monkeypatch, link, filters, zf):
    """The zero-forcing rank check runs when the search's draws are
    factored: a threshold no Gram matrix meets rejects trial 0, naming the
    zero-forcing filter and the seed, before any ridge evaluation."""
    cfg = load_config(cfg_file(tmp_path, CELL_CFG.format(
        link=link, filters=filters)))

    def no_ridge(*args):
        raise AssertionError("a ridge filter evaluated before the check")

    monkeypatch.setattr(analysis.DrawFactors, "_ridge_buckets", no_ridge)
    monkeypatch.setattr(dl_precoding, "RCOND_MIN", 1.0)
    with pytest.raises(np.linalg.LinAlgError,
                       match=rf"\(exponential alpha=0.7, {zf}, seed 5, "
                             rf"trial 0\): .*bin \d+"):
        _sweep_group(cfg, [0.7])


@pytest.mark.parametrize("filt", ["rzfp", "cmfp"])
def test_sweep_cell_reports_each_beta_bit_identically(tmp_path, filt):
    """A cell lists beta*'s own result first at every power point, and
    beta = 0's after it when they differ; each reuses the search's
    factored draws and is bit-identical to a fresh evaluation at its
    beta."""
    text = SHORTFALL_CFG.format(link="downlink", filt=filt)
    cfg = load_config(cfg_file(tmp_path, text))
    [[per_power]] = _sweep_group(cfg, [0.7])
    assert len(per_power) == len(cfg.rho_grid)
    for rho_db, results in zip(cfg.rho_grid, per_power):
        betas = [r.meta["beta"] for r in results]
        assert betas == ([betas[0], 0.0] if filt == "rzfp" else [0.0])
        assert (filt == "rzfp") == (betas[0] > 0)
        for result in results:
            fresh = sum_rate_mc(dataclasses.replace(
                _scenario(cfg, filt, 0.7, rho_db), beta=result.meta["beta"]),
                cfg.trials)
            assert result.rate_bpcu == fresh.rate_bpcu


# ---------------------------------------------------------------------------
# sweeps and CSV


def test_run_sweep_cardinality_and_order(tmp_path):
    out = str(tmp_path / "grid.csv")
    cfg = load_config(cfg_file(tmp_path, BASE_CFG),
                      overrides=[f"output={out}"])
    rows = run_sweep(cfg, workers=2)
    assert len(rows) == 3 * 4 * 13
    # filter-major, then parameter, then power
    assert [r["filter"] for r in rows[:13]] == ["CMFP"] * 13
    assert rows[0]["corr_param"] == "0.0" and rows[13]["corr_param"] == "0.5"
    assert rows[52]["filter"] == "ZFP" and rows[104]["filter"] == "RZFP"
    rho_first = [float(r["rho_f_db"]) for r in rows[:13]]
    assert rho_first == sorted(rho_first) and rho_first[0] == -10.0
    assert all(r["seed"] == "99" and r["trials"] == "3" for r in rows)


def test_csv_header_and_float_roundtrip(tmp_path):
    out = str(tmp_path / "grid.csv")
    cfg = load_config(cfg_file(tmp_path, BASE_CFG),
                      overrides=[f"output={out}", "filters=cmfp",
                                 "corr.alpha=0.5", "grid.rho_db=-10,0"])
    rows = run_sweep(cfg)
    with open(out) as fh:
        assert fh.readline().rstrip("\n") == CSV_HEADER
    back = read_csv(out)
    assert [set(r) for r in back] == [set(CSV_HEADER.split(","))] * 2
    # repr round-trips to the exact Monte Carlo float
    res = sum_rate_mc(_scenario(cfg, "cmfp", 0.5, -10.0), 3)
    assert float(back[0]["rate_bpcu"]) == res.rate_bpcu
    assert float(back[0]["desired"]) == res.breakdown.desired


def test_sweep_rerun_byte_identical(tmp_path):
    path = cfg_file(tmp_path, BASE_CFG)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run_sweep(load_config(path, overrides=[f"output={out1}"]), workers=4)
    run_sweep(load_config(path, overrides=[f"output={out2}"]), workers=1)
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


def test_sweep_grid_opt_rerun_byte_identical(tmp_path):
    """The ridge search is seed-deterministic end to end."""
    text = BASE_CFG.replace("filters = cmfp,zfp,rzfp", "filters = rzfp")
    text = text.replace("corr.alpha = 0.0,0.5,0.9,0.99", "corr.alpha = 0.7")
    text = text.replace("beta.mode = fixed", "beta.mode = grid_opt")
    path = cfg_file(tmp_path, text + "beta.trials = 3\ngrid.rho_db = 0,10\n")
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run_sweep(load_config(path, overrides=[f"output={out1}"]))
    run_sweep(load_config(path, overrides=[f"output={out2}"]))
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


def test_identity_rows_leave_param_blank(tmp_path):
    text = BASE_CFG.replace("corr.model = exponential", "corr.model = identity")
    text = text.replace("corr.alpha = 0.0,0.5,0.9,0.99", "")
    out = str(tmp_path / "ident.csv")
    cfg = load_config(cfg_file(tmp_path, text),
                      overrides=[f"output={out}", "filters=cmfp",
                                 "grid.rho_db=0"])
    rows = run_sweep(cfg)
    assert rows[0]["corr_param"] == "" and rows[0]["mu"] == ""


# ---------------------------------------------------------------------------
# plot-script emission


def sweep_rows(tmp_path, extra=()):
    out = str(tmp_path / "data.csv")
    cfg = load_config(cfg_file(tmp_path, BASE_CFG),
                      overrides=[f"output={out}", "filters=cmfp,zfp",
                                 "corr.alpha=0.0,0.9",
                                 "grid.rho_db=-10,0,10", *extra])
    return run_sweep(cfg), out


def test_emit_plot_script_relative_paths(tmp_path):
    rows, csv_path = sweep_rows(tmp_path)
    subdir = tmp_path / "scripts"
    subdir.mkdir()
    script = str(subdir / "curves.py")
    emit_plot_script(rows, script, csv_path=csv_path)
    text = open(script).read()
    assert os.path.join("..", "data.csv") in text
    assert "curves.png" in text
    assert "alpha" in text          # exponential sweeps label by alpha


def test_emit_plot_script_idempotent(tmp_path):
    rows, csv_path = sweep_rows(tmp_path)
    script = str(tmp_path / "curves.py")
    emit_plot_script(rows, script, csv_path=csv_path)
    first = open(script, "rb").read()
    emit_plot_script(rows, script, csv_path=csv_path)
    assert open(script, "rb").read() == first


def test_emit_plot_script_rejects_empty_table(tmp_path):
    script = str(tmp_path / "curves.py")
    with pytest.raises(ValueError, match="empty"):
        emit_plot_script([], script, csv_path="x.csv")
    assert not os.path.exists(script)


def test_emitted_script_compiles(tmp_path):
    """The emitted script is valid Python (rendering it needs matplotlib,
    which test_emitted_script_renders_png exercises)."""
    rows, csv_path = sweep_rows(tmp_path)
    script = str(tmp_path / "curves.py")
    emit_plot_script(rows, script, csv_path=csv_path)
    with open(script) as fh:
        compile(fh.read(), script, "exec")


def test_emitted_script_renders_png(tmp_path):
    rows, csv_path = sweep_rows(tmp_path)
    script = str(tmp_path / "curves.py")
    emit_plot_script(rows, script, csv_path=csv_path)
    proc = subprocess.run([sys.executable, script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    png = tmp_path / "curves.png"
    assert png.exists() and png.stat().st_size > 0


# ---------------------------------------------------------------------------
# validation suites and CLI wiring


def test_validate_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        validate("everything")


def test_validate_zero_forcing_passes():
    ok, lines = validate("zero_forcing")
    assert ok
    assert len(lines) == 4
    assert all(line.endswith("PASS") for line in lines)


def test_validate_closed_forms_passes():
    ok, lines = validate("closed_forms")
    assert ok
    assert len(lines) == 16
    assert all(line.endswith("PASS") for line in lines)


def test_report_check_records_a_failure():
    rep = cli._Report()
    rep.check("within tolerance", 1.0, 1.0 + 1e-9, 1e-6)
    rep.check("outside tolerance", 0.0, 1e-3, 1e-6, kind="abs")
    assert not rep.ok
    assert rep.lines[0].endswith("PASS") and rep.lines[1].endswith("FAIL")


def test_benchmark_tracing_hooks_resolve(monkeypatch):
    """The benchmark's tracer (perfbench/tracing.py) wraps module
    attributes by name, and its reference maker patches
    experiments_cli.buckets_to_result and sum_rate_mc; a sweep cell
    looks up optimize_beta and buckets_to_result through experiments_cli's
    globals. A rename or move in the package must not leave any of these
    names dangling."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", os.path.join(root, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _ in tracing.TARGETS:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr}"
    for attr in ("buckets_to_result", "sum_rate_mc"):
        assert callable(getattr(cli, attr, None)), attr

    def names(code):
        yield from code.co_names
        for const in code.co_consts:
            if hasattr(const, "co_names"):
                yield from names(const)

    assert {"optimize_beta", "buckets_to_result"} <= set(
        names(cli._sweep_group.__code__))


def test_main_validate_exit_codes(monkeypatch, capsys):
    import scmimo.experiments_cli as cli
    monkeypatch.setattr(cli, "validate",
                        lambda suite: (False, ["something FAIL"]))
    assert main(["validate", "--suite", "appendix"]) == 1
    monkeypatch.setattr(cli, "validate",
                        lambda suite: (True, ["something PASS"]))
    assert main(["validate", "--suite", "appendix"]) == 0
    out = capsys.readouterr().out
    assert "suite appendix: FAIL" in out and "suite appendix: PASS" in out


def test_main_rejects_unknown_suite_name():
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_main_sweep_and_plot_end_to_end(tmp_path, capsys):
    out = str(tmp_path / "cli.csv")
    path = cfg_file(tmp_path, BASE_CFG)
    code = main(["sweep", "--config", path, f"--override=output={out}",
                 "--override=filters=cmfp", "--override=corr.alpha=0.5",
                 "--override=grid.rho_db=0,10"])
    assert code == 0
    assert "wrote 2 rows" in capsys.readouterr().out
    script = str(tmp_path / "fig.py")
    assert main(["plot", "--csv", out, "--out", script]) == 0
    assert os.path.exists(script)


@pytest.mark.parametrize("workers", [0, -2])
def test_run_sweep_rejects_fewer_than_one_worker(tmp_path, workers):
    out = tmp_path / "out.csv"
    cfg = load_config(cfg_file(tmp_path, BASE_CFG), [f"output={out}"])
    with pytest.raises(ValueError, match=rf"^workers must be >= 1, "
                                         rf"got {workers}$"):
        run_sweep(cfg, workers=workers)
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_main_sweep_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", cfg_file(tmp_path, BASE_CFG),
              f"--override=output={out}", f"--workers={workers}"])
    assert exc.value.code == 2
    assert f"--workers: must be >= 1, got {workers}" in \
        capsys.readouterr().err
    assert not out.exists()


def test_main_beta_subcommand(tmp_path, capsys):
    text = BASE_CFG.replace("filters = cmfp,zfp,rzfp", "filters = rzfp")
    text = text.replace("corr.alpha = 0.0,0.5,0.9,0.99", "corr.alpha = 0.7")
    path = cfg_file(tmp_path, text + "beta.trials = 3\n")
    assert main(["beta", "--config", path, "--rho-db", "0"]) == 0
    out = capsys.readouterr().out
    # beta.mode = fixed in the config: the subcommand still searches, on
    # draws 0 .. beta.trials - 1
    cfg = load_config(path)
    assert cfg.beta_mode == "fixed"
    expected = optimize_beta(_scenario(cfg, "rzfp", 0.7, 0.0), 1.0,
                             trials=cfg.beta_trials)
    assert out.startswith(f"beta* = {expected!r}  ")


@pytest.mark.parametrize("corr,params,labels", [
    ("corr.model = exponential\ncorr.alpha = 0.5,0.9", [0.5, 0.9],
     [", exponential alpha=0.5", ", exponential alpha=0.9"]),
    ("corr.model = bessel\ncorr.pairs = 0.2,0.0;0.4,0.25",
     [(0.2, 0.0), (0.4, 0.25)],
     [", bessel eta=0.2 mu=0.0", ", bessel eta=0.4 mu=0.25"]),
    ("corr.model = identity", [None], [""])])
def test_main_beta_prints_one_labelled_line_per_parameter(tmp_path, capsys,
                                                          corr, params,
                                                          labels):
    """Each correlation parameter of the config gets its own search and
    line, which names the parameter (identity has none to name)."""
    text = BASE_CFG.replace("filters = cmfp,zfp,rzfp", "filters = rzfp")
    text = text.replace("corr.model = exponential\n", "")
    text = text.replace("corr.alpha = 0.0,0.5,0.9,0.99", corr)
    path = cfg_file(tmp_path, text + "beta.trials = 3\n")
    assert main(["beta", "--config", path, "--rho-db", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    cfg = load_config(path)
    assert cfg.corr_params == params and len(lines) == len(params)
    for line, param, label in zip(lines, params, labels):
        expected = optimize_beta(_scenario(cfg, "rzfp", param, 5.0),
                                 10.0 ** 0.5, trials=cfg.beta_trials)
        assert line.startswith(f"beta* = {expected!r}  (sum rate ")
        assert line.endswith(f" bpcu at +5.0 dB, filter rzfp{label})")


@pytest.mark.parametrize("rho_db", ["nan", "inf", "-inf"])
def test_main_beta_rejects_non_finite_power(tmp_path, capsys, rho_db):
    text = BASE_CFG.replace("filters = cmfp,zfp,rzfp", "filters = rzfp")
    with pytest.raises(SystemExit) as exc:
        main(["beta", "--config", cfg_file(tmp_path, text),
              f"--rho-db={rho_db}"])
    assert exc.value.code == 2
    assert "--rho-db: must be finite" in capsys.readouterr().err


def test_main_beta_requires_ridge_filter(tmp_path):
    path = cfg_file(tmp_path, BASE_CFG, name="plain.cfg")
    with pytest.raises(SystemExit) as exc:
        main(["beta", "--config", path, "--rho-db", "0",
              "--override=filters=cmfp"])
    assert exc.value.code == 2


SHORTFALL_CFG = """
link = {link}
filters = {filt}
corr.model = exponential
corr.alpha = 0.0,0.5,0.9
geometry.m = 8
dims.k = 3
dims.l = 2
dims.n = 4
dims.t = 8
dims.t_c = 4
trials = 40
beta.trials = 10
grid.rho_db = -10,0,10,20,30
seed = 1
"""


@pytest.mark.parametrize("link,filt", [("downlink", "rzfp"),
                                       ("uplink", "mmsee")])
def test_grid_opt_rows_never_below_beta_zero(tmp_path, link, filt):
    """A searched row reports the better of beta* and 0 on its reporting
    draws, so it never falls below the same cell at fixed beta = 0 (here
    the uplink search alone picks a beta* that loses by about 0.01 bpcu
    at one point). The rows do not depend on the worker count."""
    path = cfg_file(tmp_path, SHORTFALL_CFG.format(link=link, filt=filt))
    out = [f"output={tmp_path / 'out.csv'}"]
    opt = run_sweep(load_config(path, overrides=out), workers=1)
    assert run_sweep(load_config(path, overrides=out), workers=3) == opt
    zero = run_sweep(load_config(path, overrides=out + [
        "beta.mode=fixed", "beta.value=0"]), workers=1)
    assert len(opt) == len(zero) == 15
    for row, row0 in zip(opt, zero):
        assert float(row["rate_bpcu"]) >= float(row0["rate_bpcu"])
