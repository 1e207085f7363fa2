"""The checks against the paper behind ``scmimo validate``: closed forms,
appendix moments, zero-forcing identities and the figures' orderings
(`FIGURE_CLAIMS`). `experiments_cli` loads this module only to validate."""

import dataclasses
import math
from collections import namedtuple

import numpy as np

from . import analysis
from .analysis import (_one_blas_thread, buckets_to_result,
                       cmfe_rate_closed, cmfp_rate_closed, coop_capacity,
                       mc_buckets, sum_rate_mc)
from .channel import (DEFAULT_SEED, composite_taps, draw_channel,
                      exponential_pdp, rekey, taps_to_freq, trial_rng)
from .corr_models import ArrayGeometry, exponential_correlation, ula
from .dl_precoding import synthesis_bins, zfp_bank
from .experiments_cli import (RHO_GRID_DEFAULT, ScenarioConfig, _scenario,
                              _sweep_group)
from .ul_equalization import zfe_bank


class _Report:
    def __init__(self):
        self.lines = []
        self.ok = True

    def _add(self, name, detail, tol, good):
        if not good:
            self.ok = False
        self.lines.append(f"{name:<52s} {detail} tol={tol:<10.3g} "
                          f"{'PASS' if good else 'FAIL'}")

    def check(self, name, expected, measured, tol, kind="rel"):
        err = abs(measured - expected)
        if kind == "rel":
            err /= abs(expected)
        self._add(name, f"expected={expected:<14.6g} "
                  f"measured={measured:<14.6g}", tol, err <= tol)

    def check_order(self, name, lhs, rhs, strict=True, slack=0.0):
        op = ">" if strict else ">="
        self._add(name, f"expected={'lhs ' + op + ' rhs':<14s} "
                  f"measured={lhs:.4f} vs {rhs:.4f}{'':<4s}", slack,
                  lhs > rhs if strict else lhs >= rhs - slack)


def _quick_cfg(link, filters, M=64, K=10, L=4, T=100, trials=500,
               kind="ula", M_x=None, rho_grid=RHO_GRID_DEFAULT):
    return ScenarioConfig(
        link=link, filters=list(filters), corr_model="exponential",
        corr_params=[0.0], geometry=ArrayGeometry(kind, M, M_x or M, 0.5),
        K=K, L=L, N=20, T=T, T_c=20, rho_grid=list(rho_grid),
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
    M, K, L, draws, chunk = 8, 3, 3, 100_000, 5000
    corr = exponential_correlation(ula(M, 0.5), 0.5)
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
    sums = {name: 0.0 + 0.0j for name, _ in cases}
    sqsums = {name: 0.0 for name, _ in cases}
    for ci, done in enumerate(range(0, draws, chunk)):
        n = min(chunk, draws - done)
        rng = trial_rng(DEFAULT_SEED, 10_000 + ci)
        H = (rng.standard_normal((n, L, M, K))
             + 1j * rng.standard_normal((n, L, M, K))) / np.sqrt(2)
        F = analysis._tap_products(composite_taps(H, pdp, corr))
        for name, (l, lp, b, k, q) in cases:
            z = F[:, l, k, l - b, q] * np.conj(F[:, lp, k, lp - b, q])
            sums[name] += z.sum()
            sqsums[name] += float(np.sum(np.abs(z) ** 2))
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
    K, N = 4, 20
    zfp = _scenario(_quick_cfg("downlink", ["zfp"], M=16, K=K, T=N), "zfp",
                    0.7, 0.0)
    zfe = dataclasses.replace(zfp, link="uplink", filt="zfe")
    dims, corr, pdp = zfp.dims, zfp.corr, zfp.pdp

    worst_dl = worst_ul = 0.0
    worst_isi_dl = worst_isi_ul = 0.0
    rng = trial_rng(dims.seed, 0)
    for t in range(5):
        ch = draw_channel(dims, pdp, corr, rekey(rng, dims.seed, t))
        wb = zfp_bank(ch)
        # every bin at once: B_nu^H (a W_nu), and Q_nu Hhat_nu
        prod = np.conj(np.swapaxes(synthesis_bins(ch.Hhat, N), -1, -2)) \
            @ (wb.norm * wb.freq)
        a = np.trace(prod, axis1=-2, axis2=-1).real / K
        worst_dl = max(worst_dl, float(np.max(
            np.abs(prod - a[:, None, None] * np.eye(K)).max(axis=(1, 2)) / a)))
        prod = zfe_bank(ch).freq @ taps_to_freq(ch.Hhat, N)
        worst_ul = max(worst_ul, float(np.max(np.abs(prod - np.eye(K)))))
        _, isi, mui, _ = analysis.decompose(zfp, ch)
        worst_isi_dl = max(worst_isi_dl, float((isi + mui).max()))
        _, isi, mui, _ = analysis.decompose(zfe, ch)
        worst_isi_ul = max(worst_isi_ul, float((isi + mui).max()))
    rep.check("zfp per-bin cascade is scaled identity", 0.0, worst_dl,
              1e-8, kind="abs")
    rep.check("zfe per-bin cascade is identity", 0.0, worst_ul,
              1e-8, kind="abs")
    rep.check("zfp measured ISI+MUI at rho=1 (T=N)", 0.0, worst_isi_dl,
              1e-6, kind="abs")
    rep.check("zfe measured ISI+MUI at rho=1 (CP framing)", 0.0,
              worst_isi_ul, 1e-6, kind="abs")

    # An oracle independent of the banks, through the bucket core at paper
    # size: at alpha = 0 each bin's Gram matrix is complex Wishart
    # W_K(M, I), as the PDP rows sum to 1, and E[W^-1] = I / (M - K), so
    # the ZFE AWGN bucket has mean 1 / (M - K) and ZFP at T = N has
    # E[1 / |g_k|^2] = K / (M - K). Each sample mean must lie within 3
    # standard errors of its per-draw values.
    M, K, trials = 64, 10, 500
    for link, filt, exact in (("downlink", "zfp", K / (M - K)),
                              ("uplink", "zfe", 1 / (M - K))):
        cfg = _quick_cfg(link, [filt], M=M, K=K, T=N, trials=trials)
        g, _, _, awgn = mc_buckets(_scenario(cfg, filt, 0.0, 0.0), trials)
        per_draw = (1 / np.abs(g) ** 2 if filt == "zfp" else awgn).mean(
            axis=1)
        name = "1/|g|^2 (T=N)" if filt == "zfp" else "AWGN"
        rep.check(f"{filt} {name} vs Wishart mean (M={M}, alpha=0)",
                  exact, float(per_draw.mean()),
                  3 * float(per_draw.std(ddof=1)) / math.sqrt(trials),
                  kind="abs")


# An ordering of the paper: the rate lhs reads beats the one rhs reads
# (strictly, or within slack). A side is (cell, alpha, filter, rho_db), a
# quick cell's rate; a filter "a/b" reads the ratio of a's rate to b's.
Claim = namedtuple("Claim", "name lhs rhs strict slack", defaults=(True, 0.0))

FIGURE_CELLS = {  # the quick cells (`_quick_cfg`) that claims read
    "dl": dict(link="downlink", filters=("cmfp", "zfp", "rzfp")),
    "ul": dict(link="uplink", filters=("cmfe", "zfe", "mmsee")),
    "upa": dict(link="downlink", filters=("cmfp",), kind="upa", M_x=8),
}

FIGURE_CLAIMS = (
    # uncorrelated downlink at low power: matched filter wins
    *(Claim(f"downlink alpha=0, -10 dB: cmfp >= {f}", ("dl", 0.0, "cmfp",
            -10.0), ("dl", 0.0, f, -10.0), False) for f in ("zfp", "rzfp")),
    # alpha=0.7: regularized zero-forcing overtakes from -5 dB up
    *(Claim(f"downlink alpha=0.7, {rho_db:+.1f} dB: rzfp > cmfp",
            ("dl", 0.7, "rzfp", rho_db), ("dl", 0.7, "cmfp", rho_db))
      for rho_db in RHO_GRID_DEFAULT if rho_db >= -5.0),
    # uplink at 20 dB: ridge equalizer beats matched filter at every alpha
    *(Claim(f"uplink alpha={a}, 20 dB: mmsee > cmfe", ("ul", a, "mmsee", 20.0),
            ("ul", a, "cmfe", 20.0)) for a in (0.0, 0.7, 0.9, 0.99)),
    # planar array degrades the matched-filter downlink at high power
    *(Claim(f"cmfp 20 dB alpha={a}: ULA > UPA", ("dl", a, "cmfp", 20.0),
            ("upa", a, "cmfp", 20.0)) for a in (0.7, 0.9)),
    # 20 dB ordering chain and its growth with correlation. "Growth" is
    # multiplicative: at extreme correlation every filter's rate collapses,
    # so the absolute lead over the matched filter eventually shrinks while
    # the rate ratio keeps rising.
    *(claim for a in (0.7, 0.9, 0.99) for claim in (
        Claim(f"20 dB alpha={a}: zfp > cmfp", ("dl", a, "zfp", 20.0),
              ("dl", a, "cmfp", 20.0)),
        Claim(f"20 dB alpha={a}: rzfp >= zfp", ("dl", a, "rzfp", 20.0),
              ("dl", a, "zfp", 20.0), strict=False, slack=1e-9))),
    *(Claim(f"{r} rate ratio grows {a0} -> {a1}", ("dl", a1, r, 20.0),
            ("dl", a0, r, 20.0)) for r in ("zfp/cmfp", "rzfp/cmfp")
      for a0, a1 in ((0.7, 0.9), (0.9, 0.99))),
    # regularization never hurts the uplink under an optimized ridge
    Claim("uplink alpha=0.9, 20 dB: mmsee >= zfe", ("ul", 0.9, "mmsee", 20.0),
          ("ul", 0.9, "zfe", 20.0), strict=False, slack=1e-9),
)


def _validate_figures(rep):
    """Apply FIGURE_CLAIMS in order to one quick sweep cell per (cell,
    alpha) they read, on the powers they read there. Each filter is read
    at its own beta (`CellRow.own`), not at the sweep's row, which passes
    rzfp >= zfp by construction (the row rule of `_sweep_group`)."""
    powers = {}
    for claim in FIGURE_CLAIMS:
        for cell, alpha, _, rho_db in (claim.lhs, claim.rhs):
            powers.setdefault((cell, alpha), set()).add(rho_db)
    rates = {}
    for (cell, alpha), grid in powers.items():
        cfg = _quick_cfg(**FIGURE_CELLS[cell], rho_grid=sorted(grid))
        [rows] = _sweep_group(cfg, [alpha])
        rates.update(((cell, alpha, filt, rho_db), pair.own.rate_bpcu)
                     for (filt, rho_db), pair in rows.items())

    def read(cell, alpha, filt, rho_db):
        num, _, den = filt.partition("/")
        rate = rates[cell, alpha, num, rho_db]
        return rate / rates[cell, alpha, den, rho_db] if den else rate

    for claim in FIGURE_CLAIMS:
        rep.check_order(claim.name, read(*claim.lhs), read(*claim.rhs),
                        strict=claim.strict, slack=claim.slack)


SUITES = {
    "closed_forms": _validate_closed_forms,
    "appendix": _validate_appendix,
    "zero_forcing": _validate_zero_forcing,
    "figures": _validate_figures,
}


def validate(suite):
    """Run one named validation suite; returns (all_passed, report_lines).
    Its cells run with OpenBLAS on one thread, as `run_sweep`'s do."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} "
                         f"(expected one of {sorted(SUITES)})")
    rep = _Report()
    with _one_blas_thread():
        SUITES[suite](rep)
    return rep.ok, rep.lines
