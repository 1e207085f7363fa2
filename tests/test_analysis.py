"""Analysis tests: bucket decomposition, sum rates, moment identities."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scmimo import analysis, dl_precoding
from scmimo.analysis import (NoiseBreakdown, Scenario, SignalBlocks,
                             _draw_buckets, appendix_moment,
                             buckets_to_result, cmfe_rate_closed,
                             cmfp_rate_closed, coop_capacity, decompose,
                             factor_draws, mc_buckets, mc_buckets_group,
                             sum_rate_mc)
from scmimo.channel import (ChannelRealization, PowerDelayProfile,
                            SimulationDims, draw_channel, exponential_pdp,
                            trial_rng)
from scmimo.corr_models import (CorrelationMatrix, exponential_correlation,
                                identity_correlation, ula)
from scmimo.dl_precoding import downlink_receive, precoded_transmit, zfp_bank


def scenario(link="downlink", filt="cmfp", M=8, K=2, L=2, N=4, T=16,
             T_c=4, rho_db=0.0, seed=51, alpha=0.0, beta=0.0, **kw):
    dims = SimulationDims(M=M, K=K, L=L, N=N, T=T, T_c=T_c,
                          rho_f_db=rho_db, seed=seed)
    corr = identity_correlation(M) if alpha == 0.0 \
        else exponential_correlation(ula(M, 0.5), alpha)
    return Scenario(link=link, filt=filt, dims=dims, corr=corr,
                    pdp=exponential_pdp(K, L), beta=beta, **kw)


# ---------------------------------------------------------------------------
# decompose


def test_decompose_rejects_unknown_combo():
    scn = scenario()
    ch = draw_channel(scn.dims, scn.pdp, scn.corr, trial_rng(51, 0))
    blocks = SignalBlocks(rho_f=1.0, T=16, noise=None)
    with pytest.raises(ValueError):
        decompose("downlink", "cmfe", ch, blocks)
    with pytest.raises(ValueError):
        decompose("uplink", "zfp", ch, blocks)
    with pytest.raises(ValueError):
        decompose("sidelink", "cmfp", ch, blocks)


def test_decompose_zero_noise_gives_zero_awgn():
    scn = scenario()
    ch = draw_channel(scn.dims, scn.pdp, scn.corr, trial_rng(51, 0))
    bd = decompose("downlink", "cmfp", ch, SignalBlocks(1.0, 16, None))
    assert np.all(bd.awgn_k == 0.0)
    assert np.all(bd.desired_k >= 0.0)
    assert np.all(bd.isi_k >= 0.0)
    assert np.all(bd.mui_k >= 0.0)


def test_decompose_buckets_match_fast_cascade():
    """Probe measurement and the tap-domain core agree draw by draw."""
    for link, filt, beta in [("downlink", "cmfp", 0.0),
                             ("downlink", "zfp", 0.0),
                             ("downlink", "rzfp", 0.5),
                             ("uplink", "cmfe", 0.0),
                             ("uplink", "zfe", 0.0),
                             ("uplink", "mmsee", 0.5)]:
        scn = scenario(link=link, filt=filt, M=8, K=3, L=3, N=5, T=15,
                       alpha=0.7, beta=beta)
        ch = draw_channel(scn.dims, scn.pdp, scn.corr, trial_rng(51, 2))
        bd = decompose(link, filt, ch, SignalBlocks(1.0, 15, None),
                       beta=beta)
        g, isi_u, mui_u, _ = _draw_buckets(scn, ch)
        assert_allclose(bd.gains, g, atol=1e-10)
        assert_allclose(bd.isi_k, isi_u, atol=1e-10)
        assert_allclose(bd.mui_k, mui_u, atol=1e-10)


# ---------------------------------------------------------------------------
# tap-domain bucket core

SIX_FILTERS = [("downlink", "cmfp"), ("downlink", "zfp"), ("downlink", "rzfp"),
               ("uplink", "cmfe"), ("uplink", "zfe"), ("uplink", "mmsee")]
CORE_CASES = [(link, filt, beta) for link, filt in SIX_FILTERS
              for beta in ((0.0, 1e-3, 1.0, 1e6)
                           if filt in ("rzfp", "mmsee") else (0.0,))]


def _exact_uplink_awgn(filt, ch, T, beta):
    """Post-filter noise power per user for unit white noise, from one
    noise impulse per antenna through decompose."""
    total = 0.0
    for m in range(ch.dims.M):
        impulse = np.zeros((ch.dims.M, T), dtype=complex)
        impulse[m, 0] = 1.0
        total = total + T * decompose("uplink", filt, ch,
                                      SignalBlocks(1.0, T, impulse),
                                      beta=beta).awgn_k
    return total


@pytest.mark.parametrize("T", [5, 7, 12])       # N, N + L - 1, beyond
@pytest.mark.parametrize("link,filt,beta", CORE_CASES)
def test_core_matches_decompose(link, filt, beta, T):
    """With N = 5, L = 3 a bank cascade has N + L - 1 = 7 taps: it folds
    onto the block at T = N, just fits at T = 7 and leaves zero taps at
    T = 12. Gains, ISI, MUI and the AWGN bucket match the probe
    measurement to 1e-10 of their scale in every case."""
    scn = scenario(link=link, filt=filt, M=8, K=3, L=3, N=5, T=T, T_c=5,
                   alpha=0.7, beta=beta)
    for t in range(2):
        ch = draw_channel(scn.dims, scn.pdp, scn.corr, trial_rng(51, t))
        bd = decompose(link, filt, ch, SignalBlocks(1.0, T, None), beta=beta)
        g, isi_u, mui_u, awgn = _draw_buckets(scn, ch)
        scale = np.max(np.abs(bd.gains))
        assert_allclose(g / scale, bd.gains / scale, rtol=0, atol=1e-10)
        assert_allclose(isi_u / scale ** 2, bd.isi_k / scale ** 2,
                        rtol=0, atol=1e-10)
        assert_allclose(mui_u / scale ** 2, bd.mui_k / scale ** 2,
                        rtol=0, atol=1e-10)
        want = np.ones(3) if link == "downlink" \
            else _exact_uplink_awgn(filt, ch, T, beta)
        assert_allclose(awgn, want, rtol=1e-10)


@pytest.mark.parametrize("L,T", [(3, 6), (4, 5), (4, 6)])
@pytest.mark.parametrize("link,filt,beta", CORE_CASES)
def test_core_matches_decompose_when_delays_fold(link, filt, beta, L, T):
    """With N = 5, L = 3 and T = 6 a bank cascade's 7 taps fold only
    partly (delay 6 onto 0). With L = 4 and T < 2L - 1 the matched
    cascade's delays -(L - 1) .. L - 1 collide mod T as well (T = 5: all
    but delay 0 pair up). Both match the probe measurement to 1e-10."""
    scn = scenario(link=link, filt=filt, M=8, K=3, L=L, N=5, T=T, T_c=5,
                   alpha=0.7, beta=beta)
    for t in range(2):
        ch = draw_channel(scn.dims, scn.pdp, scn.corr, trial_rng(51, t))
        bd = decompose(link, filt, ch, SignalBlocks(1.0, T, None), beta=beta)
        g, isi_u, mui_u, awgn = _draw_buckets(scn, ch)
        scale = np.max(np.abs(bd.gains))
        for got, want, power in ((g, bd.gains, 1), (isi_u, bd.isi_k, 2),
                                 (mui_u, bd.mui_k, 2)):
            assert_allclose(got / scale ** power, want / scale ** power,
                            rtol=0, atol=1e-10)
        want = np.ones(3) if link == "downlink" \
            else _exact_uplink_awgn(filt, ch, T, beta)
        assert_allclose(awgn, want, rtol=1e-10)


@pytest.mark.parametrize("L,T", [(1, 5), (1, 7), (2, 5), (2, 6), (2, 9)])
@pytest.mark.parametrize("link,filt,beta", CORE_CASES)
def test_core_matches_decompose_with_one_or_two_taps(link, filt, beta, L, T):
    """With N = 5 and L = 1 a bank cascade has N taps and none of them
    aliases mod N, so the gain is the circular cascade's delay-0 tap. With
    L = 2 delay N aliases onto delay 0: T = 5 folds it back, T = 6 just
    fits the 6 taps, T = 9 leaves zero taps. All match the probe
    measurement to 1e-10."""
    scn = scenario(link=link, filt=filt, M=8, K=3, L=L, N=5, T=T, T_c=5,
                   alpha=0.7, beta=beta)
    for t in range(2):
        ch = draw_channel(scn.dims, scn.pdp, scn.corr, trial_rng(51, t))
        bd = decompose(link, filt, ch, SignalBlocks(1.0, T, None), beta=beta)
        g, isi_u, mui_u, awgn = _draw_buckets(scn, ch)
        scale = np.max(np.abs(bd.gains))
        for got, want, power in ((g, bd.gains, 1), (isi_u, bd.isi_k, 2),
                                 (mui_u, bd.mui_k, 2)):
            assert_allclose(got / scale ** power, want / scale ** power,
                            rtol=0, atol=1e-10)
        want = np.ones(3) if link == "downlink" \
            else _exact_uplink_awgn(filt, ch, T, beta)
        assert_allclose(awgn, want, rtol=1e-10)


def _placed_by_ifft_shift_add_fold(z, shifts, T):
    """The placement written out: an N-point IFFT over bins (axis 0), bank
    tap m of term j added at delay m + shifts[j], then every delay folded
    mod T; one row per delay mod T, in increasing order."""
    N = z.shape[0]
    taps = np.fft.ifft(z, axis=0)
    lo = min(shifts)
    c = np.zeros((N + max(shifts) - lo,) + z.shape[2:], dtype=complex)
    for j, shift in enumerate(shifts):
        c[shift - lo:shift - lo + N] += taps[:, j]
    folded = {}
    for i, tap in enumerate(c):
        d = (lo + i) % T
        folded[d] = folded.get(d, 0) + tap
    return np.array([folded[d] for d in sorted(folded)])


def _ridge_buckets_by_placement(link, Hhat, N, T, beta):
    """(g, isi_u, mui_u, awgn) of one draw with taps Hhat, shape (L, M, K),
    by the explicit bank: z[nu, l] is channel term l times bank bin nu
    (downlink Hhat_l^H W_nu with W_nu = B_nu (B_nu^H B_nu + beta I)^-1;
    uplink Q_nu Hhat_l with Q_nu = (Hhat_nu^H Hhat_nu + beta I)^-1
    Hhat_nu^H), placed at every delay mod T by
    `_placed_by_ifft_shift_add_fold`, and the buckets summed from the
    placed taps."""
    L, M, K = Hhat.shape
    E = np.exp(2j * np.pi * np.outer(np.arange(N), np.arange(L)) / N)
    z = np.empty((N, L, K, K), dtype=complex)
    energy, awgn = 0.0, np.zeros(K)
    for nu in range(N):
        if link == "downlink":
            B = np.tensordot(E[nu], Hhat, 1)
            W = B @ np.linalg.inv(B.conj().T @ B + beta * np.eye(K))
            z[nu] = np.conj(Hhat).transpose(0, 2, 1) @ W
            energy += np.sum(np.abs(W) ** 2)
        else:
            V = np.tensordot(np.conj(E[nu]), Hhat, 1)
            Q = np.linalg.inv(V.conj().T @ V + beta * np.eye(K)) @ V.conj().T
            z[nu] = Q @ Hhat
            awgn += np.sum(np.abs(Q) ** 2, axis=1) / N
    c = _placed_by_ifft_shift_add_fold(z, tuple(range(L)), T)
    if link == "downlink":
        c *= np.sqrt(N / energy)
        awgn = np.ones(K)
    g = np.diagonal(c[0])
    tot = (np.abs(c) ** 2).sum(axis=0)
    own = np.diagonal(tot)
    return g, own - np.abs(g) ** 2, tot.sum(axis=1) - own, awgn


@pytest.mark.parametrize("T", [20, 21, 22, 23, 100])
@pytest.mark.parametrize("link,filt", [("downlink", "rzfp"),
                                       ("uplink", "mmsee")])
def test_ridge_buckets_match_tap_placement_at_paper_size(link, filt, T):
    """At N = 20, L = 4, K = 10, M = 16 the cascade's 23 taps fold onto
    the block at T = 20, 21, 22, partly or fully, fit at T = 23 and leave
    zero taps at T = 100. The buckets from the bins and the L - 1 aliased
    taps match the explicitly placed cascade to 1e-12 of the draw's
    largest gain (squared for the powers) at every beta, zero forcing's
    beta = 0 included, and no interference bucket is negative."""
    scn = scenario(link=link, filt=filt, M=16, K=10, L=4, N=20, T=T,
                   T_c=20, alpha=0.7)
    chans = [draw_channel(scn.dims, scn.pdp, scn.corr, trial_rng(51, t))
             for t in range(3)]
    factors = analysis.DrawFactors(scn, len(chans))
    factors.fill(0, np.stack([ch.Hhat for ch in chans]))
    for beta in (0.0, 1e-3, 1.0, 1e6):
        got = factors._ridge_buckets(beta, 0, len(chans), filt)
        assert np.all(got[1] >= 0.0) and np.all(got[2] >= 0.0)
        for i, ch in enumerate(chans):
            g, isi_u, mui_u, awgn = _ridge_buckets_by_placement(
                link, ch.Hhat, 20, T, beta)
            scale = np.max(np.abs(g))
            for have, want, power in ((got[0][i], g, 1),
                                      (got[1][i], isi_u, 2),
                                      (got[2][i], mui_u, 2)):
                assert_allclose(have / scale ** power, want / scale ** power,
                                rtol=0, atol=1e-12)
            assert_allclose(got[3][i], awgn, rtol=1e-12)


@pytest.mark.parametrize("link,filters", [
    ("downlink", ("cmfp", "zfp", "rzfp")),
    ("uplink", ("cmfe", "zfe", "mmsee"))])
def test_factor_draws_rekeyed_stream_matches_fresh_generators(link, filters):
    """factor_draws and a group's later draws re-key one generator per
    trial. For a cell whose factors hold draws 0 .. 4, the group's later
    draws start at trial 5 and end with a partial chunk, and every stack
    equals that of draws made on a fresh trial_rng per trial, bit for
    bit."""
    scn = scenario(link=link, filt=filters[0], M=16, K=4, L=3, N=8, T=16,
                   T_c=8, alpha=0.7)
    cached, n = 5, 5 + analysis.CHUNK + 3
    requests = [(filt, beta) for filt in filters for beta in (0.0, 1e-2)]
    got, = mc_buckets_group(
        [(scn, requests, factor_draws(scn, cached, filters))], n)
    want = analysis.DrawFactors(scn, n, 0, filters)
    want.fill(0, np.stack([draw_channel(scn.dims, scn.pdp, scn.corr,
                                        trial_rng(scn.dims.seed, t)).Hhat
                           for t in range(n)]))
    for (filt, beta), stacks in zip(requests, got):
        for a, b in zip(stacks, want.buckets(filt, beta)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("N,L,T", [(1, 4, 5), (1, 4, 6), (1, 4, 7)])
def test_tap_placement_equals_ifft_shift_add_fold(N, L, T):
    """The cached placement matrix is the one-bin (N = 1) IFFT, shift-add
    and mod-T fold: shifts 0 .. L - 1, and the matched cascade's delays
    +-(l - l')."""
    rng = np.random.default_rng(N * 100 + L * 10 + T)
    cases = [tuple(range(L))] + [
        tuple(sign * (l - lp) for l in range(L) for lp in range(L))
        for sign in (1, -1)]
    for shifts in cases:
        z = (rng.standard_normal((N, len(shifts), 3, 2))
             + 1j * rng.standard_normal((N, len(shifts), 3, 2)))
        A = analysis._tap_placement(shifts, T)
        got = np.einsum("dj,j...->d...", A, z[0])
        assert_allclose(got, _placed_by_ifft_shift_add_fold(z, shifts, T),
                        rtol=0, atol=1e-13)
        assert A is analysis._tap_placement(shifts, T)


@pytest.mark.parametrize("link,filt", SIX_FILTERS)
def test_buckets_bit_identical_across_chunk_sizes(monkeypatch, link, filt):
    """Chunking changes how many draws are factored and evaluated
    together, never a bit of any draw's buckets; neither does reusing
    factored draws in a multi-beta pass, whether they cover part of the
    draws or more than all of them, nor reading the ridge stacks they
    keep, as a prefix, or at a beta requested twice."""
    scn = scenario(link=link, filt=filt, M=8, K=3, L=3, N=5, T=7, T_c=5,
                   alpha=0.7, beta=0.3)
    ref = mc_buckets(scn, 23)
    for chunk in (1, 6, 64):
        monkeypatch.setattr(analysis, "CHUNK", chunk)
        for got, want in zip(mc_buckets(scn, 23), ref):
            assert np.array_equal(got, want)
        zero = mc_buckets(dataclasses.replace(scn, beta=0.0), 23)
        for n in (10, 30):
            factors = factor_draws(scn, n)
            factors.buckets(filt, 0.3)          # kept over all n slots
            stacks, = mc_buckets_group(
                [(scn, [(filt, 0.0), (filt, 0.3), (filt, 0.3)], factors)], 23)
            for got, again, want in zip(stacks[1], stacks[2], ref):
                assert np.array_equal(got, want)
                assert np.array_equal(again, want)
            for got, want in zip(stacks[0], zero):
                assert np.array_equal(got, want)


def _rank_one_scenario(link, filt, beta=0.0, seed=3):
    """Every antenna sees the same signal (A = all-ones, rank 1), so with
    K = 2 users every bin Gram matrix is singular."""
    M = 4
    ones = np.ones((M, M))
    corr = CorrelationMatrix(A=ones, sqrt_A=ones / np.sqrt(M),
                             trace_A=float(M), trace_A2=float(M * M))
    scn = scenario(link=link, filt=filt, M=M, K=2, L=2, N=4, T=8, T_c=4,
                   seed=seed, beta=beta)
    return dataclasses.replace(scn, corr=corr)


@pytest.mark.parametrize("link,filt", [("downlink", "zfp"),
                                       ("uplink", "zfe")])
def test_rank_deficient_draw_names_filter_seed_trial_and_bin(link, filt):
    scn = _rank_one_scenario(link, filt)
    with pytest.raises(np.linalg.LinAlgError,
                       match=rf"{filt}, seed 3, trial 0\): .*bin \d+"):
        mc_buckets(scn, 5)
    # the reference banks know no trial, and name the filter and seed
    ch = draw_channel(scn.dims, scn.pdp, scn.corr, trial_rng(3, 0))
    with pytest.raises(np.linalg.LinAlgError,
                       match=rf"\({filt}, seed 3\): Gram matrix at bin \d+"):
        decompose(link, filt, ch, SignalBlocks(1.0, 8, None))
    # the all-ones correlation is the exponential model at alpha = 1
    labelled = dataclasses.replace(scn, corr_model="exponential",
                                   corr_param=1.0)
    with pytest.raises(np.linalg.LinAlgError,
                       match=rf"\(exponential alpha=1, {filt}, seed 3, "
                             rf"trial 0\): .*bin \d+"):
        mc_buckets(labelled, 5)
    labelled = dataclasses.replace(scn, corr_model="bessel", corr_param=0.0,
                                   mu=0.25)
    with pytest.raises(np.linalg.LinAlgError,
                       match=rf"\(bessel eta=0 mu=0.25, {filt}, seed 3, "
                             rf"trial 0\): .*bin \d+"):
        mc_buckets(labelled, 5)


@pytest.mark.parametrize("link,filters", [("downlink", ("cmfp", "zfp")),
                                          ("uplink", ("cmfe", "zfe"))])
def test_rank_deficient_cell_names_the_zero_forcing_filter(link, filters):
    """A cell that draws once for a matched and a zero-forcing filter runs
    the zero-forcing check when it factors the draws, and the error names
    that filter with the seed, trial and bin."""
    matched, zf = filters
    scn = _rank_one_scenario(link, matched)
    with pytest.raises(np.linalg.LinAlgError,
                       match=rf"\({zf}, seed 3, trial 0\): .*bin \d+"):
        mc_buckets_group([(scn, [(matched, 0.0), (zf, 0.0)], None)], 5)


@pytest.mark.parametrize("link,filt", [("downlink", "cmfp"),
                                       ("uplink", "cmfe")])
def test_matched_only_cell_skips_the_eigendecomposition(monkeypatch, link,
                                                        filt):
    """Matched buckets come from the tap products alone: a rank-deficient
    channel gives finite buckets, and no Gram matrix is decomposed."""
    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called for a matched filter")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    stacks, = mc_buckets_group(
        [(_rank_one_scenario(link, filt), [(filt, 0.0)], None)], 5)[0]
    assert all(np.all(np.isfinite(s)) for s in stacks)
    row = buckets_to_result(_rank_one_scenario(link, filt), 5, *stacks)
    assert np.isfinite(row.rate_bpcu)


@pytest.mark.parametrize("link,filt", [("downlink", "zfp"),
                                       ("uplink", "zfe")])
def test_zero_forcing_only_cell_skips_the_eigendecomposition(monkeypatch,
                                                             link, filt):
    """Zero-forcing buckets come from one batched inverse per chunk: on a
    well-conditioned channel no Gram matrix is decomposed, and the stacks
    match the probe measurement to 1e-10 draw by draw."""
    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called for zero forcing")

    scn = scenario(link=link, filt=filt, M=8, K=3, L=3, N=5, T=6, T_c=5,
                   alpha=0.7)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    stacks, = mc_buckets_group([(scn, [(filt, 0.0)], None)], 5)[0]
    monkeypatch.undo()
    for t in range(5):
        ch = draw_channel(scn.dims, scn.pdp, scn.corr, trial_rng(51, t))
        bd = decompose(link, filt, ch, SignalBlocks(1.0, 6, None))
        g, isi_u, mui_u, awgn = (s[t] for s in stacks)
        scale = np.max(np.abs(bd.gains))
        for got, want, power in ((g, bd.gains, 1), (isi_u, bd.isi_k, 2),
                                 (mui_u, bd.mui_k, 2)):
            assert_allclose(got / scale ** power, want / scale ** power,
                            rtol=0, atol=1e-10)
        want = np.ones(3) if link == "downlink" \
            else _exact_uplink_awgn(filt, ch, 6, 0.0)
        assert_allclose(awgn, want, rtol=1e-10)


def _bin_grams(link, Hhat, N):
    """Every bin's Gram matrix V_nu^H V_nu of one draw, shape (N, K, K):
    the synthesis bins on the downlink, the analysis bins on the uplink."""
    L = Hhat.shape[0]
    E = np.exp(2j * np.pi * np.outer(np.arange(N), np.arange(L)) / N)
    V = np.tensordot(E if link == "downlink" else np.conj(E), Hhat, 1)
    return np.conj(V).transpose(0, 2, 1) @ V


@pytest.mark.parametrize("link,filt", [("downlink", "zfp"),
                                       ("uplink", "zfe")])
def test_zero_forcing_conditioning_threshold_is_exact(monkeypatch, link,
                                                      filt):
    """The zero-forcing check compares each bin's exact reciprocal
    condition lambda_min / lambda_max with RCOND_MIN: a threshold just
    below the worst bin of the worst draw accepts every draw, although
    the norm bound 1 / (||G||_F ||G^-1||_F) of that bin is below it, and
    a threshold just above rejects that draw, naming its trial and bin."""
    scn = scenario(link=link, filt=filt, M=8, K=3, L=3, N=5, T=7, T_c=5,
                   alpha=0.7)
    grams = np.array([_bin_grams(link, draw_channel(
        scn.dims, scn.pdp, scn.corr, trial_rng(51, t)).Hhat, 5)
        for t in range(4)])                                 # (4, N, K, K)
    eigs = np.linalg.eigvalsh(grams)
    rcond = eigs[..., 0] / eigs[..., -1]
    t, nu = np.unravel_index(np.argmin(rcond), rcond.shape)
    bound = 1.0 / (np.linalg.norm(grams[t, nu])
                   * np.linalg.norm(np.linalg.inv(grams[t, nu])))
    want = mc_buckets(scn, 4)

    below = rcond[t, nu] * (1 - 1e-9)
    assert bound < below
    monkeypatch.setattr(dl_precoding, "RCOND_MIN", below)
    for got, ref in zip(mc_buckets(scn, 4), want):
        assert np.array_equal(got, ref)

    above = rcond[t, nu] * (1 + 1e-9)
    monkeypatch.setattr(dl_precoding, "RCOND_MIN", above)
    with pytest.raises(np.linalg.LinAlgError,
                       match=rf"\({filt}, seed 51, trial {t}\): Gram matrix "
                             rf"at bin {nu} has reciprocal condition"):
        mc_buckets(scn, 4)


@pytest.mark.parametrize("link,filt", [("downlink", "zfp"),
                                       ("uplink", "zfe")])
def test_zero_forcing_reads_the_one_rank_threshold(monkeypatch, link, filt):
    """The bucket core flags and rejects a draw against the threshold
    dl_precoding.RCOND_MIN as it reads it at run time: a threshold no
    Gram matrix meets, set there alone, rejects the first draw by bin."""
    scn = scenario(link=link, filt=filt, alpha=0.7)
    monkeypatch.setattr(dl_precoding, "RCOND_MIN", 1.0)
    with pytest.raises(np.linalg.LinAlgError,
                       match=rf"\({filt}, seed 51, trial 0\): Gram matrix "
                             rf"at bin \d+ has reciprocal condition"):
        mc_buckets(scn, 4)


@pytest.mark.parametrize("link,filt", [("downlink", "zfp"),
                                       ("uplink", "zfe")])
def test_singular_draw_is_rejected_when_factored(link, filt):
    """A user with no channel makes a Gram matrix exactly singular, so the
    chunk's batched inverse fails. Factoring the chunk rejects the
    singular draw by trial and bin, and keeps no buckets."""
    scn = scenario(link=link, filt=filt, M=8, K=3, L=3, N=5, T=7, T_c=5,
                   alpha=0.7)
    chans = [draw_channel(scn.dims, scn.pdp, scn.corr, trial_rng(51, t))
             for t in range(3)]
    Hhat = chans[1].Hhat.copy()
    Hhat[:, :, 2] = 0.0
    chans[1] = dataclasses.replace(chans[1], Hhat=Hhat)
    factors = analysis.DrawFactors(scn, 3, first=0)
    with pytest.raises(np.linalg.LinAlgError,
                       match=rf"\({filt}, seed 51, trial 1\): Gram matrix "
                             rf"at bin \d+ has reciprocal condition"):
        factors.fill(0, np.stack([ch.Hhat for ch in chans]))


@pytest.mark.parametrize("link,filt", [("downlink", "rzfp"),
                                       ("uplink", "mmsee")])
def test_prefix_read_keeps_the_stacks_of_every_slot(monkeypatch, link, filt):
    """A read of 23 of 30 factored slots at a new beta evaluates and keeps
    all 30, so the full read that follows evaluates nothing, and both are
    bit-identical to fresh draws."""
    scn = scenario(link=link, filt=filt, M=8, K=3, L=3, N=5, T=7, T_c=5,
                   alpha=0.7, beta=0.3)
    factors = factor_draws(scn, 30)
    evaluated = []
    ridge = analysis.DrawFactors._ridge_buckets

    def counted(self, beta, a, b, filt):
        evaluated.append((a, b))
        return ridge(self, beta, a, b, filt)

    monkeypatch.setattr(analysis.DrawFactors, "_ridge_buckets", counted)
    prefix = factors.buckets(filt, 0.3, 23)
    assert sorted(i for a, b in evaluated for i in range(a, b)) \
        == list(range(30))
    assert all(s.shape[0] == 30 for s in factors.stacks[0.3])
    del evaluated[:]
    full = factors.buckets(filt, 0.3)
    assert evaluated == []
    monkeypatch.undo()
    for got, whole, want in zip(prefix, full, mc_buckets(scn, 30)):
        assert np.array_equal(got, want[:23])
        assert np.array_equal(whole, want)


@pytest.mark.parametrize("link,ridge,other", [
    ("downlink", "rzfp", "cmfp"), ("downlink", "rzfp", "zfp"),
    ("uplink", "mmsee", "cmfe"), ("uplink", "mmsee", "zfe")])
def test_mc_buckets_at_rejects_factors_that_do_not_serve_a_filter(
        link, ridge, other):
    """Factors built for the ridge filter alone hold neither the matched
    nor the zero-forcing stacks: a request for those names the filter and
    the filters the factors serve."""
    scn = scenario(link=link, filt=ridge, alpha=0.7)
    factors = factor_draws(scn, 4)
    with pytest.raises(ValueError,
                       match=rf"'{other}' is not served .*serve {ridge}\)"):
        mc_buckets_group([(scn, [(ridge, 0.1), (other, 0.0)], factors)], 4)


@pytest.mark.parametrize("T", [20, 21, 23, 100])
@pytest.mark.parametrize("link,filt", [("downlink", "zfp"),
                                       ("uplink", "zfe")])
def test_zero_forcing_buckets_match_tap_placement_at_paper_size(link, filt,
                                                                T):
    """At N = 20, L = 4, K = 10, M = 16 the zero-forcing buckets from the
    bin inverses and the L - 1 low taps match the explicitly placed
    cascade of the bank at beta = 0 to 1e-12 of the draw's largest gain
    (squared for the powers), whether the cascade folds onto the block
    (T = 20, 21), just fits (T = 23) or leaves zero taps (T = 100)."""
    scn = scenario(link=link, filt=filt, M=16, K=10, L=4, N=20, T=T,
                   T_c=20, alpha=0.7)
    g, isi_u, mui_u, awgn = mc_buckets(scn, 3)
    for t in range(3):
        ch = draw_channel(scn.dims, scn.pdp, scn.corr, trial_rng(51, t))
        want = _ridge_buckets_by_placement(link, ch.Hhat, 20, T, 0.0)
        scale = np.max(np.abs(want[0]))
        for have, ref, power in ((g[t], want[0], 1), (isi_u[t], want[1], 2),
                                 (mui_u[t], want[2], 2)):
            assert_allclose(have / scale ** power, ref / scale ** power,
                            rtol=0, atol=1e-12)
        assert_allclose(awgn[t], want[3], rtol=1e-12)


@pytest.mark.parametrize("link,filt", [("downlink", "rzfp"),
                                       ("uplink", "mmsee")])
def test_ridge_rejects_nonpositive_shifted_eigenvalue(link, filt):
    """A user with no channel at all has an exactly zero Gram eigenvalue:
    beta = 0 must raise rather than divide by it, and any beta > 0 gives
    finite buckets."""
    scn = scenario(link=link, filt=filt, M=4, K=2, L=2, N=4, T=8, T_c=4,
                   seed=3)
    ch = draw_channel(scn.dims, scn.pdp, scn.corr, trial_rng(3, 0))
    Hhat = ch.Hhat.copy()
    Hhat[:, :, 1] = 0.0
    silent = ChannelRealization(H=ch.H, Hhat=Hhat,
                                pdp=ch.pdp, dims=ch.dims)
    with pytest.raises(np.linalg.LinAlgError, match=r"<= 0 at bin \d+"):
        _draw_buckets(scn, silent)
    for beta in (1e-3, 1.0):
        buckets = _draw_buckets(dataclasses.replace(scn, beta=beta), silent)
        assert all(np.all(np.isfinite(b)) for b in buckets)


@pytest.mark.parametrize("path", ["decompose", "sum_rate_mc"])
@pytest.mark.parametrize("beta", [float("nan"), float("inf")])
@pytest.mark.parametrize("link,filt", [("downlink", "rzfp"),
                                       ("uplink", "mmsee")])
def test_ridge_rejects_non_finite_beta(link, filt, beta, path):
    """The reference banks and the bucket core reject a beta that is not
    finite with one message, instead of NaN buckets or a NaN rate."""
    scn = scenario(link=link, filt=filt, alpha=0.7, beta=beta)
    with pytest.raises(ValueError,
                       match=rf"^beta must be finite and >= 0, got {beta}$"):
        if path == "decompose":
            ch = draw_channel(scn.dims, scn.pdp, scn.corr, trial_rng(51, 0))
            decompose(link, filt, ch, SignalBlocks(1.0, 16, None), beta=beta)
        else:
            sum_rate_mc(scn, 3)


def test_total_power_equals_bucket_sum():
    """Received power from random symbols matches the bucket total.

    Uses the zero-forcing precoder so the desired reference is the
    empirical mean gain and the bucket total is exactly rho * E[row sum
    of |C|^2] + 1; driving the same channel draws with Gaussian symbols
    must land on the same number up to symbol-noise Monte Carlo error.
    """
    scn = scenario(filt="zfp", M=8, K=2, L=2, N=4, T=16, alpha=0.7,
                   rho_db=3.0)
    rho = scn.dims.rho_f
    rng = np.random.default_rng(99)
    trials = 400
    direct = np.zeros(2)
    stacks = mc_buckets(scn, trials)
    for t in range(trials):
        ch = draw_channel(scn.dims, scn.pdp, scn.corr, trial_rng(51, t))
        s = np.sqrt(rho / 2) * (rng.standard_normal((2, 16))
                                + 1j * rng.standard_normal((2, 16)))
        x = precoded_transmit(zfp_bank(ch), s)
        noise = np.sqrt(0.5) * (rng.standard_normal((2, 16))
                                + 1j * rng.standard_normal((2, 16)))
        y = downlink_receive(ch, x, noise)
        direct += (np.abs(y) ** 2).mean(axis=1)
    direct /= trials
    res = buckets_to_result(scn, trials, *stacks)
    bd = res.breakdown
    total = bd.desired_k + bd.if_k + bd.isi_k + bd.mui_k + bd.awgn_k
    assert np.max(np.abs(direct / total - 1.0)) < 0.05


def test_breakdown_components_nonnegative_and_scalar_means():
    scn = scenario(filt="zfp", alpha=0.9)
    res = sum_rate_mc(scn, 50)
    bd = res.breakdown
    for arr in (bd.desired_k, bd.if_k, bd.isi_k, bd.mui_k, bd.awgn_k):
        assert np.all(arr >= 0.0)
    assert bd.desired == pytest.approx(float(bd.desired_k.mean()))
    assert bd.awgn == pytest.approx(float(bd.awgn_k.mean()))
    assert isinstance(bd, NoiseBreakdown)


# ---------------------------------------------------------------------------
# sum_rate_mc


def test_rate_recomputation_is_exact():
    scn = scenario(filt="cmfp", alpha=0.7, rho_db=5.0)
    res = sum_rate_mc(scn, 40)
    bd = res.breakdown
    sinr = bd.desired_k / (bd.if_k + bd.isi_k + bd.mui_k + bd.awgn_k)
    recomputed = 0.5 * np.log2(1.0 + sinr)
    assert res.rate_bpcu == float(recomputed.sum())
    assert_allclose(res.per_user_rates, recomputed, atol=0)


def test_same_seed_bit_identical():
    scn = scenario(filt="rzfp", alpha=0.7, beta=0.1, rho_db=10.0)
    a = sum_rate_mc(scn, 25)
    b = sum_rate_mc(scn, 25)
    assert a.rate_bpcu == b.rate_bpcu
    assert np.array_equal(a.per_user_rates, b.per_user_rates)
    assert np.array_equal(a.breakdown.desired_k, b.breakdown.desired_k)


def test_rate_vanishes_at_low_power():
    rates = [sum_rate_mc(scenario(rho_db=db), 20).rate_bpcu
             for db in (-60.0, -40.0, 0.0)]
    assert rates[0] < rates[1] < rates[2]
    assert rates[0] < 1e-4


def test_stderr_presence():
    scn = scenario()
    assert np.isnan(sum_rate_mc(scn, 10).stderr)
    se = sum_rate_mc(scn, 40).stderr
    assert np.isfinite(se) and se > 0.0


def _jackknife_by_loop(scn, g, isi_u, mui_u, awgn, blocks=10):
    """Delete-one-block jackknife that re-aggregates the kept draws of
    every block from scratch."""
    n = g.shape[0]
    blocks = min(blocks, n)
    rates = np.empty(blocks)
    for i, drop in enumerate(np.array_split(np.arange(n), blocks)):
        keep = np.ones(n, dtype=bool)
        keep[drop] = False
        bd = analysis._aggregate(scn, g[keep], isi_u[keep], mui_u[keep],
                                 awgn[keep])
        rates[i] = analysis.rate_from_breakdown(bd)[0]
    return math.sqrt((blocks - 1) / blocks
                     * np.sum((rates - rates.mean()) ** 2))


@pytest.mark.parametrize("link,filt", [("downlink", "cmfp"),
                                       ("downlink", "rzfp"),
                                       ("uplink", "cmfe"),
                                       ("uplink", "mmsee")])
@pytest.mark.parametrize("trials", [20, 47])
def test_jackknife_from_block_sums_matches_reaggregation(link, filt, trials):
    scn = scenario(link=link, filt=filt, M=8, K=3, L=2, N=4, T=8, T_c=4,
                   alpha=0.7, beta=0.1, rho_db=10.0)
    stacks = mc_buckets(scn, trials)
    got = analysis._jackknife_rate_stderr(scn, *stacks)
    assert got == pytest.approx(_jackknife_by_loop(scn, *stacks),
                                rel=1e-12, abs=0)


def test_cmfp_rate_matches_closed_form_large_array():
    dims = SimulationDims(M=64, K=10, L=4, N=20, T=100, T_c=20,
                          rho_f_db=0.0, seed=71)
    scn = Scenario(link="downlink", filt="cmfp", dims=dims,
                   corr=identity_correlation(64), pdp=exponential_pdp(10, 4))
    mc = sum_rate_mc(scn, 400).rate_bpcu
    closed = cmfp_rate_closed(1.0, 64, 10, 64.0)
    assert abs(mc / closed - 1.0) < 0.03


def test_meta_describes_scenario():
    scn = scenario(filt="cmfp", alpha=0.7, rho_db=2.5,
                   corr_model="exponential", corr_param=0.7)
    res = sum_rate_mc(scn, 5)
    assert res.meta["link"] == "downlink"
    assert res.meta["filter"] == "cmfp"
    assert res.meta["corr_param"] == 0.7
    assert res.meta["rho_f_db"] == 2.5
    assert res.meta["trials"] == 5
    assert res.meta["seed"] == 51


# ---------------------------------------------------------------------------
# closed forms


def test_cmfp_rate_closed_frozen_values():
    assert cmfp_rate_closed(1.0, 64, 10, 64.0) == pytest.approx(
        10.35194663945699, abs=1e-10)
    assert cmfp_rate_closed(np.inf, 64, 10, 64.0) == pytest.approx(
        14.437626353707937, abs=1e-10)
    # independent evaluation of the stated formula
    direct = 5.0 * math.log2(1.0 + 64.0 / (1.0 * 10.0 * 64.0 / 64.0 + 10.0))
    assert cmfp_rate_closed(1.0, 64, 10, 64.0) == pytest.approx(direct)


def test_cmfp_rate_closed_decreases_with_correlation():
    base = cmfp_rate_closed(1.0, 64, 10, 64.0)
    assert cmfp_rate_closed(1.0, 64, 10, 128.0) < base
    assert cmfp_rate_closed(2.0, 64, 10, 64.0) > base


def test_coop_capacity():
    assert coop_capacity(1.0, 64, 10) == pytest.approx(14.4376, abs=1e-3)
    # matched filtering pays a self-interference penalty at finite power
    for tr in (64.0, 100.0, 500.0):
        assert cmfp_rate_closed(1.0, 64, 10, tr) < coop_capacity(1.0, 64, 10)


def test_coop_equals_cmfp_high_power_limit_uncorrelated():
    # the high-power matched-filter limit with tr(A^2) = M recovers the
    # cooperative bound at rho where M rho / K = M^2 / (K M)
    assert cmfp_rate_closed(np.inf, 64, 10, 64.0) == pytest.approx(
        coop_capacity(1.0, 64, 10), abs=1e-12)


def test_cmfe_rate_closed_uniform_pdp():
    """Frozen value for the uniform-profile uncorrelated case."""
    row = np.full(4, 0.25)
    rate = cmfe_rate_closed(1.0, 16, 4, 16.0, 16.0, row)
    direct = 2.0 * math.log2(1.0 + (16.0 * 0.25 + 256.0)
                             / (16.0 * 3.75 + 16.0))
    assert rate == pytest.approx(direct, abs=1e-12)
    assert rate == pytest.approx(4.288779818670349, abs=1e-10)


def test_cmfe_rate_closed_rejects_unnormalized_row():
    with pytest.raises(ValueError):
        cmfe_rate_closed(1.0, 16, 4, 16.0, 16.0, np.array([0.5, 0.4]))


def test_cmfe_rate_closed_matches_mc():
    for alpha in (0.0, 0.7):
        scn = scenario(link="uplink", filt="cmfe", M=16, K=4, L=4, N=20,
                       T=64, T_c=20, alpha=alpha, seed=23)
        mc = sum_rate_mc(scn, 2000).rate_bpcu
        closed = cmfe_rate_closed(1.0, 16, 4, scn.corr.trace_A,
                                  scn.corr.trace_A2, scn.pdp.d[0])
        assert abs(mc / closed - 1.0) < 0.05


def test_rate_zero_at_zero_power():
    assert cmfe_rate_closed(0.0, 16, 4, 16.0, 16.0,
                            np.full(4, 0.25)) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# moment identities


def test_moment_same_user_same_tap_identity_corr():
    corr = identity_correlation(8)
    pdp = PowerDelayProfile(d=np.full((3, 2), 0.5))
    val = appendix_moment(1, 1, 0, 2, 2, corr, pdp)
    assert val == pytest.approx((8.0 + 64.0) * 0.25)


def test_moment_distinct_users_distinct_taps_is_zero():
    corr = exponential_correlation(ula(8, 0.5), 0.6)
    pdp = exponential_pdp(3, 3)
    assert appendix_moment(0, 1, 0, 0, 2, corr, pdp) == 0.0
    assert appendix_moment(2, 1, 1, 1, 0, corr, pdp) == 0.0


def test_moment_index_validation():
    corr = identity_correlation(4)
    pdp = exponential_pdp(2, 2)
    with pytest.raises(IndexError):
        appendix_moment(2, 0, 0, 0, 0, corr, pdp)      # l out of range
    with pytest.raises(IndexError):
        appendix_moment(0, 0, 1, 0, 0, corr, pdp)      # l - b negative
    with pytest.raises(IndexError):
        appendix_moment(0, 0, 0, 2, 0, corr, pdp)      # user out of range


def test_moments_against_brute_force():
    """All seven cases vs a direct Monte Carlo of the quadratic forms."""
    M, K, L = 8, 3, 3
    corr = exponential_correlation(ula(M, 0.5), 0.5)
    pdp = exponential_pdp(K, L)
    cases = [(1, 1, 0, 1, 1), (1, 1, 1, 1, 1), (1, 2, 0, 1, 1),
             (1, 2, 1, 1, 1), (1, 1, 0, 0, 2), (1, 1, 1, 0, 2),
             (1, 2, 0, 0, 2)]
    draws = 30_000
    sums = {c: 0.0 + 0.0j for c in cases}
    sq = {c: 0.0 for c in cases}
    sqrt_d = np.sqrt(pdp.d.T)
    done, ci = 0, 0
    while done < draws:
        n = min(6000, draws - done)
        rng = trial_rng(4242, ci)
        H = (rng.standard_normal((n, L, M, K))
             + 1j * rng.standard_normal((n, L, M, K))) / np.sqrt(2.0)
        Hhat = (corr.sqrt_A @ H) * sqrt_d[None, :, None, :]
        for c in cases:
            l, lp, b, k, q = c
            f1 = np.einsum("nm,nm->n", np.conj(Hhat[:, l, :, k]),
                           Hhat[:, l - b, :, q])
            f2 = np.einsum("nm,nm->n", np.conj(Hhat[:, lp, :, k]),
                           Hhat[:, lp - b, :, q])
            z = f1 * np.conj(f2)
            sums[c] += z.sum()
            sq[c] += float(np.sum(np.abs(z) ** 2))
        done += n
        ci += 1
    for c in cases:
        l, lp, b, k, q = c
        closed = appendix_moment(l, lp, b, k, q, corr, pdp)
        mean = sums[c] / draws
        stderr = math.sqrt(max(sq[c] / draws - abs(mean) ** 2, 0.0) / draws)
        if abs(closed) > 0:
            assert abs(mean.real - closed.real) < max(
                0.1 * abs(closed), 4.0 * stderr)
            assert abs(mean.imag) < 4.0 * stderr + 1e-12
        else:
            assert abs(mean) < 4.0 * stderr


def test_cmfp_effective_noise_reproduces_variance_formula():
    """Effective noise power tracks tr(A^2) rho / M + 1 across alpha."""
    for alpha in (0.0, 0.7, 0.9, 0.99):
        scn = scenario(filt="cmfp", M=16, K=4, L=4, N=20, T=64, T_c=20,
                       alpha=alpha, seed=23)
        g, isi_u, mui_u, _ = mc_buckets(scn, 2000)
        mean_g = g.mean(axis=0)
        eff = ((np.abs(g) ** 2).mean(axis=0) - np.abs(mean_g) ** 2
               + isi_u.mean(axis=0) + mui_u.mean(axis=0) + 1.0)
        expected = scn.corr.trace_A2 / 16.0 + 1.0
        assert np.max(np.abs(eff / expected - 1.0)) < 0.05


def test_desired_gain_independent_of_correlation():
    """The mean matched-filter gain is blind to A (tr(A) = M always).

    Both runs share the fading draws, so the per-user mean gains under
    alpha = 0 and alpha = 0.9 must each sit within 4 standard errors of
    the common analytic value sqrt(M/K) * sum_l d_l.
    """
    means, errs = {}, {}
    for alpha in (0.0, 0.9):
        scn = scenario(filt="cmfp", M=16, K=4, L=4, N=20, T=64, T_c=20,
                       alpha=alpha, seed=23)
        g, _, _, _ = mc_buckets(scn, 2000)
        means[alpha] = g.mean(axis=0)
        errs[alpha] = g.std(axis=0) / np.sqrt(2000)
    ref = np.sqrt(16 / 4)
    for alpha in (0.0, 0.9):
        assert np.all(np.abs(means[alpha] - ref) < 4.0 * errs[alpha])
    gap = np.abs(means[0.0] - means[0.9])
    combined = np.hypot(errs[0.0], errs[0.9])
    assert np.all(gap < 4.0 * combined)
