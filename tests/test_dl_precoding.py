"""Downlink precoder tests: banks, normalization, transmit/receive chain."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scmimo.analysis import Scenario, SignalBlocks, decompose, mc_buckets
from scmimo.channel import (ChannelRealization, SimulationDims, draw_channel,
                            exponential_pdp, trial_rng)
from scmimo.corr_models import exponential_correlation, identity_correlation, ula
from scmimo.dl_precoding import (FrequencyFilterBank, cmfp_transmit,
                                 downlink_receive, normalize_bank,
                                 precoded_transmit, rzfp_bank,
                                 synthesis_bins, zfp_bank)


def make_channel(M=16, K=4, L=4, N=20, T=40, T_c=20, seed=11, trial=0,
                 alpha=0.7):
    dims = SimulationDims(M=M, K=K, L=L, N=N, T=T, T_c=T_c,
                          rho_f_db=0.0, seed=seed)
    pdp = exponential_pdp(K, L)
    corr = identity_correlation(M) if alpha == 0.0 \
        else exponential_correlation(ula(M, 0.5), alpha)
    return draw_channel(dims, pdp, corr, trial_rng(seed, trial))


def bin_response(ch, nu):
    """Channel response seen by the precoder at design bin nu."""
    L, N = ch.dims.L, ch.dims.N
    return sum(np.exp(2j * np.pi * nu * l / N) * ch.Hhat[l]
               for l in range(L))


# ---------------------------------------------------------------------------
# filter bank plumbing


def test_bank_time_freq_roundtrip():
    ch = make_channel()
    bank = zfp_bank(ch)
    N = ch.dims.N
    # time[m] must be the (1/N)-scaled inverse DFT of the bin matrices
    for m in range(N):
        direct = sum(np.exp(2j * np.pi * nu * m / N) * bank.freq[nu]
                     for nu in range(N)) / N
        assert np.max(np.abs(bank.time[m] - direct)) < 1e-10
    assert np.max(np.abs(np.fft.fft(bank.time, axis=0) - bank.freq)) < 1e-10


def test_synthesis_bins_match_direct_sum():
    ch = make_channel()
    B = synthesis_bins(ch.Hhat, ch.dims.N)
    for nu in range(ch.dims.N):
        assert np.max(np.abs(B[nu] - bin_response(ch, nu))) < 1e-10


def test_synthesis_bins_reject_short_dft():
    ch = make_channel()
    with pytest.raises(ValueError):
        synthesis_bins(ch.Hhat, ch.dims.L)


# ---------------------------------------------------------------------------
# zero-forcing bank


def test_zfp_per_bin_scaled_identity():
    ch = make_channel()
    bank = zfp_bank(ch)
    K = ch.dims.K
    for nu in range(ch.dims.N):
        prod = bin_response(ch, nu).conj().T @ (bank.norm * bank.freq[nu])
        a = np.trace(prod).real / K
        assert a > 0
        assert np.max(np.abs(prod - a * np.eye(K))) < 1e-8 * a


def test_zfp_two_by_two_hand_inverse():
    """M=K=2, single tap: the precoder is the inverse conjugate channel."""
    dims = SimulationDims(M=2, K=2, L=1, N=2, T=4, T_c=2,
                          rho_f_db=0.0, seed=3)
    pdp = exponential_pdp(2, 1)
    ch = draw_channel(dims, pdp, identity_correlation(2), trial_rng(3, 0))
    H0 = ch.Hhat[0]
    a, b, c, d = H0[0, 0], H0[0, 1], H0[1, 0], H0[1, 1]
    det = a * d - b * c
    inv = np.array([[d, -b], [-c, a]]) / det        # hand 2x2 inverse
    target = inv.conj().T                            # (H0^H)^{-1}
    bank = zfp_bank(ch)
    W0 = bank.freq[0]
    scale = W0[0, 0] / target[0, 0]
    assert_allclose(W0, scale * target, atol=1e-10 * abs(scale))


def test_zfp_singular_gram_names_bin():
    dims = SimulationDims(M=4, K=2, L=2, N=4, T=8, T_c=4,
                          rho_f_db=0.0, seed=1)
    pdp = exponential_pdp(2, 2)
    ch = draw_channel(dims, pdp, identity_correlation(4), trial_rng(1, 0))
    # duplicate user columns make every per-bin Gram matrix singular
    Hhat = ch.Hhat.copy()
    Hhat[:, :, 1] = Hhat[:, :, 0]
    broken = ChannelRealization(H=ch.H, Hhat=Hhat,
                                pdp=pdp, dims=dims)
    with pytest.raises(np.linalg.LinAlgError, match=r"bin \d+"):
        zfp_bank(broken)


# ---------------------------------------------------------------------------
# regularized bank


def test_rzfp_beta_zero_matches_zfp():
    ch = make_channel()
    zf = zfp_bank(ch)
    rz = rzfp_bank(ch, 0.0)
    for nu in range(ch.dims.N):
        d = np.linalg.norm(zf.norm * zf.freq[nu] - rz.norm * rz.freq[nu])
        assert d < 1e-8


def test_rzfp_large_beta_is_matched_filter_direction():
    ch = make_channel()
    rz = rzfp_bank(ch, 1e9)
    for nu in range(ch.dims.N):
        w = rz.freq[nu].ravel()
        h = bin_response(ch, nu).ravel()
        cos = abs(np.vdot(w, h)) / (np.linalg.norm(w) * np.linalg.norm(h))
        assert cos > 0.999


def test_rzfp_rejects_negative_beta():
    ch = make_channel()
    with pytest.raises(ValueError):
        rzfp_bank(ch, -1e-3)


def test_rzfp_rates_finite_across_beta_grid():
    dims = SimulationDims(M=8, K=2, L=2, N=4, T=8, T_c=4,
                          rho_f_db=10.0, seed=5)
    pdp = exponential_pdp(2, 2)
    corr = exponential_correlation(ula(8, 0.5), 0.7)
    from scmimo.analysis import sum_rate_mc
    for beta in [1e-6, 1e-3, 1.0, 1e3, 1e6]:
        scn = Scenario(link="downlink", filt="rzfp", dims=dims, corr=corr,
                       pdp=pdp, beta=beta)
        r = sum_rate_mc(scn, 10)
        assert np.isfinite(r.rate_bpcu)
        assert r.rate_bpcu >= 0.0


# ---------------------------------------------------------------------------
# normalization & transmit power


def test_normalize_homogeneity():
    ch = make_channel()
    bank = zfp_bank(ch)
    doubled = FrequencyFilterBank.from_freq(2.0 * bank.freq)
    assert normalize_bank(doubled) == pytest.approx(0.5 * normalize_bank(
        FrequencyFilterBank.from_freq(bank.freq)), rel=1e-12)


def test_normalize_zero_energy_bank():
    zero = FrequencyFilterBank.from_freq(np.zeros((4, 3, 2), dtype=complex))
    with pytest.raises(ValueError):
        normalize_bank(zero)


def test_normalize_recovers_matched_filter_scale():
    """A bank whose taps are the channel taps should normalize to ~1/sqrt(MK)."""
    M, K, L, N = 16, 4, 4, 20
    vals = []
    for t in range(50):
        ch = make_channel(M=M, K=K, L=L, N=N, trial=t, alpha=0.0)
        time = np.zeros((N, M, K), dtype=complex)
        time[:L] = ch.Hhat
        bank = FrequencyFilterBank(freq=np.fft.fft(time, axis=0), time=time)
        vals.append(normalize_bank(bank) * np.sqrt(M * K))
    assert abs(np.mean(vals) - 1.0) < 0.02


def test_transmit_power_normalized():
    """After normalization the per-block average power sits at rho_f."""
    rng = np.random.default_rng(8)
    for alpha, rho_f in [(0.0, 1.0), (0.7, 10.0)]:
        ch = make_channel(alpha=alpha)
        bank = zfp_bank(ch)
        T, K = ch.dims.T, ch.dims.K
        total, count = 0.0, 0
        for _ in range(1000):
            s = np.sqrt(rho_f / 2) * (rng.standard_normal((K, T))
                                      + 1j * rng.standard_normal((K, T)))
            x = precoded_transmit(bank, s)
            total += float(np.sum(np.abs(x) ** 2))
            count += T
        avg = total / count
        assert 0.97 * rho_f <= avg <= 1.03 * rho_f


def test_cmfp_transmit_power():
    # matched-filter power is only rho_f on average over the channel
    # ensemble, so redraw the channel as well as the symbols
    rng = np.random.default_rng(9)
    total, count = 0.0, 0
    for t in range(600):
        ch = make_channel(alpha=0.9, trial=t)
        T, K = ch.dims.T, ch.dims.K
        for _ in range(2):
            s = np.sqrt(0.5) * (rng.standard_normal((K, T))
                                + 1j * rng.standard_normal((K, T)))
            x = cmfp_transmit(ch, s)
            total += float(np.sum(np.abs(x) ** 2))
            count += T
    assert abs(total / count - 1.0) < 0.03


# ---------------------------------------------------------------------------
# transmit operators


def test_cmfp_identity_channel_unit_symbol():
    M = 3
    dims = SimulationDims(M=M, K=M, L=1, N=2, T=6, T_c=2,
                          rho_f_db=0.0, seed=0)
    pdp = exponential_pdp(M, 1)
    Hhat = np.eye(M, dtype=complex)[None, :, :]
    ch = ChannelRealization(H=Hhat.copy(), Hhat=Hhat,
                            pdp=pdp, dims=dims)
    s = np.zeros((M, 6), dtype=complex)
    s[0, 0] = 1.0
    x = cmfp_transmit(ch, s)
    expected = np.zeros((M, 6), dtype=complex)
    expected[0, 0] = 1.0 / M            # sqrt(1/(M K)) with K = M
    assert_allclose(x, expected, atol=1e-14)


def test_cmfp_reads_future_symbols_modulo_t():
    dims = SimulationDims(M=2, K=2, L=2, N=4, T=5, T_c=4,
                          rho_f_db=0.0, seed=0)
    pdp = exponential_pdp(2, 2)
    Hhat = np.zeros((2, 2, 2), dtype=complex)
    Hhat[1] = np.eye(2)                 # only the delayed tap is active
    ch = ChannelRealization(H=Hhat.copy(), Hhat=Hhat,
                            pdp=pdp, dims=dims)
    s = np.zeros((2, 5), dtype=complex)
    s[0, 0] = 1.0
    x = cmfp_transmit(ch, s)
    # x[i] uses s[i+1 mod T], so the symbol at i=0 shows up at i = T-1
    assert abs(x[0, 4] - 0.5) < 1e-14
    assert np.max(np.abs(x[:, :4])) < 1e-14


def test_cmfp_rejects_wrong_user_count():
    ch = make_channel()
    with pytest.raises(ValueError):
        cmfp_transmit(ch, np.zeros((3, 40), dtype=complex))


def test_precoded_transmit_memoryless():
    rng = np.random.default_rng(1)
    C = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    time = np.zeros((3, 4, 2), dtype=complex)
    time[0] = C
    bank = FrequencyFilterBank(freq=np.fft.fft(time, axis=0), time=time)
    s = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    assert_allclose(precoded_transmit(bank, s), C @ s, atol=1e-12)


def test_precoded_transmit_cyclic_wrap():
    time = np.zeros((3, 1, 1), dtype=complex)
    time[2, 0, 0] = 1.0                  # pure two-sample delay
    bank = FrequencyFilterBank(freq=np.fft.fft(time, axis=0), time=time)
    s = np.arange(1.0, 6.0)[None, :].astype(complex)
    x = precoded_transmit(bank, s)
    assert_allclose(x[0], np.roll(s[0], 2), atol=1e-12)


def test_precoded_transmit_frequency_equivalence():
    """Circular tap application == per-bin multiplication on the T-grid."""
    ch = make_channel(T=40, N=20)       # N divides T
    bank = rzfp_bank(ch, 0.3)
    rng = np.random.default_rng(6)
    s = rng.normal(size=(4, 40)) + 1j * rng.normal(size=(4, 40))
    x = precoded_transmit(bank, s)
    Wt = np.fft.fft(bank.norm * bank.time, n=40, axis=0)   # (T, M, K)
    Xf = np.einsum("fmk,kf->mf", Wt, np.fft.fft(s, axis=1))
    assert np.max(np.abs(np.fft.fft(x, axis=1) - Xf)) < 1e-8


def test_precoded_transmit_rejects_short_block():
    ch = make_channel()
    bank = zfp_bank(ch)
    with pytest.raises(ValueError):
        precoded_transmit(bank, np.zeros((4, 19), dtype=complex))


# ---------------------------------------------------------------------------
# downlink receive


def test_receive_single_tap_exact():
    dims = SimulationDims(M=4, K=2, L=1, N=2, T=8, T_c=2,
                          rho_f_db=0.0, seed=2)
    pdp = exponential_pdp(2, 1)
    ch = draw_channel(dims, pdp, identity_correlation(4), trial_rng(2, 0))
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    y = downlink_receive(ch, x, np.zeros((2, 8), dtype=complex))
    assert_allclose(y, ch.Hhat[0].conj().T @ x, atol=1e-12)


def test_receive_applies_conjugate_taps_with_delay():
    dims = SimulationDims(M=2, K=2, L=2, N=4, T=6, T_c=4,
                          rho_f_db=0.0, seed=0)
    pdp = exponential_pdp(2, 2)
    Hhat = np.zeros((2, 2, 2), dtype=complex)
    Hhat[1] = np.diag([2.0 + 1j, 3.0])
    ch = ChannelRealization(H=Hhat.copy(), Hhat=Hhat,
                            pdp=pdp, dims=dims)
    x = np.zeros((2, 6), dtype=complex)
    x[0, 0] = 1.0
    y = downlink_receive(ch, x, np.zeros((2, 6), dtype=complex))
    # tap at l=1 lands the (conjugated) gain one sample later
    assert abs(y[0, 1] - (2.0 - 1j)) < 1e-14
    assert np.max(np.abs(y[:, [0, 2, 3, 4, 5]])) < 1e-14


def test_receive_noise_variance():
    dims = SimulationDims(M=4, K=4, L=2, N=4, T=100, T_c=4,
                          rho_f_db=0.0, seed=2)
    pdp = exponential_pdp(4, 2)
    ch = draw_channel(dims, pdp, identity_correlation(4), trial_rng(2, 0))
    rng = np.random.default_rng(10)
    x = np.zeros((4, 100), dtype=complex)
    acc, n = 0.0, 0
    for _ in range(300):
        noise = np.sqrt(0.5) * (rng.standard_normal((4, 100))
                                + 1j * rng.standard_normal((4, 100)))
        y = downlink_receive(ch, x, noise)
        acc += float(np.sum(np.abs(y) ** 2))
        n += y.size
    assert abs(acc / n - 1.0) < 0.03


def test_receive_validation():
    ch = make_channel()
    x = np.zeros((16, 40), dtype=complex)
    with pytest.raises(ValueError):
        downlink_receive(ch, x, np.zeros((3, 40), dtype=complex))


# ---------------------------------------------------------------------------
# closed-form sanity at the chain level


def test_cmfp_end_to_end_sinr_uncorrelated():
    """Uncorrelated CMFP SINR approaches M rho / (K rho + K)."""
    dims = SimulationDims(M=16, K=4, L=4, N=20, T=64, T_c=20,
                          rho_f_db=0.0, seed=21)
    scn = Scenario(link="downlink", filt="cmfp", dims=dims,
                   corr=identity_correlation(16), pdp=exponential_pdp(4, 4))
    from scmimo.analysis import buckets_to_result
    res = buckets_to_result(scn, 2000, *mc_buckets(scn, 2000))
    bd = res.breakdown
    sinr = bd.desired_k / (bd.if_k + bd.isi_k + bd.mui_k + bd.awgn_k)
    expected = 16.0 / (4.0 + 4.0)
    assert np.max(np.abs(sinr / expected - 1.0)) < 0.05


def test_zfp_no_interference_when_block_matches_bank():
    """At T = N the designed bins cover the whole grid: ZFP is exact."""
    ch = make_channel(T=20, N=20)
    blocks = SignalBlocks(rho_f=1.0, T=20, noise=None)
    bd = decompose("downlink", "zfp", ch, blocks)
    assert float(np.max(bd.isi_k + bd.mui_k)) < 1e-6
