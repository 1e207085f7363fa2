"""Uplink tests: CP framing, matched/ZF/ridge equalizers."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scmimo.analysis import Scenario, decompose, sum_rate_mc
from scmimo.channel import (ChannelRealization, SimulationDims, draw_channel,
                            exponential_pdp, trial_rng)
from scmimo.corr_models import exponential_correlation, identity_correlation, ula
from scmimo.dl_precoding import FrequencyFilterBank, apply_bank
from scmimo.ul_equalization import (cmfe_apply, make_uplink_frame,
                                    mmsee_bank, uplink_receive, zfe_bank)


def make_scenario(filt="zfe", M=16, K=4, L=4, N=20, T=40, T_c=20, seed=17,
                  alpha=0.7, beta=0.0):
    dims = SimulationDims(M=M, K=K, L=L, N=N, T=T, T_c=T_c,
                          rho_f_db=0.0, seed=seed)
    corr = identity_correlation(M) if alpha == 0.0 \
        else exponential_correlation(ula(M, 0.5), alpha)
    return Scenario(link="uplink", filt=filt, dims=dims, corr=corr,
                    pdp=exponential_pdp(K, L), beta=beta)


def make_channel(trial=0, **kw):
    scn = make_scenario(**kw)
    return draw_channel(scn.dims, scn.pdp, scn.corr,
                        trial_rng(scn.dims.seed, trial))


def analysis_bin(ch, nu):
    """Channel response at analysis bin nu (the DFT across taps)."""
    L, N = ch.dims.L, ch.dims.N
    return sum(np.exp(-2j * np.pi * nu * l / N) * ch.Hhat[l]
               for l in range(L))


# ---------------------------------------------------------------------------
# framing


def test_frame_prepends_tail():
    payload = np.arange(12, dtype=complex).reshape(2, 6)
    frame = make_uplink_frame(payload, 3)
    assert frame.with_cp.shape == (2, 9)
    assert_allclose(frame.with_cp[:, :3], payload[:, 3:])
    assert_allclose(frame.with_cp[:, 3:], payload)
    for t in range(9):
        assert_allclose(frame.with_cp[:, t], payload[:, (t - 3) % 6])


def test_frame_validation():
    payload = np.zeros((2, 6), dtype=complex)
    with pytest.raises(ValueError):
        make_uplink_frame(payload, 0)
    with pytest.raises(ValueError):
        make_uplink_frame(payload, 7)


# ---------------------------------------------------------------------------
# uplink_receive


def test_receive_single_tap_is_memoryless():
    ch = make_channel(L=1, N=2, T_c=2)
    rng = np.random.default_rng(0)
    payload = rng.normal(size=(4, 40)) + 1j * rng.normal(size=(4, 40))
    frame = make_uplink_frame(payload, 2)
    noise = np.zeros((16, 40), dtype=complex)
    r = uplink_receive(ch, frame, noise)
    assert_allclose(r, ch.Hhat[0] @ payload, atol=1e-12)


def test_receive_impulse_reproduces_taps_circularly():
    ch = make_channel()
    payload = np.zeros((4, 40), dtype=complex)
    payload[1, 0] = 1.0
    frame = make_uplink_frame(payload, 20)
    r = uplink_receive(ch, frame, np.zeros((16, 40), dtype=complex))
    for l in range(4):
        assert_allclose(r[:, l], ch.Hhat[l][:, 1], atol=1e-12)
    assert np.max(np.abs(r[:, 4:])) < 1e-12


def test_receive_impulse_at_block_end_wraps():
    # the CP turns linear convolution into a circular one
    ch = make_channel()
    payload = np.zeros((4, 40), dtype=complex)
    payload[0, 39] = 1.0
    frame = make_uplink_frame(payload, 20)
    r = uplink_receive(ch, frame, np.zeros((16, 40), dtype=complex))
    assert_allclose(r[:, 39], ch.Hhat[0][:, 0], atol=1e-12)
    for l in range(1, 4):
        assert_allclose(r[:, l - 1], ch.Hhat[l][:, 0], atol=1e-12)


def test_receive_dft_factorization():
    """Post-CP-removal system is exactly circulant on the T-grid."""
    ch = make_channel()
    rng = np.random.default_rng(1)
    payload = rng.normal(size=(4, 40)) + 1j * rng.normal(size=(4, 40))
    frame = make_uplink_frame(payload, 20)
    r = uplink_receive(ch, frame, np.zeros((16, 40), dtype=complex))
    Hf = np.fft.fft(ch.Hhat, n=40, axis=0)          # (T, M, K)
    Rf = np.einsum("fmk,kf->mf", Hf, np.fft.fft(payload, axis=1))
    assert np.max(np.abs(np.fft.fft(r, axis=1) - Rf)) < 1e-8


def test_receive_validation():
    ch = make_channel()
    payload = np.zeros((4, 40), dtype=complex)
    with pytest.raises(ValueError):
        uplink_receive(ch, make_uplink_frame(payload, 4),
                       np.zeros((16, 40), dtype=complex))   # T_c == L
    with pytest.raises(ValueError):
        uplink_receive(ch, make_uplink_frame(payload, 20),
                       np.zeros((16, 39), dtype=complex))


# ---------------------------------------------------------------------------
# matched-filter equalizer


def test_cmfe_impulse_indexing():
    # y[i] = (1/sqrt(MK)) sum_l Hhat_l^H r[i+l mod T]
    ch = make_channel()
    r = np.zeros((16, 40), dtype=complex)
    r[:, 3] = np.arange(16) + 1.0
    y = cmfe_apply(ch, r)
    scale = 1.0 / np.sqrt(16 * 4)
    for l in range(4):
        assert_allclose(y[:, 3 - l], scale * ch.Hhat[l].conj().T @ r[:, 3],
                        atol=1e-12)
    # and nothing outside the L-sample window
    mask = np.ones(40, dtype=bool)
    mask[[0, 1, 2, 3]] = False
    assert np.max(np.abs(y[:, mask])) < 1e-12


def test_cmfe_rejects_a_block_with_the_wrong_row_count():
    with pytest.raises(ValueError, match="15 rows, expected M=16"):
        cmfe_apply(make_channel(), np.zeros((15, 40), dtype=complex))


def test_cmfe_awgn_variance_noise_only():
    """Averaged over draws the post-filter noise power is tr(A)/(MK) = 1/K."""
    rng = np.random.default_rng(5)
    acc, n = 0.0, 0
    for t in range(400):
        ch = make_channel(alpha=0.7, trial=t)
        noise = np.sqrt(0.5) * (rng.standard_normal((16, 40))
                                + 1j * rng.standard_normal((16, 40)))
        y = cmfe_apply(ch, noise)
        acc += float(np.sum(np.abs(y) ** 2))
        n += y.size
    assert abs(acc / n - 0.25) < 0.03 * 0.25


def test_cmfe_desired_gain():
    """Realized same-symbol gain averages to sqrt(M/K)."""
    acc = np.zeros(4)
    n = 2000
    for t in range(n):
        ch = make_channel(alpha=0.9, trial=t)
        g = np.zeros(4, dtype=complex)
        for l in range(4):
            g += np.diag(ch.Hhat[l].conj().T @ ch.Hhat[l])
        acc += (g / np.sqrt(16 * 4)).real
    acc /= n
    assert np.max(np.abs(acc / 2.0 - 1.0)) < 0.03     # sqrt(16/4) = 2


def test_cmfe_effective_noise_closed_form():
    """Uncorrelated effective noise: (1 - sum_l d_l^2 / K) rho + 1/K."""
    from scmimo.analysis import mc_buckets
    dims = SimulationDims(M=16, K=4, L=4, N=20, T=64, T_c=20,
                          rho_f_db=0.0, seed=23)
    pdp = exponential_pdp(4, 4)
    scn = Scenario(link="uplink", filt="cmfe", dims=dims,
                   corr=identity_correlation(16), pdp=pdp)
    g, isi_u, mui_u, awgn = mc_buckets(scn, 2000)
    eff = (isi_u.mean() + mui_u.mean()) * 1.0 + awgn.mean()
    d2 = float(np.sum(pdp.d[0] ** 2))
    expected = (1.0 - d2 / 4.0) * 1.0 + 0.25
    assert abs(eff / expected - 1.0) < 0.05


# ---------------------------------------------------------------------------
# zero-forcing / ridge banks


def test_zfe_per_bin_identity():
    ch = make_channel()
    bank = zfe_bank(ch)
    for nu in range(20):
        prod = bank.freq[nu] @ analysis_bin(ch, nu)
        assert np.max(np.abs(prod - np.eye(4))) < 1e-8


def test_zfe_two_by_two_hand_inverse():
    # with a single tap the zero-forcer is the channel's hand inverse
    dims = SimulationDims(M=2, K=2, L=1, N=2, T=4, T_c=2,
                          rho_f_db=0.0, seed=29)
    pdp = exponential_pdp(2, 1)
    ch = draw_channel(dims, pdp, identity_correlation(2), trial_rng(29, 0))
    H0 = ch.Hhat[0]
    a, b, c, d = H0[0, 0], H0[0, 1], H0[1, 0], H0[1, 1]
    inv = np.array([[d, -b], [-c, a]]) / (a * d - b * c)
    bank = zfe_bank(ch)
    assert_allclose(bank.freq[0], inv, atol=1e-10)


def test_zfe_singular_names_bin():
    dims = SimulationDims(M=4, K=2, L=2, N=4, T=8, T_c=4,
                          rho_f_db=0.0, seed=1)
    pdp = exponential_pdp(2, 2)
    ch = draw_channel(dims, pdp, identity_correlation(4), trial_rng(1, 0))
    Hhat = ch.Hhat.copy()
    Hhat[:, :, 1] = Hhat[:, :, 0]
    broken = ChannelRealization(H=ch.H, Hhat=Hhat, dims=dims)
    with pytest.raises(np.linalg.LinAlgError, match=r"bin \d+"):
        zfe_bank(broken)


def test_zfe_interference_free_under_cp():
    scn = make_scenario(T=20, N=20)
    ch = make_channel(T=20, N=20)
    _, isi_u, mui_u, _ = decompose(scn, ch)
    assert float(np.max(isi_u + mui_u)) < 1e-6


def test_mmsee_beta_zero_matches_zfe():
    ch = make_channel()
    zf = zfe_bank(ch)
    mm = mmsee_bank(ch, 0.0)
    for nu in range(20):
        assert np.linalg.norm(zf.freq[nu] - mm.freq[nu]) < 1e-8


def test_mmsee_large_beta_is_matched_direction():
    ch = make_channel()
    mm = mmsee_bank(ch, 1e9)
    for nu in range(20):
        q = mm.freq[nu].ravel()
        g = analysis_bin(ch, nu).conj().T.ravel()
        cos = abs(np.vdot(q, g)) / (np.linalg.norm(q) * np.linalg.norm(g))
        assert cos > 0.999


def test_mmsee_rejects_negative_beta():
    with pytest.raises(ValueError):
        mmsee_bank(make_channel(), -0.5)


# ---------------------------------------------------------------------------
# bank application


def test_apply_bank_memoryless():
    rng = np.random.default_rng(7)
    C = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    time = np.zeros((3, 2, 5), dtype=complex)
    time[0] = C
    bank = FrequencyFilterBank(freq=np.fft.fft(time, axis=0), time=time)
    r = rng.normal(size=(5, 9)) + 1j * rng.normal(size=(5, 9))
    assert_allclose(apply_bank(bank, r), C @ r, atol=1e-12)


def test_apply_bank_frequency_equivalence():
    ch = make_channel(T=40, N=20)
    bank = mmsee_bank(ch, 0.2)
    rng = np.random.default_rng(8)
    r = rng.normal(size=(16, 40)) + 1j * rng.normal(size=(16, 40))
    y = apply_bank(bank, r)
    Qt = np.fft.fft(bank.norm * bank.time, n=40, axis=0)
    Yf = np.einsum("fkm,mf->kf", Qt, np.fft.fft(r, axis=1))
    assert np.max(np.abs(np.fft.fft(y, axis=1) - Yf)) < 1e-8


def test_apply_bank_linearity():
    ch = make_channel()
    bank = zfe_bank(ch)
    rng = np.random.default_rng(9)
    r1 = rng.normal(size=(16, 40)) + 1j * rng.normal(size=(16, 40))
    r2 = rng.normal(size=(16, 40)) + 1j * rng.normal(size=(16, 40))
    lhs = apply_bank(bank, r1 + r2)
    rhs = apply_bank(bank, r1) + apply_bank(bank, r2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_apply_bank_rejects_short_block():
    ch = make_channel()
    bank = zfe_bank(ch)
    with pytest.raises(ValueError):
        apply_bank(bank, np.zeros((16, 19), dtype=complex))


# ---------------------------------------------------------------------------
# sum-rate-level properties


def test_uplink_reports_zero_if_power():
    """The uplink receiver knows the draw, so its reference gain is the
    realized one and the IF bucket is exactly zero for every equalizer."""
    for filt in ("cmfe", "zfe", "mmsee"):
        scn = make_scenario(filt=filt, T=20, N=20, beta=0.1)
        res = sum_rate_mc(scn, 5)
        assert np.all(res.breakdown.if_k == 0.0)
        assert np.all(res.breakdown.desired_k > 0.0)


def test_mmsee_never_below_zfe_with_optimized_beta():
    from scmimo.experiments_cli import optimize_beta
    dims = SimulationDims(M=16, K=4, L=4, N=20, T=40, T_c=20,
                          rho_f_db=20.0, seed=37)
    pdp = exponential_pdp(4, 4)
    corr = exponential_correlation(ula(16, 0.5), 0.9)
    trials = 60
    zfe_scn = Scenario(link="uplink", filt="zfe", dims=dims, corr=corr,
                       pdp=pdp)
    mm_scn = Scenario(link="uplink", filt="mmsee", dims=dims, corr=corr,
                      pdp=pdp)
    beta = optimize_beta(mm_scn, 100.0, trials=trials)
    mm_scn = Scenario(link="uplink", filt="mmsee", dims=dims, corr=corr,
                      pdp=pdp, beta=beta)
    r_zfe = sum_rate_mc(zfe_scn, trials).rate_bpcu
    r_mm = sum_rate_mc(mm_scn, trials).rate_bpcu
    assert r_mm >= r_zfe - 1e-9
