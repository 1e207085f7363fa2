"""Channel-generation tests: PDP, fading statistics, DFT views."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scmimo.channel import (ChannelRealization, PowerDelayProfile,
                            SimulationDims, composite_taps, draw_channel,
                            draw_fading, exponential_pdp, rekey,
                            taps_to_freq, trial_rng)
from scmimo.corr_models import (bessel_correlation, exponential_correlation,
                                identity_correlation, ula)


def small_dims(**kw):
    base = dict(M=8, K=3, L=2, N=4, T=16, T_c=4, rho_f_db=0.0, seed=123)
    base.update(kw)
    return SimulationDims(**base)


# ---------------------------------------------------------------------------
# power delay profile


def test_pdp_single_user_is_uniform():
    p = exponential_pdp(1, 4)
    assert_allclose(p.d, 0.25)


def test_pdp_ten_users_frozen_values():
    """theta = (K-1)/5 = 1.8 for K=10; taps decay as exp(-1.8 l)."""
    p = exponential_pdp(10, 4)
    expected = [0.83532, 0.13808, 0.02282, 0.00377]
    assert_allclose(p.d[0], expected, atol=1e-5)
    # every user shares the same profile (theta depends only on K)
    assert_allclose(p.d, np.tile(p.d[0], (10, 1)))
    # independent evaluation of the stated formula
    theta = (10 - 1) / 5.0
    w = np.exp(-theta * np.arange(4))
    assert_allclose(p.d[0], w / w.sum(), rtol=1e-14)


@pytest.mark.parametrize("K,L", [(1, 1), (4, 4), (10, 4), (7, 3)])
def test_pdp_rows_sum_to_one(K, L):
    p = exponential_pdp(K, L)
    assert np.all(p.d >= 0.0)
    assert_allclose(p.d.sum(axis=1), 1.0, atol=1e-12)
    assert (p.K, p.L) == (K, L)


def test_pdp_validation():
    with pytest.raises(ValueError):
        PowerDelayProfile(np.array([[0.5, 0.4]]))        # row sums to 0.9
    with pytest.raises(ValueError):
        PowerDelayProfile(np.array([[1.5, -0.5]]))       # negative tap
    with pytest.raises(ValueError):
        exponential_pdp(0, 4)
    # a fractional tap count is an error, not a rounded-up profile
    with pytest.raises(TypeError, match=r"^L must be an integer, got L=2.5$"):
        exponential_pdp(3, 2.5)


# ---------------------------------------------------------------------------
# dims


def test_dims_validation():
    with pytest.raises(ValueError):
        small_dims(N=2, L=2)        # DFT must be longer than the channel
    with pytest.raises(ValueError):
        small_dims(T_c=2, L=2)      # CP must exceed the channel memory
    with pytest.raises(ValueError):
        small_dims(M=2, K=3)        # more users than antennas


@pytest.mark.parametrize("name", ["M", "K", "L", "N", "T", "T_c"])
def test_dims_sizes_are_integers_of_at_least_one(name):
    """Every size is an integer >= 1, checked before the relations between
    sizes; NumPy integers are integers."""
    sizes = dict(M=8, K=3, L=2, N=4, T=8, T_c=4)
    for bad in (0, -1):
        with pytest.raises(ValueError, match=rf"^need {name} >= 1, "
                                             rf"got {name}={bad}$"):
            small_dims(**{**sizes, name: bad})
    with pytest.raises(TypeError, match=rf"^{name} must be an integer, "
                                        rf"got {name}=8.5$"):
        small_dims(**{**sizes, name: 8.5})
    assert getattr(small_dims(**{**sizes, name: np.int64(sizes[name])}),
                   name) == sizes[name]


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_dims_reject_seed_outside_philox_key_range(seed):
    with pytest.raises(ValueError, match=rf"seed={seed}"):
        small_dims(seed=seed)


def test_dims_accept_every_seed_in_range():
    """Seeds up to 2**64 - 1 are valid, and neighbouring seeds above 2**63
    (where a float64 key would merge them) still draw different fading."""
    draws = []
    for seed in (0, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1):
        dims = small_dims(seed=seed)
        ch = draw_channel(dims, exponential_pdp(3, 2),
                          identity_correlation(8), trial_rng(dims.seed, 0))
        assert np.all(np.isfinite(ch.H))
        draws.append(ch.H)
    assert not np.allclose(draws[1], draws[2])


@pytest.mark.parametrize("rho_db", [float("nan"), float("inf"),
                                    float("-inf"), 4000.0, -4000.0])
def test_dims_reject_non_finite_power(rho_db):
    """A power whose linear value is not a positive finite float would
    rate NaN (nan, +inf) or 0 (-inf, -4000 dB, an underflow) without an
    error, or raise a raw OverflowError from rho_f (4000 dB)."""
    with pytest.raises(ValueError, match="finite rho_f_db"):
        small_dims(rho_f_db=rho_db)


def test_dims_accept_a_large_power_with_a_finite_linear_value():
    assert small_dims(rho_f_db=3000.0).rho_f == pytest.approx(1e300)
    assert small_dims(rho_f_db=-3000.0).rho_f == pytest.approx(1e-300)


def test_non_integer_seed_rejected_where_a_key_is_built():
    """A uint64 key would truncate seed 1.5 to 1 and repeat seed 1's
    draws; NumPy integers are integers."""
    with pytest.raises(TypeError, match="seed=1.5"):
        small_dims(seed=1.5)
    for bad in ((1.5, 0), (1, 0.0), (np.float64(1.0), 0)):
        with pytest.raises(TypeError):
            trial_rng(*bad)
        with pytest.raises(TypeError):
            rekey(trial_rng(0, 0), *bad)
    assert small_dims(seed=np.uint64(2 ** 64 - 1)).seed == 2 ** 64 - 1
    assert np.array_equal(trial_rng(np.int64(7), np.int32(3)).random(4),
                          trial_rng(7, 3).random(4))


@pytest.mark.parametrize("seed", [0, 2 ** 63, 2 ** 64 - 1])
def test_rekey_reproduces_trial_rng(seed):
    """A re-keyed generator continues exactly as a fresh trial_rng, also
    after it has left 64-bit outputs in its buffer and half a 64-bit word
    for the next 32-bit integer."""
    rng = trial_rng(5, 9)
    rng.integers(0, 2 ** 32, size=3, dtype=np.uint32)
    rng.standard_normal(5)
    for trial in (0, 1, 2 ** 64 - 1):
        fresh = trial_rng(seed, trial)
        again = rekey(rng, seed, trial)
        assert again is rng
        assert np.array_equal(
            again.integers(0, 2 ** 32, size=3, dtype=np.uint32),
            fresh.integers(0, 2 ** 32, size=3, dtype=np.uint32))
        assert np.array_equal(again.standard_normal(9),
                              fresh.standard_normal(9))


def test_dims_power_conversion():
    assert small_dims(rho_f_db=0.0).rho_f == pytest.approx(1.0)
    assert small_dims(rho_f_db=10.0).rho_f == pytest.approx(10.0)
    assert small_dims(rho_f_db=-10.0).rho_f == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# draw_channel


def test_draw_channel_shapes():
    dims = small_dims()
    ch = draw_channel(dims, exponential_pdp(3, 2),
                      identity_correlation(8), trial_rng(123, 0))
    assert ch.H.shape == (2, 8, 3)
    assert ch.Hhat.shape == (2, 8, 3)
    assert ch.H.dtype == np.complex128


def test_draw_channel_deterministic():
    dims = small_dims()
    pdp = exponential_pdp(3, 2)
    corr = exponential_correlation(ula(8, 0.5), 0.7)
    a = draw_channel(dims, pdp, corr, trial_rng(123, 5))
    b = draw_channel(dims, pdp, corr, trial_rng(123, 5))
    assert_allclose(a.H, b.H, atol=0)
    assert_allclose(a.Hhat, b.Hhat, atol=0)
    c = draw_channel(dims, pdp, corr, trial_rng(123, 6))
    assert not np.allclose(a.H, c.H)


def test_draw_channel_fading_is_the_stream_bit_for_bit():
    """H is the stream's first L*M*K normals plus 1j times the next
    L*M*K, over sqrt(2), bit for bit (signed zeros included)."""
    dims = small_dims()
    for corr in (identity_correlation(8),
                 exponential_correlation(ula(8, 0.5), 0.9),
                 bessel_correlation(ula(8, 0.5), 3.0, 0.4)):
        for t in range(4):
            z = trial_rng(123, t).standard_normal((2, 2, 8, 3))
            H = draw_channel(dims, exponential_pdp(3, 2), corr,
                             trial_rng(123, t)).H
            assert H.tobytes() == ((z[0] + 1j * z[1]) / np.sqrt(2)).tobytes()


@pytest.mark.parametrize("mu", [0.0, 0.4])
def test_draw_channel_composite_taps_match_complex_product(mu):
    """Hhat = sqrt_A @ H * sqrt(d) to 1e-14 of its largest entry, whether
    sqrt_A is real (mu = 0, one real product) or complex."""
    M, K, L = 16, 4, 3
    dims = small_dims(M=M, K=K, L=L, N=8, T=16, T_c=8)
    pdp = exponential_pdp(K, L)
    corr = bessel_correlation(ula(M, 0.5), 3.0, mu)
    assert np.isrealobj(corr.sqrt_A) == (mu == 0.0)
    sqrt_A = corr.sqrt_A.astype(complex)
    for t in range(8):
        ch = draw_channel(dims, pdp, corr, trial_rng(17, t))
        want = (sqrt_A @ ch.H) * np.sqrt(pdp.d.T)[:, None, :]
        err = np.max(np.abs(ch.Hhat - want)) / np.max(np.abs(want))
        assert err <= 1e-14


@pytest.mark.parametrize("mu", [0.0, 0.4])
def test_fading_draw_and_composite_step_are_draw_channel(mu):
    """draw_fading then composite_taps gives draw_channel's H and Hhat
    byte for byte, for a real (mu = 0) and a complex sqrt_A, and so does
    composite_taps of a stack of fading draws, draw by draw."""
    M, K, L = 16, 4, 3
    dims = small_dims(M=M, K=K, L=L, N=8, T=16, T_c=8)
    pdp = exponential_pdp(K, L)
    corr = bessel_correlation(ula(M, 0.5), 3.0, mu)
    assert np.isrealobj(corr.sqrt_A) == (mu == 0.0)
    H = np.stack([draw_fading(dims, trial_rng(17, t)) for t in range(5)])
    stacked = composite_taps(H, pdp, corr)
    for t in range(5):
        ch = draw_channel(dims, pdp, corr, trial_rng(17, t))
        assert ch.H.tobytes() == H[t].tobytes()
        assert ch.Hhat.tobytes() == composite_taps(H[t], pdp, corr).tobytes()
        assert ch.Hhat.tobytes() == stacked[t].tobytes()


@pytest.mark.parametrize("mu", [0.0, 0.4])
def test_composite_taps_are_antenna_major_per_tap_products(mu):
    """composite_taps returns an (..., L, M, K) view of memory ordered
    (..., M, L, K), on a stack of draws and on one draw, and its taps are
    bit for bit the per-tap products sqrt_A @ H_l times sqrt(d_l) taken
    tap by tap into contiguous (L, M, K) memory: one real product of the
    interleaved parts for a real sqrt_A (mu = 0), a complex one else."""
    M, K, L = 16, 4, 3
    dims = small_dims(M=M, K=K, L=L, N=8, T=16, T_c=8)
    pdp = exponential_pdp(K, L)
    corr = bessel_correlation(ula(M, 0.5), 3.0, mu)
    amp = np.sqrt(pdp.d.T)[:, None, :]
    H = np.stack([draw_fading(dims, trial_rng(29, t)) for t in range(5)])
    for fading in (H, H[2]):
        if mu == 0.0:
            want = (corr.sqrt_A @ fading.view(np.float64)).view(complex) * amp
        else:
            want = (corr.sqrt_A @ fading) * amp
        got = composite_taps(fading, pdp, corr)
        assert got.shape == fading.shape
        assert np.swapaxes(got, -3, -2).flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_fading_shared_across_correlation_models():
    # the raw taps depend only on the seed, not on A
    dims = small_dims()
    pdp = exponential_pdp(3, 2)
    a = draw_channel(dims, pdp, identity_correlation(8), trial_rng(9, 0))
    b = draw_channel(dims, pdp, exponential_correlation(ula(8, 0.5), 0.9),
                     trial_rng(9, 0))
    assert_allclose(a.H, b.H, atol=0)
    assert not np.allclose(a.Hhat, b.Hhat)


def test_draw_channel_dimension_mismatch():
    dims = small_dims()
    with pytest.raises(ValueError):
        draw_channel(dims, exponential_pdp(3, 2),
                     identity_correlation(4), trial_rng(1, 0))
    with pytest.raises(ValueError):
        draw_channel(dims, exponential_pdp(2, 2),
                     identity_correlation(8), trial_rng(1, 0))
    with pytest.raises(ValueError):
        draw_channel(dims, exponential_pdp(3, 3),
                     identity_correlation(8), trial_rng(1, 0))


def test_fading_moment_checks():
    """Re/Im parts: zero mean, variance 1/2; |h|^2 averages to 1."""
    dims = small_dims(M=16, K=4, L=4, N=8, T=16, T_c=8)
    pdp = exponential_pdp(4, 4)
    corr = identity_correlation(16)
    samples = []
    for t in range(500):
        ch = draw_channel(dims, pdp, corr, trial_rng(77, t))
        samples.append(ch.H.ravel())
    h = np.concatenate(samples)          # 128k entries
    assert h.size >= 100_000
    assert abs(h.real.mean()) < 0.01
    assert abs(h.imag.mean()) < 0.01
    assert 0.49 <= h.real.var() <= 0.51
    assert 0.49 <= h.imag.var() <= 0.51
    assert 0.99 <= (np.abs(h) ** 2).mean() <= 1.01


def test_composite_column_energy():
    """E ||Hhat_l e_k||^2 = M d_l[k] under any unit-diagonal A."""
    dims = small_dims()
    pdp = exponential_pdp(3, 2)
    corr = exponential_correlation(ula(8, 0.5), 0.7)
    acc = np.zeros((2, 3))
    n = 10_000
    for t in range(n):
        ch = draw_channel(dims, pdp, corr, trial_rng(31, t))
        acc += np.sum(np.abs(ch.Hhat) ** 2, axis=1)
    acc /= n
    expected = 8.0 * pdp.d.T             # (L, K)
    assert np.max(np.abs(acc / expected - 1.0)) < 0.03


def test_composite_column_covariance():
    """Sample covariance of a composite column approaches d_l[k] A."""
    M, K, L = 16, 2, 2
    dims = small_dims(M=M, K=K, L=L)
    pdp = exponential_pdp(K, L)
    corr = exponential_correlation(ula(M, 0.5), 0.9)
    l, k = 0, 1
    acc = np.zeros((M, M), dtype=complex)
    n = 10_000
    for t in range(n):
        ch = draw_channel(dims, pdp, corr, trial_rng(13, t))
        col = ch.Hhat[l, :, k]
        acc += np.outer(col, col.conj())
    acc /= n
    target = pdp.d[k, l] * corr.A
    rel = np.linalg.norm(acc - target) / np.linalg.norm(target)
    assert rel < 0.05


def test_hhat_freq_matches_direct_sum():
    dims = small_dims(L=2, N=5)
    ch = draw_channel(dims, exponential_pdp(3, 2),
                      identity_correlation(8), trial_rng(5, 0))
    for nu in range(5):
        direct = sum(np.exp(-2j * np.pi * nu * l / 5) * ch.Hhat[l]
                     for l in range(2))
        assert np.max(np.abs(taps_to_freq(ch.Hhat, 5)[nu] - direct)) < 1e-10


# ---------------------------------------------------------------------------
# taps_to_freq


def test_taps_to_freq_single_tap():
    taps = np.zeros((1, 3, 2), dtype=complex)
    taps[0] = np.arange(6).reshape(3, 2)
    out = taps_to_freq(taps, 4)
    for nu in range(4):
        assert_allclose(out[nu], taps[0])


def test_taps_to_freq_pure_delay():
    taps = np.zeros((2, 3, 3), dtype=complex)
    taps[1] = np.eye(3)
    out = taps_to_freq(taps, 6)
    for nu in range(6):
        assert_allclose(out[nu], np.exp(-2j * np.pi * nu / 6) * np.eye(3),
                        atol=1e-12)


def test_taps_to_freq_naive_dft_oracle():
    rng = np.random.default_rng(2)
    taps = rng.normal(size=(4, 5, 3)) + 1j * rng.normal(size=(4, 5, 3))
    out = taps_to_freq(taps, 20)
    naive = np.zeros((20, 5, 3), dtype=complex)
    for nu in range(20):
        for l in range(4):
            naive[nu] += np.exp(-2j * np.pi * nu * l / 20) * taps[l]
    assert np.max(np.abs(out - naive)) < 1e-10


def test_taps_to_freq_ifft_roundtrip():
    rng = np.random.default_rng(4)
    taps = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
    out = taps_to_freq(taps, 12)
    back = np.fft.ifft(out, axis=0)
    padded = np.zeros((12, 2, 2), dtype=complex)
    padded[:4] = taps
    assert np.max(np.abs(back - padded)) < 1e-10


def test_taps_to_freq_rejects_short_dft():
    taps = np.zeros((4, 2, 2), dtype=complex)
    with pytest.raises(ValueError):
        taps_to_freq(taps, 4)
    with pytest.raises(ValueError):
        taps_to_freq(taps, 3)


def test_channel_realization_is_frozen():
    dims = small_dims()
    ch = draw_channel(dims, exponential_pdp(3, 2),
                      identity_correlation(8), trial_rng(1, 0))
    assert isinstance(ch, ChannelRealization)
    with pytest.raises(Exception):
        ch.H = None


def test_dims_reject_block_shorter_than_bank():
    """A T-symbol block cannot hold an N-tap bank: reject T < N up front
    rather than let the bucket core fold a truncated cascade."""
    with pytest.raises(ValueError, match="T >= N"):
        small_dims(N=8, T=4)
    assert small_dims(N=8, T=8).T == 8


def test_dims_reject_prefix_longer_than_block():
    """The cyclic prefix copies the block's last T_c symbols, so T_c > T is
    rejected up front, as the uplink framing rejects it, rather than let
    the bucket core rate a frame that the signal path cannot build."""
    with pytest.raises(ValueError, match="T_c <= T"):
        SimulationDims(M=8, K=2, L=2, N=4, T=4, T_c=6)
    assert small_dims(T=4, T_c=4).T_c == 4
