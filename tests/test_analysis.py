"""Analysis tests: bucket decomposition, sum rates, moment identities."""

import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scmimo import analysis, dl_precoding
from scmimo.analysis import (NoiseBreakdown, Scenario,
                             _draw_buckets, appendix_moment,
                             buckets_to_result, cmfe_rate_closed,
                             cmfp_rate_closed, coop_capacity, decompose,
                             factor_draws, mc_buckets, mc_buckets_group,
                             sum_rate_mc)
from scmimo.channel import (ChannelRealization, PowerDelayProfile,
                            SimulationDims, composite_taps, draw_channel,
                            draw_fading, exponential_pdp, taps_to_freq,
                            trial_rng)
from scmimo.corr_models import (CorrelationMatrix, bessel_correlation,
                                exponential_correlation, identity_correlation,
                                ula, upa)
from scmimo.dl_precoding import apply_bank, downlink_receive, zfp_bank


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


def test_scenario_rejects_unknown_combo():
    for link, filt in (("downlink", "cmfe"), ("uplink", "zfp"),
                       ("sidelink", "cmfp")):
        with pytest.raises(ValueError):
            scenario(link=link, filt=filt)


def test_decompose_measures_unit_downlink_awgn():
    """Downlink noise enters after the channel and the precoder, so each
    user's unit noise impulse comes out unchanged: for every precoder the
    AWGN bucket is exactly 1, and no bucket is negative."""
    for filt, beta in (("cmfp", 0.0), ("zfp", 0.0), ("rzfp", 0.5)):
        scn = scenario(filt=filt, beta=beta)
        ch = draw_channel(scn.dims, scn.pdp, scn.corr, trial_rng(51, 0))
        g, isi_u, mui_u, awgn = decompose(scn, ch)
        assert g.shape == isi_u.shape == mui_u.shape == awgn.shape == (2,)
        assert np.all(awgn == 1.0)
        assert np.all(isi_u >= 0.0)
        assert np.all(mui_u >= 0.0)


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
        *core, awgn = _draw_buckets(scn, ch)
        *probe, want = decompose(scn, ch)
        for got, ref in zip(core, probe):
            assert_allclose(got, ref, atol=1e-10)
        assert_allclose(awgn, want, rtol=1e-10)


# ---------------------------------------------------------------------------
# tap-domain bucket core

SIX_FILTERS = [("downlink", "cmfp"), ("downlink", "zfp"), ("downlink", "rzfp"),
               ("uplink", "cmfe"), ("uplink", "zfe"), ("uplink", "mmsee")]
CORE_CASES = [(link, filt, beta) for link, filt in SIX_FILTERS
              for beta in ((0.0, 1e-3, 1.0, 1e6)
                           if filt in ("rzfp", "mmsee") else (0.0,))]


def _assert_buckets_match(got, want):
    """The core's (g, isi_u, mui_u, awgn) match the probes' to 1e-10 of
    the largest probe gain for g, of its square for ISI and MUI, and to
    rtol 1e-10 for AWGN."""
    scale = np.max(np.abs(want[0]))
    for have, ref, power in zip(got, want, (1, 2, 2)):
        assert_allclose(have / scale ** power, ref / scale ** power,
                        rtol=0, atol=1e-10)
    assert_allclose(got[3], want[3], rtol=1e-10)


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
        _assert_buckets_match(_draw_buckets(scn, ch), decompose(scn, ch))


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
        _assert_buckets_match(_draw_buckets(scn, ch), decompose(scn, ch))


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
        _assert_buckets_match(_draw_buckets(scn, ch), decompose(scn, ch))


def _draw_small_case(draw, st, M):
    """Random valid small dims for M antennas (K <= M, L = 1 .. 4, N <= 8,
    T any integer from N to N + L + 2, the partial folds N < T < N + L - 1
    included), a filter of either link and, for a ridge filter, a ridge
    parameter: the Scenario fields but the correlation."""
    K = draw(st.integers(1, M))
    L = draw(st.integers(1, 4))
    N = draw(st.integers(L + 1, 8))
    T = draw(st.integers(N, N + L + 2))
    dims = SimulationDims(M=M, K=K, L=L, N=N, T=T,
                          T_c=draw(st.integers(L + 1, T)),
                          seed=draw(st.integers(0, 2 ** 32)))
    link, filt = draw(st.sampled_from(SIX_FILTERS))
    beta = draw(st.sampled_from([0.0, 1e-4, 1.0, 1e4])) \
        if filt in ("rzfp", "mmsee") else 0.0
    return dict(link=link, filt=filt, dims=dims, pdp=exponential_pdp(K, L),
                beta=beta)


def _assert_core_matches_decompose(scn):
    """Either both paths raise, or the core's four buckets on trial 0
    match the probe measurement: gains, ISI and MUI to 1e-10 + K kappa eps
    of the draw's scale, the AWGN bucket to that relative tolerance.

    The scale is the largest per-user cascade energy, since a gain can
    be a thousandth of it (K = 1, T > N). kappa is the spread of the
    eigenvalues of G_nu + beta I over all bins, which the inverting
    filters invert (1 for the matched ones): both paths carry the
    inverse's forward error, of order K kappa eps (kappa reaches 1e7 at
    K = M, alpha = 0.9, where the paths differ by up to 5e-10)."""
    def outcome(path):
        try:
            return path()
        except (ValueError, np.linalg.LinAlgError) as err:
            return err

    dims = scn.dims
    ch = draw_channel(dims, scn.pdp, scn.corr, trial_rng(dims.seed, 0))
    core = outcome(lambda: _draw_buckets(scn, ch))
    probe = outcome(lambda: decompose(scn, ch))
    if isinstance(core, Exception) or isinstance(probe, Exception):
        assert type(core) is type(probe), (core, probe)
        return
    energy = np.max(np.abs(probe[0]) ** 2 + probe[1] + probe[2])
    kappa = 1.0
    if scn.filt not in analysis.MATCHED:
        Hnu = taps_to_freq(ch.Hhat, dims.N)
        lam = np.linalg.eigvalsh(np.conj(np.swapaxes(Hnu, -1, -2)) @ Hnu)
        kappa = (lam.max() + scn.beta) / (lam.min() + scn.beta)
    tol = 1e-10 + dims.K * kappa * np.finfo(float).eps
    for got, want, power in zip(core, probe, (0.5, 1, 1)):
        assert_allclose(got / energy ** power, want / energy ** power,
                        rtol=0, atol=tol)
    assert_allclose(core[3], probe[3], rtol=tol)


def test_core_matches_decompose_on_random_small_dims():
    """Random valid dims (`_draw_small_case`, M <= 12) on a linear array,
    exponential correlations and ridge parameters, all six filters: the
    core matches the probes (`_assert_core_matches_decompose`)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        M = draw(st.integers(1, 12))
        case = _draw_small_case(draw, st, M)
        corr = exponential_correlation(
            ula(M), draw(st.sampled_from([0.0, 0.5, 0.9])))
        return Scenario(corr=corr, **case)

    @hypothesis.settings(derandomize=True, max_examples=500, deadline=None,
                         database=None)
    @hypothesis.given(cases())
    def check(scn):
        _assert_core_matches_decompose(scn)

    check()


def _draw_bessel_or_planar(draw, st, hypothesis, M_min=1):
    """A correlation that the exponential linear-array properties leave
    out: Bessel (eta in {0, 20}, mu in {0, pi/4}) on a linear array of
    M_min .. 12 elements, where eta = 20, mu = pi/4 gives a complex sqrt_A,
    or exponential or Bessel on a planar array of 2 or 3 rows (M <= 12). A
    planar Bessel matrix that its constructor rejects (not Hermitian at
    eta sin(mu) != 0) is a rejected example."""
    if draw(st.booleans()):
        M_x = draw(st.integers(1, 4))
        geometry = upa(M_x * draw(st.integers(2, 3)), M_x)
        if not draw(st.booleans()):
            return exponential_correlation(
                geometry, draw(st.sampled_from([0.0, 0.5, 0.9])))
    else:
        geometry = ula(draw(st.integers(M_min, 12)))
    try:
        return bessel_correlation(geometry,
                                  draw(st.sampled_from([0.0, 20.0])),
                                  draw(st.sampled_from([0.0, math.pi / 4])))
    except ValueError:
        hypothesis.reject()


def test_core_matches_decompose_on_bessel_and_planar_arrays():
    """The property above on the correlations it leaves out
    (`_draw_bessel_or_planar`). Both paths read composite_taps, so its
    taps are also checked against the plain product sqrt_A H_l D_l^{1/2}."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        corr = _draw_bessel_or_planar(draw, st, hypothesis)
        return Scenario(corr=corr, **_draw_small_case(draw, st,
                                                      corr.A.shape[0]))

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=1000,
                         database=None)
    @hypothesis.given(cases())
    def check(scn):
        H = draw_fading(scn.dims, trial_rng(scn.dims.seed, 0))
        assert_allclose(composite_taps(H, scn.pdp, scn.corr),
                        scn.corr.sqrt_A @ H * np.sqrt(scn.pdp.d.T)[:, None],
                        rtol=1e-12, atol=1e-12)
        _assert_core_matches_decompose(scn)

    check()


def test_zero_forcing_is_exact_at_t_equal_n():
    """Over the random domain of the parity properties above at T = N,
    half of it on Bessel correlations or planar arrays
    (`_draw_bessel_or_planar`), the zero-forcing filters, and the ridge
    filters at beta = 0, which are zero forcing, leave no ISI or MUI on
    either link: both stay within 1e-10 + K kappa eps of the draw's
    largest per-user cascade energy, with kappa the spread of the bin Gram
    eigenvalues. A draw the rank check rejects has no buckets to check."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        if draw(st.booleans()):
            corr = _draw_bessel_or_planar(draw, st, hypothesis)
            M = corr.A.shape[0]
        else:
            M = draw(st.integers(1, 12))
            corr = exponential_correlation(
                ula(M), draw(st.sampled_from([0.0, 0.5, 0.9])))
        L = draw(st.integers(1, 4))
        N = draw(st.integers(L + 1, 8))
        dims = SimulationDims(M=M, K=draw(st.integers(1, M)), L=L, N=N, T=N,
                              T_c=draw(st.integers(L + 1, N)),
                              seed=draw(st.integers(0, 2 ** 32)))
        return dims, corr

    @hypothesis.settings(derandomize=True, max_examples=150, deadline=5000,
                         database=None)
    @hypothesis.given(cases())
    def check(case):
        dims, corr = case
        pdp = exponential_pdp(dims.K, dims.L)
        ch = draw_channel(dims, pdp, corr, trial_rng(dims.seed, 0))
        Hnu = taps_to_freq(ch.Hhat, dims.N)
        lam = np.linalg.eigvalsh(np.conj(np.swapaxes(Hnu, -1, -2)) @ Hnu)
        tol = 1e-10 + dims.K * lam.max() / lam.min() * np.finfo(float).eps
        for link, filt in SIX_FILTERS:
            if filt in analysis.MATCHED:
                continue
            scn = Scenario(link=link, filt=filt, dims=dims, corr=corr, pdp=pdp)
            try:
                g, isi_u, mui_u, _ = _draw_buckets(scn, ch)
            except np.linalg.LinAlgError:
                continue
            energy = np.max(np.abs(g) ** 2 + isi_u + mui_u)
            assert np.max(isi_u) <= tol * energy, (filt, np.max(isi_u))
            assert np.max(mui_u) <= tol * energy, (filt, np.max(mui_u))

    check()


def test_core_rejects_what_the_reference_rejects_at_the_edges():
    """At the edges of the input domain the bucket core raises exactly
    when the reference raises, framing included (draw_channel, then
    decompose), with the same exception type, for all six filters:
    K = M at alpha 0.99 and 0.999, ridge parameters 1e-300 and 1e300,
    all-zero taps (a zero correlation matrix), and a PDP or correlation
    matrix shaped for other dims. Away from K = M, half the correlations
    are Bessel or planar (`_draw_bessel_or_planar`), the rest exponential
    on a linear array."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        edge = draw(st.sampled_from(["near_singular", "extreme_beta",
                                     "zero_taps", "pdp_shape",
                                     "corr_shape"]))
        corr = None
        if edge != "near_singular" and draw(st.booleans()):
            corr = _draw_bessel_or_planar(draw, st, hypothesis)
            M = corr.A.shape[0]
        else:
            M = draw(st.integers(1, 8))
        K = M if edge == "near_singular" else draw(st.integers(1, M))
        L = draw(st.integers(1, 3))
        N = draw(st.integers(L + 1, 6))
        T = draw(st.integers(N, N + L))
        dims = SimulationDims(M=M, K=K, L=L, N=N, T=T,
                              T_c=draw(st.integers(L + 1, T)),
                              seed=draw(st.integers(0, 2 ** 32)))
        link, filt = draw(st.sampled_from(SIX_FILTERS))
        beta = 0.0
        if filt in analysis.RIDGE:
            beta = draw(st.sampled_from(
                [1e-300, 1e300] if edge == "extreme_beta"
                else [0.0, 1e-4, 1.0]))
        if corr is None:
            corr = exponential_correlation(ula(M), draw(st.sampled_from(
                [0.99, 0.999] if edge == "near_singular"
                else [0.0, 0.5, 0.9])))
        pdp = exponential_pdp(K, L)
        if edge == "zero_taps":
            zero = np.zeros((M, M))
            corr = CorrelationMatrix(A=zero, sqrt_A=zero)
        elif edge == "pdp_shape":
            pdp = exponential_pdp(*draw(st.sampled_from(
                [(K + 1, L), (K, L + 1)])))
        elif edge == "corr_shape":
            corr = exponential_correlation(ula(M + 1), 0.5)
        return Scenario(link=link, filt=filt, dims=dims, corr=corr, pdp=pdp,
                        beta=beta)

    def outcome(path):
        try:
            path()
        except (ValueError, np.linalg.LinAlgError) as err:
            return type(err)
        return None

    @hypothesis.settings(derandomize=True, max_examples=150, deadline=5000,
                         database=None)
    @hypothesis.given(cases())
    def check(scn):
        dims = scn.dims
        ref = outcome(lambda: decompose(scn, draw_channel(
            dims, scn.pdp, scn.corr, trial_rng(dims.seed, 0))))
        assert outcome(lambda: mc_buckets(scn, 1)) is ref

    check()


def test_core_and_reference_reject_a_draw_made_at_other_dims():
    """Both paths read a draw's buckets under its scenario, so a draw made
    at other dims is an error that names both, not two different
    answers: the core reads the scenario's N and T, the probes the
    draw's N and T_c."""
    scn = scenario(link="uplink", filt="zfe", M=8, K=3, L=3, N=5, T=7,
                   T_c=5, alpha=0.5)
    other = dataclasses.replace(scn.dims, N=4, T=4, T_c=4)
    ch = draw_channel(other, scn.pdp, scn.corr, trial_rng(other.seed, 0))
    for path in (_draw_buckets, decompose):
        with pytest.raises(ValueError, match=re.escape(
                "channel draw dims (M=8, K=3, L=3, N=4, T=4, T_c=4) differ "
                "from the scenario's (M=8, K=3, L=3, N=5, T=7, T_c=5)")):
            path(scn, ch)


def test_zero_forcing_matches_the_wishart_inverse_mean():
    """An oracle independent of how the banks are built. At alpha = 0 each
    bin's Gram matrix is complex Wishart W_K(M, I), since the PDP rows sum
    to 1, and E[W^-1] = I / (M - K) (Tulino & Verdu 2004). So the ZFE
    AWGN bucket has mean 1 / (M - K), and ZFP at T = N has
    E[1 / |g_k|^2] = K / (M - K). Each sample mean lies within 3 standard
    errors of its per-draw values (k = 3 fixed beforehand)."""
    M, K, trials = 16, 4, 2000
    zfp, zfe = (mc_buckets(scenario(link=link, filt=filt, M=M, K=K, L=4,
                                    N=20, T=20, T_c=20, seed=12345), trials)
                for link, filt in (("downlink", "zfp"), ("uplink", "zfe")))
    for per_draw, exact in (((1 / np.abs(zfp[0]) ** 2).mean(axis=1),
                             K / (M - K)),
                            (zfe[3].mean(axis=1), 1 / (M - K))):
        stderr = per_draw.std(ddof=1) / math.sqrt(trials)
        assert abs(per_draw.mean() - exact) <= 3 * stderr


def _deterministic_trace_inverse(A, K):
    """The deterministic equivalent m / M of E[(1/K) tr (Z^H A Z)^-1], for
    Z an M x K matrix of i.i.d. CN(0, 1) entries, where m solves
    m = 1 / ((1/M) tr A (I + (K/M) m A)^-1) (Silverstein & Bai 1995), by
    fixed-point iteration from the solution M / (M - K) at A = I."""
    a = np.linalg.eigvalsh(A)
    M = a.size
    m = M / (M - K)
    for _ in range(10_000):
        m, prev = 1.0 / np.mean(a / (1.0 + K / M * m * a)), m
        if abs(m - prev) <= 1e-15 * m:
            return m / M
    raise AssertionError("the fixed point did not converge")


def test_zero_forcing_matches_the_correlated_deterministic_equivalent():
    """An oracle under correlation, at the fig3 cell alpha = 0.7 (M = 64,
    K = 10). Each bin's analysis columns are CN(0, A), since the PDP rows
    sum to 1, so the ZFE AWGN bucket of a draw, (1/N) sum_nu
    (1/K) tr G_nu^-1 averaged over users, has the mean
    E[(1/K) tr (Z^H A Z)^-1], whose deterministic equivalent is m / M
    (exact, 1 / (M - K), at A = I). At this cell 10^6 direct samples of
    (1/K) tr (Z^H A Z)^-1 put the equivalent's finite-M bias at -0.086%,
    with a standard error of 0.008%: its bound, |bias| + 3 standard
    errors, is 0.12% of m / M. The sample mean lies within 3 standard
    errors of its per-draw values (k = 3 fixed before that study) plus
    that bound."""
    M, K, trials = 64, 10, 1000
    assert _deterministic_trace_inverse(np.eye(M), K) == pytest.approx(
        1 / (M - K), rel=1e-14)
    scn = scenario(link="uplink", filt="zfe", M=M, K=K, L=4, N=20, T=100,
                   T_c=20, alpha=0.7, seed=12345)
    per_draw = mc_buckets(scn, trials)[3].mean(axis=1)
    exact = _deterministic_trace_inverse(scn.corr.A, K)
    stderr = per_draw.std(ddof=1) / math.sqrt(trials)
    assert abs(per_draw.mean() - exact) <= 3 * stderr + 0.0012 * exact


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


def test_buckets_do_not_depend_on_chunk_and_are_nonnegative(monkeypatch):
    """Random valid dims, correlations (exponential on linear arrays, or
    `_draw_bessel_or_planar`), draw counts and ridge parameters, all six
    filters: the bucket stacks of a group are the same bits with CHUNK at
    1, 3 and 8 draws, or every chunk size raises the same error, and every
    ISI, MUI and AWGN bucket is nonnegative."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        if draw(st.booleans()):
            corr = exponential_correlation(
                ula(draw(st.integers(2, 10))),
                draw(st.sampled_from([0.0, 0.5, 0.9])))
        else:
            corr = _draw_bessel_or_planar(draw, st, hypothesis, M_min=2)
        M = corr.A.shape[0]
        K = draw(st.integers(1, M - 1))
        L = draw(st.integers(1, 4))
        N = draw(st.integers(L + 1, 8))
        T = draw(st.integers(N, N + L + 2))
        dims = SimulationDims(M=M, K=K, L=L, N=N, T=T,
                              T_c=draw(st.integers(L + 1, T)),
                              seed=draw(st.integers(0, 2 ** 32)))
        beta = draw(st.sampled_from([1e-4, 1.0, 1e4]))
        return dims, corr, beta, draw(st.integers(1, 12))

    def stacks(scn, requests, trials, chunk):
        monkeypatch.setattr(analysis, "CHUNK", chunk)
        try:
            return mc_buckets_group([(scn, requests, None)], trials)[0]
        except (ValueError, np.linalg.LinAlgError) as err:
            return f"{type(err).__name__}: {err}"

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=5000,
                         database=None)
    @hypothesis.given(cases())
    def check(case):
        dims, corr, beta, trials = case
        for link, filters in (("downlink", analysis.DL_FILTERS),
                              ("uplink", analysis.UL_FILTERS)):
            scn = Scenario(link=link, filt=filters[0], dims=dims, corr=corr,
                           pdp=exponential_pdp(dims.K, dims.L))
            requests = [(f, beta) for f in filters]
            ref = stacks(scn, requests, trials, 1)
            for chunk in (3, 8):
                got = stacks(scn, requests, trials, chunk)
                if isinstance(ref, str):
                    assert got == ref
                    continue
                for want_filt, got_filt in zip(ref, got):
                    for want, have in zip(want_filt, got_filt):
                        assert np.array_equal(have, want)
            if not isinstance(ref, str):
                for _, isi_u, mui_u, awgn in ref:
                    for bucket in (isi_u, mui_u, awgn):
                        assert np.all(bucket >= 0.0)

    check()


def test_empty_group_has_no_stacks():
    assert mc_buckets_group([], 5) == []
    assert mc_buckets_group(iter([]), 5) == []


@pytest.mark.parametrize("link,filt", [("downlink", "zfp"),
                                       ("uplink", "zfe")])
def test_tap_products_are_one_product_per_draw(monkeypatch, link, filt):
    """fill forms every draw's tap products F[l, l'] = Hhat_l^H Hhat_l' in
    one product; F, as the zero-forcing buckets read it, is bit for bit
    the per-tap products Hhat_l^H (Hhat_0, ..., Hhat_{L-1}) of the old
    layout, whether Hhat is composite_taps' antenna-major view or
    contiguous (L, M, K) memory."""
    scn = scenario(link=link, filt=filt, M=16, K=4, L=3, N=8, T=16, T_c=8,
                   alpha=0.7)
    M, K, L = scn.dims.M, scn.dims.K, scn.dims.L
    Hhat = composite_taps(np.stack([draw_fading(scn.dims,
                                                trial_rng(scn.dims.seed, t))
                                    for t in range(5)]), scn.pdp, scn.corr)
    n = Hhat.shape[0]
    F = (np.conj(Hhat).transpose(0, 1, 3, 2)
         @ Hhat.transpose(0, 2, 1, 3).reshape(n, 1, M, L * K)
         ).reshape(n, L, K, L, K)
    want = F if link == "downlink" else F.transpose(0, 3, 4, 1, 2)
    seen = []
    zero_forcing = analysis.DrawFactors._zero_forcing_buckets

    def captured(self, rows, Ginv):
        seen.append(rows.copy())
        return zero_forcing(self, rows, Ginv)

    monkeypatch.setattr(analysis.DrawFactors, "_zero_forcing_buckets",
                        captured)
    assert not Hhat.flags.c_contiguous
    for taps in (Hhat, np.ascontiguousarray(Hhat)):
        analysis.DrawFactors(scn, n).fill(0, taps)
        assert seen.pop().tobytes() == want.tobytes()


def _rank_one_scenario(link, filt, beta=0.0, seed=3):
    """Every antenna sees the same signal (A = all-ones, rank 1), so with
    K = 2 users every bin Gram matrix is singular."""
    M = 4
    ones = np.ones((M, M))
    corr = CorrelationMatrix(A=ones, sqrt_A=ones / np.sqrt(M))
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
        decompose(scn, ch)
    # the all-ones correlation is the exponential model at alpha = 1
    labelled = dataclasses.replace(scn, corr=dataclasses.replace(
        scn.corr, model="exponential", param=1.0))
    with pytest.raises(np.linalg.LinAlgError,
                       match=rf"\(exponential alpha=1.0, {filt}, seed 3, "
                             rf"trial 0\): .*bin \d+"):
        mc_buckets(labelled, 5)
    labelled = dataclasses.replace(scn, corr=dataclasses.replace(
        scn.corr, model="bessel", param=0.0, mu=0.25))
    with pytest.raises(np.linalg.LinAlgError,
                       match=rf"\(bessel eta=0.0 mu=0.25, {filt}, seed 3, "
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
        _assert_buckets_match([s[t] for s in stacks], decompose(scn, ch))


def _bin_grams(link, Hhat, N):
    """Every bin's Gram matrix V_nu^H V_nu of one draw, shape (N, K, K):
    the synthesis bins on the downlink, the analysis bins on the uplink."""
    L = Hhat.shape[0]
    E = np.exp(2j * np.pi * np.outer(np.arange(N), np.arange(L)) / N)
    V = np.tensordot(E if link == "downlink" else np.conj(E), Hhat, 1)
    return np.conj(V).transpose(0, 2, 1) @ V


@pytest.mark.parametrize("N", [20, 5])
@pytest.mark.parametrize("link,filt", [("downlink", "zfp"),
                                       ("uplink", "zfe")])
def test_lag_sum_grams_and_low_taps_match_the_bins(monkeypatch, link, filt,
                                                   N):
    """The zero-forcing bin transform at paper size (M = 64, K = 10,
    L = 4, N = 20) and at N = L + 1, where the taps Ghat[m] of G^-1,
    m < 2 L - 2, wrap mod N: each bin's Gram matrix from the lag sums of
    the tap products equals the direct V_nu^H V_nu (uplink: its
    transpose) to 1e-12 of its largest entry, and the low taps equal
    c[d] = sum_nu P_nu,d G_nu^-1, with every P_nu,d built from the bins,
    to 1e-12 of the largest tap."""
    L = 4
    scn = scenario(link=link, filt=filt, M=64, K=10, L=L, N=N, T=N + L - 1,
                   T_c=N, alpha=0.7)
    chans = [draw_channel(scn.dims, scn.pdp, scn.corr, trial_rng(51, t))
             for t in range(3)]
    grams, taps = [], []
    inverse, fold = analysis._gram_inverse, analysis.DrawFactors._fold_buckets
    monkeypatch.setattr(analysis, "_gram_inverse",
                        lambda G: grams.append(G) or inverse(G))
    monkeypatch.setattr(analysis.DrawFactors, "_fold_buckets",
                        lambda self, chat, c, *rest:
                        taps.append(c) or fold(self, chat, c, *rest))
    factors = analysis.DrawFactors(scn, len(chans))
    factors.fill(0, np.stack([ch.Hhat for ch in chans]))
    [G], [c] = grams, taps
    E = np.exp(2j * np.pi * np.outer(np.arange(N), np.arange(L)) / N)
    for i, ch in enumerate(chans):
        want = _bin_grams(link, ch.Hhat, N)
        if link == "downlink":
            # Hhat_l^H B_nu, shape (N, L, K, K)
            Z = np.conj(ch.Hhat).transpose(0, 2, 1) @ np.tensordot(
                E, ch.Hhat, 1)[:, None]
        else:
            want = want.transpose(0, 2, 1)
            # (Hhat_nu^H Hhat_l)^T
            Z = (np.conj(np.tensordot(np.conj(E), ch.Hhat, 1)).transpose(
                0, 2, 1)[:, None] @ ch.Hhat).transpose(0, 1, 3, 2)
        assert_allclose(G[i], want, rtol=0,
                        atol=1e-12 * np.abs(want).max())
        ref = np.array([
            (sum(E[:, d, None, None] * np.conj(E[:, l, None, None]) / N
                 * Z[:, l] for l in range(d + 1))
             @ np.linalg.inv(want)).sum(axis=0) for d in range(L - 1)])
        assert_allclose(c[i], ref, rtol=0, atol=1e-12 * np.abs(ref).max())
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
                       match=rf"\(exponential alpha=0.7, {filt}, seed 51, "
                             rf"trial {t}\): Gram matrix "
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
                       match=rf"\(exponential alpha=0.7, {filt}, seed 51, "
                             rf"trial 0\): Gram matrix "
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
                       match=rf"\(exponential alpha=0.7, {filt}, seed 51, "
                             rf"trial 1\): Gram matrix "
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


@pytest.mark.parametrize("entry", [
    mc_buckets, factor_draws,
    lambda scn, trials: mc_buckets_group([(scn, [("zfp", 0.0)], None)],
                                         trials)])
def test_bucket_core_entries_reject_bad_draw_counts(entry):
    """Every bucket-core entry names a draw count that is not an integer
    >= 1, with sum_rate_mc's messages, before any draw."""
    scn = scenario(filt="zfp")
    for trials in (0, -1):
        with pytest.raises(ValueError, match=r"^trials must be >= 1$"):
            entry(scn, trials)
    for trials in (2.5, True):
        with pytest.raises(TypeError, match=r"^trials must be an integer"):
            entry(scn, trials)


@pytest.mark.parametrize("n", [-1, 2])
def test_read_of_more_slots_than_factored_raises(n):
    scn = scenario(filt="zfp")
    factors = factor_draws(scn, 1)
    with pytest.raises(IndexError, match=rf"{n} slots requested of the 1 "):
        factors.buckets("zfp", 0.0, n)


def test_zero_energy_ridge_draw_names_filter_seed_and_trial():
    """A downlink draw whose taps are all zero has a zero Gram matrix at
    every bin, so its ridge precoder has no energy to normalize at any
    beta > 0: the read names the filter, the seed and the draw's trial."""
    scn = scenario(filt="rzfp", seed=7)
    factors = analysis.DrawFactors(scn, 2, first=4)
    Hhat = draw_channel(scn.dims, scn.pdp, scn.corr, trial_rng(7, 4)).Hhat
    factors.fill(0, np.stack([Hhat, np.zeros_like(Hhat)]))
    with pytest.raises(ValueError, match=r"zero-energy filter bank "
                                         r"\(exponential alpha=0.0, rzfp, "
                                         r"seed 7, trial 5\)"):
        factors.buckets("rzfp", 0.1)


@pytest.mark.parametrize("link,ridge,other", [
    ("downlink", "rzfp", "cmfp"), ("downlink", "rzfp", "zfp"),
    ("uplink", "mmsee", "cmfe"), ("uplink", "mmsee", "zfe")])
def test_mc_buckets_group_rejects_factors_not_serving_a_filter(
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
    silent = ChannelRealization(H=ch.H, Hhat=Hhat, dims=ch.dims)
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
            decompose(scn, ch)
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
        x = apply_bank(zfp_bank(ch), s)
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
    scn = scenario(filt="cmfp", alpha=0.7, rho_db=2.5)
    res = sum_rate_mc(scn, 5)
    assert res.meta["link"] == "downlink"
    assert res.meta["filter"] == "cmfp"
    assert res.meta["corr_param"] == 0.7
    assert res.meta["rho_f_db"] == 2.5
    assert res.meta["trials"] == 5
    assert res.meta["seed"] == 51


def test_library_meta_names_the_correlation():
    """A library Scenario's meta names its correlation from the matrix
    alone: the model and parameters its constructor was given, and none
    for a matrix built by hand."""
    dims = SimulationDims(M=8, K=2, L=2, N=4, T=16, T_c=4, rho_f_db=0.0,
                          seed=51)
    for corr, want in [
            (exponential_correlation(ula(8), 0.7), ("exponential", 0.7, None)),
            (identity_correlation(8), ("exponential", 0.0, None)),
            (bessel_correlation(ula(8), 20.0, 0.5), ("bessel", 20.0, 0.5)),
            (CorrelationMatrix(A=np.eye(8), sqrt_A=np.eye(8)),
             ("", None, None))]:
        scn = Scenario(link="downlink", filt="cmfp", dims=dims, corr=corr,
                       pdp=exponential_pdp(2, 2))
        meta = sum_rate_mc(scn, 3).meta
        assert (meta["corr_model"], meta["corr_param"], meta["mu"]) == want


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
