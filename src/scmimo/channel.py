"""Multipath channel generation: power delay profiles, fast fading, CSI.

A user-k channel is an L-tap FIR filter whose tap l is an M-vector
sqrt(d_l[k]) * A^{1/2} h, with h i.i.d. CN(0,1) fast fading, d the power
delay profile (rows summing to one), and A the base-station correlation
matrix. The composite CSI taps Hhat_l = A^{1/2} H_l D_l^{1/2} are what
every precoder/equalizer consumes; a bank builder that works per bin
takes their N-point DFT across the tap index itself (taps_to_freq).
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 12345


@dataclass(frozen=True)
class SimulationDims:
    """Static scenario dimensions.

    M antennas, K users, L channel taps, N filter-bank bins (N > L),
    T-symbol blocks (T >= N), cyclic prefix L < T_c <= T, a finite power
    rho_f_db, and an integer seed in [0, 2**64), the key range of the
    per-trial Philox streams.
    """

    M: int
    K: int
    L: int
    N: int
    T: int
    T_c: int
    rho_f_db: float = 0.0
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.N <= self.L:
            raise ValueError(f"need N > L, got N={self.N}, L={self.L}")
        if self.T < self.N:
            raise ValueError(f"need T >= N (a block must hold the "
                             f"N-tap filter bank), got T={self.T}, "
                             f"N={self.N}")
        if self.T_c <= self.L:
            raise ValueError(f"need T_c > L, got T_c={self.T_c}, L={self.L}")
        if self.T_c > self.T:
            raise ValueError(f"need T_c <= T (the cyclic prefix copies "
                             f"the block's tail), got T_c={self.T_c}, "
                             f"T={self.T}")
        if self.K > self.M:
            raise ValueError(f"need K <= M, got K={self.K}, M={self.M}")
        if not math.isfinite(self.rho_f_db):
            raise ValueError(f"need a finite rho_f_db, got "
                             f"rho_f_db={self.rho_f_db}")
        try:
            operator.index(self.seed)
        except TypeError:
            raise TypeError(f"seed must be an integer, got "
                            f"seed={self.seed!r}") from None
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must lie in [0, 2**64), got "
                             f"seed={self.seed}")

    @property
    def rho_f(self):
        """Linear long-term average power (per-symbol variance)."""
        return 10.0 ** (self.rho_f_db / 10.0)


@dataclass(frozen=True)
class PowerDelayProfile:
    """Per-user tap powers d[k, l], each row normalized to sum to 1."""

    d: np.ndarray

    def __post_init__(self):
        if np.any(self.d < 0):
            raise ValueError("PDP entries must be nonnegative")
        rowsums = self.d.sum(axis=1)
        if not np.allclose(rowsums, 1.0, rtol=0, atol=1e-12):
            raise ValueError("PDP rows must sum to 1 within 1e-12")

    @property
    def K(self):
        return self.d.shape[0]

    @property
    def L(self):
        return self.d.shape[1]


def exponential_pdp(K, L):
    """Exponential power delay profile d_l = e^{-theta l} / sum_i e^{-theta i}.

    The decay constant is theta = (K - 1) / 5, identical for all users;
    K = 1 degenerates to a uniform profile.
    """
    if K < 1 or L < 1:
        raise ValueError("K and L must be >= 1")
    theta = (K - 1) / 5.0
    w = np.exp(-theta * np.arange(L))
    row = w / w.sum()
    return PowerDelayProfile(d=np.tile(row, (K, 1)))


@dataclass(frozen=True)
class ChannelRealization:
    """One channel draw: raw fading H and composite CSI Hhat.

    Both are (L, M, K) tap stacks. The generating PDP and dimensions ride
    along since every downstream stage needs them.
    """

    H: np.ndarray
    Hhat: np.ndarray
    pdp: PowerDelayProfile = field(repr=False)
    dims: SimulationDims = field(repr=False)


def _philox_key(seed, trial):
    """The (seed, trial) Philox key as uint64, so that seeds of 2**63 and
    above keep every bit (a plain tuple would pass through float64);
    operator.index rejects a non-integral seed or trial, which a uint64
    cast would truncate."""
    return np.array([operator.index(seed), operator.index(trial)],
                    dtype=np.uint64)


def trial_rng(seed, trial):
    """Counter-based per-trial stream: independent, reproducible, and
    insensitive to execution order across parallel workers. rekey turns
    any generator made here into another trial's stream at less cost.
    """
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, trial)))


def rekey(rng, seed, trial):
    """Reset the Philox generator `rng` (from trial_rng) in place to the
    start of trial_rng(seed, trial)'s stream, and return it.

    The key, the zeroed counter, the emptied output buffer and the cleared
    half-used 32-bit word are the whole state of a fresh Philox, so every
    draw after rekey equals the fresh generator's bit for bit, whatever
    `rng` produced before. It skips the OS-entropy seed sequence that
    building a Philox spends before its explicit key replaces it.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": _philox_key(seed, trial)},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return rng


def draw_fading(dims, rng_stream):
    """The (L, M, K) fast fading H of one draw from the given generator.

    H_l[m, k] is i.i.d. CN(0, 1) (real/imag parts independent N(0, 1/2)):
    the stream's first L*M*K normals are Re H, the next L*M*K Im H, each
    scaled by 1/sqrt(2). H depends only on (L, M, K) and the stream, never
    on the correlation or the PDP, so a sweep draws trial t's fading once
    and forms every correlation parameter's composite taps from it.
    """
    z = rng_stream.standard_normal((2, dims.L, dims.M, dims.K))
    H = np.empty(z.shape[1:], dtype=complex)
    # times 1/sqrt(2): the same rounding as the quotient (a + 1j b) / sqrt(2)
    np.multiply(z[0], 1 / np.sqrt(2), out=H.real)
    np.multiply(z[1], 1 / np.sqrt(2), out=H.imag)
    return H


def composite_taps(H, pdp, corr):
    """The composite taps Hhat_l = sqrt_A @ H_l @ D_l^{1/2} of fading H,
    shape (..., L, M, K): one draw or a stack of them, each draw's taps
    the same bits either way.

    A real sqrt_A multiplies the real and imaginary parts of H in one real
    product per tap, with half the flops of the complex one and no complex
    copy of sqrt_A; that moves Hhat by rounding only. A complex sqrt_A
    keeps the complex product.
    """
    L, M, K = H.shape[-3:]
    if pdp.K != K or pdp.L != L:
        raise ValueError(f"PDP shaped {pdp.d.shape}, expected ({K}, {L})")
    if corr.A.shape[0] != M:
        raise ValueError(f"correlation matrix is {corr.A.shape[0]}x..., "
                         f"expected {M}")
    # (L, 1, K) broadcast of sqrt(d_l[k]) over antennas
    amp = np.sqrt(pdp.d.T)[:, None, :]
    if np.isrealobj(corr.sqrt_A):
        # (..., L, M, 2K) float view, real and imaginary parts interleaved
        return (corr.sqrt_A @ H.view(np.float64)).view(complex) * amp
    return (corr.sqrt_A @ H) * amp


def draw_channel(dims, pdp, corr, rng_stream):
    """Draw one ChannelRealization from the given generator: its fading
    (draw_fading), then its composite taps (composite_taps). Same-seed
    runs under different correlations or geometries share their fading.
    """
    H = draw_fading(dims, rng_stream)
    return ChannelRealization(H=H, Hhat=composite_taps(H, pdp, corr),
                              pdp=pdp, dims=dims)


def taps_to_freq(taps, N):
    """N-point DFT across the tap index: out[nu] = sum_l e^{-2j pi nu l/N} taps[l].

    Zero-pads L taps up to N (requires N > L); the inverse N-point DFT
    recovers the zero-padded taps exactly.
    """
    taps = np.asarray(taps)
    if N <= taps.shape[0]:
        raise ValueError(f"need N > L, got N={N}, L={taps.shape[0]}")
    return np.fft.fft(taps, n=N, axis=0)
