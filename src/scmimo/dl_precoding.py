"""Downlink transmit processing: CMFP, ZFP, and RZFP precoders.

The matched-filter precoder (CMFP) works directly on the channel taps:
x[i] = sqrt(1/(MK)) sum_l Hhat_l s[i+l]. The zero-forcing family works
per frequency bin on an N-point filter bank. Because the downlink channel
is applied conjugated (y[i] = sum_l Hhat_l^H x[i-l]), the bin that pairs
with filter W_nu is the *synthesis* response

    B_nu = sum_l exp(+2j pi nu l / N) Hhat_l,

not the analysis DFT; designing against B_nu makes the realized cascade
B_nu^H W_nu = a I_K hold exactly at every bin:

    ZFP : W_nu = a B_nu (B_nu^H B_nu)^{-1}
    RZFP: W_nu = a B_nu (B_nu^H B_nu + beta I_K)^{-1}

a is the power normalization making the block-averaged E||x[i]||^2 equal
rho_f for unit-variance-times-rho_f symbols.

All downlink block processing is circular (indices mod T), as the
paper's block rates assume.
"""

from dataclasses import dataclass

import numpy as np

RCOND_MIN = 1e-12


@dataclass
class FrequencyFilterBank:
    """N per-bin filter matrices with their time-domain taps.

    freq[nu] holds the bin design (M x K precoder or K x M equalizer);
    time[m] = (1/N) sum_nu exp(+2j pi nu m / N) freq[nu] is the inverse
    DFT across bins. norm is the scalar applied at application time
    (power normalization a for precoders, 1 for equalizers).
    """

    freq: np.ndarray
    time: np.ndarray
    norm: float = 1.0

    @classmethod
    def from_freq(cls, freq):
        return cls(freq=np.asarray(freq), time=np.fft.ifft(freq, axis=0))


def synthesis_bins(taps, N):
    """Conjugate-kernel N-point transform, out[nu] = sum_l e^{+2j pi nu l/N} taps[l].

    This is the bin response the downlink cascade actually pairs with the
    precoder (equal to the analysis DFT evaluated at -nu mod N).
    """
    taps = np.asarray(taps)
    if N <= taps.shape[0]:
        raise ValueError(f"need N > L, got N={N}, L={taps.shape[0]}")
    return np.fft.ifft(taps, n=N, axis=0) * N


def _apply_bank(bank, block):
    """Cyclic bank application: out[i] = norm * sum_m time[m] @ block[(i-m) % T]."""
    T = block.shape[1]
    N = bank.time.shape[0]
    if T < N:
        raise ValueError(f"block length T={T} shorter than bank length N={N}")
    out = np.zeros((bank.time.shape[1], T), dtype=complex)
    for m in range(N):
        out += bank.time[m] @ np.roll(block, m, axis=1)
    return bank.norm * out


def gram_rcond(gram):
    """Reciprocal condition lambda_min / lambda_max of each Hermitian
    matrix of a stack (..., K, K), from its eigenvalues (eigvalsh)."""
    eigs = np.linalg.eigvalsh(gram)
    with np.errstate(divide="ignore", invalid="ignore"):
        return eigs[..., 0] / eigs[..., -1]


def check_gram_conditioning(rcond, where):
    """Raise LinAlgError naming the worst bin when a bin Gram matrix is
    rank-deficient, i.e. its reciprocal condition is below RCOND_MIN.

    rcond holds each bin's reciprocal condition, shape (N,), as
    gram_rcond gives it; `where` is appended to the draw's description
    in the message.
    """
    bad = int(np.argmin(rcond))
    if not rcond[bad] >= RCOND_MIN:
        raise np.linalg.LinAlgError(
            f"rank-deficient channel draw{where}: Gram matrix at bin {bad} "
            f"has reciprocal condition {rcond[bad]:.3e} < {RCOND_MIN:g}")


def ridge_beta(beta):
    """beta as a float, once checked to be finite and >= 0."""
    if not (np.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    return float(beta)


def ridge_inverse(V, beta, where=None):
    """Per-bin ridge inverse (V_nu^H V_nu + beta I)^{-1} of an (N, M, K)
    bin stack; ValueError unless `ridge_beta` accepts beta. When `where`
    is given, the rank check runs first and its error names the draw by
    it.

    The precoders design on V = B (W_nu = B_nu R_nu), the equalizers on
    V = Hhat_nu (Q_nu = R_nu Hhat_nu^H).
    """
    gram = np.conj(np.swapaxes(V, -1, -2)) @ V      # (N, K, K)
    if where is not None:
        check_gram_conditioning(gram_rcond(gram), where)
    return np.linalg.inv(gram + ridge_beta(beta) * np.eye(gram.shape[-1]))


def _ridge_bank(ch, beta, where=None):
    B = synthesis_bins(ch.Hhat, ch.dims.N)          # (N, M, K)
    bank = FrequencyFilterBank.from_freq(B @ ridge_inverse(B, beta, where))
    bank.norm = normalize_bank(bank)
    return bank


def zfp_bank(ch):
    """Zero-forcing precoder bank, W_nu = a B_nu (B_nu^H B_nu)^{-1}.

    Raises, naming the filter, the seed and the offending bin, when a
    bin's Gram matrix has reciprocal condition below RCOND_MIN.
    """
    return _ridge_bank(ch, 0.0, where=f" (zfp, seed {ch.dims.seed})")


def rzfp_bank(ch, beta):
    """Regularized zero-forcing bank, W_nu = a B_nu (B_nu^H B_nu + beta I)^{-1}.

    beta = 0 recovers the ZFP directions; large beta tilts every bin
    toward the matched-filter direction B_nu.
    """
    return _ridge_bank(ch, beta)


def normalize_bank(bank):
    """Power normalization a with a^2 = N / sum_nu ||freq[nu]||_F^2.

    Derivation: for i.i.d. symbols of variance rho_f, the block-averaged
    transmit power is E||x[i]||^2 = a^2 rho_f sum_m ||time[m]||_F^2, and
    Parseval gives sum_m ||time[m]||^2 = (1/N) sum_nu ||freq[nu]||^2.
    Setting E||x||^2 = rho_f, the target power cancels, so a does not
    depend on it.
    """
    energy = np.sum(np.abs(bank.freq) ** 2)
    if energy == 0:
        raise ValueError("cannot normalize a zero-energy filter bank")
    return float(np.sqrt(bank.freq.shape[0] / energy))


def precoded_transmit(bank, symbols):
    """Cyclic precoding x[i] = a sum_m W_m s[(i-m) mod T]; needs T >= N."""
    return _apply_bank(bank, symbols)


def cmfp_transmit(ch, symbols):
    """Matched-filter transmit x[i] = sqrt(1/(MK)) sum_l Hhat_l s[(i+l) mod T].

    Symbols must already be drawn at per-symbol variance rho_f; the
    explicit 1/sqrt(MK) then yields E||x[i]||^2 = rho_f for any
    correlation matrix with unit diagonal.
    """
    M, K, L = ch.dims.M, ch.dims.K, ch.dims.L
    if symbols.shape[0] != K:
        raise ValueError(f"symbol block has {symbols.shape[0]} rows, "
                         f"expected K={K}")
    x = np.zeros((M, symbols.shape[1]), dtype=complex)
    for l in range(L):
        x += ch.Hhat[l] @ np.roll(symbols, -l, axis=1)
    return x / np.sqrt(M * K)


def downlink_receive(ch, x, noise):
    """User-side reception y[i] = sum_l Hhat_l^H x[(i-l) mod T] + n[i],
    circular over the T-symbol block."""
    K, T = ch.dims.K, x.shape[1]
    if noise.shape != (K, T):
        raise ValueError(f"noise block shaped {noise.shape}, "
                         f"expected ({K}, {T})")
    y = np.zeros((K, T), dtype=complex)
    for l in range(ch.dims.L):
        y += np.conj(ch.Hhat[l].T) @ np.roll(x, l, axis=1)
    return y + noise
