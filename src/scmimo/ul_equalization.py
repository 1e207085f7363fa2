"""Uplink receive processing: CP framing and the CMFE/ZFE/MMSEE equalizers.

Users prepend a T_c-sample cyclic prefix (T_c > L) to each T-symbol
block; after the base station discards the first T_c received samples,
the tap channel acts exactly circularly:

    r[i] = sum_l Hhat_l x[(i-l) mod T] + n[i].

The matched-filter equalizer (CMFE) mirrors CMFP on the taps. The
zero-forcing family works per bin on G_nu = Hhat_nu^H (the conjugate
transpose of the channel's analysis DFT — on the uplink the channel is
applied unconjugated, so no bin reindexing is needed):

    ZFE  : Q_nu = (G_nu G_nu^H)^{-1} G_nu
    MMSEE: Q_nu = (G_nu G_nu^H + beta I_K)^{-1} G_nu

giving Q_nu Hhat_nu = I_K exactly for ZFE. Equalizer banks are left
unnormalized (a = 1): receive filters spend no transmit power and the
post-equalization SINR is scale-invariant.
"""

from dataclasses import dataclass

import numpy as np

from .channel import taps_to_freq
from .dl_precoding import FrequencyFilterBank, ridge_inverse


@dataclass(frozen=True)
class UplinkFrame:
    """A T-symbol payload block and its CP-extended (T + T_c)-sample form."""

    payload: np.ndarray
    with_cp: np.ndarray
    T_c: int


def make_uplink_frame(payload, T_c):
    """Prepend the payload's last T_c columns: with_cp[:, t] = payload[:, (t - T_c) mod T]."""
    payload = np.asarray(payload)
    T = payload.shape[1]
    if not 0 < T_c <= T:
        raise ValueError(f"need 0 < T_c <= T, got T_c={T_c}, T={T}")
    return UplinkFrame(payload=payload,
                       with_cp=np.concatenate(
                           [payload[:, T - T_c:], payload], axis=1),
                       T_c=T_c)


def uplink_receive(ch, frame, noise):
    """Receive over the tap channel and strip the cyclic prefix.

    Linear convolution over the CP-extended frame, then the first T_c
    samples are discarded; with T_c > L the surviving block satisfies
    r[i] = sum_l Hhat_l x[(i-l) mod T] + n[i] exactly (the CP turns the
    linear channel into a circular one).
    """
    if frame.T_c <= ch.dims.L:
        raise ValueError(
            f"cyclic prefix must exceed the channel memory: "
            f"T_c={frame.T_c}, L={ch.dims.L}")
    x = frame.with_cp
    T = frame.payload.shape[1]
    M = ch.dims.M
    if noise.shape != (M, T):
        raise ValueError(f"noise block shaped {noise.shape}, "
                         f"expected ({M}, {T})")
    r_full = np.zeros((M, x.shape[1]), dtype=complex)
    for l in range(ch.dims.L):
        r_full[:, l:] += ch.Hhat[l] @ x[:, :x.shape[1] - l]
    return r_full[:, frame.T_c:frame.T_c + T] + noise


def cmfe_apply(ch, r):
    """Matched-filter equalization y[i] = sqrt(1/(MK)) sum_l Hhat_l^H r[(i+l) mod T]."""
    M, K, L = ch.dims.M, ch.dims.K, ch.dims.L
    if r.shape[0] != M:
        raise ValueError(f"received block has {r.shape[0]} rows, expected M={M}")
    y = np.zeros((K, r.shape[1]), dtype=complex)
    for l in range(L):
        y += np.conj(ch.Hhat[l].T) @ np.roll(r, -l, axis=1)
    return y / np.sqrt(M * K)


def _ridge_bank_ul(ch, beta, where=None):
    Hnu = taps_to_freq(ch.Hhat, ch.dims.N)              # (N, M, K)
    return FrequencyFilterBank.from_freq(
        ridge_inverse(Hnu, beta, where)
        @ np.conj(np.swapaxes(Hnu, -1, -2)))


def zfe_bank(ch):
    """Zero-forcing equalizer bank, Q_nu = (G_nu G_nu^H)^{-1} G_nu.

    Per-bin Q_nu Hhat_nu = I_K; under CP framing the measured ISI and MUI
    vanish when the block grid aligns with the design bins. Raises, naming
    the filter, the seed and the bin, on a rank-deficient Gram matrix.
    """
    return _ridge_bank_ul(ch, 0.0, where=f" (zfe, seed {ch.dims.seed})")


def mmsee_bank(ch, beta):
    """Ridge-regularized equalizer bank, Q_nu = (G_nu G_nu^H + beta I)^{-1} G_nu."""
    return _ridge_bank_ul(ch, beta)
