"""Signal decomposition, Monte Carlo sum rates, and closed-form references.

The received-signal power at user k splits into five buckets:

* desired — the reference-gain path (matched-filter precoding uses the
  analytic mean gain sqrt(M/K); the zero-forcing family uses the
  Monte Carlo mean; uplink equalizers use the realized gain),
* IF — wander of the realized same-symbol gain around the reference
  (identically zero on the uplink, where the receiver knows the draw),
* ISI — same-user energy at nonzero delays,
* MUI — cross-user energy at all delays,
* AWGN — the noise-only path.

`decompose` measures the buckets by driving isolated unit probes through
the actual transmit/receive operations — one reference implementation
that serves all six filters. `sum_rate_mc` evaluates the same quantities
in the tap domain and averages over draws. Every draw comes from one
loop (`_fading_chunks`): CHUNK draws' fading at a time, then one
`composite_taps` call per chunk and correlation, so a group of
correlations shares each draw's fading (`mc_buckets_group`). Each draw is
factored once (`DrawFactors`) from its tap products Hhat_l^H Hhat_l', for
every filter of its link at once. A matched filter's cascade taps are
those products placed at their delays mod T (`_tap_placement`), and its
gains and interference energies are c[0] and the summed squared taps. A
bank filter never places its N + L - 1 cascade taps: the cascade folded
mod N has bin nu equal to the identity for zero forcing, and to
U diag(lambda / (lambda + beta)) U^H, from a Gram eigendecomposition per
bin, for a ridge filter, so Parseval gives its power from the N bins, and
only the L - 1 low delays where the linear cascade aliases mod N, and the
block of T folds it back, need explicit taps: from the bin Gram inverses
for zero forcing, from the eigenpairs at each beta for a ridge filter.
Both match the probes to rounding; a beta search re-evaluates the cached
factors instead of rebuilding banks, and zero forcing needs no
eigendecomposition.

Rates are (1/2) log2(1 + SINR) per user, in bits per channel use.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .channel import composite_taps, draw_fading, rekey, trial_rng
from .channel import draw_channel  # noqa: F401 (perfbench traces this name)
from . import dl_precoding
from .dl_precoding import (check_gram_conditioning, cmfp_transmit,
                           downlink_receive, gram_rcond, precoded_transmit,
                           ridge_beta, rzfp_bank, zfp_bank)
from .ul_equalization import (apply_equalizer_bank, cmfe_apply,
                              make_uplink_frame, mmsee_bank, uplink_receive,
                              zfe_bank)

DL_FILTERS = ("cmfp", "zfp", "rzfp")
UL_FILTERS = ("cmfe", "zfe", "mmsee")
JACKKNIFE_BLOCKS = 10   # contiguous draw blocks of the rate's stderr


@dataclass
class NoiseBreakdown:
    """Per-user power buckets and their across-user means.

    gains holds the realized complex same-symbol gain per user (the
    diagonal of the delay-zero cascade tap).
    """

    desired_k: np.ndarray
    if_k: np.ndarray
    isi_k: np.ndarray
    mui_k: np.ndarray
    awgn_k: np.ndarray
    gains: np.ndarray

    @property
    def desired(self):
        return float(self.desired_k.mean())

    @property
    def if_power(self):
        return float(self.if_k.mean())

    @property
    def isi(self):
        return float(self.isi_k.mean())

    @property
    def mui(self):
        return float(self.mui_k.mean())

    @property
    def awgn(self):
        return float(self.awgn_k.mean())

    def sinr(self):
        return self.desired_k / (self.if_k + self.isi_k + self.mui_k
                                 + self.awgn_k)


def rate_from_breakdown(breakdown):
    """Sum rate sum_k (1/2) log2(1 + SINR_k) from a breakdown's buckets."""
    per_user = 0.5 * np.log2(1.0 + breakdown.sinr())
    return float(per_user.sum()), per_user


@dataclass
class SumRateResult:
    rate_bpcu: float
    per_user_rates: np.ndarray
    breakdown: NoiseBreakdown
    meta: dict = field(default_factory=dict)
    stderr: float = float("nan")


@dataclass(frozen=True)
class Scenario:
    """Everything sum_rate_mc needs for one operating point."""

    link: str
    filt: str
    dims: object
    corr: object
    pdp: object
    beta: float = 0.0
    corr_model: str = ""
    corr_param: float = None
    mu: float = None

    def __post_init__(self):
        _check_combo(self.link, self.filt)


@dataclass(frozen=True)
class SignalBlocks:
    """Stimulus for decompose: block length, symbol power, noise block.

    The probes themselves are generated internally (unit impulses), so the
    external inputs reduce to the block length T, the per-symbol variance
    rho_f, and the noise block (None means noiseless — the AWGN bucket
    then comes out exactly zero).
    """

    rho_f: float
    T: int
    noise: np.ndarray = None


def _check_combo(link, filt):
    if link == "downlink":
        if filt not in DL_FILTERS:
            raise ValueError(f"unknown downlink filter {filt!r} "
                             f"(expected one of {DL_FILTERS})")
    elif link == "uplink":
        if filt not in UL_FILTERS:
            raise ValueError(f"unknown uplink filter {filt!r} "
                             f"(expected one of {UL_FILTERS})")
    else:
        raise ValueError(f"unknown link {link!r}")


def _make_pipeline(link, filt, ch, beta):
    """Return run(symbols, noise) -> output block, through the real ops."""
    _check_combo(link, filt)
    if link == "downlink":
        if filt == "cmfp":
            tx = lambda s: cmfp_transmit(ch, s)
        else:
            bank = zfp_bank(ch) if filt == "zfp" else rzfp_bank(ch, beta)
            tx = lambda s: precoded_transmit(bank, s)
        return lambda s, n: downlink_receive(ch, tx(s), n)
    if filt == "cmfe":
        eq = lambda r: cmfe_apply(ch, r)
    else:
        bank = zfe_bank(ch) if filt == "zfe" else mmsee_bank(ch, beta)
        eq = lambda r: apply_equalizer_bank(bank, r)

    def run(s, n):
        frame = make_uplink_frame(s, ch.dims.T_c)
        return eq(uplink_receive(ch, frame, n))
    return run


def _cmfp_reference_gains(dims, pdp):
    """Analytic CMFP mean same-symbol gain per user, sqrt(M/K) sum_l d_l[k]."""
    return np.sqrt(dims.M / dims.K) * pdp.d.sum(axis=1)


def decompose(link, filt, ch, blocks, beta=0.0):
    """Probe-based power decomposition through the actual signal path.

    Sends one unit impulse per user (zero noise) at symbol 0 to measure
    the full circular cascade tap response, then a noise-only block for
    the AWGN bucket. The reference gain is the analytic mean gain for
    downlink CMFP and the realized per-draw gain for every other filter
    (which makes their IF bucket exactly zero).
    """
    dims = ch.dims
    K, T = dims.K, blocks.T
    rho = blocks.rho_f
    run = _make_pipeline(link, filt, ch, beta)

    C = np.zeros((T, K, K), dtype=complex)
    zero_noise = np.zeros((K if link == "downlink" else dims.M, T))
    for q in range(K):
        s = np.zeros((K, T), dtype=complex)
        s[q, 0] = 1.0
        C[:, :, q] = run(s, zero_noise).T

    g = np.diagonal(C[0]).copy()
    gbar = _cmfp_reference_gains(dims, ch.pdp) \
        if link == "downlink" and filt == "cmfp" else g

    tot = (np.abs(C) ** 2).sum(axis=0)          # (K, K) over all delays
    isi_k = rho * (np.diagonal(tot) - np.abs(g) ** 2)
    mui_k = rho * (tot.sum(axis=1) - np.diagonal(tot))
    desired_k = rho * np.abs(gbar) ** 2
    if_k = rho * np.abs(g - gbar) ** 2

    if blocks.noise is None:
        awgn_k = np.zeros(K)
    else:
        y_n = run(np.zeros((K, T), dtype=complex), blocks.noise)
        awgn_k = (np.abs(y_n) ** 2).mean(axis=1)

    return NoiseBreakdown(desired_k=desired_k, if_k=if_k,
                          isi_k=np.maximum(isi_k, 0.0),
                          mui_k=np.maximum(mui_k, 0.0),
                          awgn_k=awgn_k, gains=g)


# ---------------------------------------------------------------------------
# tap-domain bucket core

CHUNK = 8       # draws factored or evaluated together; bounds the working set
MATCHED = ("cmfp", "cmfe")
ZERO_FORCING = ("zfp", "zfe")


def _stacks(n, K):
    """Empty (g, isi_u, mui_u, awgn) stacks for n draws."""
    return (np.empty((n, K), dtype=complex), np.empty((n, K)),
            np.empty((n, K)), np.empty((n, K)))


@functools.lru_cache(maxsize=None)
def _tap_placement(shifts, T):
    """The 0/1 matrix A, shape (D, len(shifts)), that places channel terms
    at their delays mod T: c[d] = sum_j A[d, j] z[j], with term j at delay
    shifts[j] mod T. Rows are the D distinct delays in increasing order,
    so delay 0 comes first when some term has shift 0, as the matched
    cascade's l = l' terms do (read-only, complex)."""
    delay = np.array(shifts) % T
    A = (delay == np.unique(delay)[:, None]).astype(complex)
    A.flags.writeable = False
    return A


@functools.lru_cache(maxsize=None)
def _bin_kernel(N, L):
    """The (N, L) DFT kernel E[nu, l] = e^{+2j pi nu l / N} that takes L
    channel taps to N bins (read-only)."""
    E = np.exp(2j * np.pi * np.outer(np.arange(N), np.arange(L)) / N)
    E.flags.writeable = False
    return E


def _cascade_buckets(c):
    """(g, isi_u, mui_u) from circular cascade taps c of shape (n, D, K, K).

    c[:, j, k, q] carries user q's symbol to user k's output at the j-th of
    D delays that are distinct mod T, delay 0 first. By Parseval the
    T-grid power of the cascade is the sum of the squared taps.
    """
    g = np.diagonal(c[:, 0], axis1=-2, axis2=-1).copy()
    tot = (np.abs(c) ** 2).sum(axis=1)                      # (n, K, K)
    own = np.diagonal(tot, axis1=-2, axis2=-1)
    return g, np.maximum(own - np.abs(g) ** 2, 0.0), tot.sum(axis=-1) - own


class DrawFactors:
    """Channel draws of one link and correlation, factored once so that
    every configured filter's buckets, at any ridge parameter, are cheap.

    Slot i holds trial first + i of the scenario's seed (first=None when
    the trial is unknown; it only labels errors). `filters` names the
    filters of the scenario's link that the slots serve (default: the
    scenario's own); a slot keeps only what they need. Every bin product
    is an N-point transform of the tap products Hhat_l^H Hhat_l'; with
    V_nu the synthesis bins B_nu on the downlink (ZFP/RZFP) and the
    analysis bins Hhat_nu on the uplink (ZFE/MMSEE), G_nu = V_nu^H V_nu is
    the bin Gram matrix (uplink: its transpose), and P_nu,d =
    sum_{l <= d} (E[nu, d] / N) conj(E[nu, l]) Hhat_l^H B_nu (downlink) or
    (Hhat_nu^H Hhat_l)^T (uplink), with E[nu, l] = e^{2j pi nu l / N}.

    * A matched filter: its buckets, which have no parameter, from the
      cascade taps sum_{l - l' = d mod T} Hhat_l^H Hhat_l' / sqrt(MK)
      (uplink: l' - l), placed at their delays by `_tap_placement`.
    * A zero-forcing filter: its buckets, which have no parameter either,
      from one batched inverse G_nu^-1. Its cascade folded mod N is the
      identity at every bin, so only the L - 1 low taps of the linear
      cascade, c[d] = sum_nu P_nu,d G_nu^-1 (one (L - 1) K x N K product
      per draw), are needed for the aliases mod N (and mod T when
      T < N + L - 1); the downlink power normalization follows from
      sum_nu tr G_nu^-1 and the uplink AWGN bucket from
      (1/N) sum_nu diag G_nu^-1. `fill` rejects, by filter, seed, trial
      and bin, a draw whose bin has a reciprocal condition below
      RCOND_MIN: the bound 1 / (||G_nu||_F ||G_nu^-1||_F), or the exact
      lambda_min / lambda_max (eigvalsh) where that bound is below
      2 RCOND_MIN or the inverse failed, as the reference banks do.
    * A ridge filter: the eigenpairs G_nu = U Lambda U^H of every bin, as
      lam and Uh = U^H, and Y, shape ((L - 1) K, N K) per draw, whose
      rows (d, k) at columns (nu, j) hold P_nu,d U_nu. A ridge parameter
      beta then costs, per draw, one K x K product per bin for the folded
      cascade U diag(lambda / (lambda + beta)) U^H, whose power follows by
      Parseval, and one Y @ (diag(1 / (lambda + beta)) U^H, stacked over
      the bins) product for the L - 1 low taps, whose aliases correct
      that power and the gain as for zero forcing; the power
      normalization and the uplink AWGN bucket follow from Lambda. Only
      a ridge filter makes `fill` decompose the Gram matrices.

    Buckets do not depend on the power, so `buckets` evaluates the ridge
    filter at a new beta over all the slots and keeps its stacks, and
    every read, of all the slots or of a prefix, slices the kept ones. A
    sweep cell's beta search keeps at most 14 + 12 x (power points) of
    them (the grid, and no refinement of the eight figure configs takes
    more than 12), each beta.trials x K x 40 B, until its rows' stacks on
    those draws are read. Fill every slot first.
    """

    def __init__(self, scenario, n, first=None, filters=None):
        self.scenario, self.n, self.first = scenario, n, first
        self.filters = (scenario.filt,) if filters is None \
            else tuple(filters)
        for filt in self.filters:
            _check_combo(scenario.link, filt)
        dims = scenario.dims
        K, L, N = dims.K, dims.L, dims.N
        self.downlink = scenario.link == "downlink"
        # the parameterless filters' stacks, by filter, and the ridge
        # filter's kept ones, by beta
        self.stacks = {f: _stacks(n, K) for f in self.filters
                       if f in MATCHED + ZERO_FORCING}
        self.ridge = any(f not in MATCHED + ZERO_FORCING
                         for f in self.filters)
        if self.ridge:
            self.lam = np.empty((n, N, K))
            self.Uh = np.empty((n, N, K, K), dtype=complex)
            self.Y = np.empty((n, (L - 1) * K, N * K), dtype=complex)

    def _where(self, i, filt):
        scn = self.scenario
        corr = [scn.corr_model] if scn.corr_model else []
        if scn.corr_param is not None:
            name = "eta" if scn.corr_model == "bessel" else "alpha"
            corr.append(f"{name}={scn.corr_param:g}")
        if scn.mu is not None:
            corr.append(f"mu={scn.mu:g}")
        corr = f"{' '.join(corr)}, " if corr else ""
        trial = "" if self.first is None else f", trial {self.first + i}"
        return f" ({corr}{filt}, seed {scn.dims.seed}{trial})"

    def fill(self, lo, Hhat):
        """Factor the composite taps Hhat (n, L, M, K) of n channel draws
        into slots lo, lo + 1, ...: their tap products F once, then from F
        the matched buckets, the zero-forcing buckets and the ridge
        eigenpairs, each only if a filter served needs it."""
        dims = self.scenario.dims
        M, K, L, N = dims.M, dims.K, dims.L, dims.N
        n = Hhat.shape[0]
        hi = lo + n
        # F[:, l, :, l', :] = Hhat_l^H Hhat_l', every bin product below
        # is an N-point transform of it. One product per tap l keeps each
        # BLAS call under OpenBLAS's threading threshold: a threaded call
        # this small runs many times slower when processes share the CPUs.
        F = (np.conj(Hhat).transpose(0, 1, 3, 2)
             @ Hhat.transpose(0, 2, 1, 3).reshape(n, 1, M, L * K)
             ).reshape(n, L, K, L, K)
        matched, zf = (next((f for f in family if f in self.stacks), None)
                       for family in (MATCHED, ZERO_FORCING))
        if matched is not None:
            sign = 1 if self.downlink else -1
            A = _tap_placement(tuple(sign * (l - lp) for l in range(L)
                                     for lp in range(L)), dims.T)
            c = (A @ F.transpose(0, 1, 3, 2, 4).reshape(
                n, L * L, K * K)).reshape(n, -1, K, K) / np.sqrt(M * K)
            awgn = np.ones((n, K)) if self.downlink else np.real(
                np.einsum("nlklk->nk", F)) / (M * K)
            for dst, src in zip(self.stacks[matched],
                                (*_cascade_buckets(c), awgn)):
                dst[lo:hi] = src
        if zf is None and not self.ridge:
            return
        # P[:, nu, l] = Hhat_l^H B_nu / N with B_nu = sum_l' E[nu, l'] Hhat_l'
        # (downlink), or (Hhat_nu^H Hhat_l)^T / N with Hhat_nu = sum_l'
        # conj(E[nu, l']) Hhat_l' (uplink): one (N x L) @ (L x L K^2)
        # product per draw
        E = _bin_kernel(N, L)
        P = ((E / N) @ F.transpose((0, 3, 1, 2, 4) if self.downlink
                                   else (0, 1, 3, 4, 2)).reshape(n, L, -1)
             ).reshape(n, N, L, K * K)
        # in place, P[:, nu, d] <- sum_{l <= d} E[nu, d - l] P[:, nu, l] by
        # Horner's rule in E[nu, 1]: the last sum is the Gram matrix G_nu
        # (uplink: its transpose) times E[nu, L - 1] / N, and for d < L - 1
        # it is P_nu,d
        for d in range(1, L):
            P[:, :, d] += E[:, 1:2] * P[:, :, d - 1]
        G = (P[:, :, -1] * (N * np.conj(E[:, -1:]))).reshape(n, N, K, K)
        low = P[:, :, :-1].reshape(n, N, -1, K)             # rows (d, k)
        if zf is not None:
            Ginv, rcond = _gram_inverse(G)
            bad = np.flatnonzero(
                ~(rcond >= dl_precoding.RCOND_MIN).all(axis=1))
            if bad.size:
                check_gram_conditioning(rcond[bad[0]], where=self._where(
                    lo + int(bad[0]), zf))
            for dst, src in zip(self.stacks[zf],
                                self._zero_forcing_buckets(low, Ginv)):
                dst[lo:hi] = src
        if self.ridge:
            lam, U = np.linalg.eigh(G)
            self.lam[lo:hi] = lam
            self.Uh[lo:hi] = np.conj(np.swapaxes(U, -1, -2))
            np.matmul(low, U, out=self.Y[lo:hi].reshape(
                n, -1, N, K).transpose(0, 2, 1, 3))

    def buckets(self, filt, beta, n=None):
        """(g, isi_u, mui_u, awgn) stacks of slots 0 .. n - 1 (default:
        all) for any filter the slots serve, at ridge parameter beta
        (ignored by the matched and zero-forcing filters). A new beta is
        evaluated over every slot, CHUNK at a time, and kept once all of
        them succeed."""
        n = self.n if n is None else n
        if filt not in self.filters:
            raise ValueError(f"filter {filt!r} is not served by these "
                             f"factored draws (they serve "
                             f"{', '.join(self.filters)})")
        if not 0 <= n <= self.n:
            raise IndexError(f"{n} slots requested of the {self.n} "
                             f"factored draws")
        key = filt if filt in self.stacks else ridge_beta(beta)
        if key not in self.stacks:          # key is the ridge filter's beta
            out = _stacks(self.n, self.scenario.dims.K)
            for a in range(0, self.n, CHUNK):
                b = min(a + CHUNK, self.n)
                for dst, src in zip(out, self._ridge_buckets(key, a, b,
                                                             filt)):
                    dst[a:b] = src
            self.stacks[key] = out
        return tuple(s[:n] for s in self.stacks[key])

    def _zero_forcing_buckets(self, low, Ginv):
        """(g, isi_u, mui_u, awgn) of the zero-forcing filter from the bin
        inverses Ginv (n, N, K, K) and `low` (n, N, (L - 1) K, K), whose
        rows (d, k) at bin nu hold P_nu,d."""
        n, N, K = Ginv.shape[:3]
        # the linear cascade's taps c[d] = sum_nu P_nu,d G_nu^-1, d < L - 1:
        # one ((L - 1) K x N K) @ (N K x K) product per draw
        c = (low.transpose(0, 2, 1, 3).reshape(n, -1, N * K)
             @ Ginv.reshape(n, N * K, K)).reshape(n, -1, K, K)
        # every bin of the cascade folded mod N is zeta_nu = I, so
        # chat[d] = delta_d I and the folded power is I
        chat = np.zeros((n, max(c.shape[1], 1), K, K), dtype=complex)
        chat[:, 0] = np.eye(K)
        inv_diag = np.real(np.diagonal(Ginv, axis1=-2, axis2=-1))
        return self._fold_buckets(
            chat, c if c.shape[1] else None, np.ones((n, 1, K)),
            np.broadcast_to(np.eye(K), (n, K, K)),
            inv_diag.sum(axis=(1, 2)) if self.downlink
            else inv_diag.sum(axis=1) / N)

    def _ridge_buckets(self, beta, a, b, filt):
        lam, Uh, Y = self.lam[a:b], self.Uh[a:b], self.Y[a:b]
        n, N, K = lam.shape
        low = Y.shape[1] // K               # the L - 1 taps that alias mod N
        shifted = lam + beta
        if not np.all(shifted > 0):
            i, nu = np.argwhere(~(shifted > 0))[0, :2]
            raise np.linalg.LinAlgError(
                f"Gram eigenvalue + beta = {shifted[i, nu].min():.3e} <= 0 "
                f"at bin {nu}{self._where(a + i, filt)}")
        s = 1.0 / shifted
        ls = lam * s                        # lambda / (lambda + beta)
        p = ls * s                          # lambda / (lambda + beta)^2
        # bin nu of the cascade folded mod N is zeta_nu = G_nu (G_nu + beta)^-1
        # (transposed on the uplink); its taps are
        # chat[d] = (1/N) sum_nu E[nu, d] zeta_nu, and by Parseval its power
        # is (1/N) sum_nu |zeta_nu|^2
        zeta = np.conj(np.swapaxes(Uh, -1, -2)) @ (ls[..., None] * Uh)
        Ed = _bin_kernel(N, max(low, 1)).T / N
        chat = (Ed @ zeta.reshape(n, N, K * K)).reshape(n, -1, K, K)
        # the linear cascade's taps c[d], d < L - 1: one
        # ((L - 1) K x N K) @ (N K x K) product per draw
        c = (Y @ (s[..., None] * Uh).reshape(n, N * K, K)).reshape(
            n, low, K, K) if low else None
        if self.downlink:
            # the bank's energy sum_nu ||W_nu / a||_F^2
            power = p.sum(axis=(1, 2))
            if not np.all(power > 0):
                i = np.argmin(power)
                raise ValueError(f"cannot normalize a zero-energy filter "
                                 f"bank{self._where(a + i, filt)}")
        else:
            # mean squared equalizer row norm, (1/N) sum_nu ||row k of Q_nu||^2
            power = (p[..., None, :] @ np.abs(Uh) ** 2)[..., 0, :].sum(
                axis=1) / N
        return self._fold_buckets(
            chat, c, np.diagonal(zeta, axis1=-2, axis2=-1),
            (zeta.real ** 2 + zeta.imag ** 2).sum(axis=1) / N, power)

    def _fold_buckets(self, chat, c, zeta_diag, folded, power):
        """(g, isi_u, mui_u, awgn) of a bank cascade from its folded taps
        chat (n, max(L - 1, 1), K, K), its low linear taps c (n, L - 1,
        K, K; None when L = 1), the diagonals zeta_diag (n, bins, K) of its
        folded bins, its folded power `folded` (n, K, K), and `power`: the
        bank's energy on the downlink, its AWGN bucket on the uplink."""
        N, T = self.scenario.dims.N, self.scenario.dims.T
        n, K = folded.shape[:2]
        # the T-grid power is the folded power plus `cross`
        cross = np.zeros((n, K, K))
        gain = chat[:, 0]
        if c is not None:
            # the taps c[d + N] = chat[d] - c[d] alias onto the low taps
            low = c.shape[1]
            alias = chat[:, :low] - c
            cross -= 2 * np.real(c * np.conj(alias)).sum(axis=1)
            gain = c[:, 0]
            # a block T < N + L - 1 folds c[d + T] = alias[d + T - N] back
            # onto delay d < N + L - 1 - T
            wrap = T - N
            if wrap < low:
                cross += 2 * np.real(c[:, :low - wrap]
                                     * np.conj(alias[:, wrap:])).sum(axis=1)
                gain = gain + alias[:, wrap]
        g = np.diagonal(gain, axis1=-2, axis2=-1)
        tot = folded + cross
        own = np.diagonal(tot, axis1=-2, axis2=-1)
        # isi = own - |g|^2, written as (1/N) sum_nu |zeta_nu[k, k] - g_k|^2
        # + 2 Re(conj(g_k) (chat[0][k, k] - g_k)) + cross[k, k], so that no
        # two terms of the size of |g|^2 cancel
        isi = ((np.abs(zeta_diag - g[:, None]) ** 2).sum(axis=1)
               / zeta_diag.shape[1]
               + 2 * np.real(np.conj(g) * (np.diagonal(
                   chat[:, 0], axis1=-2, axis2=-1) - g))
               + np.diagonal(cross, axis1=-2, axis2=-1))
        if self.downlink:
            # power normalization a = sqrt(N / energy)
            scale = N / power
            g = g * np.sqrt(scale)[:, None]
            isi = isi * scale[:, None]
            mui = (tot.sum(axis=-1) - own) * scale[:, None]
            awgn = np.ones((n, K))
        else:
            mui = tot.sum(axis=-2) - own
            awgn = power
        return g, np.maximum(isi, 0.0), np.maximum(mui, 0.0), awgn


def _gram_inverse(G):
    """(G^-1, rcond) of a stack of bin Gram matrices G, shape (n, N, K, K):
    one batched inverse, and per bin a reciprocal condition that is the
    lower bound 1 / (||G||_F ||G^-1||_F) of lambda_min / lambda_max where
    that bound is at least 2 RCOND_MIN, and the exact eigvalsh ratio
    elsewhere. When the inverse fails, G^-1 is None and every ratio is
    exact, so the rank check names the singular draw; the error is raised
    again if no bin is below RCOND_MIN."""
    try:
        Ginv = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        rcond = gram_rcond(G)
        if (rcond >= dl_precoding.RCOND_MIN).all():
            raise
        return None, rcond
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        rcond = 1.0 / np.sqrt((G.real ** 2 + G.imag ** 2).sum(axis=(-2, -1))
                              * (Ginv.real ** 2 + Ginv.imag ** 2).sum(
                                  axis=(-2, -1)))
    # the bound's own rounding must not accept a bin the exact test rejects
    loose = ~(rcond >= 2 * dl_precoding.RCOND_MIN)
    if loose.any():
        rcond[loose] = gram_rcond(G[loose])
    return Ginv, rcond


def _draw_buckets(scenario, ch):
    """Unit-power buckets (g, isi_u, mui_u, awgn) of one channel draw.

    g holds the realized gains, isi_u and mui_u the same-user and
    cross-user interference energies at unit symbol power, awgn the exact
    per-draw AWGN bucket (downlink: 1; uplink: mean squared equalizer row
    norm).
    """
    factors = DrawFactors(scenario, 1)
    factors.fill(0, ch.Hhat[None])
    return tuple(s[0] for s in factors.buckets(scenario.filt, scenario.beta))


def _fading_chunks(dims, lo, hi):
    """(first trial, stacked fading (n, L, M, K)) of trials lo .. hi - 1
    of dims.seed, CHUNK trials at a time. One generator is re-keyed for
    each trial (rekey), so trial t draws exactly what trial_rng(seed, t)
    would, and one composite_taps call on a chunk gives each draw's
    composite taps bit for bit as draw_channel would."""
    rng = trial_rng(dims.seed, 0)
    for a in range(lo, hi, CHUNK):
        yield a, np.stack([draw_fading(dims, rekey(rng, dims.seed, t))
                           for t in range(a, min(a + CHUNK, hi))])


def factor_draws(scenario, trials, filters=None):
    """Draw trials 0 .. trials - 1 of the scenario's seed and factor them,
    a chunk at a time (`_fading_chunks`), into one DrawFactors serving
    `filters` (default: the scenario's filter)."""
    factors = DrawFactors(scenario, trials, 0, filters)
    for lo, H in _fading_chunks(scenario.dims, 0, trials):
        factors.fill(lo, composite_taps(H, scenario.pdp, scenario.corr))
    return factors


def _read(out, requests, factors, lo, hi):
    """Copy the stacks of factors' slots 0 .. hi - lo - 1 for each
    (filter, beta) request into draws lo .. hi - 1 of its stacks in out."""
    for stacks, (filt, beta) in zip(out, requests):
        for dst, part in zip(stacks, factors.buckets(filt, beta, hi - lo)):
            dst[lo:hi] = part


def mc_buckets_group(cells, trials):
    """Bucket stacks of draws 0 .. trials - 1 for each (scenario, requests,
    factors) cell of a group whose scenarios share their seed and
    (M, K, L): one (g, isi_u, mui_u, awgn) tuple per (filter, beta)
    request (beta is ignored by the matched and zero-forcing filters).

    The cells are taken one at a time, and the draws a cell's factors hold
    (from factor_draws, serving every requested filter; or None), the same
    number in every cell, are read as a prefix then, so an iterator of
    cells can make each cell's factors after the previous cell's are
    released. Each later chunk of draws has its fading drawn once for the
    group (`_fading_chunks`), then is composited and factored per
    scenario, so a draw's stacks depend only on (seed, t) and its own
    scenario.
    """
    group, out, shared = [], [], set()
    for scenario, requests, factors in cells:
        dims = scenario.dims
        cached = 0 if factors is None else min(factors.n, trials)
        shared.add((cached, dims.seed, dims.M, dims.K, dims.L))
        if len(shared) > 1:
            raise ValueError("a group's cells must share their seed, their "
                             "(M, K, L) and their number of factored draws")
        stacks = [_stacks(trials, dims.K) for _ in requests]
        if cached:
            _read(stacks, requests, factors, 0, cached)
        del factors     # before the next cell's factors are made
        group.append((scenario, requests,
                      tuple(dict.fromkeys(f for f, _ in requests))))
        out.append(stacks)
    for lo, H in _fading_chunks(dims, cached, trials):
        hi = lo + H.shape[0]
        for (scenario, requests, filters), stacks in zip(group, out):
            factors = DrawFactors(scenario, hi - lo, lo, filters)
            factors.fill(0, composite_taps(H, scenario.pdp, scenario.corr))
            _read(stacks, requests, factors, lo, hi)
    return out


def mc_buckets(scenario, trials):
    """Per-draw bucket stacks over `trials` seeded channel draws: the
    group of one cell, which requests the scenario's filter at its beta.

    Returns (g, isi_u, mui_u, awgn) arrays of shape (trials, K) at unit
    symbol power. Draw t uses the counter-based stream (seed, t), so the
    stack is independent of evaluation order and chunking.
    """
    return mc_buckets_group([(scenario, [(scenario.filt, scenario.beta)],
                              None)], trials)[0][0]


def _aggregate(scenario, g, isi_u, mui_u, awgn):
    """Reduce per-draw bucket stacks to a NoiseBreakdown at scenario power.

    Downlink: desired power is the squared reference gain (analytic
    sqrt(M/K) for CMFP, the stack mean otherwise) and IF is the mean
    squared wander around it. Uplink: desired is the mean squared realized
    gain and IF is zero.
    """
    mean_g = g.mean(axis=0)
    buckets = _user_buckets(scenario, mean_g, (np.abs(g) ** 2).mean(axis=0),
                            isi_u.mean(axis=0), mui_u.mean(axis=0),
                            awgn.mean(axis=0))
    return NoiseBreakdown(*buckets, gains=mean_g)


def _user_buckets(scenario, mean_g, mean_g2, isi, mui, awgn):
    """(desired_k, if_k, isi_k, mui_k, awgn_k) at scenario power from the
    draw means of g, |g|^2 and the unit-power buckets; every argument may
    carry leading axes in front of the user axis."""
    dims = scenario.dims
    rho = dims.rho_f
    if scenario.link == "downlink":
        ref = _cmfp_reference_gains(dims, scenario.pdp) \
            if scenario.filt == "cmfp" else mean_g
        desired_k = rho * np.abs(ref) ** 2
        if_k = rho * np.maximum(
            mean_g2 - 2 * np.real(np.conj(ref) * mean_g) + np.abs(ref) ** 2,
            0.0)
    else:
        desired_k = rho * mean_g2
        if_k = np.zeros_like(desired_k)
    return desired_k, if_k, rho * isi, rho * mui, awgn


def _jackknife_rate_stderr(scenario, g, isi_u, mui_u, awgn):
    """Delete-one-block jackknife standard error of the sum rate.

    The draws split into JACKKNIFE_BLOCKS contiguous blocks (np.array_split);
    each block's sums are taken once, and every leave-one-block-out mean
    is (total - block sum) / (draws outside the block).
    """
    n = g.shape[0]
    blocks = min(JACKKNIFE_BLOCKS, n)
    starts = np.array([idx[0] for idx in np.array_split(np.arange(n),
                                                        blocks)])
    kept = (n - np.diff(starts, append=n))[:, None]
    means = []
    for x in (g, np.abs(g) ** 2, isi_u, mui_u, awgn):
        sums = np.add.reduceat(x, starts, axis=0)           # (blocks, K)
        means.append((sums.sum(axis=0) - sums) / kept)
    desired, *noise = _user_buckets(scenario, *means)
    rates = 0.5 * np.log2(1.0 + desired / sum(noise)).sum(axis=1)
    return float(np.sqrt((blocks - 1) / blocks
                         * np.sum((rates - rates.mean()) ** 2)))


def buckets_to_result(scenario, trials, g, isi_u, mui_u, awgn):
    """Aggregate per-draw buckets into a SumRateResult at scenario power."""
    bd = _aggregate(scenario, g, isi_u, mui_u, awgn)
    rate, per_user = rate_from_breakdown(bd)
    stderr = float("nan")
    if g.shape[0] >= 20:
        stderr = _jackknife_rate_stderr(scenario, g, isi_u, mui_u, awgn)
    dims = scenario.dims
    meta = dict(link=scenario.link, filter=scenario.filt,
                corr_model=scenario.corr_model,
                corr_param=scenario.corr_param, mu=scenario.mu,
                rho_f_db=dims.rho_f_db, trials=trials, seed=dims.seed,
                beta=scenario.beta)
    return SumRateResult(rate_bpcu=rate, per_user_rates=per_user,
                         breakdown=bd, meta=meta, stderr=stderr)


def sum_rate_mc(scenario, trials):
    """Monte Carlo achievable sum rate over `trials` channel draws.

    Deterministic given (scenario, trials): draw t always uses the
    (seed, t) stream and the bucket reduction is order-independent
    pairwise summation. The result's rate always equals the rate
    recomputed from its own breakdown.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    g, isi_u, mui_u, awgn = mc_buckets(scenario, trials)
    return buckets_to_result(scenario, trials, g, isi_u, mui_u, awgn)


# ---------------------------------------------------------------------------
# closed forms


def cmfp_rate_closed(rho_f, M, K, trace_A2):
    """Matched-filter downlink sum rate,
    (K/2) log2(1 + M rho / (K (tr(A^2)/M) rho + K)); rho_f=inf gives the
    high-power limit (K/2) log2(1 + M^2/(K tr(A^2)))."""
    if np.isinf(rho_f):
        return (K / 2) * np.log2(1.0 + M * M / (K * trace_A2))
    return (K / 2) * np.log2(
        1.0 + M * rho_f / (K * (trace_A2 / M) * rho_f + K))


def coop_capacity(rho_f, M, K):
    """Cooperative-receiver bound (K/2) log2(1 + M rho_f / K) —
    correlation-independent by construction."""
    return (K / 2) * np.log2(1.0 + M * rho_f / K)


def cmfe_rate_closed(rho_f, M, K, trace_A, trace_A2, pdp_row):
    """Matched-filter uplink sum rate for a common per-user PDP row:

    (K/2) log2(1 + (tr(A^2) sum d^2 rho + tr(A)^2 rho)
                   / (tr(A^2) (K - sum d^2) rho + M)).
    """
    pdp_row = np.asarray(pdp_row, dtype=float)
    if abs(pdp_row.sum() - 1.0) > 1e-9:
        raise ValueError("pdp_row must sum to 1")
    sd2 = float(np.sum(pdp_row ** 2))
    num = trace_A2 * sd2 * rho_f + trace_A ** 2 * rho_f
    den = trace_A2 * (K - sd2) * rho_f + M
    return (K / 2) * np.log2(1.0 + num / den)


def appendix_moment(l, lp, b, k, q, corr, pdp):
    """Closed-form second moment of the cascade-tap entries,

        E{ F_(l, l-b)[k, q] * conj(F_(l', l'-b)[k, q]) },

    where F_(l,l') = Hhat_l^H Hhat_l'. Seven cases depending on which of
    k == q, l == l', b == 0 hold; mismatched tap pairs are zero.
    """
    d = pdp.d
    K, L = d.shape
    for name, idx in (("l", l), ("l'", lp)):
        if not 0 <= idx < L:
            raise IndexError(f"tap index {name}={idx} out of range [0, {L})")
        if not 0 <= idx - b < L:
            raise IndexError(f"shifted tap {name}-b={idx - b} "
                             f"out of range [0, {L})")
    for name, idx in (("k", k), ("q", q)):
        if not 0 <= idx < K:
            raise IndexError(f"user index {name}={idx} out of range [0, {K})")
    trA, trA2 = corr.trace_A, corr.trace_A2
    if k == q:
        if l == lp:
            if b == 0:
                return complex((trA2 + trA ** 2) * d[k, l] ** 2)
            return complex(trA2 * d[k, l] * d[k, l - b])
        if b == 0:
            return complex(trA ** 2 * d[k, l] * d[k, lp])
        return 0j
    if l == lp:
        if b == 0:
            return complex(trA2 * d[k, l] * d[q, l])
        return complex(trA2 * d[k, l] * d[q, l - b])
    return 0j
