"""Spatial correlation models for base-station antenna arrays.

Builds M x M correlation matrices for uniform linear (ULA) and uniform
planar (UPA) arrays under two models:

* exponential: A[i,j] = alpha ** d_ij with d_ij the normalized element
  distance, and
* Bessel (von Mises angle-of-arrival): A[i,j] = I0(kappa_ij) / I0(eta)
  with kappa_ij = sqrt(eta^2 - 4 pi^2 d_ij^2 + 4j pi eta sin(mu) d_ij),
  eta the AOA concentration and mu the mean direction. eta = 0 collapses
  to isotropic (Clarke) scattering, A[i,j] = J0(2 pi d_ij).

Each matrix is validated (Hermitian, unit diagonal, PSD up to a relative
eigenvalue tolerance) and shipped together with its Hermitian square root,
which is what channel generation actually consumes.
"""

from dataclasses import dataclass

import numpy as np

# Eigenvalues may dip slightly negative from rounding; anything below
# -EIG_CLAMP_REL * lambda_max is treated as a genuinely invalid matrix.
EIG_CLAMP_REL = 1e-9


@dataclass(frozen=True)
class ArrayGeometry:
    """Antenna placement: 'ula' or 'upa', with wavelength-normalized spacing.

    For a UPA the M antennas form an (M // M_x) x M_x grid indexed row-major:
    element m sits at row m // M_x, column m % M_x. For a ULA, M_x == M.
    """

    kind: str
    M: int
    M_x: int
    spacing_d: float

    def __post_init__(self):
        if self.kind not in ("ula", "upa"):
            raise ValueError(f"unknown geometry kind {self.kind!r}")
        if self.M <= 0 or self.M_x <= 0:
            raise ValueError("antenna counts must be positive")
        if not (np.isfinite(self.spacing_d) and self.spacing_d > 0):
            raise ValueError(f"element spacing must be finite and positive, "
                             f"got {self.spacing_d}")
        if self.kind == "upa" and self.M % self.M_x != 0:
            raise ValueError(f"UPA needs a rectangular grid: M={self.M} "
                             f"is not divisible by M_x={self.M_x}")
        if self.kind == "ula" and self.M_x != self.M:
            raise ValueError("ULA requires M_x == M")


def ula(M, spacing_d=0.5):
    return ArrayGeometry("ula", M, M, spacing_d)


def upa(M, M_x, spacing_d=0.5):
    return ArrayGeometry("upa", M, M_x, spacing_d)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Correlation matrix A with cached Hermitian square root and traces.

    trace_A equals M exactly (unit diagonal); trace_A2 is tr(A @ A) =
    sum |A[i,j]|^2, the quantity that drives the interference floor.
    """

    A: np.ndarray
    sqrt_A: np.ndarray
    trace_A: float
    trace_A2: float


def distance_matrix(geometry):
    """All pairwise distances as an M x M array (vectorized)."""
    m = np.arange(geometry.M)
    if geometry.kind == "ula":
        return geometry.spacing_d * np.abs(np.subtract.outer(m, m)).astype(float)
    r, c = np.divmod(m, geometry.M_x)
    return geometry.spacing_d * np.hypot(
        np.subtract.outer(r, r), np.subtract.outer(c, c))


def hermitian_sqrt(A):
    """Hermitian square root via eigendecomposition, V diag(sqrt(w)) V^H.

    Eigenvalues in [-EIG_CLAMP_REL * max(max(w), 1), 0) are clamped to zero;
    anything more negative raises, since that signals an invalid matrix
    rather than rounding noise.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(A, A.conj().T, rtol=0, atol=1e-12):
        raise ValueError("matrix is not Hermitian")
    w, V = np.linalg.eigh(A)
    floor = -EIG_CLAMP_REL * max(w[-1], 1.0)
    if w[0] < floor:
        raise ValueError(
            f"matrix is not PSD: min eigenvalue {w[0]:.3e} "
            f"(tolerance {floor:.3e})")
    S = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
    return 0.5 * (S + S.conj().T)


def _finalize(A):
    """Validate and package a correlation matrix (unit diagonal, PSD)."""
    A = 0.5 * (A + A.conj().T)
    np.fill_diagonal(A, 1.0)
    if np.isrealobj(A) or np.allclose(A.imag, 0, atol=1e-15):
        A = A.real
    try:
        sqrt_A = hermitian_sqrt(A)
    except ValueError as err:
        raise ValueError(
            f"correlation matrix failed PSD validation ({err}); "
            "this signals an invalid parameter regime") from None
    trace_A2 = float(np.sum(np.abs(A) ** 2))
    return CorrelationMatrix(A=A, sqrt_A=sqrt_A,
                             trace_A=float(A.shape[0]), trace_A2=trace_A2)


def identity_correlation(M):
    """Uncorrelated array: A = I (the alpha = 0 / eta-free baseline)."""
    return CorrelationMatrix(A=np.eye(M), sqrt_A=np.eye(M),
                             trace_A=float(M), trace_A2=float(M))


def exponential_correlation(geometry, alpha):
    """Exponential model A[i,j] = alpha ** d_ij.

    The exponent is the distance-scaled |i-j|*d (UPA: planar distance),
    so at d = 0.5 this is a monotone reparameterization of the common
    alpha^|i-j| form. alpha = 0 gives the identity.
    """
    if not 0 <= alpha < 1:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if alpha == 0:
        return identity_correlation(geometry.M)
    A = alpha ** distance_matrix(geometry)
    return _finalize(A)


def bessel_correlation(geometry, eta, mu=0.0):
    """Von Mises AOA model, A[i,j] = I0(kappa_ij) / I0(eta).

    kappa_ij = sqrt(eta^2 - 4 pi^2 d_ij^2 + 4j pi eta sin(mu) d_ij)
    (principal branch). Evaluated through the exponentially scaled
    ive(0, z) = I0(z) exp(-|Re z|), so the ratio

        I0(kappa)/I0(eta) = ive(0, kappa)/ive(0, eta) * exp(|Re kappa| - eta)

    never overflows: |Re kappa| <= eta for every distance. eta = 0 is
    isotropic scattering and reduces to real J0(2 pi d_ij) entries.

    For a linear array d_ij is the *signed* lag (i - j) d, which makes the
    imaginary term odd in (i, j) and the matrix Hermitian by construction
    (it is the characteristic function of the angular density, hence PSD
    for every eta, mu). A planar array has no scalar signed separation,
    so it uses the unsigned element distance; mu far from 0 can then
    produce a genuinely indefinite matrix, which raises rather than being
    silently repaired.
    """
    # imported here: scipy.special doubles the package's import time and RSS
    from scipy.special import ive

    if eta < 0 or not np.isfinite(eta):
        raise ValueError(f"eta must be finite and >= 0, got {eta}")
    if geometry.kind == "ula":
        idx = np.arange(geometry.M)
        D = (idx[:, None] - idx[None, :]) * geometry.spacing_d
    else:
        D = distance_matrix(geometry)
    kappa2 = eta ** 2 - (2 * np.pi * D) ** 2 \
        + 4j * np.pi * eta * np.sin(mu) * D
    kappa = np.sqrt(kappa2.astype(complex))
    A = ive(0, kappa) / ive(0, eta) * np.exp(np.abs(kappa.real) - eta)
    return _finalize(A)
