"""Correlation-model tests: geometries, exponential/Bessel matrices, sqrt."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import j0

from scmimo.corr_models import (ArrayGeometry, CorrelationMatrix,
                                bessel_correlation, distance_matrix,
                                exponential_correlation, hermitian_sqrt,
                                identity_correlation, ula, upa)


def test_ula_geometry_fields():
    g = ula(16, 0.5)
    assert g.kind == "ula"
    assert g.M == 16
    assert g.M_x == 16
    assert g.spacing_d == 0.5


def test_upa_geometry_fields():
    g = upa(64, 8, 0.5)
    assert g.kind == "upa"
    assert (g.M, g.M_x) == (64, 8)


@pytest.mark.parametrize("bad", [
    dict(kind="upa", M=10, M_x=4, spacing_d=0.5),   # not a rectangle
    dict(kind="ula", M=0, M_x=0, spacing_d=0.5),
    dict(kind="ula", M=4, M_x=4, spacing_d=0.0),
    dict(kind="ula", M=4, M_x=4, spacing_d=-1.0),
    dict(kind="circular", M=4, M_x=4, spacing_d=0.5),
    dict(kind="ula", M=4, M_x=2, spacing_d=0.5),    # ULA must have M_x == M
    dict(kind="ula", M=4, M_x=4, spacing_d=float("inf")),
    dict(kind="ula", M=4, M_x=4, spacing_d=float("nan")),
])
def test_geometry_validation(bad):
    with pytest.raises(ValueError):
        ArrayGeometry(**bad)


def test_geometry_antenna_counts_are_integers():
    """A fractional array size is an error, not a rounded-up array."""
    for make in (lambda: ula(8.5), lambda: upa(8, 2.0),
                 lambda: ArrayGeometry("upa", 8.0, 2, 0.5)):
        with pytest.raises(TypeError, match=r"^M(_x)? must be an integer"):
            make()
    assert ula(np.int64(8)).M == 8


def test_pairwise_distance_ula():
    D = distance_matrix(ula(16, 0.5))
    assert D[0, 3] == pytest.approx(1.5)
    assert D[3, 0] == pytest.approx(1.5)
    assert D[7, 7] == 0.0


def test_pairwise_distance_upa_row_col():
    # element 9 on an 8-wide grid sits one row down, one column over
    D = distance_matrix(upa(64, 8, 0.5))
    assert D[0, 9] == pytest.approx(0.5 * np.sqrt(2.0))
    assert D[0, 8] == pytest.approx(0.5)
    assert D[0, 1] == pytest.approx(0.5)


def test_distance_matrix_matches_pairwise():
    """Every entry equals the scalar element distance: |i - j| d on a
    ULA, d times the hypotenuse of the row-major (row, column) offsets on
    a UPA."""
    for g in (ula(6, 0.7), upa(12, 4, 0.3)):
        D = distance_matrix(g)
        for i in range(g.M):
            for j in range(g.M):
                (ri, ci), (rj, cj) = divmod(i, g.M_x), divmod(j, g.M_x)
                assert D[i, j] == pytest.approx(
                    g.spacing_d * np.hypot(ri - rj, ci - cj))
        assert_allclose(D, D.T)
        assert_allclose(np.diag(D), 0.0)


# ---------------------------------------------------------------------------
# hermitian_sqrt


def test_sqrt_identity():
    assert_allclose(hermitian_sqrt(np.eye(5)), np.eye(5), atol=1e-14)


def test_sqrt_diagonal():
    assert_allclose(hermitian_sqrt(np.diag([4.0, 1.0])),
                    np.diag([2.0, 1.0]), atol=1e-14)


def test_sqrt_roundtrip_exponential():
    A = exponential_correlation(ula(3, 0.5), 0.7).A
    S = hermitian_sqrt(A)
    assert_allclose(S @ S, A, atol=1e-8)
    assert_allclose(S, S.conj().T, atol=1e-12)


def test_sqrt_idempotent_on_projection():
    # rank-1 projector is its own square root
    v = np.array([1.0, 1j, -1.0]) / np.sqrt(3.0)
    P = np.outer(v, v.conj())
    assert_allclose(hermitian_sqrt(P), P, atol=1e-10)


def test_sqrt_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_sqrt_rejects_non_square():
    with pytest.raises(ValueError):
        hermitian_sqrt(np.ones((2, 3)))


def test_sqrt_rejects_indefinite():
    with pytest.raises(ValueError):
        hermitian_sqrt(np.diag([1.0, -0.5]))


def test_sqrt_clamps_rounding_noise():
    # eigenvalue at -1e-12 relative is rounding noise, not indefiniteness
    w = np.array([1.0, -1e-12])
    V = np.linalg.qr(np.random.default_rng(3).normal(size=(2, 2)))[0]
    A = V @ np.diag(w) @ V.T
    A = 0.5 * (A + A.T)
    S = hermitian_sqrt(A)
    assert np.all(np.isfinite(S))


# ---------------------------------------------------------------------------
# exponential model


def test_identity_correlation():
    c = identity_correlation(8)
    assert_allclose(c.A, np.eye(8))
    assert_allclose(c.sqrt_A, np.eye(8))
    assert c.trace_A == pytest.approx(8.0)
    assert c.trace_A2 == pytest.approx(8.0)


def test_label_names_model_and_parameters():
    """Each constructor keeps its model and parameters as Python floats,
    and the label names them the way the CSV prints them; a matrix built
    by hand has no label."""
    cases = [
        (exponential_correlation(ula(4), np.float64(0.7)),
         ("exponential", 0.7, None), "exponential alpha=0.7"),
        (exponential_correlation(ula(4), 0), ("exponential", 0.0, None),
         "exponential alpha=0.0"),
        (identity_correlation(4), ("exponential", 0.0, None),
         "exponential alpha=0.0"),
        (bessel_correlation(ula(4), 20, 0.5), ("bessel", 20.0, 0.5),
         "bessel eta=20.0 mu=0.5"),
        (bessel_correlation(upa(4, 2), 50.0), ("bessel", 50.0, 0.0),
         "bessel eta=50.0 mu=0.0"),
        (CorrelationMatrix(A=np.eye(4), sqrt_A=np.eye(4)), ("", None, None),
         "")]
    for c, (model, param, mu), label in cases:
        assert (c.model, c.param, c.mu) == (model, param, mu)
        assert all(type(v) is float for v in (c.param, c.mu) if v is not None)
        assert c.label == label


def test_traces_follow_from_a():
    """tr(A) and sum |A_ij|^2, for a matrix built by hand as for one a
    constructor built."""
    ones = np.ones((4, 4))
    c = CorrelationMatrix(A=ones, sqrt_A=ones / 2.0)
    assert (c.trace_A, c.trace_A2) == (4.0, 16.0)
    zero = np.zeros((3, 3))
    c = CorrelationMatrix(A=zero, sqrt_A=zero)
    assert (c.trace_A, c.trace_A2) == (0.0, 0.0)
    c = bessel_correlation(ula(8), 20.0, 0.7)
    assert c.trace_A == 8.0
    assert c.trace_A2 == pytest.approx(float(np.trace(c.A @ c.A).real),
                                       rel=1e-12)


@pytest.mark.parametrize("A,sqrt_A,shapes", [
    (np.eye(4, 5), np.eye(4), r"A \(4, 5\) and sqrt_A \(4, 4\)"),
    (np.ones(4), np.ones(4), r"A \(4,\) and sqrt_A \(4,\)"),
    (np.eye(4), np.eye(5), r"A \(4, 4\) and sqrt_A \(5, 5\)"),
    (np.eye(4), np.eye(4, 3), r"A \(4, 4\) and sqrt_A \(4, 3\)")],
    ids=["non-square", "vector", "root-larger", "root-non-square"])
def test_correlation_matrix_rejects_mismatched_shapes(A, sqrt_A, shapes):
    """A hand-built matrix needs a square A and a root of the same shape,
    which the constructors always give; both shapes are named."""
    with pytest.raises(ValueError, match=shapes):
        CorrelationMatrix(A=A, sqrt_A=sqrt_A)


def test_exponential_alpha_zero_is_identity():
    c = exponential_correlation(upa(16, 4, 0.5), 0.0)
    assert_allclose(c.A, np.eye(16))
    assert c.trace_A2 == pytest.approx(16.0)


def test_exponential_two_element_values():
    """M=2, d=0.5, alpha=0.5: off-diagonal 0.5^0.5, sum |A_ij|^2 = 3."""
    c = exponential_correlation(ula(2, 0.5), 0.5)
    assert c.A[0, 1] == pytest.approx(0.5 ** 0.5)
    assert c.A[0, 1] == pytest.approx(0.70711, abs=5e-6)
    assert c.trace_A2 == pytest.approx(3.0)


def test_exponential_trace_a2_brute_force():
    c = exponential_correlation(ula(64, 0.5), 0.99)
    brute = float(np.sum(np.abs(c.A) ** 2))
    assert c.trace_A2 == pytest.approx(brute, rel=1e-12)
    # also literally tr(A @ A) for a Hermitian matrix
    assert c.trace_A2 == pytest.approx(float(np.trace(c.A @ c.A).real),
                                       rel=1e-10)
    assert c.trace_A2 > 64.0


def test_exponential_trace_a2_monotone_in_alpha():
    g = ula(16, 0.5)
    vals = [exponential_correlation(g, a).trace_A2
            for a in np.arange(0.1, 0.95, 0.1)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(v > 16.0 for v in vals)


@pytest.mark.parametrize("alpha", [-0.1, 1.0, 1.5])
def test_exponential_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError):
        exponential_correlation(ula(4, 0.5), alpha)


def test_unit_diagonal_and_trace_random_draws():
    """trace(A) == M exactly over 20 random parameter draws, both models."""
    rng = np.random.default_rng(42)
    geoms = [ula(12, 0.5), upa(12, 4, 0.5)]
    for trial in range(20):
        g = geoms[trial % 2]
        if trial % 2 == 0:
            c = exponential_correlation(g, rng.uniform(0.0, 0.99))
        else:
            # planar Bessel is only well-posed at broadside (mu = 0)
            c = bessel_correlation(g, rng.uniform(0.0, 50.0), 0.0)
        assert_allclose(np.diag(c.A), 1.0, atol=1e-14)
        assert c.trace_A == pytest.approx(12.0)
        assert c.trace_A2 >= 12.0 - 1e-9


# ---------------------------------------------------------------------------
# Bessel model


def test_bessel_diagonal_is_one():
    c = bessel_correlation(ula(8, 0.5), 20.0, 0.3)
    assert_allclose(np.diag(c.A), 1.0, atol=1e-14)


def test_bessel_eta_zero_matches_j0():
    """Isotropic scattering: entries are J0(2 pi d_ij) to 1e-10."""
    g = ula(16, 0.5)
    c = bessel_correlation(g, 0.0, 0.0)
    assert c.A.dtype.kind == "f"
    D = distance_matrix(g)
    assert_allclose(c.A, j0(2.0 * np.pi * D), atol=1e-10)
    # adjacent elements at half-wavelength spacing: J0(pi)
    assert c.A[0, 1] == pytest.approx(-0.30424, abs=5e-6)


def test_bessel_eta_zero_upa():
    g = upa(16, 4, 0.5)
    c = bessel_correlation(g, 0.0, 0.0)
    assert_allclose(c.A, j0(2.0 * np.pi * distance_matrix(g)), atol=1e-10)


def test_bessel_complex_entries_off_broadside():
    c = bessel_correlation(ula(8, 0.5), 20.0, np.pi / 2)
    entry = c.A[0, 1]
    assert abs(entry.imag) > 1e-6
    assert abs(entry) <= 1.0 + 1e-12
    assert_allclose(c.A, c.A.conj().T, atol=1e-14)


def test_bessel_psd_across_parameters():
    for eta, mu in [(1.0, 0.0), (20.0, 1.0), (100.0, -2.0), (500.0, 0.5)]:
        c = bessel_correlation(ula(16, 0.5), eta, mu)
        w = np.linalg.eigvalsh(c.A)
        assert w.min() >= -1e-9 * w.max()


def test_bessel_rejects_bad_eta():
    with pytest.raises(ValueError):
        bessel_correlation(ula(4, 0.5), -1.0, 0.0)
    with pytest.raises(ValueError):
        bessel_correlation(ula(4, 0.5), np.inf, 0.0)


@pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf])
def test_bessel_rejects_non_finite_mu(mu):
    """A mean angle that is not finite is rejected by name, before any
    matrix is built (and before sin(mu) warns)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^mu must be finite, got "
                                             rf"{mu}$"):
            bessel_correlation(ula(4, 0.5), 20.0, mu)


def test_bessel_upa_off_broadside_rejected():
    # the scalar-distance planar model is not Hermitian away from mu=0
    with pytest.raises(ValueError):
        bessel_correlation(upa(64, 8, 0.5), 20.0, np.pi / 2)


@pytest.mark.parametrize("geometry,eta,mu", [
    (upa(4, 4), 20.0, np.pi / 4), (upa(8, 2), 5.0, 0.3)],
    ids=["1x4-eta20-mu_pi4", "4x2-eta5-mu0.3"])
def test_bessel_upa_rejects_a_complex_symmetric_matrix(geometry, eta, mu):
    """At eta sin(mu) != 0 the planar matrix is complex symmetric, not
    Hermitian: it raises, naming the model, instead of keeping only the
    real part of the model."""
    with pytest.raises(ValueError, match=rf"^bessel eta={eta!r} mu={mu!r}: "
                                         rf"the correlation matrix is not "
                                         rf"Hermitian"):
        bessel_correlation(geometry, eta, mu)


def test_bessel_large_eta_no_overflow():
    c = bessel_correlation(ula(8, 0.5), 500.0, 0.0)
    assert np.all(np.isfinite(c.A))
    assert np.all(np.abs(c.A) <= 1.0 + 1e-9)


def test_upa_packs_tighter_than_ula():
    """Same antenna count on a plane has more close pairs, so larger tr(A^2)."""
    for alpha in (0.7, 0.9):
        t_upa = exponential_correlation(upa(64, 8, 0.5), alpha).trace_A2
        t_ula = exponential_correlation(ula(64, 0.5), alpha).trace_A2
        assert t_upa >= t_ula


def test_sqrt_squares_back_for_all_models():
    cases = [
        exponential_correlation(ula(16, 0.5), 0.9),
        exponential_correlation(upa(16, 4, 0.5), 0.7),
        bessel_correlation(ula(16, 0.5), 20.0, 0.7),
        bessel_correlation(upa(16, 4, 0.5), 10.0, 0.0),
    ]
    for c in cases:
        assert_allclose(c.sqrt_A @ c.sqrt_A, c.A, atol=1e-8)
