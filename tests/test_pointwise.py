"""Pointwise matrix calculus: square roots, sector pencils, projections."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from regpart.errors import (NotHermitian, NotPSD, SectorViolation,
                            ValidationError)
from regpart.grid import GridSpec
from regpart.model import CoefficientSet
from regpart.pointwise import (PSD_TOL, TANGENT_CAP, SectorParams, adjoint,
                               frobenius, herm_eig, herm_part, imag_part,
                               pencil_tangent, pinv_sqrt, projection_residuals,
                               psd_roots, psd_sqrt, sector_pencils)


def random_psd(rng, d, n=1, rank=None):
    m = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    if rank is not None:
        m = m[..., :rank]
    return np.matmul(m, adjoint(m) if rank is None else
                     np.conj(np.swapaxes(m, -1, -2)))


def test_herm_imag_split(rng):
    m = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    h, s = herm_part(m), imag_part(m)
    assert_allclose(h + 1j * s, m, atol=1e-14)
    assert_allclose(h, adjoint(h), atol=1e-15)
    assert_allclose(s, adjoint(s), atol=1e-15)


def test_psd_sqrt_squares_back(rng):
    for d in (1, 2, 3, 5):
        a = random_psd(rng, d, n=7)
        r = psd_sqrt(a)
        assert_allclose(np.matmul(r, r), a, atol=1e-10 * np.max(np.abs(a)))


def test_psd_sqrt_rank_deficient(rng):
    a = random_psd(rng, 4, n=6, rank=2)
    r = psd_sqrt(a)
    assert_allclose(np.matmul(r, r), a, atol=1e-10 * np.max(np.abs(a)))


def test_pinv_sqrt_gives_range_projection(rng):
    """g(A) A g(A) must be the orthogonal projection onto range(A)."""
    for rank in (1, 2, 4):
        a = random_psd(rng, 4, n=5, rank=rank)
        g = pinv_sqrt(a)
        proj = np.matmul(np.matmul(g, a), g)
        assert_allclose(np.matmul(proj, proj), proj, atol=1e-10)
        assert_allclose(proj, adjoint(proj), atol=1e-10)
        # the projection fixes A
        assert_allclose(np.matmul(proj, a), a, atol=1e-10 * np.max(np.abs(a)))
        # and agrees with A^{1/2} g = g A^{1/2}
        assert_allclose(np.matmul(psd_sqrt(a), g), proj, atol=1e-10)


def test_psd_roots_is_both_roots_bitwise(rng):
    for rank in (1, 3, 4):
        a = random_psd(rng, 4, n=6, rank=rank)
        root, inv_root = psd_roots(a)
        assert np.array_equal(root, psd_sqrt(a))
        assert np.array_equal(inv_root, pinv_sqrt(a))


def test_psd_sqrt_rejects_indefinite():
    a = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(NotPSD):
        psd_sqrt(a[None])


def test_psd_sqrt_rejects_nonhermitian():
    m = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NotHermitian):
        psd_sqrt(m[None])


def test_herm_eig_unitary_invariance(rng):
    h = herm_part(rng.standard_normal((4, 4))
                  + 1j * rng.standard_normal((4, 4)))
    q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                        + 1j * rng.standard_normal((4, 4)))
    w1, _ = herm_eig(h[None])
    w2, _ = herm_eig((q @ h @ q.conj().T)[None])
    assert_allclose(np.sort(w1[0]), np.sort(w2[0]), atol=1e-10)


def in_sector(c, theta):
    """Per-matrix verdict of the three sector pencils, with the slack
    ``CoefficientSet.validate`` allows."""
    _, mins = sector_pencils(c, theta)
    return np.all(mins >= -PSD_TOL * np.maximum(1.0, frobenius(c)), axis=0)


def test_is_projection():
    p = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    skew = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)  # idempotent
    res_h, res_i = projection_residuals(np.stack([p, p + 0.01, skew]))
    ok = (res_h <= PSD_TOL) & (res_i <= PSD_TOL)
    assert ok.tolist() == [True, False, False]
    assert res_i[2] == 0.0 and res_h[2] > PSD_TOL  # but not Hermitian


def test_sector_check_accepts_and_refuses(rng):
    a = random_psd(rng, 3, n=4)
    z = herm_part(rng.standard_normal((4, 3, 3))
                  + 1j * rng.standard_normal((4, 3, 3)))
    norms = np.max(np.abs(np.linalg.eigvalsh(z)), axis=-1)
    z = z * (0.5 / norms)[:, None, None]
    root = psd_sqrt(a)
    eye = np.eye(3)
    c = np.matmul(np.matmul(root, eye + 1j * z), root)
    theta = np.arctan(0.5) + 1e-9
    assert np.all(in_sector(c, theta))
    assert not in_sector(c[0], np.arctan(0.1))

    def coeffs(theta):
        grid = GridSpec(dim=3, box=((0.0, 1.0),) * 3,
                        cells_per_axis=(4, 1, 1))
        zero = np.zeros((4, 3), dtype=complex)
        return CoefficientSet(grid=grid, C_field=c, b_field=zero,
                              d_field=zero, c0_field=np.zeros(4),
                              theta=theta, K_bound=1.0)
    coeffs(theta).validate()
    with pytest.raises(SectorViolation) as err:
        coeffs(np.arctan(0.1)).validate()
    # the witness leaves the narrow sector
    xi = err.value.witness
    val = np.vdot(xi, c[err.value.cell] @ xi)
    assert abs(val.imag) > 0.1 * val.real


def test_sector_check_monotone_in_theta(rng):
    """Membership is monotone: passing at theta passes at every wider
    angle on a sampled grid."""
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    c = m @ m.conj().T + 0.3j * herm_part(rng.standard_normal((2, 2)))
    thetas = np.linspace(0.05, 1.5, 12)
    passed = [bool(in_sector(c, t)) for t in thetas]
    first = next((k for k, ok in enumerate(passed) if ok), len(thetas))
    assert all(passed[first:])


def test_sector_params_validation():
    with pytest.raises(ValidationError):
        SectorParams(theta=np.pi / 2)
    with pytest.raises(ValidationError):
        SectorParams(theta=-0.1)
    SectorParams(theta=np.pi / 4, gamma=-2.0)


def test_pencil_tangent_known_value():
    """For A = I, B = diag(b): smallest t with t*I +/- B psd is max|b|."""
    re_m = np.eye(3)
    im_m = np.diag([0.3, -0.7, 0.2])
    t, certified = pencil_tangent(re_m, im_m)
    assert certified
    assert_allclose(t, 0.7, rtol=1e-6)


@pytest.mark.parametrize("eps", [1e-16, 0.0, -1e-16])
def test_pencil_tangent_kernel_coupling_is_rounding_stable(eps):
    """Imaginary coupling into a numerical kernel of the real part has no
    finite tangent, whatever the sign of the rounding in that kernel."""
    im_m = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert pencil_tangent(np.diag([1.0, eps]), im_m) == (TANGENT_CAP, False)


def test_pencil_tangent_degenerate_direction():
    """Imaginary mass outside range(A) can never be dominated."""
    re_m = np.diag([1.0, 0.0])
    im_m = np.array([[0.0, 0.0], [0.0, 0.5]])
    assert pencil_tangent(re_m, im_m) == (TANGENT_CAP, False)
