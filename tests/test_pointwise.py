"""Pointwise matrix calculus: square roots, sector pencils, projections."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from regpart.errors import NotHermitian, NotPSD, ValidationError
from regpart.pointwise import (SectorParams, adjoint, herm_eig, herm_part,
                               imag_part, is_projection, pencil_tangent,
                               pinv_sqrt, psd_sqrt, sector_check)


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


def test_is_projection():
    p = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    assert is_projection(p).ok
    assert not is_projection(p + 0.01).ok
    skew = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)  # idempotent
    assert not is_projection(skew).ok  # but not Hermitian


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
    for cell in c:
        assert sector_check(cell, theta).ok
    narrow = sector_check(c[0], np.arctan(0.1))
    assert not narrow.ok
    assert narrow.witness is not None


def test_sector_check_monotone_in_theta(rng):
    """Membership is monotone: passing at theta passes at every wider
    angle on a sampled grid."""
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    c = m @ m.conj().T + 0.3j * herm_part(rng.standard_normal((2, 2)))
    thetas = np.linspace(0.05, 1.5, 12)
    passed = [sector_check(c, t).ok for t in thetas]
    first = next((k for k, ok in enumerate(passed) if ok), len(thetas))
    assert all(passed[first:])


def test_sector_params_validation():
    with pytest.raises(ValidationError):
        SectorParams(theta=np.pi / 2)
    with pytest.raises(ValidationError):
        SectorParams(theta=-0.1)
    p = SectorParams(theta=np.pi / 4, gamma=-2.0)
    assert_allclose(p.tan_theta, 1.0)


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
    assert pencil_tangent(np.diag([1.0, eps]), im_m) == (1e12, False)


def test_pencil_tangent_degenerate_direction():
    """Imaginary mass outside range(A) can never be dominated."""
    re_m = np.diag([1.0, 0.0])
    im_m = np.array([[0.0, 0.0], [0.0, 0.5]])
    t, certified = pencil_tangent(re_m, im_m, t_cap=1e6)
    assert not certified
    assert t >= 1e6
