"""Exact-contract kernels for complex square matrices.

All routines accept a single ``(d, d)`` matrix or a stack ``(..., d, d)`` and
operate matrix by matrix.  They are pure functions with no shared state, so
results do not depend on evaluation order.

Conventions
-----------
* The Hermitian part of ``M`` is ``(M + M*) / 2`` and the Hermitian-imaginary
  part is ``(M - M*) / (2i)``; both are Hermitian.
* The quadratic form of ``M`` at ``xi`` is ``xi* M xi`` (conjugation on the
  left slot of the contraction, i.e. ``np.vdot(xi, M @ xi)``).
* Rank decisions use a relative eigenvalue threshold: an eigenvalue ``lam`` of
  a positive-semidefinite matrix is treated as zero when
  ``lam < DEFAULT_RANK_EPS * lam_max``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotPSD, ValidationError

__all__ = [
    "DEFAULT_RANK_EPS",
    "SectorParams",
    "adjoint",
    "herm_part",
    "imag_part",
    "frobenius",
    "herm_eig",
    "psd_sqrt",
    "pinv_sqrt",
    "psd_roots",
    "projection_residuals",
    "sector_pencils",
    "pencil_tangent",
]

#: Relative eigenvalue threshold below which spectra are truncated to zero.
DEFAULT_RANK_EPS = 1e-12

#: Relative Frobenius tolerance for the Hermitian-input precondition.
HERMITIAN_RTOL = 1e-12

#: Default slack, relative to the matrix scale, for semidefiniteness checks.
PSD_TOL = 1e-10

#: The tangent :func:`pencil_tangent` reports when no finite one works.
TANGENT_CAP = 1e12


def adjoint(m):
    """Conjugate transpose along the last two axes."""
    return np.conj(np.swapaxes(m, -2, -1))


def herm_part(m):
    """Hermitian part ``(M + M*) / 2``."""
    return 0.5 * (m + adjoint(m))


def imag_part(m):
    """Hermitian-imaginary part ``(M - M*) / (2i)``; Hermitian by construction."""
    return (m - adjoint(m)) / 2j


def frobenius(m):
    """Frobenius norm along the last two axes."""
    return np.sqrt(np.sum(np.abs(m) ** 2, axis=(-2, -1)))


def _require_hermitian(m, what):
    res = frobenius(m - adjoint(m))
    scale = frobenius(m)
    bad = res > HERMITIAN_RTOL * scale
    if np.any(bad):
        idx = np.argwhere(np.atleast_1d(bad))[0]
        raise NotHermitian(
            "%s is not Hermitian: asymmetry %.3e exceeds %.1e * norm (index %s)"
            % (what, float(np.max(res)), HERMITIAN_RTOL, tuple(map(int, idx)))
        )


def herm_eig(m):
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    m : ndarray, shape (..., d, d)
        Hermitian within ``HERMITIAN_RTOL`` relative Frobenius asymmetry.

    Returns
    -------
    w : ndarray, shape (..., d)
        Eigenvalues in ascending order (real).
    u : ndarray, shape (..., d, d)
        Unitary matrix of eigenvectors, columns matching ``w``.

    Raises
    ------
    NotHermitian
        If the asymmetry exceeds the tolerance.
    """
    m = np.asarray(m, dtype=complex)
    _require_hermitian(m, "herm_eig input")
    # Symmetrize before the solver so sub-tolerance asymmetry cannot leak
    # into complex eigenvalue artifacts.
    return np.linalg.eigh(herm_part(m))


def _clamped_psd_eig(a, what):
    """Eigendecomposition of a psd matrix with the rank rule applied.

    Eigenvalues below ``DEFAULT_RANK_EPS * lam_max`` are clamped to zero;
    eigenvalues below ``-DEFAULT_RANK_EPS * lam_max`` raise ``NotPSD``,
    which names the matrix of a stack with the lowest such eigenvalue.
    """
    w, u = herm_eig(a)
    top = np.maximum(w[..., -1], 0.0)
    floor = DEFAULT_RANK_EPS * top[..., None]
    bad = np.any(w < -floor, axis=-1)
    if np.any(bad):
        low = np.where(bad, w[..., 0], np.inf)
        index = int(np.argmin(low))
        raise NotPSD(
            "%s has a negative eigenvalue %.3e below the -%.1e * lam_max floor"
            % (what, float(low.flat[index]), DEFAULT_RANK_EPS),
            cell=index if low.ndim else None)
    w = np.where(w < floor, 0.0, w)
    return w, u


def _assemble(u, w):
    """Rebuild ``U diag(w) U*`` and re-Hermitize against rounding."""
    m = np.einsum("...ik,...k,...jk->...ij", u, w, np.conj(u))
    return herm_part(m)


def _inv_sqrt(w):
    """``lam -> lam**-0.5`` on positive ``lam`` and ``0`` elsewhere."""
    return np.where(w > 0.0, 1.0 / np.sqrt(np.where(w > 0.0, w, 1.0)), 0.0)


def psd_sqrt(a):
    """Unique positive-semidefinite square root of a psd matrix.

    The spectrum is clamped by the rank rule before taking square roots, so
    the result of a rank-deficient input is again rank deficient.
    """
    w, u = _clamped_psd_eig(np.asarray(a, dtype=complex), "psd_sqrt input")
    return _assemble(u, np.sqrt(w))


def pinv_sqrt(a):
    """Spectral inverse square root: ``lam -> lam**-0.5`` on the positive part
    of the spectrum and ``0`` on the (numerical) kernel.

    ``pinv_sqrt(a) @ psd_sqrt(a)`` is the orthogonal projection onto the
    numerical range of ``a``.
    """
    w, u = _clamped_psd_eig(np.asarray(a, dtype=complex), "pinv_sqrt input")
    return _assemble(u, _inv_sqrt(w))


def psd_roots(a):
    """``(psd_sqrt(a), pinv_sqrt(a))`` from one eigendecomposition of ``a``,
    bitwise equal to the two separate calls."""
    w, u = _clamped_psd_eig(np.asarray(a, dtype=complex), "psd_sqrt input")
    return _assemble(u, np.sqrt(w)), _assemble(u, _inv_sqrt(w))


def projection_residuals(q):
    """Hermitian and idempotence residuals of each matrix of a stack, in
    Frobenius norm relative to ``max(1, ||Q||_F)``."""
    scale = np.maximum(1.0, frobenius(q))
    return (frobenius(q - adjoint(q)) / scale,
            frobenius(np.matmul(q, q) - q) / scale)


@dataclass(frozen=True)
class SectorParams:
    """A closed sector around the positive real axis: vertex ``gamma`` on the
    real axis and half-angle ``theta`` in ``[0, pi/2)``."""

    theta: float
    gamma: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.theta < np.pi / 2):
            raise ValidationError(
                "sector half-angle must lie in [0, pi/2), got %r"
                % (self.theta,))


def sector_pencils(c, theta):
    """Sector condition of a stack ``C`` as three pencils: ``xi* C xi`` lies
    in the closed sector of half-angle ``theta`` exactly when ``A = herm(C)``
    and ``tan(theta) A +/- imag(C)`` are psd.  Returns the pencils and their
    smallest eigenvalues, shape ``(3,) + c.shape[:-2]``."""
    a = herm_part(c)
    b = imag_part(c)
    t = float(np.tan(theta))
    pencils = (a, t * a + b, t * a - b)
    return pencils, np.stack([np.linalg.eigvalsh(p)[..., 0]
                              for p in pencils])


def pencil_tangent(re_m, im_m):
    """Smallest ``t >= 0`` such that ``t * re_m + im_m`` and ``t * re_m -
    im_m`` are both psd, in closed form.

    ``re_m = U diag(w) U*`` (expected psd up to noise) is split by the rank
    rule (``w > DEFAULT_RANK_EPS * w_max``) into range and kernel.  If
    ``im_m`` couples into the kernel by more than the slack
    ``PSD_TOL * scale``, no ``t`` exists; otherwise ``t`` is the spectral
    radius of ``diag(w)^{-1/2} U* im_m U diag(w)^{-1/2}`` on the range.
    Deciding the kernel by the rank rule, not by a psd test at a slack,
    keeps the verdict stable under rounding of ``re_m``.  An ``im_m`` within
    the slack of zero gives ``t = 0``.

    Returns ``(t, certified)``; ``certified`` is False, with
    ``t == TANGENT_CAP``, when no ``t <= TANGENT_CAP`` works.
    """
    re_m = herm_part(np.asarray(re_m, dtype=complex))
    im_m = herm_part(np.asarray(im_m, dtype=complex))
    slack = PSD_TOL * max(1.0, float(frobenius(re_m)),
                          float(frobenius(im_m)))
    if float(np.max(np.abs(np.linalg.eigvalsh(im_m)))) <= slack:
        return 0.0, True
    w, u = np.linalg.eigh(re_m)
    live = w > DEFAULT_RANK_EPS * max(float(w[-1]), 0.0)
    if float(frobenius(im_m @ u[:, ~live])) > slack:
        return TANGENT_CAP, False
    scaled = u[:, live] / np.sqrt(w[live])
    t = float(np.max(np.abs(np.linalg.eigvalsh(adjoint(scaled) @ im_m
                                               @ scaled))))
    return (t, True) if t <= TANGENT_CAP else (TANGENT_CAP, False)
