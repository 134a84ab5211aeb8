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
  ``lam < rank_eps * lam_max``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotPSD, ValidationError

__all__ = [
    "DEFAULT_RANK_EPS",
    "SectorParams",
    "ProjectionCheck",
    "SectorCheck",
    "adjoint",
    "herm_part",
    "imag_part",
    "frobenius",
    "herm_eig",
    "psd_sqrt",
    "pinv_sqrt",
    "is_projection",
    "sector_check",
    "pencil_tangent",
]

#: Relative eigenvalue threshold below which spectra are truncated to zero.
DEFAULT_RANK_EPS = 1e-12

#: Relative Frobenius tolerance for the Hermitian-input precondition.
HERMITIAN_RTOL = 1e-12

#: Default slack, relative to the matrix scale, for semidefiniteness checks.
PSD_TOL = 1e-10


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


def _require_hermitian(m, rtol, what):
    res = frobenius(m - adjoint(m))
    scale = frobenius(m)
    bad = res > rtol * scale
    if np.any(bad):
        idx = np.argwhere(np.atleast_1d(bad))[0]
        raise NotHermitian(
            "%s is not Hermitian: asymmetry %.3e exceeds %.1e * norm (index %s)"
            % (what, float(np.max(res)), rtol, tuple(int(i) for i in idx))
        )


def herm_eig(m, rtol=HERMITIAN_RTOL):
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    m : ndarray, shape (..., d, d)
        Hermitian within ``rtol`` relative Frobenius asymmetry.

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
    _require_hermitian(m, rtol, "herm_eig input")
    # Symmetrize before the solver so sub-tolerance asymmetry cannot leak
    # into complex eigenvalue artifacts.
    return np.linalg.eigh(herm_part(m))


def _clamped_psd_eig(a, rank_eps, what):
    """Eigendecomposition of a psd matrix with the rank rule applied.

    Eigenvalues below ``rank_eps * lam_max`` are clamped to zero; eigenvalues
    below ``-rank_eps * lam_max`` raise ``NotPSD``.
    """
    w, u = herm_eig(a)
    top = np.maximum(w[..., -1], 0.0)
    floor = rank_eps * top[..., None]
    if np.any(w < -floor):
        worst = float(np.min(w))
        raise NotPSD(
            "%s has a negative eigenvalue %.3e below the -%.1e * lam_max floor"
            % (what, worst, rank_eps)
        )
    w = np.where(w < floor, 0.0, w)
    return w, u


def _assemble(u, w):
    """Rebuild ``U diag(w) U*`` and re-Hermitize against rounding."""
    m = np.einsum("...ik,...k,...jk->...ij", u, w, np.conj(u))
    return herm_part(m)


def psd_sqrt(a, rank_eps=DEFAULT_RANK_EPS):
    """Unique positive-semidefinite square root of a psd matrix.

    The spectrum is clamped by the rank rule before taking square roots, so
    the result of a rank-deficient input is again rank deficient.
    """
    w, u = _clamped_psd_eig(np.asarray(a, dtype=complex), rank_eps, "psd_sqrt input")
    return _assemble(u, np.sqrt(w))


def pinv_sqrt(a, rank_eps=DEFAULT_RANK_EPS):
    """Spectral inverse square root: ``lam -> lam**-0.5`` on the positive part
    of the spectrum and ``0`` on the (numerical) kernel.

    ``pinv_sqrt(a) @ psd_sqrt(a)`` is the orthogonal projection onto the
    numerical range of ``a``.
    """
    w, u = _clamped_psd_eig(np.asarray(a, dtype=complex), rank_eps, "pinv_sqrt input")
    g = np.where(w > 0.0, 1.0 / np.sqrt(np.where(w > 0.0, w, 1.0)), 0.0)
    return _assemble(u, g)


@dataclass(frozen=True)
class ProjectionCheck:
    """Outcome of an orthogonal-projection test."""

    ok: bool
    hermitian_residual: float
    idempotent_residual: float


def projection_residuals(q):
    """Hermitian and idempotence residuals of each matrix of a stack, in
    Frobenius norm relative to ``max(1, ||Q||_F)``."""
    scale = np.maximum(1.0, frobenius(q))
    return (frobenius(q - adjoint(q)) / scale,
            frobenius(np.matmul(q, q) - q) / scale)


def is_projection(q, tol=PSD_TOL):
    """:func:`projection_residuals` of a single matrix, with the verdict."""
    res_h, res_i = projection_residuals(np.asarray(q, dtype=complex))
    return ProjectionCheck(ok=bool(res_h <= tol and res_i <= tol),
                           hermitian_residual=float(res_h),
                           idempotent_residual=float(res_i))


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

    @property
    def tan_theta(self):
        return float(np.tan(self.theta))


@dataclass(frozen=True)
class SectorCheck:
    """Outcome of :func:`sector_check`; ``witness`` is a violating direction
    when ``ok`` is false."""

    ok: bool
    witness: np.ndarray | None
    min_eigs: tuple[float, float, float]


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


def sector_check(c, theta, psd_tol=PSD_TOL):
    """Decide whether the quadratic map ``xi -> xi* C xi`` of a single matrix
    lands in the closed sector of half-angle ``theta`` at the origin (see
    :func:`sector_pencils`).  On failure the eigenvector of the most
    negative pencil eigenvalue is returned as a witness direction.
    """
    c = np.asarray(c, dtype=complex)
    if c.ndim != 2:
        raise ValueError("sector_check operates on a single matrix")
    if not (0.0 <= theta < np.pi / 2):
        raise ValidationError("theta must lie in [0, pi/2)")
    pencils, mins = sector_pencils(c, theta)
    tol = psd_tol * max(1.0, float(frobenius(c)))
    ok = bool(np.all(mins >= -tol))
    witness = None if ok else \
        np.linalg.eigh(pencils[int(np.argmin(mins))])[1][:, 0]
    return SectorCheck(ok=ok, witness=witness,
                       min_eigs=tuple(float(m) for m in mins))


def pencil_tangent(re_m, im_m, psd_tol=PSD_TOL, t_cap=1e12):
    """Smallest ``t >= 0`` such that ``t * re_m + im_m`` and ``t * re_m -
    im_m`` are both psd, in closed form.

    ``re_m = U diag(w) U*`` (expected psd up to noise) is split by the rank
    rule (``w > DEFAULT_RANK_EPS * w_max``) into range and kernel.  If
    ``im_m`` couples into the kernel by more than the slack
    ``psd_tol * scale``, no ``t`` exists; otherwise ``t`` is the spectral
    radius of ``diag(w)^{-1/2} U* im_m U diag(w)^{-1/2}`` on the range.
    Deciding the kernel by the rank rule, not by a psd test at a slack,
    keeps the verdict stable under rounding of ``re_m``.  An ``im_m`` within
    the slack of zero gives ``t = 0``.

    Returns ``(t, certified)``; ``certified`` is False, with
    ``t == t_cap``, when no ``t <= t_cap`` works.
    """
    re_m = herm_part(np.asarray(re_m, dtype=complex))
    im_m = herm_part(np.asarray(im_m, dtype=complex))
    slack = psd_tol * max(1.0, float(frobenius(re_m)),
                          float(frobenius(im_m)))
    if float(np.max(np.abs(np.linalg.eigvalsh(im_m)))) <= slack:
        return 0.0, True
    w, u = np.linalg.eigh(re_m)
    live = w > DEFAULT_RANK_EPS * max(float(w[-1]), 0.0)
    if float(frobenius(im_m @ u[:, ~live])) > slack:
        return t_cap, False
    scaled = u[:, live] / np.sqrt(w[live])
    t = float(np.max(np.abs(np.linalg.eigvalsh(adjoint(scaled) @ im_m
                                               @ scaled))))
    return (t, True) if t <= t_cap else (t_cap, False)
