"""Exact-contract kernels for complex square matrices.

All routines accept a single ``(d, d)`` matrix or a stack ``(..., d, d)`` and
operate matrix by matrix.  :func:`psd_roots` gives both square roots of a
psd matrix from one eigendecomposition, and :func:`sector_tangent` is the
one sector-tangent kernel: the report's regular tangent and every vertex
search read it.  They are pure functions with no shared state, so
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

from .errors import NotHermitian, ValidationError

__all__ = [
    "DEFAULT_RANK_EPS",
    "SectorParams",
    "adjoint",
    "herm_part",
    "imag_part",
    "frobenius",
    "herm_eig",
    "psd_roots",
    "projection_residuals",
    "sector_tangent",
]

#: Relative eigenvalue threshold below which spectra are truncated to zero.
DEFAULT_RANK_EPS = 1e-12

#: Relative Frobenius tolerance for the Hermitian-input precondition.
HERMITIAN_RTOL = 1e-12

#: Default slack, relative to the matrix scale, for semidefiniteness checks.
PSD_TOL = 1e-10

#: The tangent :func:`sector_tangent` reports when no finite one works.
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


def _rank_rule(w):
    """``(w, low)``: each matrix's ascending eigenvalues ``w`` with the rank
    rule applied (those below ``DEFAULT_RANK_EPS * max(lam_max, 0)`` read
    0), and its lowest eigenvalue if below ``-DEFAULT_RANK_EPS *
    lam_max``, or ``inf``."""
    floor = DEFAULT_RANK_EPS * np.maximum(w[..., -1:], 0.0)
    low = np.where(np.any(w < -floor, axis=-1), w[..., 0], np.inf)
    return np.where(w < floor, 0.0, w), low


def _assemble(u, w):
    """Rebuild ``U diag(w) U*`` and re-Hermitize against rounding."""
    m = np.einsum("...ik,...k,...jk->...ij", u, w, np.conj(u))
    return herm_part(m)


def _inv_sqrt(w):
    """``lam -> lam**-0.5`` on positive ``lam`` and ``0`` elsewhere."""
    return np.where(w > 0.0, 1.0 / np.sqrt(np.where(w > 0.0, w, 1.0)), 0.0)


def psd_roots(a):
    """``(a^{1/2}, g, low)`` from one eigendecomposition of a psd ``a``, on
    its spectrum clamped by :func:`_rank_rule`, whose ``low`` it returns:
    ``g`` is ``lam -> lam**-0.5`` on the positive part of the spectrum and
    0 on the kernel, so ``g a g`` projects onto the range of ``a``."""
    w, u = herm_eig(a)
    w, low = _rank_rule(w)
    return _assemble(u, np.sqrt(w)), _assemble(u, _inv_sqrt(w)), low


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


def _sandwich(g, im):
    """``Z = herm(g im g)`` of each matrix of two ``(n, d, d)`` stacks, and
    its spectral norm ``||Z||_2``."""
    z = herm_part(np.einsum("nij,njk,nkl->nil", g, im, g))
    return z, np.max(np.abs(np.linalg.eigvalsh(z)), axis=-1)


def sector_tangent(re, im):
    """Smallest ``t >= 0`` such that ``t re + im`` and ``t re - im`` are
    both psd, per matrix of two Hermitian stacks ``(..., d, d)``.

    ``re = U diag(w) U*`` is split by the rank rule (``w`` below
    ``DEFAULT_RANK_EPS * max(w_max, 0)`` is 0) into range and kernel, and
    ``t`` is ``||g im g||_2`` with ``g = U diag(w^{-1/2}) U*`` on the
    range.  Each pair has the slack ``PSD_TOL * max(||re||_F, ||im||_F)``,
    relative to its own norms, so the answer is free of the data's units:
    an ``im`` within the slack of zero gives ``t = 0``, and an ``im``
    coupling into the kernel by more than the slack has no finite ``t``.
    Deciding the kernel by the rank rule, not by a psd test at a slack,
    keeps the verdict stable under rounding of ``re``.

    Returns arrays ``(t, certified)`` of shape ``(...)``; ``certified`` is
    False, with ``t == TANGENT_CAP``, where no ``t <= TANGENT_CAP`` works.
    """
    re, im = np.asarray(re), np.asarray(im)
    shape, d = re.shape[:-2], re.shape[-1]
    re, im = re.reshape(-1, d, d), im.reshape(-1, d, d)
    w, u = np.linalg.eigh(re)
    w = _rank_rule(w)[0]
    t = _sandwich(_assemble(u, _inv_sqrt(w)), im)[1]
    im_norm = frobenius(im)
    slack = PSD_TOL * np.maximum(frobenius(re), im_norm)
    zero = im_norm <= slack
    coupled = frobenius(im @ (u * (w == 0.0)[:, None, :])) > slack
    certified = zero | (~coupled & (t <= TANGENT_CAP))
    t = np.where(zero, 0.0, np.where(certified, t, TANGENT_CAP))
    return t.reshape(shape), certified.reshape(shape)
