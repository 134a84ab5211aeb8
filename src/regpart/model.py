"""Discrete coefficient model for second-order sesquilinear forms.

A model couples a :class:`~regpart.grid.GridSpec` with piecewise-constant
coefficient fields: a matrix field ``C_field``, vector fields ``b_field`` and
``d_field``, and a scalar field ``c0_field``.  For cell data ``(u_c, g_u)``
and ``(v_c, g_v)`` the form value is the midpoint-rule sum over cells of

    <C g_u, g_v>  +  (b . g_u) conj(v_c)  +  u_c (d . conj(g_v))
                  +  c0 u_c conj(v_c)

times the cell volume, where ``<x, y> = sum_k x_k conj(y_k)`` conjugates the
second slot and ``.`` is the plain bilinear dot.  So ``C_field`` acts on the
trial gradient and is paired against the conjugated test gradient, while the
first-order fields contract bilinearly against their own slot's gradient.

``derive_fields`` factors the model through the Hermitian part ``A`` of
``C``: it returns ``A``, its psd square root, the pseudo-inverse square root
``g``, and the bounded fields ``Z`` (Hermitian, ``A^{1/2}(I+iZ)A^{1/2} = C``),
``X`` (``A^{1/2} X = conj(b)``) and ``Y`` (``A^{1/2} Y = d``).  These exist
precisely because the model passes its sector and domination validation;
``eval_form_factored`` rewrites the form through them and must agree with
``eval_form`` to rounding.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (DegenerateBasis, DominationViolation, GridMismatch,
                     SectorViolation, ValidationError)
from .grid import GridSpec, TestFunction
from .pointwise import (DEFAULT_RANK_EPS, PSD_TOL, SectorParams, adjoint,
                        frobenius, herm_part, imag_part, pencil_tangent,
                        pinv_sqrt, psd_sqrt, sector_pencils)

__all__ = [
    "CoefficientSet",
    "DerivedFields",
    "FormValue",
    "derive_fields",
    "eval_form",
    "eval_form_factored",
    "estimate_vertex_angle",
    "h_inner",
]

#: Relative tolerance on the reconstruction residuals checked by
#: :func:`derive_fields`.
DERIVE_RTOL = 1e-9


def _worst_cell(values):
    """Index of the largest entry of a per-cell scalar array."""
    return int(np.argmax(values))


@dataclass
class CoefficientSet:
    """Per-cell coefficients of the form, plus its declared sector data.

    ``theta`` is the sector half-angle every cell's ``C_field`` matrix must
    respect, and ``K_bound`` the declared domination constant for the
    first-order fields.  Both are inputs that :meth:`validate` checks, not
    quantities the model estimates.
    """

    grid: GridSpec
    C_field: np.ndarray
    b_field: np.ndarray
    d_field: np.ndarray
    c0_field: np.ndarray
    theta: float
    K_bound: float

    def __post_init__(self):
        n, d = self.grid.n_cells, self.grid.dim
        self.C_field = np.asarray(self.C_field, dtype=complex)
        self.b_field = np.asarray(self.b_field, dtype=complex)
        self.d_field = np.asarray(self.d_field, dtype=complex)
        self.c0_field = np.asarray(self.c0_field, dtype=complex)
        self.theta = float(self.theta)
        self.K_bound = float(self.K_bound)
        shapes = {
            "C_field": ((n, d, d), self.C_field.shape),
            "b_field": ((n, d), self.b_field.shape),
            "d_field": ((n, d), self.d_field.shape),
            "c0_field": ((n,), self.c0_field.shape),
        }
        for name, (want, got) in shapes.items():
            if got != want:
                raise ValidationError("%s must have shape %r, got %r"
                                      % (name, want, got))

    @property
    def dim(self):
        return self.grid.dim

    @property
    def n_cells(self):
        return self.grid.n_cells

    def validate(self, psd_tol=PSD_TOL):
        """Check finiteness, the per-cell sector condition, and the per-cell
        domination pencils.

        Raises
        ------
        SectorViolation
            Some cell's ``C`` matrix has numerical range outside the sector
            of half-angle ``theta``; carries the cell index and a violating
            direction.
        DominationViolation
            ``K_bound**2 * A - outer(conj(b), b)`` or
            ``K_bound**2 * A - outer(d, conj(d))`` fails to be psd in some
            cell.
        ValidationError
            Non-finite data, ``theta`` outside ``[0, pi/2)``, or
            ``K_bound <= 0``.
        """
        for name in ("C_field", "b_field", "d_field", "c0_field"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError("%s contains non-finite entries" % name)
        if not (0.0 <= self.theta < np.pi / 2):
            raise ValidationError("theta must lie in [0, pi/2)")
        if not (np.isfinite(self.K_bound) and self.K_bound > 0):
            raise ValidationError("K_bound must be a positive real")

        pencils, mins = sector_pencils(self.C_field, self.theta)
        a = pencils[0]
        scale = np.maximum(1.0, frobenius(self.C_field))
        bad = mins < -psd_tol * scale[None, :]
        if np.any(bad):
            which, cell = np.unravel_index(
                int(np.argmin(mins + psd_tol * scale[None, :])), mins.shape)
            _, vecs = np.linalg.eigh(pencils[which][cell])
            raise SectorViolation(
                "cell %d leaves the sector of half-angle %.6g "
                "(pencil eigenvalue %.3e)" % (cell, self.theta,
                                              float(mins[which, cell])),
                cell=int(cell), witness=vecs[:, 0].copy())

        ksq = self.K_bound ** 2
        bbar = np.conj(self.b_field)
        for name, rank1 in (
                ("b_field", np.einsum("nk,nl->nkl", bbar, self.b_field)),
                ("d_field", np.einsum("nk,nl->nkl",
                                      self.d_field, np.conj(self.d_field)))):
            pencil = ksq * a - rank1
            pmin = np.linalg.eigvalsh(pencil)[..., 0]
            pscale = np.maximum(1.0, frobenius(pencil))
            bad = pmin < -psd_tol * pscale
            if np.any(bad):
                cell = _worst_cell(-(pmin / pscale))
                raise DominationViolation(
                    "cell %d: %s is not dominated by K_bound * A^{1/2} "
                    "(pencil eigenvalue %.3e)"
                    % (cell, name, float(pmin[cell])), cell=cell)
        return self


@dataclass
class DerivedFields:
    """Factored per-cell fields produced by :func:`derive_fields`."""

    grid: GridSpec
    A_field: np.ndarray
    Asqrt_field: np.ndarray
    g_field: np.ndarray
    Z_field: np.ndarray
    X_field: np.ndarray
    Y_field: np.ndarray

    @property
    def dim(self):
        return self.grid.dim

    @property
    def n_cells(self):
        return self.grid.n_cells


def derive_fields(coeffs, rank_eps=DEFAULT_RANK_EPS, rtol=DERIVE_RTOL):
    """Factor a validated :class:`CoefficientSet` through ``A = herm(C)``.

    Per cell: ``A``, ``Asqrt = psd_sqrt(A)``, ``g = pinv_sqrt(A)``, then

    * ``Z = g @ imag_part(C) @ g`` (re-Hermitized),
    * ``X = g @ conj(b)``, ``Y = g @ d``.

    The factorization is exact only when the skew data lives in the range of
    ``A``; that containment is exactly what the sector and domination
    conditions guarantee, and it is re-checked here on the reconstructions:

    * ``Asqrt @ (I + i Z) @ Asqrt == C``  (else :class:`SectorViolation`),
    * ``Asqrt @ X == conj(b)`` and ``Asqrt @ Y == d``
      (else :class:`DominationViolation`),

    all to ``rtol`` relative to the cell's data scale.
    """
    n, d = coeffs.n_cells, coeffs.dim
    a = herm_part(coeffs.C_field)
    asqrt = psd_sqrt(a, rank_eps=rank_eps)
    g = pinv_sqrt(a, rank_eps=rank_eps)
    im = imag_part(coeffs.C_field)
    z = herm_part(np.einsum("nij,njk,nkl->nil", g, im, g))
    bbar = np.conj(coeffs.b_field)
    x = np.einsum("nij,nj->ni", g, bbar)
    y = np.einsum("nij,nj->ni", g, coeffs.d_field)

    eye = np.broadcast_to(np.eye(d), (n, d, d))
    recon = np.einsum("nij,njk,nkl->nil", asqrt, eye + 1j * z, asqrt)
    res = frobenius(recon - coeffs.C_field)
    scale = np.maximum(1.0, frobenius(coeffs.C_field))
    if np.any(res > rtol * scale):
        cell = _worst_cell(res / scale)
        diff = recon[cell] - coeffs.C_field[cell]
        _, vecs = np.linalg.eigh(adjoint(diff) @ diff)
        raise SectorViolation(
            "cell %d: skew part of C is not carried by range(A) "
            "(reconstruction residual %.3e)" % (cell, float(res[cell])),
            cell=cell, witness=vecs[:, -1].copy())

    for name, vec, target in (("b_field", x, bbar),
                              ("d_field", y, coeffs.d_field)):
        back = np.einsum("nij,nj->ni", asqrt, vec)
        res = np.linalg.norm(back - target, axis=-1)
        scale = np.maximum(1.0, np.linalg.norm(target, axis=-1))
        if np.any(res > rtol * scale):
            cell = _worst_cell(res / scale)
            raise DominationViolation(
                "cell %d: %s is not carried by range(A^{1/2}) "
                "(residual %.3e)" % (cell, name, float(res[cell])), cell=cell)

    return DerivedFields(grid=coeffs.grid, A_field=a, Asqrt_field=asqrt,
                         g_field=g, Z_field=z, X_field=x, Y_field=y)


@dataclass(frozen=True)
class FormValue:
    """A form evaluation split into its four quadrature contributions."""

    second_order: complex
    first_order_b: complex
    first_order_d: complex
    zeroth_order: complex

    @property
    def value(self):
        return (self.second_order + self.first_order_b
                + self.first_order_d + self.zeroth_order)

    @property
    def parts(self):
        return (self.second_order, self.first_order_b,
                self.first_order_d, self.zeroth_order)


def _check_grids(grid, u, v):
    if u.grid != grid or v.grid != grid:
        raise GridMismatch("test functions must live on the model's grid")


def eval_form(coeffs, u, v):
    """Evaluate the form on a pair of test functions by midpoint quadrature.

    Returns a :class:`FormValue`; the conjugation sits on the ``v`` slot
    throughout, as described in the module docstring.
    """
    _check_grids(coeffs.grid, u, v)
    vol = coeffs.grid.cell_volume
    gu, gv = u.cell_gradient, v.cell_gradient
    uc, vc = u.cell_values, np.conj(v.cell_values)

    cgu = np.einsum("nkl,nl->nk", coeffs.C_field, gu)
    second = vol * complex(np.sum(np.einsum("nk,nk->n", cgu, np.conj(gv))))
    first_b = vol * complex(np.sum(
        np.einsum("nk,nk->n", coeffs.b_field, gu) * vc))
    first_d = vol * complex(np.sum(
        uc * np.einsum("nk,nk->n", coeffs.d_field, np.conj(gv))))
    zeroth = vol * complex(np.sum(coeffs.c0_field * uc * vc))
    return FormValue(second, first_b, first_d, zeroth)


def asqrt_gradient(derived, u):
    """Per-cell ``A^{1/2} @ grad(u)``, shape ``(n_cells, dim)``."""
    return np.einsum("nkl,nl->nk", derived.Asqrt_field, u.cell_gradient)


def eval_form_factored(derived, c0_field, u, v):
    """Evaluate the form through the factored fields.

    Computes ``<(I+iZ) w_u, w_v> + <w_u, v X> + <u Y, w_v> + <c0 u, v>``
    with ``w = A^{1/2} grad`` per cell, conjugation on the second slot.
    For fields produced by :func:`derive_fields` this equals
    :func:`eval_form` up to rounding.
    """
    _check_grids(derived.grid, u, v)
    vol = derived.grid.cell_volume
    wu = asqrt_gradient(derived, u)
    wv = asqrt_gradient(derived, v)
    uc, vc = u.cell_values, np.conj(v.cell_values)

    zwu = wu + 1j * np.einsum("nkl,nl->nk", derived.Z_field, wu)
    second = vol * complex(np.sum(np.einsum("nk,nk->n", zwu, np.conj(wv))))
    first_b = vol * complex(np.sum(
        np.einsum("nk,nk->n", wu, np.conj(derived.X_field)) * vc))
    first_d = vol * complex(np.sum(
        uc * np.einsum("nk,nk->n", derived.Y_field, np.conj(wv))))
    zeroth = vol * complex(np.sum(np.asarray(c0_field) * uc * vc))
    return FormValue(second, first_b, first_d, zeroth)


def h_inner(u, v):
    """Midpoint-rule L2 inner product ``<u, v>`` (conjugation on ``v``)."""
    if u.grid != v.grid:
        raise GridMismatch("test functions must live on one grid")
    return u.grid.cell_volume * complex(
        np.sum(u.cell_values * np.conj(v.cell_values)))


def form_gram(coeffs, basis, evaluator=None):
    """Gram matrices of the form and the L2 inner product on a basis.

    Returns ``(B, M)`` with ``B[i, j] = a(u_j, u_i)`` and
    ``M[i, j] = <u_j, u_i>``, so that coordinate vectors contract as
    ``a(u, u) = c* B c``.
    """
    m = len(basis)
    evaluator = evaluator or (lambda x, y: eval_form(coeffs, x, y).value)
    bmat = np.empty((m, m), dtype=complex)
    mmat = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            bmat[i, j] = evaluator(basis[j], basis[i])
            mmat[i, j] = h_inner(basis[j], basis[i])
    return bmat, mmat


def estimate_vertex_angle(coeffs, basis, tol=1e-9, cond_cap=1e12):
    """Estimate a vertex and half-angle of the form over a basis span.

    Assembles the Gram matrices of the form and the L2 inner product on the
    basis, takes ``gamma`` as the smallest generalized eigenvalue of
    ``(Re B, M)``, and finds the smallest ``t >= 0`` with
    ``t (Re B - gamma M) +/- Im B`` both psd by bisection.  The result is a
    certificate over the basis span only: the true vertex can be lower and
    the true angle wider on functions outside the span.

    Raises :class:`DegenerateBasis` when the L2 Gram matrix is numerically
    singular.
    """
    if not basis:
        raise DegenerateBasis("need at least one basis function")
    bmat, mmat = form_gram(coeffs, basis)

    mw = np.linalg.eigvalsh(herm_part(mmat))
    if mw[0] <= 0 or mw[-1] / mw[0] > cond_cap:
        raise DegenerateBasis(
            "basis Gram matrix is numerically singular "
            "(eigenvalue range [%.3e, %.3e])" % (float(mw[0]), float(mw[-1])))

    re_b = herm_part(bmat)
    im_b = imag_part(bmat)
    gamma = float(scipy.linalg.eigh(re_b, herm_part(mmat),
                                    eigvals_only=True)[0])
    t, _ = pencil_tangent(re_b - gamma * herm_part(mmat), im_b, tol=tol)
    # When the vertex minimizer still carries imaginary mass no finite
    # tangent dominates it; the bisection then returns its cap and the
    # angle degrades gracefully towards pi/2, which keeps the estimate
    # total (sampled vectors land inside the sector almost surely).
    return SectorParams(theta=float(np.arctan(t)), gamma=gamma)
