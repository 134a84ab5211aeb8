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
precisely because the model passes its sector and domination validation.

``eval_form`` evaluates the form on two test functions or two function
families; ``vertex_search`` reads the Gram pair ``(B, M)`` of ``form_gram``.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (DegenerateBasis, DominationViolation, GridMismatch,
                     SectorViolation, ValidationError)
from .grid import GridSpec, TestFunction
from .pointwise import (PSD_TOL, SectorParams, adjoint, frobenius,
                        herm_part, imag_part, pencil_tangent, psd_roots,
                        sector_pencils)

__all__ = [
    "CoefficientSet",
    "DerivedFields",
    "FormValue",
    "derive_fields",
    "eval_form",
    "estimate_vertex_angle",
    "form_gram",
    "vertex_search",
]

#: Condition-number cap on the L2 Gram matrix of a vertex-search basis.
VERTEX_COND_CAP = 1e12

#: Relative tolerance on the reconstruction residuals checked by
#: :func:`derive_fields`.
DERIVE_RTOL = 1e-9


def _worst_cell(values):
    """Index of the largest entry of a per-cell scalar array."""
    return int(np.argmax(values))


def _norm_scale(m):
    """``max(1, ||M||_F)`` per matrix of a finite stack; each matrix is
    divided by its largest modulus first, so entries past ``1e154`` cannot
    overflow when squared."""
    top = np.max(np.abs(m), axis=(-2, -1))
    unit = np.where(top > 0.0, top, 1.0)[..., None, None]
    return np.maximum(1.0, top * frobenius(m / unit))


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

    def validate(self):
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
            ``K_bound**2 * A - outer(d, conj(d))`` fails to be psd, or
            overflows, in some cell.
        ValidationError
            Non-finite data, ``theta`` outside ``[0, pi/2)``,
            ``K_bound <= 0``, or a ``K_bound`` whose square overflows.
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
        scale = _norm_scale(self.C_field)
        bad = mins < -PSD_TOL * scale[None, :]
        if np.any(bad):
            which, cell = np.unravel_index(
                int(np.argmin(mins + PSD_TOL * scale[None, :])), mins.shape)
            _, vecs = np.linalg.eigh(pencils[which][cell])
            raise SectorViolation(
                "cell %d leaves the sector of half-angle %.6g "
                "(pencil eigenvalue %.3e)" % (cell, self.theta,
                                              float(mins[which, cell])),
                cell=int(cell), witness=vecs[:, 0].copy())

        # a product, unlike ``**``, overflows to inf instead of raising
        ksq = self.K_bound * self.K_bound
        if not np.isfinite(ksq):
            raise ValidationError("K_bound = %.3e: K_bound**2 overflows"
                                  % self.K_bound)
        bbar = np.conj(self.b_field)
        # overflowing data leaves non-finite pencils for the check below
        with np.errstate(over="ignore", invalid="ignore"):
            ka = ksq * a
            pencils = {
                "b_field": ka - np.einsum("nk,nl->nkl", bbar, self.b_field),
                "d_field": ka - np.einsum("nk,nl->nkl", self.d_field,
                                          np.conj(self.d_field))}
        for name, pencil in pencils.items():
            finite = np.isfinite(pencil).all(axis=(-2, -1))
            if not np.all(finite):
                cell = int(np.argmin(finite))
                raise DominationViolation(
                    "cell %d: K_bound**2 * A - outer(%s) overflows"
                    % (cell, name), cell=cell)
            pmin = np.linalg.eigvalsh(pencil)[..., 0]
            pscale = _norm_scale(pencil)
            bad = pmin < -PSD_TOL * pscale
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


def derive_fields(coeffs):
    """Factor a validated :class:`CoefficientSet` through ``A = herm(C)``.

    Per cell: ``A``, then ``Asqrt = psd_sqrt(A)`` and ``g = pinv_sqrt(A)``
    from one eigendecomposition (:func:`~regpart.pointwise.psd_roots`), then

    * ``Z = g @ imag_part(C) @ g`` (re-Hermitized),
    * ``X = g @ conj(b)``, ``Y = g @ d``.

    The factorization is exact only when the skew data lives in the range of
    ``A``; that containment is exactly what the sector and domination
    conditions guarantee, and it is re-checked here on the reconstructions:

    * ``Asqrt @ (I + i Z) @ Asqrt == C``  (else :class:`SectorViolation`),
    * ``Asqrt @ X == conj(b)`` and ``Asqrt @ Y == d``
      (else :class:`DominationViolation`),

    all to ``DERIVE_RTOL`` relative to the cell's data scale.
    """
    n, d = coeffs.n_cells, coeffs.dim
    a = herm_part(coeffs.C_field)
    asqrt, g = psd_roots(a)
    im = imag_part(coeffs.C_field)
    z = herm_part(np.einsum("nij,njk,nkl->nil", g, im, g))
    bbar = np.conj(coeffs.b_field)
    x = np.einsum("nij,nj->ni", g, bbar)
    y = np.einsum("nij,nj->ni", g, coeffs.d_field)

    eye = np.broadcast_to(np.eye(d), (n, d, d))
    recon = np.einsum("nij,njk,nkl->nil", asqrt, eye + 1j * z, asqrt)
    res = frobenius(recon - coeffs.C_field)
    scale = np.maximum(1.0, frobenius(coeffs.C_field))
    if np.any(res > DERIVE_RTOL * scale):
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
        if np.any(res > DERIVE_RTOL * scale):
            cell = _worst_cell(res / scale)
            raise DominationViolation(
                "cell %d: %s is not carried by range(A^{1/2}) "
                "(residual %.3e)" % (cell, name, float(res[cell])), cell=cell)

    return DerivedFields(grid=coeffs.grid, A_field=a, Asqrt_field=asqrt,
                         g_field=g, Z_field=z, X_field=x, Y_field=y)


@dataclass(frozen=True)
class FormValue:
    """A form evaluation split into its four quadrature contributions.

    The parts are complex scalars for one pair of functions, and
    ``(len(u), len(v))`` arrays for two function families."""

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


def _stack(grid, funcs):
    """Cell values ``(k, n)`` and gradients ``(k, n, d)`` of a function
    family on ``grid``; one function is a family of one, and an empty
    family has ``k = 0``."""
    funcs = [funcs] if isinstance(funcs, TestFunction) else list(funcs)
    if any(f.grid != grid for f in funcs):
        raise GridMismatch("test functions must live on the model's grid")
    vals = np.array([f.cell_values for f in funcs], dtype=complex)
    grads = np.array([f.cell_gradient for f in funcs], dtype=complex)
    return (vals.reshape(-1, grid.n_cells),
            grads.reshape(-1, grid.n_cells, grid.dim))


def eval_form(coeffs, u, v):
    """Evaluate the form by midpoint quadrature.

    ``u`` and ``v`` are two test functions, or two sequences of them.  Two
    functions give a :class:`FormValue` of complex scalars; two sequences
    give one of ``(len(u), len(v))`` arrays with ``[i, j] = a(u_i, v_j)``.
    The conjugation sits on the ``v`` slot throughout, as described in the
    module docstring.  When ``v is u`` the family is stacked once.
    """
    single = isinstance(u, TestFunction) and isinstance(v, TestFunction)
    vol = coeffs.grid.cell_volume
    uc, gu = _stack(coeffs.grid, u)
    vc, gv = map(np.conj, (uc, gu) if v is u else _stack(coeffs.grid, v))

    cgu = np.einsum("nkl,inl->ink", coeffs.C_field, gu)
    nd = coeffs.n_cells * coeffs.dim
    second = vol * (cgu.reshape(len(uc), nd) @ gv.reshape(len(vc), nd).T)
    first_b = vol * (np.einsum("nk,ink->in", coeffs.b_field, gu) @ vc.T)
    first_d = vol * (uc @ np.einsum("nk,jnk->jn", coeffs.d_field, gv).T)
    zeroth = vol * ((coeffs.c0_field * uc) @ vc.T)
    parts = (second, first_b, first_d, zeroth)
    if single:
        parts = tuple(complex(p[0, 0]) for p in parts)
    return FormValue(*parts)


def form_gram(coeffs, basis):
    """Gram matrices of the form and the L2 inner product on a basis.

    Returns ``(B, M)`` with ``B[i, j] = a(u_j, u_i)`` and
    ``M[i, j] = <u_j, u_i>``, so that coordinate vectors contract as
    ``a(u, u) = c* B c``.
    """
    bmat = eval_form(coeffs, basis, basis).value.T
    vals, _ = _stack(coeffs.grid, basis)
    return bmat, coeffs.grid.cell_volume * (np.conj(vals) @ vals.T)


def vertex_search(bmat, mmat):
    """Vertex, half-angle and witness of a form over a basis span.

    ``gamma`` is the smallest generalized eigenvalue of ``(Re B, M)`` on the
    basis Gram pair of :func:`form_gram`, the witness its eigenvector,
    and the tangent :func:`~regpart.pointwise.pencil_tangent` of
    ``(Re B - gamma M, Im B)``; a form wider than any finite tangent comes
    back uncertified at the cap.  This certifies the span only: the true
    vertex can be lower and the angle wider outside it.

    Returns ``(SectorParams, witness, certified)``; raises
    :class:`DegenerateBasis` on an empty or numerically dependent basis.
    """
    if not len(mmat):
        raise DegenerateBasis("need at least one basis function")
    mh = herm_part(mmat)
    mw = np.linalg.eigvalsh(mh)
    if mw[0] <= 0 or mw[-1] / mw[0] > VERTEX_COND_CAP:
        raise DegenerateBasis(
            "basis Gram matrix is numerically singular "
            "(eigenvalue range [%.3e, %.3e])" % (float(mw[0]), float(mw[-1])))
    re_b = herm_part(bmat)
    w, vecs = scipy.linalg.eigh(re_b, mh)
    gamma = float(w[0])
    t, certified = pencil_tangent(re_b - gamma * mh, imag_part(bmat))
    return (SectorParams(theta=float(np.arctan(t)), gamma=gamma),
            vecs[:, 0].copy(), certified)


def estimate_vertex_angle(coeffs, basis):
    """The :class:`SectorParams` of :func:`vertex_search` on the form Gram
    of a basis."""
    return vertex_search(*form_gram(coeffs, basis))[0]
