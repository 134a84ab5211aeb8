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
``C``: it returns the psd square root ``A^{1/2}`` and the bounded fields
``Z`` (Hermitian, ``A^{1/2}(I+iZ)A^{1/2} = C``), ``X``
(``A^{1/2} X = conj(b)``) and ``Y`` (``A^{1/2} Y = d``).  It is also the
model's one sector and domination gate: the factorization exists, with
``||Z||_2 <= tan(theta)`` and ``||X||, ||Y|| <= K_bound``, exactly when
the model meets those conditions, and every measure it checks is
relative to the cell's own data.  ``CoefficientSet.validate`` checks only
what needs no factorization.  ``A`` itself and its pseudo-inverse square
root ``g`` are formed chunk by chunk on the way and not kept: no stage
reads them.

``eval_form`` evaluates the form on two test functions or two function
families (:class:`~regpart.grid.TestFunction` either way);
``vertex_search`` reads the Gram pair ``(B, M)`` of ``form_gram``.

``derive_fields`` runs chunk by chunk through
:func:`~regpart.grid.chunked` (which states how the chunks keep
the bits of one pass), and ``eval_form`` and ``form_gram`` add up partial
sums over the same chunks, so their temporaries are set by the chunk
size, not the grid size.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateBasis, DominationViolation, GridMismatch,
                     SectorViolation, ValidationError)
from .grid import DeltaField, GridSpec, cell_chunks, chunked
from .pointwise import (PSD_TOL, SectorParams, adjoint, herm_part,
                        imag_part, pencil_tangent, psd_roots)

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


@dataclass
class CoefficientSet:
    """Per-cell coefficients of the form, plus its declared sector data.

    ``theta`` is the sector half-angle every cell's ``C_field`` matrix must
    respect, and ``K_bound`` the declared domination constant for the
    first-order fields.  Both are inputs that :func:`derive_fields` checks
    the fields against, not quantities the model estimates.  Each field is
    a complex array, or a :class:`~regpart.grid.DeltaField` (a part of a
    split), which the per-cell passes read chunk by chunk.
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
        for name in ("C_field", "b_field", "d_field", "c0_field"):
            value = getattr(self, name)
            # a delta field is read chunk by chunk, never made whole here
            if not isinstance(value, DeltaField):
                setattr(self, name, np.asarray(value, dtype=complex))
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
        """Check what needs no factorization, raising
        :class:`ValidationError` on non-finite fields, ``theta`` outside
        ``[0, pi/2)``, or a ``K_bound`` that is not positive or whose
        square overflows.  The sector and domination gate is
        :func:`derive_fields`."""
        for name in ("C_field", "b_field", "d_field", "c0_field"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError("%s contains non-finite entries" % name)
        if not (0.0 <= self.theta < np.pi / 2):
            raise ValidationError("theta must lie in [0, pi/2)")
        if not (np.isfinite(self.K_bound) and self.K_bound > 0):
            raise ValidationError("K_bound must be a positive real")
        # a product, unlike ``**``, overflows to inf instead of raising
        if not np.isfinite(self.K_bound * self.K_bound):
            raise ValidationError("K_bound = %.3e: K_bound**2 overflows"
                                  % self.K_bound)
        return self


@dataclass
class DerivedFields:
    """Factored per-cell fields produced by :func:`derive_fields`: the psd
    square root ``Asqrt_field`` of ``A = herm(C)`` and the bounded fields
    ``Z_field``, ``X_field`` and ``Y_field``, ``(2 d^2 + 2 d)`` complex
    numbers per cell in all."""

    grid: GridSpec
    Asqrt_field: np.ndarray
    Z_field: np.ndarray
    X_field: np.ndarray
    Y_field: np.ndarray

    @property
    def dim(self):
        return self.grid.dim

    @property
    def n_cells(self):
        return self.grid.n_cells


def _relative_residual(got, want, axes):
    """Per cell ``||got - want|| / ||want||`` over ``axes`` (the residual
    where ``want`` is 0), each side divided by the largest modulus of
    ``want`` first, so that no square overflows."""
    size = np.abs(want)
    top = np.max(size, axis=axes, keepdims=True)
    unit = np.where(top > 0.0, top, 1.0)
    res = np.sqrt(np.sum((np.abs(got - want) / unit) ** 2, axis=axes))
    scale = np.sqrt(np.sum((size / unit) ** 2, axis=axes))
    return np.divide(res, scale, out=res, where=scale > 0.0)


def _worst(metric, limit):
    """The cell of the largest ``metric`` when some cell's is above
    ``limit`` or NaN (a NaN counts as the largest), else ``None``."""
    if np.all(metric <= limit):
        return None
    return int(np.argmax(np.where(np.isnan(metric), np.inf, metric)))


@np.errstate(over="ignore", invalid="ignore")
def derive_fields(coeffs):
    """Factor a :class:`CoefficientSet` through ``A = herm(C)``: the one
    gate on its sector and domination conditions.

    Per cell: ``A``, then ``Asqrt = psd_sqrt(A)`` and ``g = pinv_sqrt(A)``
    from one eigendecomposition (:func:`~regpart.pointwise.psd_roots`), then
    ``Z = g @ imag_part(C) @ g`` (re-Hermitized), ``X = g @ conj(b)`` and
    ``Y = g @ d``.  Where the skew data lie in ``range(A)`` the
    factorization reproduces ``C``, ``conj(b)`` and ``d``, and then ``C``
    lies in the sector of half-angle ``theta`` exactly when
    ``||Z||_2 <= tan(theta)``, and the first-order fields are dominated
    exactly when ``||X||, ||Y|| <= K_bound``.  Each cell records the
    eigenvalue of ``A`` below the rank rule's negative floor, its three
    reconstruction residuals relative to its own data, ``||Z||_2`` and
    ``||X||``, ``||Y||`` over ``K_bound``; all are free of the data's
    units.  After the pass the first failing check raises, naming its
    worst cell; data that overflow leave NaN or inf measures, which fail
    their checks without a warning (a NaN counts as the worst):

    * :class:`SectorViolation`, for a negative eigenvalue of ``A`` (the
      witness is its eigenvector), then for a ``C`` not reproduced to
      ``DERIVE_RTOL`` or a ``||Z||_2`` over ``tan(theta) + PSD_TOL`` (the
      witness is ``g v``, ``v`` the top eigenvector of ``Z``);
    * :class:`DominationViolation`, for ``conj(b)`` or ``d`` not
      reproduced to ``DERIVE_RTOL``, or ``||X||`` or ``||Y||`` over
      ``K_bound (1 + PSD_TOL)``, ``b`` first.

    ``A`` and ``g`` live for one chunk of cells; the result keeps
    ``Asqrt``, ``Z``, ``X`` and ``Y`` only.
    """
    eye = np.eye(coeffs.dim)
    tangent, k_bound = float(np.tan(coeffs.theta)), coeffs.K_bound

    def factor(rows):
        c, b, dd = (f[rows] for f in (coeffs.C_field, coeffs.b_field,
                                      coeffs.d_field))
        sq, gc, low = psd_roots(herm_part(c))
        z = herm_part(np.einsum("nij,njk,nkl->nil", gc, imag_part(c), gc))
        bbar = np.conj(b)
        x = np.einsum("nij,nj->ni", gc, bbar)
        y = np.einsum("nij,nj->ni", gc, dd)
        recon = np.einsum("nij,njk,nkl->nil", sq, eye + 1j * z, sq)
        margins = [low, _relative_residual(recon, c, (-2, -1)),
                   np.max(np.abs(np.linalg.eigvalsh(z)), axis=-1) - tangent]
        for vec, target in ((x, bbar), (y, dd)):
            margins += [_relative_residual(np.einsum("nij,nj->ni", sq, vec),
                                           target, (-1,)),
                        np.linalg.norm(vec / k_bound, axis=-1) - 1.0]
        return sq, z, x, y, np.stack(margins, axis=-1)

    asqrt, z, x, y, margins = chunked(factor, coeffs.n_cells)
    low, c_res, z_over, *first_order = margins.T
    if np.any(low < np.inf):
        cell = int(np.argmin(low))
        _, vecs = np.linalg.eigh(herm_part(coeffs.C_field[cell]))
        raise SectorViolation(
            "cell %d leaves the sector of half-angle %.6g (A has the "
            "eigenvalue %.3e)" % (cell, coeffs.theta, float(low[cell])),
            cell=cell, witness=vecs[:, 0].copy())
    for metric, limit, what in (
            (c_res, DERIVE_RTOL, "cell %(cell)d: skew part of C is not "
             "carried by range(A) (relative residual %(value).3e)"),
            (z_over, PSD_TOL, "cell %(cell)d leaves the sector of "
             "half-angle %(theta).6g (||Z|| exceeds tan(theta) by "
             "%(value).3e)")):
        cell = _worst(metric, limit)
        if cell is not None:
            w, vecs = np.linalg.eigh(z[cell])
            g = psd_roots(herm_part(coeffs.C_field[cell]))[1]
            raise SectorViolation(
                what % dict(cell=cell, theta=coeffs.theta,
                            value=float(metric[cell])),
                cell=cell, witness=g @ vecs[:, np.argmax(np.abs(w))])
    for name, bound, (res, over) in (
            ("b_field", "X", first_order[:2]),
            ("d_field", "Y", first_order[2:])):
        cell = _worst(res, DERIVE_RTOL)
        if cell is not None:
            raise DominationViolation(
                "cell %d: %s is not carried by range(A^{1/2}) (relative "
                "residual %.3e)" % (cell, name, float(res[cell])), cell=cell)
        cell = _worst(over, PSD_TOL)
        if cell is not None:
            raise DominationViolation(
                "cell %d: %s is not dominated by K_bound * A^{1/2} "
                "(||%s|| / K_bound - 1 = %.3e)"
                % (cell, name, bound, float(over[cell])), cell=cell)

    return DerivedFields(grid=coeffs.grid, Asqrt_field=asqrt, Z_field=z,
                         X_field=x, Y_field=y)


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


def eval_form(coeffs, u, v, cells=None):
    """Evaluate the form by midpoint quadrature.

    ``u`` and ``v`` are two test functions or two one-axis families.  Two
    functions give a :class:`FormValue` of complex scalars; two families
    give one of ``(len(u), len(v))`` arrays with ``[i, j] = a(u_i, v_j)``.
    The conjugation sits on the ``v`` slot throughout, as described in the
    module docstring.  The sums over cells run chunk by chunk
    (:func:`~regpart.grid.cell_chunks`), so the temporaries, the conjugated
    ``v`` family among them, hold one chunk of cells.  An index array
    ``cells`` sums over those cells only, for coefficients that are 0 on
    every other cell.
    """
    if u.grid != coeffs.grid or v.grid != coeffs.grid:
        raise GridMismatch("test functions must live on the model's grid")
    vol, n, d = coeffs.grid.cell_volume, coeffs.n_cells, coeffs.dim
    uc, gu = u.cell_values.reshape(-1, n), u.cell_gradient.reshape(-1, n, d)
    vc, gv = v.cell_values.reshape(-1, n), v.cell_gradient.reshape(-1, n, d)
    chunks = cell_chunks(n) if cells is None else [
        cells[part] for part in cell_chunks(len(cells))]
    total = None
    for chunk in chunks:
        parts = _form_parts(coeffs, chunk, uc[:, chunk], gu[:, chunk],
                            vc[:, chunk], gv[:, chunk], v is u)
        total = parts if total is None else [t + p for t, p in
                                             zip(total, parts)]
    if total is None:  # an empty ``cells``
        total = [np.zeros((len(uc), len(vc)), dtype=complex)] * 4
    # a 0-d part read with [()] is a np.complex128, itself a complex
    shape = u.cell_values.shape[:-1] + v.cell_values.shape[:-1]
    return FormValue(*((vol * p).reshape(shape)[()] for p in total))


def _form_parts(coeffs, cells, uc, gu, vc, gv, same):
    """The four unscaled quadrature sums of :func:`eval_form` over the
    ``cells`` of one chunk, whose family data are ``uc``/``gu`` and
    ``vc``/``gv``; with ``same`` the ``v`` family is the ``u`` family and
    is conjugated once."""
    (ku, m, d), kv = gu.shape, len(vc)
    vc, gv = map(np.conj, (uc, gu) if same else (vc, gv))
    cgu = np.einsum("nkl,inl->ink", coeffs.C_field[cells], gu)
    return (cgu.reshape(ku, m * d) @ gv.reshape(kv, m * d).T,
            np.einsum("nk,ink->in", coeffs.b_field[cells], gu) @ vc.T,
            uc @ np.einsum("nk,jnk->jn", coeffs.d_field[cells], gv).T,
            (coeffs.c0_field[cells] * uc) @ vc.T)


def form_gram(coeffs, basis):
    """Gram matrices of the form and the L2 inner product on a one-axis
    family ``basis``.

    Returns ``(B, M)`` with ``B[i, j] = a(u_j, u_i)`` and
    ``M[i, j] = <u_j, u_i>``, so that coordinate vectors contract as
    ``a(u, u) = c* B c``.  Both sums over cells run chunk by chunk.
    """
    bmat = eval_form(coeffs, basis, basis).value.T
    vals = basis.cell_values
    mass = None
    for cells in cell_chunks(coeffs.n_cells):
        part = np.conj(vals[:, cells]) @ vals[:, cells].T
        mass = part if mass is None else mass + part
    return bmat, coeffs.grid.cell_volume * mass


def vertex_search(bmat, mmat):
    """Vertex, half-angle and witness of a form over a basis span.

    ``gamma`` is the smallest generalized eigenvalue of ``(Re B, M)`` on the
    basis Gram pair of :func:`form_gram`, the witness its ``M``-normalized
    eigenvector, and the tangent :func:`~regpart.pointwise.pencil_tangent`
    of ``(Re B - gamma M, Im B)``; a form wider than any finite tangent
    comes back uncertified at the cap.  This certifies the span only: the
    true vertex can be lower and the angle wider outside it.  One
    eigendecomposition of ``M`` serves both the condition gate and the
    reduction of the pencil to a Hermitian eigenproblem.

    Returns ``(SectorParams, witness, certified)``; raises
    :class:`DegenerateBasis` on an empty or numerically dependent basis.
    """
    if not len(mmat):
        raise DegenerateBasis("need at least one basis function")
    mh = herm_part(mmat)
    mw, mu = np.linalg.eigh(mh)
    if mw[0] <= 0 or mw[-1] / mw[0] > VERTEX_COND_CAP:
        raise DegenerateBasis(
            "basis Gram matrix is numerically singular "
            "(eigenvalue range [%.3e, %.3e])" % (float(mw[0]), float(mw[-1])))
    # W^H M W = I, so the pencil (Re B, M) is the matrix W^H Re B W
    whiten = mu / np.sqrt(mw)
    re_b = herm_part(bmat)
    w, vecs = np.linalg.eigh(herm_part(adjoint(whiten) @ re_b @ whiten))
    gamma = float(w[0])
    t, certified = pencil_tangent(re_b - gamma * mh, imag_part(bmat))
    return (SectorParams(theta=float(np.arctan(t)), gamma=gamma),
            whiten @ vecs[:, 0], certified)


def estimate_vertex_angle(coeffs, basis):
    """The :class:`SectorParams` of :func:`vertex_search` on the form Gram
    of a basis."""
    return vertex_search(*form_gram(coeffs, basis))[0]
