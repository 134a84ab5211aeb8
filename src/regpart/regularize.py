"""Closable/singular splitting of the coefficient fields.

Given a projection field ``Q`` selecting, per cell, the gradient directions
along which the form degenerates, this module builds the resolvent-type
kernel ``W = Q (I + i Q Z Q)^{-1} Q`` and ``P = I - Q`` and assembles new
coefficient fields whose form is the regular (closable) part of the original
one.  The complementary fields encode the singular part, so regular plus
singular reproduces the input coefficients exactly.

The assembled fields are, per cell::

    C_reg  = A^{1/2} P (I + iZ + Z W Z) P A^{1/2}
    b_reg  = transpose((I - i W Z) P A^{1/2}) conj(X)     (then conjugated
    d_reg  = adjoint((I + i W* Z) P A^{1/2}) Y             back to b/d slots)
    c0_reg = c0 - conj(X) . (W Y)

where ``A, Z, X, Y`` come from :func:`regpart.model.derive_fields`.  A
simplified variant applies when ``Q`` and ``Z`` commute, and an identity
suite checks the algebraic relations that make the two agree.

Only the cells of ``supp Q`` (where some entry of ``Q`` is nonzero) need
any of this.  Elsewhere ``W = 0`` and ``P = I``, the regular part is the
form itself, and the regular fields are copies of the input coefficients,
so the singular fields there are exactly ``0``.  The solves, the assembly
and the identity suite run on the ``supp Q`` cells only; the singular
structure still carries full-grid ``Q``, ``W`` and ``P`` fields, and the
identity suite's per-cell residuals are ``0.0`` off ``supp Q``.

A note on ``Q``: it is caller-supplied data, not derived from the
coefficients.  Helpers below build the two common shapes — an indicator set
times the identity, and the orthogonal projection onto per-cell spanning
vectors — but any per-cell family of orthogonal projections is accepted.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NotCommuting, ProjectionInvalid, SolveFailure
from .model import CoefficientSet
from .pointwise import adjoint, frobenius, herm_part, projection_residuals

__all__ = [
    "SingularStructure",
    "RegularizedCoefficients",
    "IdentityReport",
    "build_singular_structure",
    "identity_suite",
    "assemble_regular",
    "assemble_regular_commuting",
    "pure_second_order_parts",
    "indicator_projection",
    "interval_mask",
    "projection_from_spanning",
    "commutator_norms",
]

#: Residual budget for the structural relations checked at build time.
STRUCTURE_TOL = 1e-10


def _eye_like(field):
    n, d = field.shape[0], field.shape[-1]
    return np.broadcast_to(np.eye(d), (n, d, d))


def _support(q):
    """Indices of the cells where some entry of ``Q`` is nonzero."""
    return np.flatnonzero(np.any(q != 0, axis=(-2, -1)))


def _scatter(values, cells, n):
    """Full-grid array equal to ``values`` on ``cells`` and 0 elsewhere."""
    out = np.zeros((n,) + values.shape[1:], dtype=values.dtype)
    out[cells] = values
    return out


@dataclass
class SingularStructure:
    """Projection field ``Q_field`` with its derived ``W_field`` and
    ``P_field = I - Q_field`` on the full grid, and the indices ``support``
    of the cells of ``supp Q``, the only cells where ``W != 0``."""

    grid: "object"
    Q_field: np.ndarray
    W_field: np.ndarray
    P_field: np.ndarray
    support: np.ndarray


def _resolvent(q, z):
    """``(I + iQZQ, (I + iQZQ)^{-1} Q)`` per cell."""
    lhs = _eye_like(q) + 1j * herm_part(np.matmul(np.matmul(q, z), q))
    try:
        return lhs, np.linalg.solve(lhs, q)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - cannot occur
        raise SolveFailure("per-cell resolvent solve failed: %s" % exc)


def _kernel_relations(q, w, z):
    """Residuals of the two relations that define ``W`` given ``Q``, ``Z``:
    ``WZQ = i(W - Q)`` and ``2 W*W = W* + W``."""
    return {
        "resolvent_commutation":
            np.matmul(np.matmul(w, z), q) - 1j * (w - q),
        "double_contraction":
            2.0 * np.matmul(adjoint(w), w) - (adjoint(w) + w),
    }


def build_singular_structure(q_field, derived):
    """Validate ``Q`` per cell and solve for ``W = Q (I+iQZQ)^{-1} Q``.

    ``I + iQZQ`` has Hermitian ``QZQ``, so its eigenvalues ``1 + i*lam``
    have modulus at least one and the per-cell dense solve is always well
    posed; residual failures therefore indicate corrupted inputs and raise
    :class:`SolveFailure` rather than a validation error.  Cells with
    ``Q = 0`` are projections with ``W = 0``; only the others are checked
    and solved.

    Raises
    ------
    ProjectionInvalid
        Some cell of ``q_field`` is not an orthogonal projection (named in
        the message).
    """
    q = np.asarray(q_field, dtype=complex)
    n, d = derived.n_cells, derived.dim
    if q.shape != (n, d, d):
        raise GridMismatch("Q_field must have shape (%d, %d, %d)" % (n, d, d))

    cells = _support(q)
    qs = q[cells]
    # an infinite entry gives NaN residuals, which count as bad
    with np.errstate(invalid="ignore"):
        res_h, res_i = projection_residuals(qs)
    bad = ~((res_h <= STRUCTURE_TOL) & (res_i <= STRUCTURE_TOL))
    if np.any(bad):
        k = int(np.argmax(np.maximum(res_h, res_i)))
        cell = int(cells[k])
        raise ProjectionInvalid(
            "cell %d: Q is not an orthogonal projection "
            "(hermitian residual %.3e, idempotence residual %.3e)"
            % (cell, float(res_h[k]), float(res_i[k])), cell=cell)

    z = derived.Z_field[cells]
    lhs, wtilde = _resolvent(qs, z)
    ws = np.matmul(qs, wtilde)

    worst = max(float(np.max(frobenius(r), initial=0.0)) for r in (
        np.matmul(lhs, wtilde) - qs, *_kernel_relations(qs, ws, z).values()))
    scale = float(np.max(frobenius(lhs), initial=0.0))
    if worst > max(STRUCTURE_TOL, 1e-12 * scale) * 10:
        raise SolveFailure(
            "resolvent kernel residuals out of budget (%.3e)" % worst)

    return SingularStructure(grid=derived.grid, Q_field=q,
                             W_field=_scatter(ws, cells, n),
                             P_field=_eye_like(q) - q, support=cells)


@dataclass
class IdentityReport:
    """Max-over-cells Frobenius residuals of the kernel identities."""

    residuals: dict
    per_cell: dict

    @classmethod
    def from_per_cell(cls, per_cell):
        return cls(residuals={name: float(np.max(val, initial=0.0))
                              for name, val in per_cell.items()},
                   per_cell=per_cell)

    @property
    def max_residual(self):
        return max(self.residuals.values())


def identity_suite(s, derived):
    """Residuals of the six algebraic identities behind the assembly.

    All are exact consequences of ``W = Q(I+iQZQ)^{-1}Q`` with Hermitian
    ``Z`` and orthogonal-projection ``Q``; the suite measures how far
    floating point lets them drift.  They hold exactly where ``Q = 0``, so
    they are evaluated on ``supp Q`` and reported as ``0.0`` elsewhere.
    """
    cells = s.support
    local = _identity_report(s.Q_field[cells], s.W_field[cells],
                             s.P_field[cells], derived.Z_field[cells])
    return IdentityReport.from_per_cell({
        name: _scatter(val, cells, derived.n_cells)
        for name, val in local.per_cell.items()})


def identity_residuals(q_field, z_field):
    """Identity suite on raw stacked ``(Q, Z)`` pairs.

    Builds the resolvent kernel in place, so arbitrary Hermitian ``Z``
    stacks can be screened without a full model around them.
    """
    q = np.asarray(q_field, dtype=complex)
    z = np.asarray(z_field, dtype=complex)
    w = np.matmul(q, _resolvent(q, z)[1])
    return _identity_report(q, w, _eye_like(q) - q, z)


def _identity_report(q, w, p, z):
    eye = _eye_like(q)
    iz = eye + 1j * z
    miwz = eye - 1j * np.matmul(w, z)
    iwsz = eye + 1j * np.matmul(adjoint(w), z)

    exprs = {
        **_kernel_relations(q, w, z),
        "mixed_first_order":
            np.matmul(np.matmul(q, np.matmul(iz, miwz)), p),
        "second_order_reduction":
            np.matmul(np.matmul(
                p, np.matmul(eye + 1j * np.matmul(z, adjoint(w)),
                             np.matmul(iz, miwz))), p)
            - np.matmul(np.matmul(
                p, iz + np.matmul(np.matmul(z, w), z)), p),
        "adjoint_first_order":
            np.matmul(np.matmul(-adjoint(w), np.matmul(eye - 1j * z, miwz))
                      + miwz, p)
            - np.matmul(iwsz, p),
        "zeroth_order_reduction":
            np.matmul(q, np.matmul(iz, w)) - q,
    }
    return IdentityReport.from_per_cell(
        {name: frobenius(val) for name, val in exprs.items()})


@dataclass
class RegularizedCoefficients:
    """Regular-part coefficient fields and their singular complements.

    The complement identities ``C_s = C - C_reg`` (and likewise for the
    lower-order fields) hold exactly, one floating-point subtraction per
    entry.
    """

    grid: "object"
    C_reg: np.ndarray
    b_reg: np.ndarray
    d_reg: np.ndarray
    c0_reg: np.ndarray
    C_s: np.ndarray
    b_s: np.ndarray
    d_s: np.ndarray
    c0_s: np.ndarray

    def regular_set(self, theta, K_bound):
        """Regular fields wrapped as a :class:`CoefficientSet` (declared
        sector data is carried over, not re-estimated)."""
        return CoefficientSet(grid=self.grid, C_field=self.C_reg,
                              b_field=self.b_reg, d_field=self.d_reg,
                              c0_field=self.c0_reg, theta=theta,
                              K_bound=K_bound)

    def singular_set(self, theta, K_bound):
        """Singular fields wrapped as a :class:`CoefficientSet`; note the
        singular part need not validate against any sector."""
        return CoefficientSet(grid=self.grid, C_field=self.C_s,
                              b_field=self.b_s, d_field=self.d_s,
                              c0_field=self.c0_s, theta=theta,
                              K_bound=K_bound)


def _package(coeffs, cells, c_reg, b_reg, d_reg, c0_reg):
    """Regular fields that copy the input off ``cells`` and take the
    assembled values on them, with their exact complements."""
    fields = []
    for full, local in ((coeffs.C_field, c_reg), (coeffs.b_field, b_reg),
                        (coeffs.d_field, d_reg), (coeffs.c0_field, c0_reg)):
        out = np.array(full, dtype=complex)
        out[cells] = local
        fields.append(out)
    c_reg, b_reg, d_reg, c0_reg = fields
    return RegularizedCoefficients(
        grid=coeffs.grid, C_reg=c_reg, b_reg=b_reg, d_reg=d_reg,
        c0_reg=c0_reg,
        C_s=coeffs.C_field - c_reg, b_s=coeffs.b_field - b_reg,
        d_s=coeffs.d_field - d_reg, c0_s=coeffs.c0_field - c0_reg)


def _first_order_fields(m_b, m_d, x, y):
    """Turn gradient-side kernels into coefficient vectors.

    The scalar ``conj(X)^t M grad(u)`` paired against ``conj(v)`` equals the
    b-style term ``(b_reg . grad u) conj(v)`` with
    ``b_reg[l] = sum_k M[k, l] conj(X[k])``; the adjoint pairing fixes the
    ``d_reg`` orientation with an extra conjugation.  The orientation is
    locked by the regression test comparing assembled fields against a direct
    sesquilinear evaluation.
    """
    b_reg = np.einsum("nkl,nk->nl", m_b, np.conj(x))
    d_reg = np.einsum("nkl,nk->nl", np.conj(m_d), y)
    return b_reg, d_reg


def _check_grids(coeffs, derived, s):
    if not (coeffs.grid == derived.grid == s.grid):
        raise GridMismatch("coefficients, derived fields and singular "
                           "structure must share one grid")


def assemble_regular(coeffs, derived, s):
    """Assemble the regular-part coefficient fields from the full kernel.

    See the module docstring for the per-cell formulas, which run on
    ``supp Q``; the other cells copy the input.  The output's ``*_s``
    fields are the exact complements.
    """
    _check_grids(coeffs, derived, s)
    cells = s.support
    w, p, z, asqrt, x, y, c0 = (f[cells] for f in (
        s.W_field, s.P_field, derived.Z_field, derived.Asqrt_field,
        derived.X_field, derived.Y_field, coeffs.c0_field))
    eye = _eye_like(z)

    kernel = eye + 1j * z + np.matmul(np.matmul(z, w), z)
    pa = np.matmul(p, asqrt)
    c_reg = np.matmul(np.matmul(adjoint(pa), kernel), pa)

    m_b = np.matmul(eye - 1j * np.matmul(w, z), pa)
    m_d = np.matmul(eye + 1j * np.matmul(adjoint(w), z), pa)
    b_reg, d_reg = _first_order_fields(m_b, m_d, x, y)

    wy = np.einsum("nkl,nl->nk", w, y)
    c0_reg = c0 - np.einsum("nk,nk->n", np.conj(x), wy)
    return _package(coeffs, cells, c_reg, b_reg, d_reg, c0_reg)


def commutator_norms(s, derived):
    """Per-cell Frobenius norms of ``Q Z - Z Q`` (0 off ``supp Q``)."""
    cells = s.support
    q, z = s.Q_field[cells], derived.Z_field[cells]
    return _scatter(frobenius(np.matmul(q, z) - np.matmul(z, q)), cells,
                    derived.n_cells)


def assemble_regular_commuting(coeffs, derived, s, tol=1e-9):
    """Simplified assembly valid when ``Q`` and ``Z`` commute per cell.

    The kernel collapses: the second-order field becomes
    ``A^{1/2} P (I + iZ) P A^{1/2}``, the first-order kernels lose their
    ``W``-corrections, and the zeroth-order correction uses
    ``Q (I + iZ)^{-1} Q`` directly.  Under the commutation hypothesis this
    agrees with :func:`assemble_regular` cell by cell.

    Raises :class:`NotCommuting` when ``max_c ||QZ - ZQ||_F`` exceeds
    ``tol`` relative to the cell scale.  Like :func:`assemble_regular`, it
    works on ``supp Q`` and copies the input elsewhere.
    """
    _check_grids(coeffs, derived, s)
    comm = commutator_norms(s, derived)
    scale = np.maximum(1.0, frobenius(derived.Z_field))
    if np.any(comm > tol * scale):
        cell = int(np.argmax(comm / scale))
        raise NotCommuting(
            "cell %d: ||QZ - ZQ||_F = %.3e exceeds the commuting tolerance"
            % (cell, float(comm[cell])))

    cells = s.support
    q, p, z, asqrt, x, y, c0 = (f[cells] for f in (
        s.Q_field, s.P_field, derived.Z_field, derived.Asqrt_field,
        derived.X_field, derived.Y_field, coeffs.c0_field))
    eye = _eye_like(z)

    pa = np.matmul(p, asqrt)
    c_reg = np.matmul(np.matmul(adjoint(pa), eye + 1j * z), pa)
    b_reg, d_reg = _first_order_fields(pa, pa, x, y)

    try:
        resolvent_q = np.linalg.solve(eye + 1j * z, q)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SolveFailure("(I + iZ) solve failed: %s" % exc)
    qy = np.einsum("nkl,nl->nk", np.matmul(q, resolvent_q), y)
    c0_reg = c0 - np.einsum("nk,nk->n", np.conj(x), qy)
    return _package(coeffs, cells, c_reg, b_reg, d_reg, c0_reg)


def pure_second_order_parts(reg):
    """Regular/singular split of the second-order-only companion form.

    The companion has the same ``C`` (so the same ``A``, ``Z`` and ``Q``)
    and no lower-order coefficients.  Its second-order regular field is the
    full model's, because the lower-order terms do not enter ``C_reg``, and
    its lower-order fields are ``0``: it is ``reg``'s second-order split
    with zero ``b``, ``d`` and ``c0`` fields.  The full regular part
    therefore differs from the pure one by lower-order terms only.
    """
    zero = {name: np.zeros_like(getattr(reg, name)) for name in (
        "b_reg", "d_reg", "c0_reg", "b_s", "d_s", "c0_s")}
    return RegularizedCoefficients(grid=reg.grid, C_reg=reg.C_reg,
                                   C_s=reg.C_s, **zero)


# -- Q constructors --------------------------------------------------------

def indicator_projection(grid, mask, dim=None):
    """Per-cell ``Q = 1_cell * I``: full projection on masked cells, zero
    elsewhere.  ``mask`` is a boolean array over cells."""
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    if mask.shape != (grid.n_cells,):
        raise GridMismatch("mask must have one entry per cell")
    d = grid.dim if dim is None else int(dim)
    q = np.zeros((grid.n_cells, d, d), dtype=complex)
    q[mask] = np.eye(d)
    return q


def interval_mask(grid, intervals):
    """Boolean per-cell indicator of a 1-D grid's cells whose centers lie
    strictly inside one of the ``(lo, hi)`` intervals."""
    centers = grid.cell_centers()[:, 0]
    mask = np.zeros(grid.n_cells, dtype=bool)
    for lo, hi in intervals:
        mask |= (centers > float(lo)) & (centers < float(hi))
    return mask


def projection_from_spanning(vectors):
    """Orthogonal projections onto per-cell spans.

    ``vectors`` has shape ``(n_cells, d, r)``: up to ``r`` spanning columns
    per cell, possibly dependent or zero.  One batched SVD gives each
    cell's left singular vectors; those whose singular value is below
    ``STRUCTURE_TOL * max(1, max |v_c|)`` are dropped, so rank deficiency
    is handled silently.
    """
    vectors = np.asarray(vectors, dtype=complex)
    if vectors.ndim != 3:
        raise ValueError("vectors must have shape (n_cells, d, r)")
    u, sv, _ = np.linalg.svd(vectors, full_matrices=False)
    scale = np.maximum(1.0, np.max(np.abs(vectors), axis=(1, 2)))
    keep = sv > STRUCTURE_TOL * scale[:, None]
    return np.einsum("nik,nk,njk->nij", u, keep, np.conj(u))
