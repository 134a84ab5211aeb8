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

A note on ``Q``: it is caller-supplied data, not derived from the
coefficients.  Helpers below build the two common shapes — an indicator set
times the identity, and the orthogonal projection onto per-cell spanning
vectors — but any per-cell family of orthogonal projections is accepted.
"""

from dataclasses import dataclass, replace

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
    "projection_from_spanning",
    "commutator_norms",
]

#: Residual budget for the structural relations checked at build time.
STRUCTURE_TOL = 1e-10


def _eye_like(field):
    n, d = field.shape[0], field.shape[-1]
    return np.broadcast_to(np.eye(d), (n, d, d))


@dataclass
class SingularStructure:
    """Projection field ``Q_field`` with its derived ``W_field`` and
    ``P_field = I - Q_field``."""

    grid: "object"
    Q_field: np.ndarray
    W_field: np.ndarray
    P_field: np.ndarray


def _resolvent(q, z):
    """``(I + iQZQ, (I + iQZQ)^{-1} Q)`` per cell."""
    lhs = _eye_like(q) + 1j * herm_part(np.matmul(np.matmul(q, z), q))
    try:
        return lhs, np.linalg.solve(lhs, q)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - cannot occur
        raise SolveFailure("per-cell resolvent solve failed: %s" % exc)


def build_singular_structure(q_field, derived, tol=STRUCTURE_TOL):
    """Validate ``Q`` per cell and solve for ``W = Q (I+iQZQ)^{-1} Q``.

    ``I + iQZQ`` has Hermitian ``QZQ``, so its eigenvalues ``1 + i*lam``
    have modulus at least one and the per-cell dense solve is always well
    posed; residual failures therefore indicate corrupted inputs and raise
    :class:`SolveFailure` rather than a validation error.

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

    res_h, res_i = projection_residuals(q)
    bad = (res_h > tol) | (res_i > tol)
    if np.any(bad):
        cell = int(np.argmax(np.maximum(res_h, res_i)))
        raise ProjectionInvalid(
            "cell %d: Q is not an orthogonal projection "
            "(hermitian residual %.3e, idempotence residual %.3e)"
            % (cell, float(res_h[cell]), float(res_i[cell])), cell=cell)

    z = derived.Z_field
    lhs, wtilde = _resolvent(q, z)
    w = np.matmul(q, wtilde)

    solve_res = float(np.max(frobenius(np.matmul(lhs, wtilde) - q)))
    rc = float(np.max(frobenius(
        np.matmul(np.matmul(w, z), q) - 1j * (w - q))))
    dc = float(np.max(frobenius(
        2.0 * np.matmul(adjoint(w), w) - (adjoint(w) + w))))
    worst = max(solve_res, rc, dc)
    if worst > max(tol, 1e-12 * float(np.max(frobenius(lhs)))) * 10:
        raise SolveFailure(
            "resolvent kernel residuals out of budget (%.3e)" % worst)

    return SingularStructure(grid=derived.grid, Q_field=q, W_field=w,
                             P_field=_eye_like(q) - q)


@dataclass
class IdentityReport:
    """Max-over-cells Frobenius residuals of the kernel identities."""

    residuals: dict
    per_cell: dict

    @property
    def max_residual(self):
        return max(self.residuals.values())


def identity_suite(s, derived):
    """Residuals of the six algebraic identities behind the assembly.

    All are exact consequences of ``W = Q(I+iQZQ)^{-1}Q`` with Hermitian
    ``Z`` and orthogonal-projection ``Q``; the suite measures how far
    floating point lets them drift.
    """
    return _identity_report(s.Q_field, s.W_field, s.P_field, derived.Z_field)


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
        "resolvent_commutation":
            np.matmul(np.matmul(w, z), q) - 1j * (w - q),
        "double_contraction":
            2.0 * np.matmul(adjoint(w), w) - (adjoint(w) + w),
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
    per_cell = {name: frobenius(val) for name, val in exprs.items()}
    residuals = {name: float(np.max(val)) for name, val in per_cell.items()}
    return IdentityReport(residuals=residuals, per_cell=per_cell)


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


def _package(coeffs, c_reg, b_reg, d_reg, c0_reg):
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


def assemble_regular(coeffs, derived, s):
    """Assemble the regular-part coefficient fields from the full kernel.

    See the module docstring for the per-cell formulas.  The output's
    ``*_s`` fields are the exact complements.
    """
    if not (coeffs.grid == derived.grid == s.grid):
        raise GridMismatch("coefficients, derived fields and singular "
                           "structure must share one grid")
    z, w, p = derived.Z_field, s.W_field, s.P_field
    asqrt = derived.Asqrt_field
    eye = _eye_like(z)

    kernel = eye + 1j * z + np.matmul(np.matmul(z, w), z)
    pa = np.matmul(p, asqrt)
    c_reg = np.matmul(np.matmul(adjoint(pa), kernel), pa)

    m_b = np.matmul(eye - 1j * np.matmul(w, z), pa)
    m_d = np.matmul(eye + 1j * np.matmul(adjoint(w), z), pa)
    b_reg, d_reg = _first_order_fields(m_b, m_d, derived.X_field,
                                       derived.Y_field)

    wy = np.einsum("nkl,nl->nk", w, derived.Y_field)
    c0_reg = coeffs.c0_field - np.einsum("nk,nk->n",
                                         np.conj(derived.X_field), wy)
    return _package(coeffs, c_reg, b_reg, d_reg, c0_reg)


def commutator_norms(s, derived):
    """Per-cell Frobenius norms of ``Q Z - Z Q``."""
    q, z = s.Q_field, derived.Z_field
    return frobenius(np.matmul(q, z) - np.matmul(z, q))


def assemble_regular_commuting(coeffs, derived, s, tol=1e-9):
    """Simplified assembly valid when ``Q`` and ``Z`` commute per cell.

    The kernel collapses: the second-order field becomes
    ``A^{1/2} P (I + iZ) P A^{1/2}``, the first-order kernels lose their
    ``W``-corrections, and the zeroth-order correction uses
    ``Q (I + iZ)^{-1} Q`` directly.  Under the commutation hypothesis this
    agrees with :func:`assemble_regular` cell by cell.

    Raises :class:`NotCommuting` when ``max_c ||QZ - ZQ||_F`` exceeds
    ``tol`` relative to the cell scale.
    """
    if not (coeffs.grid == derived.grid == s.grid):
        raise GridMismatch("coefficients, derived fields and singular "
                           "structure must share one grid")
    comm = commutator_norms(s, derived)
    scale = np.maximum(1.0, frobenius(derived.Z_field))
    if np.any(comm > tol * scale):
        cell = int(np.argmax(comm / scale))
        raise NotCommuting(
            "cell %d: ||QZ - ZQ||_F = %.3e exceeds the commuting tolerance"
            % (cell, float(comm[cell])))

    q, p = s.Q_field, s.P_field
    z = derived.Z_field
    asqrt = derived.Asqrt_field
    eye = _eye_like(z)

    pa = np.matmul(p, asqrt)
    c_reg = np.matmul(np.matmul(adjoint(pa), eye + 1j * z), pa)
    b_reg, d_reg = _first_order_fields(pa, pa, derived.X_field,
                                       derived.Y_field)

    try:
        resolvent_q = np.linalg.solve(eye + 1j * z, q)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SolveFailure("(I + iZ) solve failed: %s" % exc)
    qy = np.einsum("nkl,nl->nk", np.matmul(q, resolvent_q), derived.Y_field)
    c0_reg = coeffs.c0_field - np.einsum("nk,nk->n",
                                         np.conj(derived.X_field), qy)
    return _package(coeffs, c_reg, b_reg, d_reg, c0_reg)


def pure_second_order_parts(coeffs, derived, s):
    """Regular/singular split of the second-order-only companion form.

    Runs the assembly with the lower-order coefficients zeroed out (same
    ``A``, ``Z`` and ``Q``).  The second-order regular field coincides with
    the full model's, so the full regular part differs from the pure one by
    lower-order terms only; tests confirm that difference pairs off exactly
    against the assembled ``b_reg``/``d_reg``/``c0_reg`` fields.
    """
    pure = CoefficientSet(
        grid=coeffs.grid, C_field=coeffs.C_field,
        b_field=np.zeros_like(coeffs.b_field),
        d_field=np.zeros_like(coeffs.d_field),
        c0_field=np.zeros_like(coeffs.c0_field),
        theta=coeffs.theta, K_bound=coeffs.K_bound)
    derived_pure = replace(derived, X_field=np.zeros_like(derived.X_field),
                           Y_field=np.zeros_like(derived.Y_field))
    return assemble_regular(pure, derived_pure, s)


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


def projection_from_spanning(vectors, tol=1e-10):
    """Orthogonal projections onto per-cell spans.

    ``vectors`` has shape ``(n_cells, d, r)``: up to ``r`` spanning columns
    per cell, possibly dependent or zero.  Columns are orthonormalized by
    modified Gram-Schmidt with one re-orthogonalization pass; columns whose
    remainder is below ``tol`` times the original scale are dropped, so rank
    deficiency is handled silently.
    """
    vectors = np.asarray(vectors, dtype=complex)
    if vectors.ndim != 3:
        raise ValueError("vectors must have shape (n_cells, d, r)")
    n, d, r = vectors.shape
    q = np.zeros((n, d, d), dtype=complex)
    for c in range(n):
        basis = []
        scale = max(1.0, float(np.max(np.abs(vectors[c])) ))
        for j in range(r):
            v = vectors[c, :, j].copy()
            for _ in range(2):  # MGS + re-orthogonalization
                for e in basis:
                    v = v - np.vdot(e, v) * e
            norm = np.linalg.norm(v)
            if norm > tol * scale:
                basis.append(v / norm)
        for e in basis:
            q[c] += np.outer(e, np.conj(e))
    return q
