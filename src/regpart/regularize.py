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
form itself, and the regular fields are the input coefficients, so the
singular fields there are exactly ``0``.  The solves, the assembly
and the identity suite run on the ``supp Q`` cells only: the singular
structure keeps ``Q`` and ``W`` as stacks over those cells, with their
indices, the split keeps its fields as stacks over them too (a ``supp Q``
delta of the input, :class:`RegularizedCoefficients`), and the identity
suite keeps its norms for them alone.  The structure, both assemblies and
the identity suite run block by block over those cells through
:func:`~regpart.grid.chunked`, which keeps the bits of one pass, so their
temporaries are set by the block, not by the support.  The identity suite
forms one identity at a time and reduces it to its per-matrix Frobenius
norm before forming the next.

A note on ``Q``: it is caller-supplied data, not derived from the
coefficients.  Helpers below build the two common shapes — an indicator set
times the identity, and the orthogonal projection onto per-cell spanning
vectors — but any per-cell family of orthogonal projections is accepted.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NotCommuting, ProjectionInvalid, SolveFailure
from .grid import DeltaField, chunked
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

#: Commutator norm, relative to ``max(1, ||Z||_F)``, above which
#: :func:`assemble_regular_commuting` refuses a cell.
COMMUTING_TOL = 1e-9

#: The identities of :func:`identity_suite`, in the order they are formed.
IDENTITIES = ("resolvent_commutation", "double_contraction",
              "mixed_first_order", "second_order_reduction",
              "adjoint_first_order", "zeroth_order_reduction")


def _eye_like(field):
    n, d = field.shape[0], field.shape[-1]
    return np.broadcast_to(np.eye(d), (n, d, d))


def _support(q):
    """Indices of the cells where some entry of ``Q`` is nonzero."""
    return np.flatnonzero(np.any(q != 0, axis=(-2, -1)))


@dataclass
class SingularStructure:
    """The indices ``support`` of the cells of ``supp Q`` and, as stacks
    over them, the projections ``Q`` and the kernel ``W``.  Off
    ``supp Q``, ``Q = W = 0`` and ``I - Q = I``, so nothing is kept
    there."""

    grid: "object"
    support: np.ndarray
    Q: np.ndarray
    W: np.ndarray


def _resolvent(q, z):
    """``(I + iQZQ, (I + iQZQ)^{-1} Q)`` per cell."""
    lhs = _eye_like(q) + 1j * herm_part(np.matmul(np.matmul(q, z), q))
    try:
        return lhs, np.linalg.solve(lhs, q)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - cannot occur
        raise SolveFailure("per-cell resolvent solve failed: %s" % exc)


def _kernel_relations(q, w, z):
    """Per-matrix Frobenius residuals of the two relations that define
    ``W`` given ``Q``, ``Z``: ``WZQ = i(W - Q)`` and ``2 W*W = W* + W``,
    the second formed after the first is reduced."""
    yield frobenius(np.matmul(np.matmul(w, z), q) - 1j * (w - q))
    yield frobenius(2.0 * np.matmul(adjoint(w), w) - (adjoint(w) + w))


def build_singular_structure(q_field, derived):
    """Validate ``Q`` per cell and solve for ``W = Q (I+iQZQ)^{-1} Q``.

    ``I + iQZQ`` has Hermitian ``QZQ``, so its eigenvalues ``1 + i*lam``
    have modulus at least one and the per-cell dense solve is always well
    posed; residual failures therefore indicate corrupted inputs and raise
    :class:`SolveFailure` rather than a validation error.  Cells with
    ``Q = 0`` are projections with ``W = 0``; only the others are checked,
    solved and kept.  The check and the solve run block by block over
    them (:func:`~regpart.grid.chunked`), so only ``Q``, ``W`` and a few
    floats per cell grow with ``supp Q``.

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
    _check_projections(qs, cells)

    def solve(rows):
        qb, z = qs[rows], derived.Z_field[cells[rows]]
        lhs, wtilde = _resolvent(qb, z)
        wb = np.matmul(qb, wtilde)
        res = frobenius(np.matmul(lhs, wtilde) - qb)
        for norms in _kernel_relations(qb, wb, z):
            res = np.maximum(res, norms)
        return wb, res, frobenius(lhs)

    ws, res, scale = chunked(solve, len(cells))
    worst = float(np.max(res, initial=0.0))
    if worst > max(STRUCTURE_TOL,
                   1e-12 * float(np.max(scale, initial=0.0))) * 10:
        raise SolveFailure(
            "resolvent kernel residuals out of budget (%.3e)" % worst)

    return SingularStructure(grid=derived.grid, support=cells, Q=qs, W=ws)


def _check_projections(qs, cells):
    """Raise :class:`ProjectionInvalid` if some matrix of the stack ``qs``
    over ``cells`` is not an orthogonal projection.  The stack is checked
    block by block, and the error names the cell with the largest residual
    of the whole stack: the first such, a NaN counting as largest."""
    # an infinite entry gives NaN residuals, which count as bad
    with np.errstate(invalid="ignore"):
        res_h, res_i = chunked(lambda rows: projection_residuals(qs[rows]),
                               len(qs))
    top = np.maximum(res_h, res_i)
    if not np.all(top <= STRUCTURE_TOL):
        k = int(np.argmax(top))
        cell = int(cells[k])
        raise ProjectionInvalid(
            "cell %d: Q is not an orthogonal projection "
            "(hermitian residual %.3e, idempotence residual %.3e)"
            % (cell, float(res_h[k]), float(res_i[k])), cell=cell)


@dataclass
class IdentityReport:
    """Max-over-cells Frobenius residuals of the kernel identities, with
    the per-matrix norms they are taken over: ``per_cell[name][k]``
    belongs to cell ``cells[k]``, or to draw ``k`` of raw draws, whose
    ``cells`` is ``None``."""

    residuals: dict
    per_cell: dict
    cells: np.ndarray = None

    @property
    def max_residual(self):
        return max(self.residuals.values())


def identity_suite(s, derived):
    """Residuals of the six algebraic identities behind the assembly.

    All are exact consequences of ``W = Q(I+iQZQ)^{-1}Q`` with Hermitian
    ``Z`` and orthogonal-projection ``Q``; the suite measures how far
    floating point lets them drift.  They hold exactly where ``Q = 0``, so
    they are evaluated on the stacks of ``supp Q`` only, and the report
    keeps the norms of those cells with their indices.
    """
    return _identity_report(s.Q, derived.Z_field[s.support], w=s.W,
                            cells=s.support)


def identity_residuals(q_field, z_field):
    """Identity suite on raw stacked ``(Q, Z)`` pairs.

    Builds the resolvent kernel block by block, one solve per block, so
    arbitrary Hermitian ``Z`` stacks can be screened without a full model
    around them, in a working set set by the block, not the stack.
    """
    return _identity_report(np.asarray(q_field, dtype=complex),
                            np.asarray(z_field, dtype=complex))


def _identity_report(q, z, w=None, cells=None):
    """The per-matrix norms of the :data:`IDENTITIES` over stacks ``q``,
    ``z`` and the kernel ``w``, block by block; a ``w`` of ``None`` is
    solved from each block's ``(q, z)``.  The norms belong to ``cells``
    (see :class:`IdentityReport`)."""
    def norms(rows):
        qb, zb = q[rows], z[rows]
        wb = np.matmul(qb, _resolvent(qb, zb)[1]) if w is None else w[rows]
        return tuple(_identity_norms(qb, wb, zb))

    per_cell = dict(zip(IDENTITIES, chunked(norms, len(q))))
    return IdentityReport(residuals={name: float(np.max(val, initial=0.0))
                                     for name, val in per_cell.items()},
                          per_cell=per_cell, cells=cells)


def _identity_norms(q, w, z):
    """The norms of the :data:`IDENTITIES` on one block; each identity is
    formed and reduced to its per-matrix Frobenius norm before the next
    is formed."""
    yield from _kernel_relations(q, w, z)
    eye = _eye_like(q)
    p = eye - q
    iz = eye + 1j * z
    miwz = eye - 1j * np.matmul(w, z)
    yield frobenius(np.matmul(np.matmul(q, np.matmul(iz, miwz)), p))
    yield frobenius(
        np.matmul(np.matmul(
            p, np.matmul(eye + 1j * np.matmul(z, adjoint(w)),
                         np.matmul(iz, miwz))), p)
        - np.matmul(np.matmul(p, iz + np.matmul(np.matmul(z, w), z)), p))
    yield frobenius(
        np.matmul(np.matmul(-adjoint(w), np.matmul(eye - 1j * z, miwz))
                  + miwz, p)
        - np.matmul(eye + 1j * np.matmul(adjoint(w), z), p))
    yield frobenius(np.matmul(q, np.matmul(iz, w)) - q)


def _field(side, k):
    """The property of field ``k`` of ``(C, b, d, c0)`` on ``side``."""
    return property(lambda self: getattr(self, side)[k])


@dataclass
class RegularizedCoefficients:
    """Regular-part coefficient fields and their singular complements, held
    as ``supp Q`` deltas of the input.

    ``support`` holds the indices of the cells of ``supp Q``.  ``regular``
    and ``singular`` are the four fields ``(C, b, d, c0)`` of each part as
    :class:`~regpart.grid.DeltaField` s over ``support``: off ``supp Q``
    the regular part is the input (the regular fields' ``base``) and the
    singular part is exactly 0 (a broadcast 0 that holds no memory), so
    only the stacks over ``supp Q`` (their ``values``) are kept, and no
    full-grid output field is allocated.  The singular stacks are
    ``input[support] - regular``, one floating-point subtraction per
    entry, so the complement identities ``C_s = C - C_reg`` (and likewise
    for the lower-order fields) hold exactly.  ``C_reg`` ... ``c0_reg``
    and ``C_s`` ... ``c0_s`` name the eight fields.
    """

    grid: "object"
    support: np.ndarray
    regular: tuple
    singular: tuple

    C_reg, b_reg, d_reg, c0_reg = (_field("regular", k) for k in range(4))
    C_s, b_s, d_s, c0_s = (_field("singular", k) for k in range(4))

    def regular_set(self, theta, K_bound):
        """Regular fields wrapped as a :class:`CoefficientSet` (declared
        sector data is carried over, not re-estimated)."""
        return CoefficientSet(self.grid, *self.regular, theta=theta,
                              K_bound=K_bound)

    def singular_set(self, theta, K_bound):
        """Singular fields wrapped as a :class:`CoefficientSet`; note the
        singular part need not validate against any sector."""
        return CoefficientSet(self.grid, *self.singular, theta=theta,
                              K_bound=K_bound)


def _split(grid, support, inputs, regular):
    """The split of the full-grid ``inputs`` whose regular fields are the
    stacks ``regular`` on ``support``, with their exact complements."""
    return RegularizedCoefficients(
        grid=grid, support=support,
        regular=tuple(DeltaField(full, support, reg)
                      for full, reg in zip(inputs, regular)),
        singular=tuple(DeltaField(
            np.broadcast_to(np.zeros((), complex), full.shape), support,
            full[support] - reg) for full, reg in zip(inputs, regular)))


def _package(coeffs, derived, s, fields):
    """The split whose regular fields, block by block of the cells of
    ``supp Q``, take the values ``fields(coeffs, derived, s, block)``
    assembles on them; off ``supp Q`` it keeps nothing (see
    :class:`RegularizedCoefficients`)."""
    inputs = (coeffs.C_field, coeffs.b_field, coeffs.d_field,
              coeffs.c0_field)
    regular = chunked(lambda rows: fields(coeffs, derived, s, rows),
                      len(s.support))
    return _split(coeffs.grid, s.support, inputs, regular)


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
    ``supp Q`` block by block (:func:`~regpart.grid.chunked`); the
    other cells keep the input.  The output's ``*_s`` fields are the exact
    complements.
    """
    _check_grids(coeffs, derived, s)
    return _package(coeffs, derived, s, _regular_fields)


def _support_data(coeffs, derived, s, block):
    """``(Z, A^{1/2}, X, Y, c0, Q)`` on the cells ``s.support[block]``."""
    cells = s.support[block]
    return (*(f[cells] for f in (derived.Z_field, derived.Asqrt_field,
                                 derived.X_field, derived.Y_field,
                                 coeffs.c0_field)), s.Q[block])


def _regular_fields(coeffs, derived, s, block):
    """The four fields of the full assembly on one block of the cells of
    ``supp Q``, ``(C_reg, b_reg, d_reg, c0_reg)``."""
    z, asqrt, x, y, c0, q = _support_data(coeffs, derived, s, block)
    eye = _eye_like(z)
    w = s.W[block]
    p = eye - q

    kernel = eye + 1j * z + np.matmul(np.matmul(z, w), z)
    pa = np.matmul(p, asqrt)
    c_reg = np.matmul(np.matmul(adjoint(pa), kernel), pa)

    m_b = np.matmul(eye - 1j * np.matmul(w, z), pa)
    m_d = np.matmul(eye + 1j * np.matmul(adjoint(w), z), pa)
    b_reg, d_reg = _first_order_fields(m_b, m_d, x, y)

    wy = np.einsum("nkl,nl->nk", w, y)
    c0_reg = c0 - np.einsum("nk,nk->n", np.conj(x), wy)
    return c_reg, b_reg, d_reg, c0_reg


def _commutators(s, derived):
    """Frobenius norms of ``Q Z - Z Q`` on the cells of ``supp Q``."""
    q, z = s.Q, derived.Z_field[s.support]
    return frobenius(np.matmul(q, z) - np.matmul(z, q))


def commutator_norms(s, derived):
    """Per-cell Frobenius norms of ``Q Z - Z Q`` (0 off ``supp Q``)."""
    out = np.zeros(derived.n_cells)
    out[s.support] = _commutators(s, derived)
    return out


def assemble_regular_commuting(coeffs, derived, s):
    """Simplified assembly valid when ``Q`` and ``Z`` commute per cell.

    The kernel collapses: the second-order field becomes
    ``A^{1/2} P (I + iZ) P A^{1/2}``, the first-order kernels lose their
    ``W``-corrections, and the zeroth-order correction uses
    ``Q (I + iZ)^{-1} Q`` directly.  Under the commutation hypothesis this
    agrees with :func:`assemble_regular` cell by cell.

    Raises :class:`NotCommuting` when ``max_c ||QZ - ZQ||_F`` exceeds
    ``COMMUTING_TOL`` relative to the cell scale, naming the cell of the
    largest ratio.  Like :func:`assemble_regular`, it works on ``supp Q``
    (the commutator vanishes off it) and keeps the input elsewhere.
    """
    _check_grids(coeffs, derived, s)
    comm = _commutators(s, derived)
    scale = np.maximum(1.0, frobenius(derived.Z_field[s.support]))
    if np.any(comm > COMMUTING_TOL * scale):
        k = int(np.argmax(comm / scale))
        raise NotCommuting(
            "cell %d: ||QZ - ZQ||_F = %.3e exceeds the commuting tolerance"
            % (s.support[k], float(comm[k])))
    return _package(coeffs, derived, s, _commuting_fields)


def _commuting_fields(coeffs, derived, s, block):
    """The four fields of the simplified assembly on the cells
    ``s.support[block]``, ``(C_reg, b_reg, d_reg, c0_reg)`` in their
    order; no commutation check."""
    z, asqrt, x, y, c0, q = _support_data(coeffs, derived, s, block)
    eye = _eye_like(z)
    p = eye - q

    pa = np.matmul(p, asqrt)
    c_reg = np.matmul(np.matmul(adjoint(pa), eye + 1j * z), pa)
    b_reg, d_reg = _first_order_fields(pa, pa, x, y)

    try:
        resolvent_q = np.linalg.solve(eye + 1j * z, q)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SolveFailure("(I + iZ) solve failed: %s" % exc)
    qy = np.einsum("nkl,nl->nk", np.matmul(q, resolvent_q), y)
    c0_reg = c0 - np.einsum("nk,nk->n", np.conj(x), qy)
    return c_reg, b_reg, d_reg, c0_reg


def pure_second_order_parts(reg):
    """Regular/singular split of the second-order-only companion form.

    The companion has the same ``C`` (so the same ``A``, ``Z`` and ``Q``)
    and no lower-order coefficients.  Its second-order regular field is the
    full model's, because the lower-order terms do not enter ``C_reg``, and
    its lower-order fields are ``0``: it is ``reg``'s second-order split
    with zero ``b``, ``d`` and ``c0`` fields.  The full regular part
    therefore differs from the pure one by lower-order terms only.  The
    companion's lower-order input fields are full-grid zeros.
    """
    inputs, stacks = zip(*((f.base, f.values) for f in reg.regular))
    return _split(reg.grid, reg.support,
                  (inputs[0], *map(np.zeros_like, inputs[1:])),
                  (stacks[0], *map(np.zeros_like, stacks[1:])))


# -- Q constructors --------------------------------------------------------

def indicator_projection(grid, mask):
    """Per-cell ``Q = 1_cell * I``: full projection on masked cells, zero
    elsewhere.  ``mask`` is a boolean array over cells."""
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    if mask.shape != (grid.n_cells,):
        raise GridMismatch("mask must have one entry per cell")
    q = np.zeros((grid.n_cells, grid.dim, grid.dim), dtype=complex)
    q[mask] = np.eye(grid.dim)
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
