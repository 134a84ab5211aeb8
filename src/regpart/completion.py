"""Finite-dimensional realization of the projection construction.

The coefficient-level assembly in :mod:`regpart.regularize` has an
independent counterpart: embed test functions into the product space
``H' = H x H^d`` via ``Phi(u) = (u, A^{1/2} grad u)``, close the picture on
a finite subspace

    V = span{Phi(u_i)}  +  {0} x (per-cell range of Q),

and compute the regular part abstractly as ``atilde(Pi Phi(u), Pi Phi(v))``
where ``Pi`` is built from Gram-matrix solves only — no coefficient formula
enters.  Everything is exact linear algebra on quadrature sums, so agreement
with the assembled coefficients is a genuine algebraic identity, not a
discretization limit.  The one finite-dimensional concession: ``V`` is a
declared span, not a completion; the multiplication-operator structure of
the projections is preserved because the second summand carries the full
per-cell range of ``Q``.

Block structure.  The V basis is the ``n_f`` embedded functions (block
``F``) followed by the ``m`` singular vectors ``(0, s_p)`` (block ``J``),
where the ``s_p`` of one cell are orthonormal and occupy consecutive rows.
A singular vector lives in one cell, so every ``J x J`` block of a Gram
matrix is block-diagonal by cell: one ``r_c x r_c`` block per singular
cell, ``r_c <= d`` the rank of ``Q`` there.  A Gram matrix is therefore
held as :class:`GramBlocks` — the small ``F x F`` block, the ``F x J`` and
``J x F`` blocks and the per-cell blocks, stacked by rank — and every solve
against ``J x J`` is a batched ``np.linalg.solve`` over the cells of one
rank.  The operators keep only their ``J x F`` blocks; their ``J``
columns are structural (``pi1[:, J] = E_J``, ``pi2[:, J] = Pi[:, J] = 0``,
``T[J, J] = T11``).  Cost and memory are linear in the number of singular
cells.  ``VSubspace.gram_a`` and ``gram_form`` assemble the dense
``dim x dim`` matrices for inspection; nothing in the pipeline reads them.

One Gram, one kernel.  The form Gram is the only Gram assembled.  Its
``F x F`` block and the L2 Gram ``M`` of the function values come from
one :func:`~regpart.model.form_gram` call on the family, and
``VSubspace.mass`` keeps ``M``.  The ambient product is the form's real
part shifted by its vertex, so one float describes it: the shift
``gamma`` that :func:`build_ambient` picks and :func:`build_v_subspace`
stores as ``VSubspace.gamma``.  The ambient Gram is the form Gram's
Hermitian part plus ``(1 - gamma) herm(M)`` on ``F x F``.  The form's
``J x F`` and ``F x J`` blocks are its singular rows ``a(x, s_p)`` and
``a(s_p, x)`` for the embedded family ``x``; the same rows for any other
family (the growth probe's plane waves) give its ``pi1``, ``T`` and
``T pi2`` coordinates through one per-cell solve against the Hermitian
``J x J`` blocks, since ``s_p`` has no ``H`` part and the ambient pairing
with it is the Hermitian part of the rows.

Condition gate.  The ambient Gram is ``[[A, B*], [B, vol I_m]]``: its
``J x J`` block is ``vol`` times the identity because the per-cell singular
vectors are orthonormal.  With the reduced QR factorization ``B = Q_B R``
(``k = min(m, n_f)`` columns), the unitary ``diag(I, [Q_B, Q_perp])``
compresses it to ``[[A, R*], [R, vol I_k]]`` plus ``m - k`` copies of the
eigenvalue ``vol``, so its extreme eigenvalues come from a
``(n_f + k)``-sized Hermitian eigenproblem.

Vectors of ``H'`` are represented as pairs ``(u, w)`` of arrays with shapes
``(n_cells,)`` and ``(n_cells, d)``.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import (DegenerateBasis, GridMismatch, KernelMismatch,
                     ProjectionInvalid)
from .model import form_gram
from .pointwise import adjoint, herm_part, imag_part
from .regularize import _support

__all__ = [
    "GramBlocks",
    "VSubspace",
    "AbstractOperators",
    "ProbeReport",
    "build_ambient",
    "build_v_subspace",
    "compute_operators",
    "oracle_regular_part",
    "phi_vector",
    "singular_field",
    "pi1_multiplication",
    "t_multiplication",
    "t_pi2_probe",
]

#: Required smallest eigenvalue of the per-cell ambient Gram blocks.
AMBIENT_MARGIN = 1e-6

#: Condition-number cap on the V-basis Gram matrix.
GRAM_COND_CAP = 1e10

#: Gradient mass allowed on a combination of functions that vanishes in H.
KERNEL_TOL = 1e-10

#: Eigenvalues of ``Q`` within this of 0 or 1 count as 0 or 1.
PROJECTION_RANK_TOL = 1e-8


def _ambient_min_eig(ws, vxy_norm_sq):
    """Smallest eigenvalue of ``[[ws, 1/2 v*], [1/2 v, I]]`` per cell.

    Off the span of ``v`` the block contributes eigenvalue 1; on it the
    2x2 reduction ``[[ws, |v|/2], [|v|/2, 1]]`` has roots with product
    ``ws - |v|^2/4`` and larger root
    ``((ws+1) + sqrt((ws-1)^2 + |v|^2)) / 2 >= 1``.  The smaller root is
    their quotient, which keeps it accurate when ``ws`` is large.  The
    larger root is halved term by term and its square root is a
    ``hypot``, so a ``ws`` near the largest float does not overflow.
    """
    large = 0.5 * (ws + 1.0) + 0.5 * np.hypot(ws - 1.0,
                                              np.sqrt(vxy_norm_sq))
    small = (ws - 0.25 * vxy_norm_sq) / large
    return np.minimum(small, 1.0)


def build_ambient(coeffs, derived):
    """The vertex shift ``gamma`` of the ambient inner product.

    The ambient product is the extended form's real part plus ``(1 - gamma)
    <u1, u2>``; per cell it is ``[[ws, v*/2], [v/2, I]]`` with
    ``ws = 1 - gamma + Re c0`` and ``v = X + Y``.  Starts from
    ``gamma = min(0, min_c(1 + Re c0 - |X+Y|^2/4) - 1/2)`` and lowers it
    further (never raises) until every such block has smallest eigenvalue
    at least ``AMBIENT_MARGIN``, which makes the ambient product an inner
    product equivalent to the plain product norm.  Downstream results do
    not depend on the particular ``gamma`` chosen.
    """
    re_c0 = np.real(coeffs.c0_field)
    vxy = derived.X_field + derived.Y_field
    vxy_sq = np.sum(np.abs(vxy) ** 2, axis=-1)
    gamma = float(min(0.0,
                      float(np.min(1.0 + re_c0 - 0.25 * vxy_sq)) - 0.5))
    for _ in range(200):
        ws = 1.0 - gamma + re_c0
        if float(np.min(_ambient_min_eig(ws, vxy_sq))) >= AMBIENT_MARGIN:
            return gamma
        gamma -= max(1.0, abs(gamma))
    raise DegenerateBasis(  # pragma: no cover - geometrically unreachable
        "could not make the ambient product definite")


# -- per-cell blocks ---------------------------------------------------------


def _cell_groups(cells):
    """Rows of each singular cell, grouped by the cell's rank.

    ``cells`` lists the cell of every singular vector, with the rows of one
    cell consecutive.  Returns one ``(g, r)`` index array per rank ``r``
    that occurs: row ``i`` holds the ``r`` rows of the ``i``-th such cell.
    """
    start = np.flatnonzero(np.diff(cells, prepend=-1))
    count = np.diff(start, append=cells.size)
    return tuple(start[count == r][:, None] + np.arange(r)
                 for r in sorted(set(count.tolist())))


def _cell_apply(groups, blocks, rhs, op=np.linalg.solve):
    """``op(block, rhs rows)`` cell by cell for a block-diagonal ``J x J``
    operator given by its per-rank block stacks; ``rhs`` is ``(m, k)``."""
    out = np.empty(rhs.shape, dtype=complex)
    for rows, blk in zip(groups, blocks):
        out[rows] = op(blk, rhs[rows])
    return out


@dataclass(frozen=True)
class GramBlocks:
    """A V-basis Gram matrix held by its blocks.

    ``ff`` is ``n_f x n_f``, ``fj`` is ``n_f x m``, ``jf`` is ``m x n_f``
    and ``cc`` holds the per-cell blocks of the block-diagonal ``J x J``
    part, one ``(g, r, r)`` stack per rank group of the subspace.
    """

    ff: np.ndarray
    fj: np.ndarray
    jf: np.ndarray
    cc: tuple

    def herm(self):
        """Blocks of the Hermitian part ``(G + G*) / 2``."""
        return GramBlocks(ff=herm_part(self.ff),
                          fj=0.5 * (self.fj + adjoint(self.jf)),
                          jf=0.5 * (self.jf + adjoint(self.fj)),
                          cc=tuple(herm_part(b) for b in self.cc))

    def dense(self, groups):
        """The full ``(n_f + m) x (n_f + m)`` matrix."""
        nf, m = self.fj.shape
        out = np.zeros((nf + m, nf + m), dtype=complex)
        out[:nf, :nf] = self.ff
        out[:nf, nf:] = self.fj
        out[nf:, :nf] = self.jf
        for rows, blk in zip(groups, self.cc):
            out[nf + rows[:, :, None], nf + rows[:, None, :]] = blk
        return out


@dataclass
class VSubspace:
    """Finite subspace of H' carrying the construction.

    ``support`` holds the indices of the cells of ``supp Q`` (where some
    entry of ``q_field`` is nonzero).  Basis order: the ``n_funcs``
    embedded functions ``Phi(u_i)`` of the family ``funcs`` first, then
    ``n_singular`` vectors ``(0, s_j)`` where the ``s_j`` are per-cell
    orthonormal spanning vectors of ``range(Q)``, grouped into ``groups``
    by the rank of their cell.  ``form_blocks`` is the (non-Hermitian)
    Gram matrix of the extended form and ``ambient_blocks`` the
    ambient-inner-product Gram matrix derived from it; both use the
    convention ``G[i, j] = form(e_j, e_i)`` so coordinates contract as
    ``eta* G xi``.  ``mass`` is the L2 Gram ``M`` of the functions, as
    :func:`~regpart.model.form_gram` returns it, ``gamma`` the vertex shift
    of the ambient product (:func:`build_ambient`) and ``cond`` the ambient
    Gram's condition number.
    """

    gamma: float
    coeffs: "object"
    derived: "object"
    q_field: np.ndarray
    support: np.ndarray
    funcs: "object"
    singular_cells: np.ndarray
    singular_vecs: np.ndarray
    groups: tuple
    ambient_blocks: GramBlocks
    form_blocks: GramBlocks
    mass: np.ndarray
    cond: float

    @property
    def func_values(self):
        """``H`` parts of the embedded functions: the family's own
        ``cell_values``."""
        return self.funcs.cell_values

    @property
    def func_grads(self):
        """Gradient parts ``A^{1/2} grad u`` of the embedded functions,
        computed by :func:`phi_vector` on each access (only the checks on
        small models read them whole)."""
        return phi_vector(self.derived, self.funcs)[1]

    @property
    def n_funcs(self):
        return self.func_values.shape[0]

    @property
    def n_singular(self):
        return self.singular_cells.shape[0]

    @property
    def dim(self):
        return self.n_funcs + self.n_singular

    @property
    def gram_a(self):
        """Dense ambient Gram matrix (a view for inspection)."""
        return self.ambient_blocks.dense(self.groups)

    @property
    def gram_form(self):
        """Dense form Gram matrix (a view for inspection)."""
        return self.form_blocks.dense(self.groups)


def phi_vector(derived, funcs):
    """``Phi(u) = (u, A^{1/2} grad u)`` as an H'-pair of per-cell arrays
    with the batch axes of ``funcs``, one function or a family; the ``H``
    part is the family's own ``cell_values``."""
    if funcs.grid != derived.grid:
        raise GridMismatch("test functions must live on the model's grid")
    w = np.einsum("nkl,...nl->...nk", derived.Asqrt_field,
                  funcs.cell_gradient)
    return funcs.cell_values, w


def _singular_basis(q, support):
    """Per-cell orthonormal vectors spanning ``range(Q)``.

    Returns ``(cells, vecs)`` with one row per spanning vector, the rows of
    one cell consecutive; eigenvalues of the projection are near 0 or 1, so
    the split is unambiguous.  Only the cells ``support`` of ``supp Q`` are
    decomposed: elsewhere ``Q = 0`` spans nothing.
    """
    w, u = np.linalg.eigh(herm_part(q[support]))
    split = (w > PROJECTION_RANK_TOL) & (w < 1.0 - PROJECTION_RANK_TOL)
    if np.any(split):
        cell = int(support[np.argmax(np.any(split, axis=-1))])
        raise ProjectionInvalid(
            "cell %d: projection eigenvalues are not 0/1" % cell, cell=cell)
    rows, cols = np.nonzero(w > 0.5)
    return support[rows], np.ascontiguousarray(u[rows, :, cols])


def _require_finite(*arrays):
    """Raise :class:`DegenerateBasis` naming the first function whose slice
    along axis 0 of an array holds a non-finite entry; the earliest array
    that has one decides."""
    for arr in arrays:
        if not np.isfinite(arr).all():
            bad = ~np.isfinite(arr).all(axis=tuple(range(1, arr.ndim)))
            raise DegenerateBasis("function %d: non-finite embedding or "
                                  "Gram entry" % int(np.argmax(bad)))


def _gram_extremes(a, vol):
    """Smallest and largest eigenvalue of the ambient Gram ``a`` from its
    compression ``[[A, R*], [R, vol I_k]]`` (see the module docstring)."""
    r = np.linalg.qr(a.jf, mode="r")
    k = r.shape[0]
    ew = np.linalg.eigvalsh(np.block([[a.ff, adjoint(r)],
                                      [r, vol * np.eye(k)]]))
    if a.jf.shape[0] > k:
        ew = np.append(ew, vol)
    return float(np.min(ew)), float(np.max(ew))


def _singular_rows(derived, sc, sv, u, w):
    """The form's singular rows ``a(x_j, s_p)`` and ``a(s_p, x_j)``, each
    ``(m, k)``, of a family ``x_j = (u_j, w_j)`` given at the cells ``sc``
    of the singular vectors ``sv``: ``u`` is ``(k, m)`` and ``w`` is
    ``(k, m, d)``.  ``s_p`` has no ``H`` part, so only the gradient slot and
    the ``X``/``Y`` terms survive, read at the cell of ``s_p``:
    ``a(x, s) = <(I+iZ) w + u Y, s>`` and ``a(s, x) = conj <(I-iZ) w + u X,
    s>``, with ``Z`` Hermitian."""
    vol = derived.grid.cell_volume
    csv = np.conj(sv)
    u = u.T
    izw = 1j * np.einsum("pkl,jpl->jpk", derived.Z_field[sc], w)

    def row(g, v):
        return vol * (np.einsum("jpk,pk->pj", g, csv)
                      + u * np.einsum("pk,pk->p", v[sc], csv)[:, None])
    return (row(w + izw, derived.Y_field),
            np.conj(row(w - izw, derived.X_field)))


def build_v_subspace(coeffs, derived, q_field, funcs, support=None):
    """Assemble the V-basis on the one-axis family ``funcs`` and the blocks
    of its two Gram matrices, with the ambient product's vertex shift from
    :func:`build_ambient`.  ``VSubspace.func_values`` is the family's own
    ``cell_values``.  ``support`` is the index array of the cells of
    ``supp Q`` when the caller has it (a singular structure's), and is
    found from ``q_field`` when it is ``None``.

    Raises
    ------
    KernelMismatch
        Some combination of the embedded functions vanishes in H but keeps
        a nonzero gradient part — the function family cannot represent the
        embedding kernel faithfully and must be re-picked.
    DegenerateBasis
        An embedded function or a Gram entry is not finite, or the ambient
        Gram matrix of the basis is numerically singular (dependent
        functions, or condition number beyond ``GRAM_COND_CAP``).
    """
    gamma = build_ambient(coeffs, derived)
    vol = coeffs.grid.cell_volume
    q = np.asarray(q_field, dtype=complex)
    if support is None:
        support = _support(q)
    sc, sv = _singular_basis(q, support)
    groups = _cell_groups(sc)
    izsv = sv + 1j * np.einsum("pkl,pl->pk", derived.Z_field[sc], sv)

    if funcs.grid != derived.grid:
        raise GridMismatch("test functions must live on the model's grid")
    # the embedding's gradient part enters at the singular cells only; an
    # overflowing function leaves non-finite entries for the check below
    with np.errstate(over="ignore", invalid="ignore"):
        uf = funcs.cell_values
        ff, mass = form_gram(coeffs, funcs)
        ws = np.einsum("nkl,...nl->...nk", derived.Asqrt_field[sc],
                       funcs.cell_gradient[:, sc])
        a_xs, a_sx = _singular_rows(derived, sc, sv, uf[:, sc], ws)
    # a function's own Gram diagonal names it; the full blocks come last
    _require_finite(np.diagonal(ff), np.diagonal(mass), a_xs.T, a_sx.T, ff)

    # null directions of the L2 Gram must carry no gradient mass
    hmass = herm_part(mass)
    hw, hv = np.linalg.eigh(hmass)
    null = hv[:, hw <= 1e-12 * max(float(np.max(hw, initial=0.0)), 1e-300)]
    if null.shape[1]:
        wf = phi_vector(derived, funcs)[1]
        grad_mass = vol * np.sum(np.abs(np.einsum("jq,jck->qck", null,
                                                  wf)) ** 2, axis=(1, 2))
        if np.any(grad_mass > KERNEL_TOL):
            raise KernelMismatch(
                "a combination of the supplied functions vanishes in H "
                "but carries gradient mass %.3e; re-pick the family"
                % grad_mass[np.argmax(grad_mass > KERNEL_TOL)])

    form = GramBlocks(
        ff=ff, fj=a_sx.T, jf=a_xs,
        cc=tuple(vol * np.einsum("gqk,gpk->gpq", izsv[rows],
                                 np.conj(sv[rows]))
                 for rows in groups))
    # <x, y>_a = Re atilde(x, y) + (1 - gamma) <u1, u2>
    herm = form.herm()
    a = replace(herm, ff=herm.ff + (1.0 - gamma) * hmass)

    cond = 1.0
    if uf.shape[0] + sc.shape[0]:
        lo, hi = _gram_extremes(a, vol)
        if lo <= 0 or hi / lo > GRAM_COND_CAP:
            raise DegenerateBasis(
                "V-basis Gram matrix is numerically singular "
                "(eigenvalue range [%.3e, %.3e])" % (lo, hi))
        cond = hi / lo

    return VSubspace(gamma=gamma, coeffs=coeffs, derived=derived,
                     q_field=q, support=support, funcs=funcs,
                     singular_cells=sc,
                     singular_vecs=sv, groups=groups, ambient_blocks=a,
                     form_blocks=form, mass=mass, cond=cond)


@dataclass
class AbstractOperators:
    """Gram-solve operators in V-basis coordinates, held by their nonzero
    ``J x F`` blocks and the per-cell blocks of ``T11``.

    ``form`` is the Gram the operators were solved on (its Hermitian part
    when ``real_part``); ``tpi2_jf`` is the ``J x F`` block of ``T pi2``,
    the only nonzero block of that product.
    """

    groups: tuple
    form: GramBlocks
    pi1_jf: np.ndarray
    t_jf: np.ndarray
    t11_cells: tuple
    tpi2_jf: np.ndarray
    pi_jf: np.ndarray


def _kernel_coords(vs, t11_cells, a_xs, a_sx):
    """Singular coordinates ``(pi1 x, T x, T pi2 x)``, each ``(m, k)``, of a
    family from its singular rows (:func:`_singular_rows`).

    ``s_p`` has no ``H`` part, so the ambient pairing ``<x, s_p>_a`` is the
    Hermitian part of the rows, and the ambient ``J x J`` blocks are those
    of the form's Hermitian part: ``pi1`` and ``T`` are one stacked per-cell
    solve against them, of the Hermitian and the skew-Hermitian part of the
    rows.  ``T pi2 = T - T11 pi1``.
    """
    k = a_xs.shape[1]
    rows = np.concatenate([a_xs + np.conj(a_sx), (a_xs - np.conj(a_sx)) / 1j],
                          axis=1)
    sol = 0.5 * _cell_apply(vs.groups, vs.ambient_blocks.cc, rows)
    pi1, t = sol[:, :k], sol[:, k:]
    return pi1, t, t - _cell_apply(vs.groups, t11_cells, pi1, op=np.matmul)


def compute_operators(vs, real_part=False):
    """Solve for the projection onto the embedding kernel, the imaginary
    part's representing operator, and the correction operator ``Pi``.

    With ``J`` the singular-coordinate block, ``F`` the function block and
    ``Hh`` the Hermitian part of the form Gram, every solve is per cell:
    ``pi1[J,F] = solve(Hh[J,J], Hh[J,F])`` are the ambient normal equations
    onto ``V1`` (the ambient Gram agrees with ``Hh`` on ``J`` rows);
    ``T[J,F] = solve(Hh[J,J], Him[J,F])`` and ``T11 = solve(Hh[J,J],
    Him[J,J])`` represent the form's imaginary part against its real part
    on ``V1``; and

        ``Pi[J,F] = -pi1[J,F] - i (I + i T11)^{-1} (T[J,F] - T11 pi1[J,F])``

    with ``Pi[F,F] = I``, which is ``Pi = pi2 - i E (I + i T11)^{-1} T[J,:]
    pi2`` restricted to the function columns.  The ``J`` columns are
    structural: ``pi1[:,J] = E_J`` and ``pi2[:,J] = Pi[:,J] = 0``.

    With ``real_part`` the same construction runs on the Hermitian part of
    the form Gram; its imaginary part vanishes, so ``T = 0`` and
    ``Pi = pi2``.
    """
    form = vs.form_blocks.herm() if real_part else vs.form_blocks
    t11 = tuple(np.linalg.solve(h, imag_part(b))
                for h, b in zip(vs.ambient_blocks.cc, form.cc))
    pi1_jf, t_jf, tpi2_jf = _kernel_coords(vs, t11, form.jf, form.fj.T)
    shifted = tuple(np.eye(t.shape[-1]) + 1j * t for t in t11)
    pi_jf = -pi1_jf - 1j * _cell_apply(vs.groups, shifted, tpi2_jf)
    return AbstractOperators(groups=vs.groups, form=form, pi1_jf=pi1_jf,
                             t_jf=t_jf, t11_cells=t11, tpi2_jf=tpi2_jf,
                             pi_jf=pi_jf)


def oracle_regular_part(ops, vs):
    """Regular part of the form on embedded function pairs, evaluated
    abstractly: the table ``oracle[i, j] = form(Pi Phi(u_i), Pi Phi(u_j))``
    over all pairs.

    In blocks, ``Pi[:,F]* G Pi[:,F] = G_FF + G_FJ Pi_JF + Pi_JF* G_JF +
    sum_c Pi_cF* G_cc Pi_cF``; the table is its transpose.
    """
    g, p = ops.form, ops.pi_jf
    gram = g.ff + g.fj @ p + adjoint(p) @ g.jf
    for rows, blk in zip(ops.groups, g.cc):
        gram = gram + np.einsum("gpi,gpq,gqj->ij", np.conj(p[rows]), blk,
                                p[rows])
    return gram.T


def singular_field(vs, coef, cells=None):
    """Gradient parts ``sum_p coef[p, k] (0, s_p)``: a ``(k, n, d)`` stack
    from the ``(m, k)`` singular coordinates ``coef``, on every cell or on
    ``cells``, a sorted index array that holds every singular cell."""
    rows, size = vs.singular_cells, vs.derived.n_cells
    if cells is not None:
        rows, size = np.searchsorted(cells, rows), len(cells)
    out = np.zeros((size, coef.shape[1], vs.derived.dim), dtype=complex)
    np.add.at(out, rows, coef[:, :, None] * vs.singular_vecs[:, None, :])
    return out.transpose(1, 0, 2)


def pi1_multiplication(vs, u, w, cells=slice(None)):
    """Pointwise form of the kernel projection:
    ``pi1(u, w) = (0, Q w + u Q (X+Y) / 2)``.

    The fields are read at ``cells`` (all cells by default), and ``u``,
    ``w`` may carry leading batch axes."""
    q = vs.q_field[cells]
    qw = (q @ w[..., None])[..., 0]
    xpy = (vs.derived.X_field + vs.derived.Y_field)[cells]
    qv = (q @ xpy[..., None])[..., 0]
    return np.zeros_like(u), qw + 0.5 * u[..., None] * qv


def t_multiplication(vs, u, w, cells=slice(None)):
    """Pointwise form of the representing operator:
    ``T(u, w) = (0, Q Z w + (i/2) u Q (X-Y))``, with ``cells`` and batch
    axes as in :func:`pi1_multiplication`."""
    q, z = vs.q_field[cells], vs.derived.Z_field[cells]
    qzw = (q @ (z @ w[..., None]))[..., 0]
    xmy = (vs.derived.X_field - vs.derived.Y_field)[cells]
    qxy = (q @ xmy[..., None])[..., 0]
    return np.zeros_like(u), qzw + 0.5j * u[..., None] * qxy


@dataclass(frozen=True)
class ProbeReport:
    """Growth of ``||T pi2 Phi(u_lambda)||`` under plane-wave modulation."""

    lambdas: tuple
    ratios: tuple
    slope: float
    intercept: float
    reference: float
    rel_error: float
    skipped: bool


def _qz_iq_asqrt(vs):
    """``Q Z (I-Q) A^{1/2}`` on the cells of ``supp Q``, the only cells
    where the leading ``Q`` leaves it nonzero: returns the cells and the
    stack of matrices there."""
    q, cells = vs.q_field, vs.support
    qs = q[cells]
    return cells, qs @ vs.derived.Z_field[cells] @ (
        (np.eye(q.shape[-1]) - qs) @ vs.derived.Asqrt_field[cells])


def t_pi2_probe(vs, ops, tau, xi, lambdas):
    """Modulate ``tau`` by plane waves and fit the quadratic growth of the
    kernel-directed imaginary content.

    The modulated functions are embedded as one family, and the operators
    ``ops = compute_operators(vs)`` map each to ``T pi2 Phi(u_lambda)``,
    whose squared real-part norm is recorded; all of it is per cell, and
    only the singular cells enter, so the waves are built there alone.
    Since modulation leaves the plain function norm ``||tau||``
    invariant, growth of these values is exactly growth of ``T pi2``
    relative to the function size.  The fitted ``lambda^2`` slope is
    compared against the direct quadrature of
    ``int |Q Z (I-Q) A^{1/2} (tau xi)|^2`` — the quantity the growth
    isolates in the large-``lambda`` limit.  A zero slope within tolerance
    is the signature of the commuting (sectorial-singular-part) case.

    Fewer than two distinct ``lambda**2`` cannot fix a slope, so such a
    list is skipped.  Raises :class:`DegenerateBasis` naming the first
    ``lambda`` whose ratio or square is not finite.
    """
    if tau.grid != vs.derived.grid:
        raise GridMismatch("test functions must live on the model's grid")
    norm_sq = tau.norm_sq()
    lambdas = tuple(float(l) for l in lambdas)
    lam = np.asarray(lambdas)
    cells, qz = _qz_iq_asqrt(vs)
    vec = np.einsum("nkl,l->nk", qz,
                    np.asarray(xi, dtype=float).reshape(vs.derived.dim))
    # the full-grid sum, zeros included, keeps the reference's bits
    density = np.zeros(vs.derived.n_cells)
    density[cells] = (np.abs(tau.cell_values[cells]) ** 2
                      * np.sum(np.abs(vec) ** 2, axis=-1))
    reference = vs.coeffs.grid.cell_volume * float(np.sum(density))
    skipped = norm_sq <= 0.0 or len(set(np.abs(lam).tolist())) < 2
    if skipped or vs.n_singular == 0:
        return ProbeReport(lambdas=lambdas, ratios=(), slope=0.0,
                           intercept=0.0, reference=reference,
                           rel_error=float("nan"), skipped=skipped)

    # the waves are needed at the singular cells only; an overflowing wave
    # leaves non-finite ratios for the check below
    sc = vs.singular_cells
    with np.errstate(over="ignore", invalid="ignore"):
        u, grads = tau.modulated_cells(lam, xi, sc)
        w = np.einsum("nkl,...nl->...nk", vs.derived.Asqrt_field[sc], grads)
        tc = _kernel_coords(vs, ops.t11_cells, *_singular_rows(
            vs.derived, sc, vs.singular_vecs, u, w))[2]
        ratios = np.real(sum(
            np.einsum("gpl,gpq,gql->l", np.conj(tc[rows]), blk, tc[rows])
            for rows, blk in zip(vs.groups, vs.ambient_blocks.cc)))
        lam_sq = lam ** 2
    bad = ~(np.isfinite(ratios) & np.isfinite(lam_sq))
    if np.any(bad):
        raise DegenerateBasis("probe frequency %r: ratio or lambda^2 is not "
                              "finite" % lambdas[int(np.argmax(bad))])

    design = np.stack([np.ones(len(lambdas)), lam_sq], axis=1)
    sol, *_ = np.linalg.lstsq(design, ratios, rcond=None)
    intercept, slope = float(sol[0]), float(sol[1])
    # Floor the denominator so a vanishing reference (commuting case, slope
    # and reference both ~0) reads as a small error instead of an overflow.
    rel_error = abs(slope - reference) / max(reference, 1e-12)
    return ProbeReport(lambdas=lambdas, ratios=tuple(ratios.tolist()),
                       slope=slope, intercept=intercept, reference=reference,
                       rel_error=rel_error, skipped=False)
