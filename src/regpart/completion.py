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
cells.  The dense ``dim x dim`` matrices remain available as read-only
views (``VSubspace.gram_a``, ``AbstractOperators.Pi`` ...) for inspection;
nothing in the pipeline reads them.

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

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasis, KernelMismatch, ProjectionInvalid
from .model import asqrt_gradient
from .pointwise import adjoint, herm_part, imag_part

__all__ = [
    "AmbientSpace",
    "GramBlocks",
    "VSubspace",
    "AbstractOperators",
    "ProbeReport",
    "build_ambient",
    "build_v_subspace",
    "compute_operators",
    "oracle_regular_part",
    "phi_vector",
    "hprime_from_coords",
    "singular_field",
    "pi1_multiplication",
    "t_multiplication",
    "t_pi2_probe",
]

#: Required smallest eigenvalue of the per-cell ambient Gram blocks.
AMBIENT_MARGIN = 1e-6

#: Condition-number cap on the V-basis Gram matrix.
GRAM_COND_CAP = 1e10


@dataclass
class AmbientSpace:
    """Weighted inner product on ``H' = H x H^d``.

    ``<(u1,w1),(u2,w2)>_a = <w1,w2> + 1/2<w1, u2 vxy> + 1/2<u1 vxy, w2>
    + <ws u1, u2>`` with per-cell weights ``ws = 1 - gamma + Re c0`` and
    ``vxy = X + Y``; all brackets are volume-weighted sums conjugating the
    second slot.  ``gamma`` is chosen so every per-cell block is positive
    definite with margin, making this an inner product equivalent to the
    plain product norm.
    """

    grid: "object"
    gamma: float
    weight_scalar: np.ndarray
    weight_vec: np.ndarray

    def inner(self, x, y):
        """``<x, y>_a`` for H'-pairs ``x = (u1, w1)``, ``y = (u2, w2)``."""
        u1, w1 = x
        u2, w2 = y
        vol = self.grid.cell_volume
        vxy = self.weight_vec
        t1 = np.sum(w1 * np.conj(w2))
        t2 = 0.5 * np.sum(w1 * np.conj(u2[:, None] * vxy))
        t3 = 0.5 * np.sum((u1[:, None] * vxy) * np.conj(w2))
        t4 = np.sum(self.weight_scalar * u1 * np.conj(u2))
        return vol * complex(t1 + t2 + t3 + t4)


def _ambient_min_eig(ws, vxy_norm_sq):
    """Smallest eigenvalue of ``[[ws, 1/2 v*], [1/2 v, I]]`` per cell.

    Off the span of ``v`` the block contributes eigenvalue 1; on it the
    2x2 reduction ``[[ws, |v|/2], [|v|/2, 1]]`` has roots with product
    ``ws - |v|^2/4`` and larger root
    ``((ws+1) + sqrt((ws-1)^2 + |v|^2)) / 2 >= 1``.  The smaller root is
    their quotient, which keeps it accurate when ``ws`` is large.
    """
    large = 0.5 * ((ws + 1.0) + np.sqrt((ws - 1.0) ** 2 + vxy_norm_sq))
    small = (ws - 0.25 * vxy_norm_sq) / large
    return np.minimum(small, 1.0)


def build_ambient(coeffs, derived, gamma0=0.0, margin=AMBIENT_MARGIN):
    """Choose the vertex shift and build the ambient inner product.

    Starts from ``gamma = min(gamma0, min_c(1 + Re c0 - |X+Y|^2/4) - 1/2)``
    and lowers it further (never raises) until every per-cell Gram block has
    smallest eigenvalue at least ``margin``.  The returned inner product is
    what makes the embedded picture positive; downstream results do not
    depend on the particular ``gamma`` chosen.
    """
    re_c0 = np.real(coeffs.c0_field)
    vxy = derived.X_field + derived.Y_field
    vxy_sq = np.sum(np.abs(vxy) ** 2, axis=-1)
    gamma = float(min(gamma0,
                      float(np.min(1.0 + re_c0 - 0.25 * vxy_sq)) - 0.5))
    for _ in range(200):
        ws = 1.0 - gamma + re_c0
        if float(np.min(_ambient_min_eig(ws, vxy_sq))) >= margin:
            break
        gamma -= max(1.0, abs(gamma))
    else:  # pragma: no cover - geometrically unreachable
        raise DegenerateBasis("could not make the ambient product definite")
    return AmbientSpace(grid=coeffs.grid, gamma=gamma,
                        weight_scalar=1.0 - gamma + re_c0, weight_vec=vxy)


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


def _cell_dense(groups, blocks, m):
    """The ``m x m`` block-diagonal matrix of per-cell blocks."""
    out = np.zeros((m, m), dtype=complex)
    for rows, blk in zip(groups, blocks):
        out[rows[:, :, None], rows[:, None, :]] = blk
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
        out[nf:, nf:] = _cell_dense(groups, self.cc, m)
        return out


@dataclass
class VSubspace:
    """Finite subspace of H' carrying the construction.

    Basis order: the ``n_funcs`` embedded functions ``Phi(u_i)`` first, then
    ``n_singular`` vectors ``(0, s_j)`` where the ``s_j`` are per-cell
    orthonormal spanning vectors of ``range(Q)``, grouped into ``groups``
    by the rank of their cell.  ``ambient_blocks`` is the
    ambient-inner-product Gram matrix, ``form_blocks`` the (non-Hermitian)
    Gram matrix of the extended form; both use the convention
    ``G[i, j] = form(e_j, e_i)`` so coordinates contract as ``eta* G xi``.
    ``cond`` is the ambient Gram's condition number.
    """

    ambient: AmbientSpace
    coeffs: "object"
    derived: "object"
    q_field: np.ndarray
    func_values: np.ndarray
    func_grads: np.ndarray
    singular_cells: np.ndarray
    singular_vecs: np.ndarray
    groups: tuple
    ambient_blocks: GramBlocks
    form_blocks: GramBlocks
    cond: float

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
    def v1_slice(self):
        return slice(self.n_funcs, self.dim)

    @property
    def gram_a(self):
        """Dense ambient Gram matrix (a view for inspection)."""
        return self.ambient_blocks.dense(self.groups)

    @property
    def gram_form(self):
        """Dense form Gram matrix (a view for inspection)."""
        return self.form_blocks.dense(self.groups)


def phi_vector(derived, func):
    """``Phi(u) = (u, A^{1/2} grad u)`` as an H'-pair of per-cell arrays."""
    return func.cell_values.copy(), asqrt_gradient(derived, func)


def _singular_basis(q_field, rank_tol=1e-8):
    """Per-cell orthonormal vectors spanning ``range(Q)``.

    Returns ``(cells, vecs)`` with one row per spanning vector, the rows of
    one cell consecutive; eigenvalues of the projection are near 0 or 1, so
    the split is unambiguous.
    """
    w, u = np.linalg.eigh(herm_part(np.asarray(q_field, dtype=complex)))
    if np.any((w > rank_tol) & (w < 1.0 - rank_tol)):
        cell = int(np.argmax(np.any((w > rank_tol) & (w < 1.0 - rank_tol),
                                    axis=-1)))
        raise ProjectionInvalid(
            "cell %d: projection eigenvalues are not 0/1" % cell, cell=cell)
    cells, cols = np.nonzero(w > 0.5)
    vecs = u[cells, :, cols]
    return cells, np.ascontiguousarray(vecs)


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
    nf, k = a.ff.shape[0], r.shape[0]
    small = vol * np.eye(nf + k, dtype=complex)
    small[:nf, :nf] = a.ff
    small[nf:, :nf] = r
    small[:nf, nf:] = adjoint(r)
    ew = np.linalg.eigvalsh(small)
    if a.jf.shape[0] > k:
        ew = np.append(ew, vol)
    return float(np.min(ew)), float(np.max(ew))


def build_v_subspace(ambient, coeffs, derived, q_field, funcs,
                     cond_cap=GRAM_COND_CAP, kernel_tol=1e-10):
    """Assemble the V-basis and the blocks of its two Gram matrices.

    Raises
    ------
    KernelMismatch
        Some combination of the embedded functions vanishes in H but keeps
        a nonzero gradient part — the function family cannot represent the
        embedding kernel faithfully and must be re-picked.
    DegenerateBasis
        An embedded function or a Gram entry is not finite, or the ambient
        Gram matrix of the basis is numerically singular (dependent
        functions, or condition number beyond ``cond_cap``).
    """
    vol = ambient.grid.cell_volume
    n, d = derived.n_cells, derived.dim
    funcs = list(funcs)
    uf = np.zeros((len(funcs), n), dtype=complex)
    wf = np.zeros((len(funcs), n, d), dtype=complex)
    for i, f in enumerate(funcs):
        uf[i], wf[i] = phi_vector(derived, f)
    sc, sv = _singular_basis(q_field)
    csv = np.conj(sv)
    groups = _cell_groups(sc)
    vxy = ambient.weight_vec
    ws = ambient.weight_scalar
    z = derived.Z_field
    x_f, y_f = derived.X_field, derived.Y_field

    cuf, cwf = np.conj(uf), np.conj(wf)
    izsv = sv + 1j * np.einsum("pkl,pl->pk", z[sc], sv)
    izwf = wf + 1j * np.einsum("ckl,jcl->jck", z, wf)
    wf_at, izwf_at, uf_at = wf[:, sc, :], izwf[:, sc, :], uf[:, sc]

    ff_a = vol * (np.einsum("jck,ick->ij", wf, cwf)
                  + 0.5 * np.einsum("jck,ic,ck->ij", wf, cuf, np.conj(vxy))
                  + 0.5 * np.einsum("jc,ck,ick->ij", uf, vxy, cwf)
                  + np.einsum("c,jc,ic->ij", ws, uf, cuf))
    sf_a = vol * (np.einsum("jpk,pk->pj", wf_at, csv)
                  + 0.5 * np.einsum("jp,pk,pk->pj", uf_at, vxy[sc], csv))
    ff_t = vol * (np.einsum("jck,ick->ij", izwf, cwf)
                  + np.einsum("jck,ic,ck->ij", wf, cuf, np.conj(x_f))
                  + np.einsum("jc,ck,ick->ij", uf, y_f, cwf)
                  + np.einsum("c,jc,ic->ij", coeffs.c0_field, uf, cuf))
    sf_t = vol * (np.einsum("jpk,pk->pj", izwf_at, csv)
                  + np.einsum("jp,pk,pk->pj", uf_at, y_f[sc], csv))
    fs_t = vol * (np.einsum("pk,ipk->ip", izsv, np.conj(wf_at))
                  + np.einsum("pk,pk,ip->ip", sv, np.conj(x_f[sc]),
                              np.conj(uf_at)))
    # a function's own Gram diagonal names it; the full blocks come last
    _require_finite(np.diagonal(ff_a), np.diagonal(ff_t), sf_a.T, sf_t.T,
                    fs_t, ff_a, ff_t)

    if funcs:
        mh = vol * np.einsum("jc,ic->ij", uf, np.conj(uf))
        hw, hv = np.linalg.eigh(herm_part(mh))
        top = max(float(hw[-1]), 1e-300)
        for k in range(hw.size):
            if hw[k] > 1e-12 * top:
                continue
            c = hv[:, k]
            grad_mass = vol * float(np.sum(np.abs(
                np.einsum("j,jck->ck", c, wf)) ** 2))
            if grad_mass > kernel_tol:
                raise KernelMismatch(
                    "a combination of the supplied functions vanishes in H "
                    "but carries gradient mass %.3e; re-pick the family"
                    % grad_mass)

    a = GramBlocks(
        ff=herm_part(ff_a), fj=adjoint(sf_a), jf=sf_a,
        cc=tuple(herm_part(vol * np.einsum("gqk,gpk->gpq", sv[rows],
                                           csv[rows]))
                 for rows in groups))
    form = GramBlocks(
        ff=ff_t, fj=fs_t, jf=sf_t,
        cc=tuple(vol * np.einsum("gqk,gpk->gpq", izsv[rows], csv[rows])
                 for rows in groups))

    cond = 1.0
    if len(funcs) + sc.shape[0]:
        lo, hi = _gram_extremes(a, vol)
        if lo <= 0 or hi / lo > cond_cap:
            raise DegenerateBasis(
                "V-basis Gram matrix is numerically singular "
                "(eigenvalue range [%.3e, %.3e])" % (lo, hi))
        cond = hi / lo

    return VSubspace(ambient=ambient, coeffs=coeffs, derived=derived,
                     q_field=np.asarray(q_field, dtype=complex),
                     func_values=uf, func_grads=wf, singular_cells=sc,
                     singular_vecs=sv, groups=groups, ambient_blocks=a,
                     form_blocks=form, cond=cond)


@dataclass
class AbstractOperators:
    """Gram-solve operators in V-basis coordinates, held by their nonzero
    ``J x F`` blocks and the per-cell blocks of ``T11``.

    ``form`` is the Gram the operators were solved on (its Hermitian part
    when ``real_part``); ``tpi2_jf`` is the ``J x F`` block of ``T pi2``,
    the only nonzero block of that product.  The dense matrices ``pi1``,
    ``pi2``, ``T``, ``T11`` and ``Pi`` are views for inspection.
    """

    groups: tuple
    form: GramBlocks
    pi1_jf: np.ndarray
    t_jf: np.ndarray
    t11_cells: tuple
    tpi2_jf: np.ndarray
    pi_jf: np.ndarray

    def _dense(self, jf, jj=None, ff=None):
        m, nf = jf.shape
        out = np.zeros((nf + m, nf + m), dtype=complex)
        out[nf:, :nf] = jf
        if jj is not None:
            out[nf:, nf:] = jj
        if ff is not None:
            out[:nf, :nf] = ff
        return out

    @property
    def pi1(self):
        return self._dense(self.pi1_jf, jj=np.eye(self.pi1_jf.shape[0]))

    @property
    def pi2(self):
        return np.eye(sum(self.pi1_jf.shape)) - self.pi1

    @property
    def T(self):
        return self._dense(self.t_jf, jj=self.T11)

    @property
    def T11(self):
        return _cell_dense(self.groups, self.t11_cells, self.t_jf.shape[0])

    @property
    def Pi(self):
        return self._dense(self.pi_jf, ff=np.eye(self.pi_jf.shape[1]))


def compute_operators(vs, real_part=False):
    """Solve for the projection onto the embedding kernel, the imaginary
    part's representing operator, and the correction operator ``Pi``.

    With ``J`` the singular-coordinate block and ``F`` the function block,
    every solve is per cell: ``pi1[J,F] = solve(Ga[J,J], Ga[J,F])`` are the
    ambient normal equations onto ``V1``; ``T[J,F] = solve(Hh[J,J],
    Him[J,F])`` and ``T11 = solve(Hh[J,J], Him[J,J])`` represent the
    form's imaginary part against its real part on ``V1``; and

        ``Pi[J,F] = -pi1[J,F] - i (I + i T11)^{-1} (T[J,F] - T11 pi1[J,F])``

    with ``Pi[F,F] = I``, which is ``Pi = pi2 - i E (I + i T11)^{-1} T[J,:]
    pi2`` restricted to the function columns.  The ``J`` columns are
    structural: ``pi1[:,J] = E_J`` and ``pi2[:,J] = Pi[:,J] = 0``.

    With ``real_part`` the same construction runs on the Hermitian part of
    the form Gram; its imaginary part vanishes, so ``T = 0`` and
    ``Pi = pi2``.
    """
    groups = vs.groups
    form = vs.form_blocks.herm() if real_part else vs.form_blocks
    hh_cc = tuple(herm_part(b) for b in form.cc)
    pi1_jf = _cell_apply(groups, vs.ambient_blocks.cc, vs.ambient_blocks.jf)
    t_jf = _cell_apply(groups, hh_cc, (form.jf - adjoint(form.fj)) / 2j)
    t11 = tuple(np.linalg.solve(h, imag_part(b))
                for h, b in zip(hh_cc, form.cc))
    tpi2_jf = t_jf - _cell_apply(groups, t11, pi1_jf, op=np.matmul)
    shifted = tuple(np.eye(t.shape[-1]) + 1j * t for t in t11)
    pi_jf = -pi1_jf - 1j * _cell_apply(groups, shifted, tpi2_jf)
    return AbstractOperators(groups=groups, form=form, pi1_jf=pi1_jf,
                             t_jf=t_jf, t11_cells=t11, tpi2_jf=tpi2_jf,
                             pi_jf=pi_jf)


def oracle_regular_part(ops, vs, u_idx=None, v_idx=None):
    """Regular part of the form on embedded function pairs, evaluated
    abstractly: the table ``oracle[i, j] = form(Pi Phi(u_i), Pi Phi(u_j))``
    over all pairs, or its one entry at ``(u_idx, v_idx)``.

    In blocks, ``Pi[:,F]* G Pi[:,F] = G_FF + G_FJ Pi_JF + Pi_JF* G_JF +
    sum_c Pi_cF* G_cc Pi_cF``; the table is its transpose.
    """
    for idx in (u_idx, v_idx):
        if idx is not None and not (0 <= idx < vs.n_funcs):
            raise IndexError("function index %d out of range [0, %d)"
                             % (idx, vs.n_funcs))
    g, p = ops.form, ops.pi_jf
    gram = g.ff + g.fj @ p + adjoint(p) @ g.jf
    for rows, blk in zip(ops.groups, g.cc):
        gram = gram + np.einsum("gpi,gpq,gqj->ij", np.conj(p[rows]), blk,
                                p[rows])
    table = gram.T
    if u_idx is None:
        return table
    return complex(table[u_idx, v_idx])


def singular_field(vs, coef):
    """Gradient parts ``sum_p coef[p, k] (0, s_p)``: a ``(k, n, d)`` stack
    from the ``(m, k)`` singular coordinates ``coef``."""
    out = np.zeros((vs.derived.n_cells, coef.shape[1], vs.derived.dim),
                   dtype=complex)
    np.add.at(out, vs.singular_cells,
              coef[:, :, None] * vs.singular_vecs[:, None, :])
    return out.transpose(1, 0, 2)


def hprime_from_coords(vs, coords):
    """Realize a coordinate vector as an H'-pair ``(u, w)``."""
    coords = np.asarray(coords, dtype=complex)
    nf = vs.n_funcs
    u = np.einsum("j,jc->c", coords[:nf], vs.func_values)
    w = (np.einsum("j,jck->ck", coords[:nf], vs.func_grads)
         + singular_field(vs, coords[nf:, None])[0])
    return u, w


def pi1_multiplication(vs, u, w, cells=slice(None)):
    """Pointwise form of the kernel projection:
    ``pi1(u, w) = (0, Q w + u Q (X+Y) / 2)``.

    The fields are read at ``cells`` (all cells by default), and ``u``,
    ``w`` may carry leading batch axes."""
    q = vs.q_field[cells]
    qw = (q @ w[..., None])[..., 0]
    qv = (q @ vs.ambient.weight_vec[cells][..., None])[..., 0]
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


def t_pi2_probe(vs, tau, xi, lambdas):
    """Modulate ``tau`` by plane waves and fit the quadratic growth of the
    kernel-directed imaginary content.

    For each ``lambda``, the modulated function is embedded, projected off
    the kernel (ambient Gram solve), pushed through ``T`` (real-part Gram
    solve), and its squared form-norm is recorded; all three steps are
    per-cell.  Since modulation leaves the plain function norm ``||tau||``
    invariant, growth of these values is exactly growth of ``T pi2``
    relative to the function size.  The fitted ``lambda^2`` slope is
    compared against the direct quadrature of
    ``int |Q Z (I-Q) A^{1/2} (tau xi)|^2`` — the quantity the growth
    isolates in the large-``lambda`` limit.  A zero slope within tolerance
    is the signature of the commuting (sectorial-singular-part) case.
    """
    norm_sq = tau.norm_sq()
    lambdas = tuple(float(l) for l in lambdas)
    if norm_sq <= 0.0 or vs.n_singular == 0 or len(lambdas) < 2:
        return ProbeReport(lambdas=lambdas, ratios=(), slope=0.0,
                           intercept=0.0, reference=_probe_reference(
                               vs, tau, xi),
                           rel_error=float("nan"),
                           skipped=norm_sq <= 0.0 or len(lambdas) < 2)

    vol = vs.ambient.grid.cell_volume
    groups, sc, sv = vs.groups, vs.singular_cells, vs.singular_vecs
    csv = np.conj(sv)
    z, x_f, y_f = (f[sc] for f in (vs.derived.Z_field, vs.derived.X_field,
                                   vs.derived.Y_field))
    # every modulated function at the singular rows: u (m, L), w (m, L, d)
    embedded = [phi_vector(vs.derived, tau.modulated(lam, xi))
                for lam in lambdas]
    u = np.stack([e[0][sc] for e in embedded], axis=1)
    w = np.stack([e[1][sc] for e in embedded], axis=1)

    # <x, s_p>_a, solved cell by cell, gives pi1 x; subtract it
    pair = vol * (np.einsum("plk,pk->pl", w, csv) + 0.5 * u * np.einsum(
        "pk,pk->p", vs.ambient.weight_vec[sc], csv)[:, None])
    c1 = _cell_apply(groups, vs.ambient_blocks.cc, pair)
    w2 = w - singular_field(vs, c1)[:, sc].transpose(1, 0, 2)
    # atilde(pi2 x, s_p) and atilde(s_p, pi2 x); only the gradient slot
    # and the X/Y terms survive, since s_p has no H part
    a_xs = vol * (np.einsum("plk,pk->pl",
                            w2 + 1j * np.einsum("pkj,plj->plk", z, w2), csv)
                  + u * np.einsum("pk,pk->p", y_f, csv)[:, None])
    izsv = sv + 1j * np.einsum("pkj,pj->pk", z, sv)
    a_sx = vol * (np.einsum("pk,plk->pl", izsv, np.conj(w2))
                  + np.einsum("pk,pk->p", sv, np.conj(x_f))[:, None]
                  * np.conj(u))
    hh_cc = tuple(herm_part(b) for b in vs.form_blocks.cc)
    tc = _cell_apply(groups, hh_cc, (a_xs - np.conj(a_sx)) / 2j)
    ratios = [float(r) for r in np.real(sum(
        np.einsum("gpl,gpq,gql->l", np.conj(tc[rows]), blk, tc[rows])
        for rows, blk in zip(groups, hh_cc)))]

    design = np.stack([np.ones(len(lambdas)),
                       np.asarray(lambdas) ** 2], axis=1)
    sol, *_ = np.linalg.lstsq(design, np.asarray(ratios), rcond=None)
    intercept, slope = float(sol[0]), float(sol[1])
    reference = _probe_reference(vs, tau, xi)
    # Floor the denominator so a vanishing reference (commuting case, slope
    # and reference both ~0) reads as a small error instead of an overflow.
    rel_error = abs(slope - reference) / max(reference, 1e-12)
    return ProbeReport(lambdas=lambdas, ratios=tuple(ratios), slope=slope,
                       intercept=intercept, reference=reference,
                       rel_error=rel_error, skipped=False)


def _probe_reference(vs, tau, xi):
    """Direct quadrature of ``|Q Z (I-Q) A^{1/2} (tau xi)|^2``."""
    vol = vs.ambient.grid.cell_volume
    d = vs.derived.dim
    xi = np.asarray(xi, dtype=float).reshape(d)
    q = vs.q_field
    z = vs.derived.Z_field
    p = np.broadcast_to(np.eye(d), q.shape) - q
    op = np.matmul(np.matmul(q, z), np.matmul(p, vs.derived.Asqrt_field))
    vec = np.einsum("nkl,l->nk", op, xi)
    dens = np.abs(tau.cell_values) ** 2 * np.sum(np.abs(vec) ** 2, axis=-1)
    return vol * float(np.sum(dens))
