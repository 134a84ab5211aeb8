"""Finite-dimensional realization of the projection construction.

The coefficient-level assembly in :mod:`regpart.regularize` has an
independent counterpart: embed test functions into the product space
``H' = H x H^d`` via ``Phi(u) = (u, A^{1/2} grad u)``, close the picture on
a finite subspace

    V = span{Phi(u_i)}  +  {0} x (per-cell range of Q),

and compute the regular part abstractly as ``atilde(Pi Phi(u), Pi Phi(v))``
where ``Pi`` is built from Gram-matrix solves only — no coefficient formula
enters.  All operators here (``pi1``, ``pi2``, ``T``, ``T11``, ``Pi``) are
matrices in the ``V``-basis coordinates.

Everything is exact linear algebra on quadrature sums, so agreement with the
assembled coefficients is a genuine algebraic identity, not a discretization
limit.  The one finite-dimensional concession: ``V`` is a declared span, not
a completion; the multiplication-operator structure of the projections is
preserved because the second summand carries the full per-cell range of
``Q``.

Vectors of ``H'`` are represented as pairs ``(u, w)`` of arrays with shapes
``(n_cells,)`` and ``(n_cells, d)``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasis, KernelMismatch, ProjectionInvalid
from .grid import TestFunction
from .model import asqrt_gradient
from .pointwise import adjoint, frobenius, herm_part, imag_part

__all__ = [
    "AmbientSpace",
    "VSubspace",
    "AbstractOperators",
    "ProbeReport",
    "build_ambient",
    "build_v_subspace",
    "compute_operators",
    "oracle_regular_part",
    "phi_vector",
    "hprime_from_coords",
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
    2x2 reduction ``[[ws, |v|/2], [|v|/2, 1]]`` has smallest root
    ``((ws+1) - sqrt((ws-1)^2 + |v|^2)) / 2``.
    """
    small = 0.5 * ((ws + 1.0) - np.sqrt((ws - 1.0) ** 2 + vxy_norm_sq))
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


@dataclass
class VSubspace:
    """Finite subspace of H' carrying the construction.

    Basis order: the ``n_funcs`` embedded functions ``Phi(u_i)`` first, then
    ``n_singular`` vectors ``(0, s_j)`` where the ``s_j`` are per-cell
    orthonormal spanning vectors of ``range(Q)``.  ``gram_a`` is the
    ambient-inner-product Gram matrix, ``gram_form`` the (non-Hermitian)
    Gram matrix of the extended form; both use the convention
    ``G[i, j] = form(e_j, e_i)`` so coordinates contract as ``eta* G xi``.
    """

    ambient: AmbientSpace
    coeffs: "object"
    derived: "object"
    q_field: np.ndarray
    func_values: np.ndarray
    func_grads: np.ndarray
    singular_cells: np.ndarray
    singular_vecs: np.ndarray
    gram_a: np.ndarray
    gram_form: np.ndarray
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


def phi_vector(derived, func):
    """``Phi(u) = (u, A^{1/2} grad u)`` as an H'-pair of per-cell arrays."""
    return func.cell_values.copy(), asqrt_gradient(derived, func)


def _singular_basis(q_field, rank_tol=1e-8):
    """Per-cell orthonormal vectors spanning ``range(Q)``.

    Returns ``(cells, vecs)`` with one row per spanning vector; eigenvalues
    of the projection are near 0 or 1, so the split is unambiguous.
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


def build_v_subspace(ambient, coeffs, derived, q_field, funcs,
                     cond_cap=GRAM_COND_CAP, kernel_tol=1e-10):
    """Assemble the V-basis and its two Gram matrices.

    Raises
    ------
    KernelMismatch
        Some combination of the embedded functions vanishes in H but keeps
        a nonzero gradient part — the function family cannot represent the
        embedding kernel faithfully and must be re-picked.
    DegenerateBasis
        The ambient Gram matrix of the basis is numerically singular
        (dependent functions, or condition number beyond ``cond_cap``).
    """
    vol = ambient.grid.cell_volume
    n, d = derived.n_cells, derived.dim
    funcs = list(funcs)
    uf = np.zeros((len(funcs), n), dtype=complex)
    wf = np.zeros((len(funcs), n, d), dtype=complex)
    for i, f in enumerate(funcs):
        uf[i], wf[i] = phi_vector(derived, f)

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

    sc, sv = _singular_basis(q_field)
    csv = np.conj(sv)
    m = sc.shape[0]
    nb = len(funcs) + m
    vxy = ambient.weight_vec
    ws = ambient.weight_scalar
    z = derived.Z_field
    x_f, y_f = derived.X_field, derived.Y_field
    same_cell = sc[:, None] == sc[None, :]

    cuf, cwf = np.conj(uf), np.conj(wf)
    izsv = sv + 1j * np.einsum("pkl,pl->pk", z[sc], sv)
    gram_a = np.zeros((nb, nb), dtype=complex)
    gram_t = np.zeros((nb, nb), dtype=complex)

    if funcs:
        ff_a = (np.einsum("jck,ick->ij", wf, cwf)
                + 0.5 * np.einsum("jck,ic,ck->ij", wf, cuf, np.conj(vxy))
                + 0.5 * np.einsum("jc,ck,ick->ij", uf, vxy, cwf)
                + np.einsum("c,jc,ic->ij", ws, uf, cuf))
        gram_a[:len(funcs), :len(funcs)] = vol * ff_a

        izwf = wf + 1j * np.einsum("ckl,jcl->jck", z, wf)
        ff_t = (np.einsum("jck,ick->ij", izwf, cwf)
                + np.einsum("jck,ic,ck->ij", wf, cuf, np.conj(x_f))
                + np.einsum("jc,ck,ick->ij", uf, y_f, cwf)
                + np.einsum("c,jc,ic->ij", coeffs.c0_field, uf, cuf))
        gram_t[:len(funcs), :len(funcs)] = vol * ff_t

    if m and funcs:
        wf_at = wf[:, sc, :]
        uf_at = uf[:, sc]
        sf_a = (np.einsum("jpk,pk->pj", wf_at, csv)
                + 0.5 * np.einsum("jp,pk,pk->pj", uf_at, vxy[sc], csv))
        gram_a[len(funcs):, :len(funcs)] = vol * sf_a
        gram_a[:len(funcs), len(funcs):] = vol * adjoint(sf_a)

        izwf_at = izwf[:, sc, :]
        sf_t = (np.einsum("jpk,pk->pj", izwf_at, csv)
                + np.einsum("jp,pk,pk->pj", uf_at, y_f[sc], csv))
        gram_t[len(funcs):, :len(funcs)] = vol * sf_t

        fs_t = (np.einsum("pk,ipk->ip", izsv, np.conj(wf_at))
                + np.einsum("pk,pk,ip->ip", sv, np.conj(x_f[sc]),
                            np.conj(uf_at)))
        gram_t[:len(funcs), len(funcs):] = vol * fs_t

    if m:
        ss_a = np.einsum("qk,pk->pq", sv, csv) * same_cell
        gram_a[len(funcs):, len(funcs):] = vol * ss_a
        ss_t = np.einsum("qk,pk->pq", izsv, csv) * same_cell
        gram_t[len(funcs):, len(funcs):] = vol * ss_t

    gram_a = herm_part(gram_a)
    ew = np.linalg.eigvalsh(gram_a) if nb else np.array([1.0])
    if nb and (ew[0] <= 0 or ew[-1] / ew[0] > cond_cap):
        raise DegenerateBasis(
            "V-basis Gram matrix is numerically singular "
            "(eigenvalue range [%.3e, %.3e])" % (float(ew[0]), float(ew[-1])))
    cond = float(ew[-1] / ew[0]) if nb else 1.0

    return VSubspace(ambient=ambient, coeffs=coeffs, derived=derived,
                     q_field=np.asarray(q_field, dtype=complex),
                     func_values=uf, func_grads=wf, singular_cells=sc,
                     singular_vecs=sv, gram_a=gram_a, gram_form=gram_t,
                     cond=cond)


@dataclass
class AbstractOperators:
    """Gram-solve operators in V-basis coordinates."""

    pi1: np.ndarray
    pi2: np.ndarray
    T: np.ndarray
    T11: np.ndarray
    Pi: np.ndarray
    real_part: bool


def compute_operators(vs, real_part=False):
    """Solve for the projection onto the embedding kernel, the imaginary
    part's representing operator, and the correction operator ``Pi``.

    With ``J`` the singular-coordinate block: ``pi1 = E solve(Ga[J,J],
    Ga[J,:])`` are the ambient normal equations onto ``V1``; ``T = E
    solve(Hh[J,J], Him[J,:])`` represents the form's imaginary part against
    its real part on ``V1``; and

        ``Pi = pi2 - i E (I + i T11)^{-1} T[J,:] pi2``.

    With ``real_part`` the same construction runs on the Hermitian part of
    the form Gram; its imaginary part vanishes, so ``T = 0`` and
    ``Pi = pi2``.
    """
    nb, j0 = vs.dim, vs.n_funcs
    jj = vs.v1_slice
    form = herm_part(vs.gram_form) if real_part else vs.gram_form
    hh = herm_part(form)
    him = imag_part(form)

    eye = np.eye(nb, dtype=complex)
    m = vs.n_singular
    if m == 0:
        zero = np.zeros((nb, nb), dtype=complex)
        return AbstractOperators(pi1=zero, pi2=eye, T=zero.copy(),
                                 T11=np.zeros((0, 0), dtype=complex),
                                 Pi=eye.copy(), real_part=real_part)

    pi1 = np.zeros((nb, nb), dtype=complex)
    pi1[jj, :] = np.linalg.solve(vs.gram_a[jj, jj], vs.gram_a[jj, :])
    pi2 = eye - pi1

    t_coords = np.linalg.solve(hh[jj, jj], him[jj, :])
    t_full = np.zeros((nb, nb), dtype=complex)
    t_full[jj, :] = t_coords
    t11 = t_coords[:, jj]

    corr = np.linalg.solve(np.eye(m, dtype=complex) + 1j * t11,
                           t_coords @ pi2)
    pi_op = pi2.astype(complex).copy()
    pi_op[jj, :] -= 1j * corr
    return AbstractOperators(pi1=pi1, pi2=pi2, T=t_full, T11=t11,
                             Pi=pi_op, real_part=real_part)


def oracle_regular_part(ops, vs, u_idx, v_idx):
    """Regular part of the form on an embedded function pair, evaluated
    abstractly: ``form(Pi Phi(u), Pi Phi(v))`` in basis coordinates."""
    for idx in (u_idx, v_idx):
        if not (0 <= idx < vs.n_funcs):
            raise IndexError("function index %d out of range [0, %d)"
                             % (idx, vs.n_funcs))
    form = herm_part(vs.gram_form) if ops.real_part else vs.gram_form
    xu = ops.Pi[:, u_idx]
    xv = ops.Pi[:, v_idx]
    return complex(np.conj(xv) @ form @ xu)


def hprime_from_coords(vs, coords):
    """Realize a coordinate vector as an H'-pair ``(u, w)``."""
    coords = np.asarray(coords, dtype=complex)
    nf = vs.n_funcs
    u = np.einsum("j,jc->c", coords[:nf], vs.func_values)
    w = np.einsum("j,jck->ck", coords[:nf], vs.func_grads)
    if vs.n_singular:
        np.add.at(w, vs.singular_cells,
                  coords[nf:, None] * vs.singular_vecs)
    return u, w


def pi1_multiplication(vs, u, w):
    """Pointwise form of the kernel projection:
    ``pi1(u, w) = (0, Q w + u Q (X+Y) / 2)``."""
    qw = np.einsum("nkl,nl->nk", vs.q_field, w)
    qv = np.einsum("nkl,nl->nk", vs.q_field, vs.ambient.weight_vec)
    return np.zeros_like(u), qw + 0.5 * u[:, None] * qv


def t_multiplication(vs, u, w):
    """Pointwise form of the representing operator:
    ``T(u, w) = (0, Q Z w + (i/2) u Q (X-Y))``."""
    qzw = np.einsum("nkl,nl->nk", vs.q_field,
                    np.einsum("nkl,nl->nk", vs.derived.Z_field, w))
    qxy = np.einsum("nkl,nl->nk", vs.q_field,
                    vs.derived.X_field - vs.derived.Y_field)
    return np.zeros_like(u), qzw + 0.5j * u[:, None] * qxy


def _pair_ambient_singular(vs, u, w):
    """``<x, s_j>_a`` for every singular basis vector, cell-locally."""
    vol = vs.ambient.grid.cell_volume
    sc, csv = vs.singular_cells, np.conj(vs.singular_vecs)
    t1 = np.einsum("pk,pk->p", w[sc], csv)
    t2 = 0.5 * u[sc] * np.einsum("pk,pk->p", vs.ambient.weight_vec[sc], csv)
    return vol * (t1 + t2)


def _form_x_singular(vs, u, w):
    """``atilde(x, s_j)`` per singular vector (only the gradient-slot and
    Y-terms survive since ``s_j`` has zero H-part)."""
    vol = vs.ambient.grid.cell_volume
    sc, csv = vs.singular_cells, np.conj(vs.singular_vecs)
    izw = w + 1j * np.einsum("nkl,nl->nk", vs.derived.Z_field, w)
    t1 = np.einsum("pk,pk->p", izw[sc], csv)
    t2 = u[sc] * np.einsum("pk,pk->p", vs.derived.Y_field[sc], csv)
    return vol * (t1 + t2)


def _form_singular_x(vs, u, w):
    """``atilde(s_j, x)`` per singular vector."""
    vol = vs.ambient.grid.cell_volume
    sc, sv = vs.singular_cells, vs.singular_vecs
    izsv = sv + 1j * np.einsum("pkl,pl->pk", vs.derived.Z_field[sc], sv)
    t1 = np.einsum("pk,pk->p", izsv, np.conj(w[sc]))
    t2 = (np.einsum("pk,pk->p", sv, np.conj(vs.derived.X_field[sc]))
          * np.conj(u[sc]))
    return vol * (t1 + t2)


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
    solve), and its squared form-norm is recorded.  Since modulation leaves
    the plain function norm ``||tau||`` invariant, growth of these values
    is exactly growth of ``T pi2`` relative to the function size.  The
    fitted ``lambda^2`` slope is compared against the direct quadrature of
    ``int |Q Z (I-Q) A^{1/2} (tau xi)|^2`` — the quantity the growth
    isolates in the large-``lambda`` limit.  A zero slope within tolerance
    is the signature of the commuting (sectorial-singular-part) case.
    """
    vol = vs.ambient.grid.cell_volume
    jj = vs.v1_slice
    norm_sq = tau.norm_sq()
    lambdas = tuple(float(l) for l in lambdas)
    if norm_sq <= 0.0 or vs.n_singular == 0 or len(lambdas) < 2:
        return ProbeReport(lambdas=lambdas, ratios=(), slope=0.0,
                           intercept=0.0, reference=_probe_reference(
                               vs, tau, xi),
                           rel_error=float("nan"),
                           skipped=norm_sq <= 0.0 or len(lambdas) < 2)

    gram_jj = vs.gram_a[jj, jj]
    hh_jj = herm_part(vs.gram_form)[jj, jj]
    ratios = []
    for lam in lambdas:
        u_lam = tau.modulated(lam, xi)
        u, w = phi_vector(vs.derived, u_lam)
        c1 = np.linalg.solve(gram_jj, _pair_ambient_singular(vs, u, w))
        w2 = w.copy()
        np.add.at(w2, vs.singular_cells, -c1[:, None] * vs.singular_vecs)
        a_xs = _form_x_singular(vs, u, w2)
        a_sx = _form_singular_x(vs, u, w2)
        tc = np.linalg.solve(hh_jj, (a_xs - np.conj(a_sx)) / 2j)
        t_norm_sq = float(np.real(np.conj(tc) @ hh_jj @ tc))
        ratios.append(t_norm_sq)

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
