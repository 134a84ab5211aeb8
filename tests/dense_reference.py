"""Dense reference for the cell-local V-space algebra.

The V basis's Gram matrices are assembled as full ``dim x dim`` arrays, and
the operators come from dense ``m x m`` solves, exactly as written before
the algebra went cell-local.  The ambient product is written out pairwise
from its per-cell weights, and coordinate vectors are realized as H'-pairs.
Cost is cubic in the number of singular vectors, so it is only for small
models in the tests.
"""

from types import SimpleNamespace

import numpy as np

from regpart.completion import (GRAM_COND_CAP, PROJECTION_RANK_TOL,
                                build_ambient, phi_vector, singular_field)
from regpart.errors import (DominationViolation, ProjectionInvalid,
                            SectorViolation)
from regpart.pointwise import (PSD_TOL, adjoint, frobenius, herm_part,
                               imag_part, psd_roots)


def ambient_weights(coeffs, derived, gamma):
    """Per-cell weights ``(ws, vxy)`` of the ambient product with vertex
    shift ``gamma``: ``ws = 1 - gamma + Re c0`` and ``vxy = X + Y``."""
    return (1.0 - gamma + np.real(coeffs.c0_field),
            derived.X_field + derived.Y_field)


def ambient_inner(coeffs, derived, gamma, x, y):
    """``<x, y>_a = <w1,w2> + 1/2<w1, u2 vxy> + 1/2<u1 vxy, w2>
    + <ws u1, u2>`` for H'-pairs ``x = (u1, w1)``, ``y = (u2, w2)``; all
    brackets are volume-weighted sums conjugating the second slot."""
    u1, w1 = x
    u2, w2 = y
    ws, vxy = ambient_weights(coeffs, derived, gamma)
    t1 = np.sum(w1 * np.conj(w2))
    t2 = 0.5 * np.sum(w1 * np.conj(u2[:, None] * vxy))
    t3 = 0.5 * np.sum((u1[:, None] * vxy) * np.conj(w2))
    t4 = np.sum(ws * u1 * np.conj(u2))
    return coeffs.grid.cell_volume * complex(t1 + t2 + t3 + t4)


def hprime_from_coords(vs, coords):
    """Realize a coordinate vector as an H'-pair ``(u, w)``."""
    coords = np.asarray(coords, dtype=complex)
    nf = vs.n_funcs
    u = np.einsum("j,jc->c", coords[:nf], vs.func_values)
    w = (np.einsum("j,jck->ck", coords[:nf], vs.func_grads)
         + singular_field(vs, coords[nf:, None])[0])
    return u, w


def dense_grams(coeffs, derived, q_field, funcs):
    """``(gram_a, gram_form)`` as full matrices; ``gram_a`` is Hermitian."""
    vol = coeffs.grid.cell_volume
    n, d = derived.n_cells, derived.dim
    nf = len(funcs)
    uf = np.zeros((nf, n), dtype=complex)
    wf = np.zeros((nf, n, d), dtype=complex)
    for i, f in enumerate(funcs):
        uf[i], wf[i] = phi_vector(derived, f)
    sc, sv = full_grid_singular_basis(q_field)
    csv = np.conj(sv)
    nb = nf + sc.shape[0]
    ws, vxy = ambient_weights(coeffs, derived, build_ambient(coeffs, derived))
    z, x_f, y_f = derived.Z_field, derived.X_field, derived.Y_field
    same_cell = sc[:, None] == sc[None, :]
    cuf, cwf = np.conj(uf), np.conj(wf)
    izsv = sv + 1j * np.einsum("pkl,pl->pk", z[sc], sv)
    izwf = wf + 1j * np.einsum("ckl,jcl->jck", z, wf)
    wf_at, izwf_at, uf_at = wf[:, sc, :], izwf[:, sc, :], uf[:, sc]

    gram_a = np.zeros((nb, nb), dtype=complex)
    gram_t = np.zeros((nb, nb), dtype=complex)
    gram_a[:nf, :nf] = vol * (
        np.einsum("jck,ick->ij", wf, cwf)
        + 0.5 * np.einsum("jck,ic,ck->ij", wf, cuf, np.conj(vxy))
        + 0.5 * np.einsum("jc,ck,ick->ij", uf, vxy, cwf)
        + np.einsum("c,jc,ic->ij", ws, uf, cuf))
    gram_t[:nf, :nf] = vol * (
        np.einsum("jck,ick->ij", izwf, cwf)
        + np.einsum("jck,ic,ck->ij", wf, cuf, np.conj(x_f))
        + np.einsum("jc,ck,ick->ij", uf, y_f, cwf)
        + np.einsum("c,jc,ic->ij", coeffs.c0_field, uf, cuf))
    sf_a = (np.einsum("jpk,pk->pj", wf_at, csv)
            + 0.5 * np.einsum("jp,pk,pk->pj", uf_at, vxy[sc], csv))
    gram_a[nf:, :nf] = vol * sf_a
    gram_a[:nf, nf:] = vol * adjoint(sf_a)
    gram_t[nf:, :nf] = vol * (
        np.einsum("jpk,pk->pj", izwf_at, csv)
        + np.einsum("jp,pk,pk->pj", uf_at, y_f[sc], csv))
    gram_t[:nf, nf:] = vol * (
        np.einsum("pk,ipk->ip", izsv, np.conj(wf_at))
        + np.einsum("pk,pk,ip->ip", sv, np.conj(x_f[sc]), np.conj(uf_at)))
    gram_a[nf:, nf:] = vol * np.einsum("qk,pk->pq", sv, csv) * same_cell
    gram_t[nf:, nf:] = vol * np.einsum("qk,pk->pq", izsv, csv) * same_cell
    return herm_part(gram_a), gram_t


def dense_gate_rejects(gram_a, cond_cap=GRAM_COND_CAP):
    """The condition gate on the full eigenvalue range of ``gram_a``."""
    ew = np.linalg.eigvalsh(gram_a)
    return bool(ew[0] <= 0 or ew[-1] / ew[0] > cond_cap)


def dense_operators(gram_a, gram_form, nf, real_part=False):
    """``(pi1, pi2, T, T11, Pi)`` from dense solves on the ``J`` block."""
    nb = gram_a.shape[0]
    jj = slice(nf, nb)
    form = herm_part(gram_form) if real_part else gram_form
    hh, him = herm_part(form), imag_part(form)
    eye = np.eye(nb, dtype=complex)
    pi1 = np.zeros((nb, nb), dtype=complex)
    pi1[jj, :] = np.linalg.solve(gram_a[jj, jj], gram_a[jj, :])
    pi2 = eye - pi1
    t_coords = np.linalg.solve(hh[jj, jj], him[jj, :])
    t_full = np.zeros((nb, nb), dtype=complex)
    t_full[jj, :] = t_coords
    t11 = t_coords[:, jj]
    corr = np.linalg.solve(np.eye(nb - nf) + 1j * t11, t_coords @ pi2)
    pi_op = pi2.copy()
    pi_op[jj, :] -= 1j * corr
    return pi1, pi2, t_full, t11, pi_op


def dense_oracle_table(gram_form, pi_op, nf, real_part=False):
    """``table[i, j] = form(Pi Phi(u_i), Pi Phi(u_j))``."""
    form = herm_part(gram_form) if real_part else gram_form
    cols = pi_op[:, :nf]
    return (adjoint(cols) @ form @ cols).T


def dense_kernel_image(vs, t_full, pi2):
    """Gradient parts of ``T pi2 Phi(u_i)``, one ``(n, d)`` field per
    function."""
    return np.stack([hprime_from_coords(vs, (t_full @ pi2)[:, i])[1]
                     for i in range(vs.n_funcs)])


def dense_probe_ratios(vs, gram_a, gram_form, tau, xi, lambdas):
    """The growth probe's ratios from dense ``m x m`` solves."""
    jj = slice(vs.n_funcs, vs.dim)
    gram_jj = gram_a[jj, jj]
    hh_jj = herm_part(gram_form)[jj, jj]
    vol = vs.coeffs.grid.cell_volume
    sc, sv = vs.singular_cells, vs.singular_vecs
    z, x_f, y_f = vs.derived.Z_field, vs.derived.X_field, vs.derived.Y_field
    ratios = []
    for lam in lambdas:
        u, w = phi_vector(vs.derived, tau.modulated(lam, xi))
        pair = vol * (np.einsum("pk,pk->p", w[sc], np.conj(sv))
                      + 0.5 * u[sc] * np.einsum(
                          "pk,pk->p", (x_f + y_f)[sc],
                          np.conj(sv)))
        c1 = np.linalg.solve(gram_jj, pair)
        w2 = w.copy()
        np.add.at(w2, sc, -c1[:, None] * sv)
        izw = w2 + 1j * np.einsum("nkl,nl->nk", z, w2)
        a_xs = vol * (np.einsum("pk,pk->p", izw[sc], np.conj(sv))
                      + u[sc] * np.einsum("pk,pk->p", y_f[sc], np.conj(sv)))
        izsv = sv + 1j * np.einsum("pkl,pl->pk", z[sc], sv)
        a_sx = vol * (np.einsum("pk,pk->p", izsv, np.conj(w2[sc]))
                      + np.einsum("pk,pk->p", sv, np.conj(x_f[sc]))
                      * np.conj(u[sc]))
        tc = np.linalg.solve(hh_jj, (a_xs - np.conj(a_sx)) / 2j)
        ratios.append(float(np.real(np.conj(tc) @ hh_jj @ tc)))
    return np.asarray(ratios)


def full_grid_singular_basis(q_field):
    """``(cells, vecs)`` of ``_singular_basis`` from one eigendecomposition
    of ``Q`` on every cell, as it was computed before it was restricted to
    ``supp Q``."""
    w, u = np.linalg.eigh(herm_part(np.asarray(q_field, dtype=complex)))
    split = (w > PROJECTION_RANK_TOL) & (w < 1.0 - PROJECTION_RANK_TOL)
    if np.any(split):
        cell = int(np.argmax(np.any(split, axis=-1)))
        raise ProjectionInvalid(
            "cell %d: projection eigenvalues are not 0/1" % cell, cell=cell)
    cells, cols = np.nonzero(w > 0.5)
    return cells, np.ascontiguousarray(u[cells, :, cols])


def dense_qz_iq_asqrt(q_field, derived):
    """``Q Z (I-Q) A^{1/2}`` as one product over the full grid."""
    q = np.asarray(q_field, dtype=complex)
    p = np.broadcast_to(np.eye(derived.dim), q.shape) - q
    return np.matmul(np.matmul(q, derived.Z_field),
                     np.matmul(p, derived.Asqrt_field))


def dense_ops(vs, ops):
    """The operators' dense ``dim x dim`` matrices ``pi1``, ``pi2``, ``T``,
    ``Pi`` and the ``m x m`` block ``T11``, scattered from their blocks."""
    nf, m = vs.n_funcs, vs.n_singular
    t11 = np.zeros((m, m), dtype=complex)
    for rows, blk in zip(vs.groups, ops.t11_cells):
        t11[rows[:, :, None], rows[:, None, :]] = blk

    def scatter(jf, jj=None, ff=None):
        out = np.zeros((nf + m, nf + m), dtype=complex)
        out[nf:, :nf] = jf
        if jj is not None:
            out[nf:, nf:] = jj
        if ff is not None:
            out[:nf, :nf] = ff
        return out

    pi1 = scatter(ops.pi1_jf, jj=np.eye(m))
    return SimpleNamespace(pi1=pi1, pi2=np.eye(nf + m) - pi1, T11=t11,
                           T=scatter(ops.t_jf, jj=t11),
                           Pi=scatter(ops.pi_jf, ff=np.eye(nf)))


def one_pass_fields(coeffs):
    """``(A^{1/2}, Z, X, Y)`` of ``derive_fields`` in one pass over the
    whole stack, as it was computed before the cell passes were
    chunked."""
    asqrt, g, _ = psd_roots(herm_part(coeffs.C_field))
    z = herm_part(np.einsum("nij,njk,nkl->nil", g,
                            imag_part(coeffs.C_field), g))
    return (asqrt, z, np.einsum("nij,nj->ni", g, np.conj(coeffs.b_field)),
            np.einsum("nij,nj->ni", g, coeffs.d_field))


def structure_fields(s, n):
    """Full-grid ``(Q, W, P = I - Q)`` of a singular structure, scattered
    from its stacks over ``supp Q``: ``Q = W = 0`` and ``P = I`` on every
    other cell."""
    q = np.zeros((n,) + s.Q.shape[1:], dtype=complex)
    w = np.zeros_like(q)
    q[s.support] = s.Q
    w[s.support] = s.W
    return q, w, np.broadcast_to(np.eye(q.shape[-1]), q.shape) - q


def one_pass_kernel(q, z):
    """``W = Q (I + iQZQ)^{-1} Q`` in one solve over the whole stack."""
    eye = np.broadcast_to(np.eye(q.shape[-1]), q.shape)
    lhs = eye + 1j * herm_part(np.matmul(np.matmul(q, z), q))
    return np.matmul(q, np.linalg.solve(lhs, q))


def one_pass_identity_norms(q, w, p, z):
    """Per-matrix Frobenius norms of the six kernel identities, with every
    identity of the whole stack formed at once, as the suite computed them
    before it ran one identity and one block at a time."""
    eye = np.broadcast_to(np.eye(q.shape[-1]), q.shape)
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
    return {name: np.sqrt(np.sum(np.abs(val) ** 2, axis=(-2, -1)))
            for name, val in exprs.items()}


def one_shot_qz_draws(rng, d, trials):
    """``trials`` raw ``(Q, Z)`` pairs drawn as one stack, as the identity
    suite drew them before its draws came in blocks: Haar-ish unitaries
    from QR of complex normals, projections of uniform rank onto their
    first columns, then Hermitian ``Z`` rescaled to spectral norm <= 2."""
    m = rng.standard_normal((trials, d, d)) \
        + 1j * rng.standard_normal((trials, d, d))
    u, r = np.linalg.qr(m)
    diag = np.einsum("nkk->nk", r)
    u = u * (diag / np.abs(diag))[:, None, :]
    ranks = rng.integers(0, d + 1, size=trials)
    cols = np.arange(d)[None, :] < ranks[:, None]
    q = np.einsum("nik,nk,njk->nij", u, cols.astype(float), np.conj(u))
    h = herm_part(rng.standard_normal((trials, d, d))
                  + 1j * rng.standard_normal((trials, d, d)))
    norms = np.max(np.abs(np.linalg.eigvalsh(h)), axis=-1)
    scale = 2.0 / np.maximum(norms, 1e-12)
    return q, h * np.minimum(scale, 1.0)[:, None, None]


def sector_pencils(c, theta):
    """Sector condition of a stack ``C`` as three pencils: ``xi* C xi`` lies
    in the closed sector of half-angle ``theta`` exactly when ``A = herm(C)``
    and ``tan(theta) A +/- imag(C)`` are psd.  Returns the pencils and their
    smallest eigenvalues, shape ``(3,) + c.shape[:-2]``."""
    a = herm_part(c)
    b = imag_part(c)
    t = float(np.tan(theta))
    pencils = (a, t * a + b, t * a - b)
    return pencils, np.stack([np.linalg.eigvalsh(p)[..., 0]
                              for p in pencils])


def _norm_scale(m):
    """``max(1, ||M||_F)`` per matrix of a finite stack, overflow-safe."""
    top = np.max(np.abs(m), axis=(-2, -1))
    unit = np.where(top > 0.0, top, 1.0)[..., None, None]
    return np.maximum(1.0, top * frobenius(m / unit))


def pencil_gate(coeffs):
    """The sector and domination gate on eigenvalue pencils, as the model
    was validated before ``derive_fields`` decided it: five ``eigvalsh``
    per cell, with slacks ``PSD_TOL * max(1, ||.||_F)``.  Returns the
    error class and cell of its first refusal (the sector pencils first,
    then ``K^2 A - outer(conj(b), b)``, then ``K^2 A - outer(d, conj(d))``),
    or ``None`` when it accepts."""
    c, b, d = coeffs.C_field, coeffs.b_field, coeffs.d_field
    pencils, mins = sector_pencils(c, coeffs.theta)
    margin = mins + PSD_TOL * _norm_scale(c)
    if np.any(margin < 0.0):
        return SectorViolation, int(np.argmin(margin) % len(c))
    ka = coeffs.K_bound ** 2 * pencils[0]
    for pencil in (ka - np.einsum("nk,nl->nkl", np.conj(b), b),
                   ka - np.einsum("nk,nl->nkl", d, np.conj(d))):
        ratio = np.linalg.eigvalsh(pencil)[..., 0] / _norm_scale(pencil)
        if np.any(ratio < -PSD_TOL):
            return DominationViolation, int(np.argmin(ratio))
    return None
