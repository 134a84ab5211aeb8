"""Seeded generators for randomized verification.

Everything here draws from a caller-supplied ``numpy.random.Generator``, so
runs are reproducible from a single seed.  The generators are constructive:
models are built from their factored ingredients (``A`` from a spectrum,
``C = A^{1/2}(I + iZ0)A^{1/2}``, first-order data pushed through
``A^{1/2}``), which guarantees validity and makes the expected derived
fields known by construction.  Rank-deficient principal parts appear with a
controlled frequency since the degenerate cells are where the splitting
machinery actually works.

Two flavours of singular-direction fields are produced: projections built
from eigenvectors of ``Z`` (exactly commuting) and constant projections
with a guaranteed commutator lower bound (robustly non-commuting), so
consistency checks can rely on a margin instead of luck.

The identity suite's raw pairs ``(Q, Z)`` come either as one stack
(:func:`random_qz_draws`) or as a stream of blocks of ``QZ_BLOCK`` pairs
(:func:`random_qz_blocks`) holding the same bits; both turn their normals
and ranks into pairs with one kernel, and leave the generator in the same
state.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .completion import build_v_subspace
from .errors import DegenerateBasis, KernelMismatch
from .grid import GridSpec, TestFunction, cell_data_from_nodes
from .model import CoefficientSet, DerivedFields, derive_fields
from .pointwise import herm_part

__all__ = [
    "OracleCase",
    "random_unitaries",
    "random_psd_field",
    "random_hermitian_field",
    "random_projection_field",
    "commuting_projection_field",
    "random_coefficients",
    "random_node_functions",
    "random_grid",
    "random_oracle_case",
    "random_qz_draws",
    "random_qz_blocks",
]

#: Required lower bound on ``||Q Z (I-Q)||_F`` for non-commuting draws.
NONCOMMUTING_MARGIN = 0.05
#: Pairs per block of :func:`random_qz_blocks`.
QZ_BLOCK = 1024


def _unitaries(re, im):
    """Haar-ish unitaries from QR of the complex Gaussian stack
    ``re + i im``."""
    q, r = np.linalg.qr(re + 1j * im)
    # Fix the phase so the factorization is unique and well-spread.
    diag = np.einsum("nkk->nk", r)
    phase = diag / np.abs(diag)
    return q * phase[:, None, :]


def _projections(u, ranks):
    """Orthogonal projections onto the first ``ranks[n]`` columns of each
    unitary ``u[n]``."""
    cols = np.arange(u.shape[-1])[None, :] < ranks[:, None]
    return np.einsum("nik,nk,njk->nij", u, cols.astype(float), np.conj(u))


def _hermitian(re, im, bound):
    """Hermitian parts of the stack ``re + i im``, rescaled to spectral
    norm <= ``bound``."""
    h = herm_part(re + 1j * im)
    norms = np.max(np.abs(np.linalg.eigvalsh(h)), axis=-1)
    scale = bound / np.maximum(norms, 1e-12)
    return h * np.minimum(scale, 1.0)[:, None, None]


def random_unitaries(rng, d, n):
    """Stack of Haar-ish unitaries from QR of complex Gaussian matrices."""
    return _unitaries(rng.standard_normal((n, d, d)),
                      rng.standard_normal((n, d, d)))


def random_psd_field(rng, d, n, deficient_frac=0.4):
    """Random psd matrices with a controlled share of rank-deficient cells.

    Returns ``(a, rank_mask)`` where ``rank_mask[c, k]`` flags the surviving
    spectral directions of cell ``c``.
    """
    u = random_unitaries(rng, d, n)
    eigs = rng.uniform(0.3, 1.5, size=(n, d))
    mask = np.ones((n, d), dtype=bool)
    deficient = rng.random(n) < deficient_frac
    for c in np.nonzero(deficient)[0]:
        k = int(rng.integers(1, d + 1)) if d > 1 else 1
        drop = rng.choice(d, size=min(k, d), replace=False)
        mask[c, drop] = False
    eigs = np.where(mask, eigs, 0.0)
    a = np.einsum("nik,nk,njk->nij", u, eigs, np.conj(u))
    return herm_part(a), mask


def random_hermitian_field(rng, d, n, bound=1.0):
    """Random Hermitian matrices rescaled to spectral norm <= ``bound``."""
    return _hermitian(rng.standard_normal((n, d, d)),
                      rng.standard_normal((n, d, d)), bound)


def random_projection_field(rng, d, n):
    """Random orthogonal projections; per-cell rank uniform over
    ``0..d``."""
    u = random_unitaries(rng, d, n)
    return _projections(u, rng.integers(0, d + 1, size=n))


def commuting_projection_field(rng, derived):
    """Projections onto random eigenspaces of ``Z``, hence exactly
    commuting with it cell by cell."""
    _, u = np.linalg.eigh(derived.Z_field)
    n, d = derived.n_cells, derived.dim
    keep = rng.random((n, d)) < 0.5
    return np.einsum("nik,nk,njk->nij", u, keep.astype(float), np.conj(u))


def random_coefficients(rng, grid, deficient_frac=0.4):
    """A validated random model, factored form first.

    The skew field ``Z0`` and the first-order seeds ``X0``, ``Y0`` are
    compressed onto the range of ``A`` before building ``C``, ``b``, ``d``,
    so the model meets the sector and domination conditions by construction
    (``Z0`` scaled to ``0.9 tan(theta)``, ``K_bound`` to a hair above the
    largest seed norm).
    """
    n, d = grid.n_cells, grid.dim
    theta = float(rng.uniform(0.3, 1.1))
    a, _ = random_psd_field(rng, d, n, deficient_frac=deficient_frac)
    w, u = np.linalg.eigh(a)
    pos = w > 1e-12 * np.maximum(w[..., -1:], 1e-300)
    sq = np.where(pos, np.sqrt(np.where(pos, w, 1.0)), 0.0)
    asqrt = herm_part(np.einsum("nik,nk,njk->nij", u, sq, np.conj(u)))
    proj = herm_part(np.einsum("nik,nk,njk->nij", u, pos.astype(float),
                               np.conj(u)))

    z0 = random_hermitian_field(rng, d, n, bound=0.9 * np.tan(theta))
    z0 = herm_part(np.matmul(np.matmul(proj, z0), proj))
    eye = np.broadcast_to(np.eye(d), (n, d, d))
    c = np.matmul(np.matmul(asqrt, eye + 1j * z0), asqrt)

    def ranged_vectors():
        v = (rng.standard_normal((n, d))
             + 1j * rng.standard_normal((n, d))) * 1.5 / np.sqrt(d)
        return np.einsum("nkl,nl->nk", proj, v)

    x0 = ranged_vectors()
    y0 = ranged_vectors()
    b = np.conj(np.einsum("nkl,nl->nk", asqrt, x0))
    d_vec = np.einsum("nkl,nl->nk", asqrt, y0)
    c0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    k_bound = 1.01 * max(1e-6, float(np.max(np.linalg.norm(x0, axis=-1))),
                         float(np.max(np.linalg.norm(y0, axis=-1))))
    coeffs = CoefficientSet(grid=grid, C_field=c, b_field=b, d_field=d_vec,
                            c0_field=c0, theta=theta, K_bound=k_bound)
    return coeffs.validate()


def random_grid(rng, dim):
    """Small unit-box grid, one drawn cell count per axis: 8 to 16 cells in
    1-D, 3 to 6 per axis in 2-D and 2 to 4 in 3-D (at most 64 cells in
    all), and 3 or 4 per axis from 4-D on, which leaves at least ``2^dim``
    interior nodes for the node functions."""
    if dim == 1:
        cells = (int(rng.integers(8, 17)),)
    elif dim == 2:
        cells = (int(rng.integers(3, 7)), int(rng.integers(3, 7)))
    else:
        lo, hi = (2, 5) if dim == 3 else (3, 5)
        cells = tuple(int(rng.integers(lo, hi)) for _ in range(dim))
    box = tuple((0.0, 1.0) for _ in range(dim))
    return GridSpec(dim=dim, box=box, cells_per_axis=cells)


def random_node_functions(rng, grid, count):
    """A family of ``count`` compactly supported functions from random
    complex node values."""
    vals = np.zeros((count,) + grid.node_shape, dtype=complex)
    interior = tuple(slice(1, -1) for _ in range(grid.dim))
    shape = tuple(s - 1 for s in grid.cells_per_axis)
    for node_values in vals:
        node_values[interior] = (rng.standard_normal(shape)
                                 + 1j * rng.standard_normal(shape))
    values, grads = cell_data_from_nodes(grid, vals)
    return TestFunction(grid=grid, cell_values=values, cell_gradient=grads)


@dataclass
class OracleCase:
    """One randomized cross-check instance."""

    coeffs: CoefficientSet
    derived: DerivedFields
    q_field: np.ndarray
    funcs: TestFunction
    commuting: bool
    xi: np.ndarray


def _constant_noncommuting_pair(rng, d, z_bound):
    """Constant real ``(Q, Z)`` with ``||Q Z (I-Q)||_F`` bounded below.

    Real fields keep the growth probe's ratio exactly affine in ``lambda**2``
    (the linear cross term cancels), so the fitted slope carries the full
    commutator margin instead of competing with fit bias.
    """
    eye = np.eye(d)
    for _ in range(200):
        z = rng.standard_normal((d, d))
        z = 0.5 * (z + z.T)
        norm = np.max(np.abs(np.linalg.eigvalsh(z)))
        z *= min(1.0, z_bound / max(norm, 1e-12))
        u, _ = np.linalg.qr(rng.standard_normal((d, d)))
        rank = int(rng.integers(1, d))
        q = u[:, :rank] @ u[:, :rank].T
        off = q @ z @ (eye - q)
        if np.linalg.norm(off) >= NONCOMMUTING_MARGIN:
            return q, z
    raise RuntimeError("could not draw a non-commuting pair")  # pragma: no cover


def random_oracle_case(rng, dim=None, commuting=None):
    """Draw a model + projections + functions ready for the oracle.

    The basis is pre-validated (ambient + subspace build) so callers never
    see a degenerate draw; commuting cases take ``Q`` from eigenspaces of
    ``Z``, non-commuting cases use a constant pair with a commutator
    margin and also pick the probe direction ``xi`` that maximally excites
    ``Q Z (I-Q) A^{1/2}``.  The case carries the derived fields its basis
    was validated with.
    """
    for _ in range(20):
        d = int(dim) if dim else int(rng.integers(1, 4))
        flip = bool(rng.random() < 0.5) if commuting is None else commuting
        if not flip and d == 1:
            d = int(rng.integers(2, 4))
        grid = random_grid(rng, d)
        n = grid.n_cells
        try:
            if flip:
                coeffs = random_coefficients(rng, grid)
                derived = derive_fields(coeffs)
                q = commuting_projection_field(rng, derived)
                xi = np.ones(d) / np.sqrt(d)
            else:
                theta = float(rng.uniform(0.5, 1.1))
                q1, z1 = _constant_noncommuting_pair(
                    rng, d, z_bound=0.9 * np.tan(theta))
                c = np.broadcast_to(np.eye(d) + 1j * z1, (n, d, d)).copy()
                zeros = np.zeros((n, d), dtype=complex)
                coeffs = CoefficientSet(
                    grid=grid, C_field=c, b_field=zeros, d_field=zeros.copy(),
                    c0_field=rng.standard_normal(n)
                    + 1j * rng.standard_normal(n),
                    theta=theta, K_bound=1.0).validate()
                derived = derive_fields(coeffs)
                q = np.broadcast_to(q1, (n, d, d)).astype(complex)
                off = q1 @ z1 @ (np.eye(d) - q1)
                _, _, vh = np.linalg.svd(off)
                xi = vh[0] / max(np.linalg.norm(vh[0]), 1e-12)
            n_funcs = int(rng.integers(2, 9))
            n_funcs = min(n_funcs, max(2, n - 2))
            funcs = random_node_functions(rng, grid, n_funcs)
            if not flip:
                # Real probe carrier supported inside the box; keeps the
                # lambda-probe slope exactly the quadratured reference.
                bump = TestFunction.bump(grid, np.full(d, 0.5),
                                         np.full(d, 0.4))
                funcs.cell_values[0] = bump.cell_values
                funcs.cell_gradient[0] = bump.cell_gradient
            build_v_subspace(coeffs, derived, q, funcs)
        except (DegenerateBasis, KernelMismatch):
            continue
        return OracleCase(coeffs=coeffs, derived=derived, q_field=q,
                          funcs=funcs, commuting=flip,
                          xi=np.asarray(xi, dtype=float))
    raise RuntimeError(  # pragma: no cover
        "no valid oracle case after 20 attempts")


def _qz_segments(d):
    """The five draws that make ``n`` pairs ``(Q, Z)`` of dimension ``d``,
    as ``draw(rng, n)`` callables in the order they take from ``rng``:
    the real and imaginary normals of the unitaries, the ranks, and the
    real and imaginary normals of ``Z``.  Each draws ``n`` pairs' worth
    as the next ``n`` of one call for all the pairs would."""
    def normals(rng, n):
        return rng.standard_normal((n, d, d))

    def ranks(rng, n):
        return rng.integers(0, d + 1, size=n)

    return normals, normals, ranks, normals, normals


def _qz_pairs(u_re, u_im, ranks, z_re, z_im):
    """The pairs ``(Q, Z)`` made from the five segments' draws: ``Q``
    projects onto the first ``ranks`` columns of a unitary, ``Z`` is
    Hermitian with spectral norm <= 2."""
    return (_projections(_unitaries(u_re, u_im), ranks),
            _hermitian(z_re, z_im, bound=2.0))


def random_qz_draws(rng, d, trials):
    """Stacked raw ``(Q, Z)`` draws for the identity suite."""
    return _qz_pairs(*(draw(rng, trials) for draw in _qz_segments(d)))


def random_qz_blocks(rng, d, trials):
    """The draws of :func:`random_qz_draws` as an iterator of blocks of
    ``QZ_BLOCK`` pairs (the last may be shorter), each bit for bit the
    matching slice of ``random_qz_draws(rng, d, trials)``.

    A first pass, made here, draws and discards every segment block by
    block, keeping a copy of ``rng`` where each segment starts; ``rng`` is
    then left where ``random_qz_draws`` leaves it.  Each block is drawn
    from the five copies as it is asked for, so at most one block of
    draws exists at a time, whatever ``trials`` is."""
    segments = _qz_segments(d)
    starts = range(0, trials, QZ_BLOCK)
    cursors = []
    for draw in segments:
        cursors.append(copy.deepcopy(rng))
        for start in starts:
            draw(rng, min(QZ_BLOCK, trials - start))

    def blocks():
        for start in starts:
            n = min(QZ_BLOCK, trials - start)
            yield _qz_pairs(*(draw(cursor, n)
                              for draw, cursor in zip(segments, cursors)))

    return blocks()
