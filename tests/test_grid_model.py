"""Grids, test functions, coefficient validation and derived fields."""

import gc
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from regpart.diagnostics import PROBE_LAMBDAS
from regpart.errors import (DegenerateBasis, DominationViolation,
                            GridMismatch, SectorViolation, ValidationError)
from regpart.grid import (CELL_CHUNK, DeltaField, GridSpec, TestFunction,
                          cell_chunks, cell_data_from_nodes, chunked)
from regpart.model import (CoefficientSet, derive_fields,
                           estimate_vertex_angle, eval_form, form_gram,
                           vertex_search)
from regpart.pointwise import adjoint, herm_part
from regpart.randomized import (random_coefficients, random_grid,
                                random_node_functions)

from dense_reference import dense_grams, one_pass_fields


def unit_grid(dim, cells):
    return GridSpec(dim=dim, box=tuple((0.0, 1.0) for _ in range(dim)),
                    cells_per_axis=cells)


# -- grids ------------------------------------------------------------------


def test_grid_basics():
    g = unit_grid(2, (4, 8))
    assert g.n_cells == 32
    assert g.node_shape == (5, 9)
    assert_allclose(g.spacings, [0.25, 0.125])
    assert_allclose(g.cell_volume, 0.25 * 0.125)
    centers = g.cell_centers()
    assert centers.shape == (32, 2)
    # C-order: second axis varies fastest
    assert_allclose(centers[0], [0.125, 0.0625])
    assert_allclose(centers[1], [0.125, 0.1875])


def test_grid_validation():
    with pytest.raises(ValidationError):
        GridSpec(dim=1, box=((1.0, 0.0),), cells_per_axis=(4,))
    with pytest.raises(ValidationError):
        GridSpec(dim=2, box=((0.0, 1.0),), cells_per_axis=(4, 4))
    with pytest.raises(ValidationError):
        GridSpec(dim=1, box=((0.0, 1.0),), cells_per_axis=(0,))


def test_node_interpolant_linear_exactness():
    """Cell averages and gradients of an affine function are exact."""
    g = unit_grid(2, (5, 7))
    xs = np.linspace(0, 1, 6)[:, None]
    ys = np.linspace(0, 1, 8)[None, :]
    nodes = 2.0 * xs + 3.0 * ys - 2.3
    # the node kernel itself: from_node_values refuses a nonzero boundary
    values, grads = cell_data_from_nodes(g, nodes)
    centers = g.cell_centers()
    assert_allclose(values, 2.0 * centers[:, 0] + 3.0 * centers[:, 1] - 2.3,
                    atol=1e-13)
    assert_allclose(grads[:, 0], 2.0, atol=1e-12)
    assert_allclose(grads[:, 1], 3.0, atol=1e-12)


def test_node_family_matches_its_functions(rng):
    """The family kernel gives each function the bits it gets on its own,
    and random_node_functions draws node values in the per-function order
    of a loop over from_node_values."""
    for dim in (1, 2, 3):
        grid = random_grid(rng, dim)
        # zero on the boundary, as from_node_values requires
        stack = np.zeros((3,) + grid.node_shape, dtype=complex)
        inner = (slice(None),) + (slice(1, -1),) * dim
        shape = stack[inner].shape
        stack[inner] = (rng.standard_normal(shape)
                        + 1j * rng.standard_normal(shape))
        values, grads = cell_data_from_nodes(grid, stack)
        for k in range(3):
            u = TestFunction.from_node_values(grid, stack[k])
            assert np.array_equal(values[k], u.cell_values)
            assert np.array_equal(grads[k], u.cell_gradient)

        seed = int(rng.integers(2**31))
        family = random_node_functions(np.random.default_rng(seed), grid, 4)
        loop_rng = np.random.default_rng(seed)
        shape = tuple(n - 1 for n in grid.cells_per_axis)
        for u in family:
            nodes = np.zeros(grid.node_shape, dtype=complex)
            nodes[(slice(1, -1),) * dim] = (
                loop_rng.standard_normal(shape)
                + 1j * loop_rng.standard_normal(shape))
            ref = TestFunction.from_node_values(grid, nodes)
            assert np.array_equal(u.cell_values, ref.cell_values)
            assert np.array_equal(u.cell_gradient, ref.cell_gradient)
    assert len(random_node_functions(rng, grid, 0)) == 0
    with pytest.raises(TypeError):
        len(ref)  # one function has no batch axis


def test_node_boundary_support_enforced():
    g = unit_grid(1, (4,))
    nodes = np.ones(5, dtype=complex)
    with pytest.raises(ValidationError):
        TestFunction.from_node_values(g, nodes)


def test_bump_support_and_positivity():
    g = unit_grid(2, (10, 10))
    u = TestFunction.bump(g, center=[0.5, 0.5], width=[0.2, 0.2])
    centers = g.cell_centers()
    inside = np.max(np.abs(centers - 0.5), axis=1) < 0.15
    outside = np.max(np.abs(centers - 0.5), axis=1) > 0.25
    assert np.all(u.cell_values[inside].real > 0)
    assert_allclose(u.cell_values[outside], 0, atol=1e-15)
    with pytest.raises(GridMismatch):
        TestFunction.bump(g, center=[0.5], width=[0.2, 0.2])


@pytest.mark.parametrize("width", [[0.0], [0.2, 0.0], [np.inf, 0.2],
                                   [np.nan]])
def test_bump_rejects_degenerate_width(width):
    g = unit_grid(2, (10, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="bump width"):
            TestFunction.bump(g, center=[0.5, 0.5], width=width)
    with pytest.raises(GridMismatch):
        TestFunction.bump(g, center=[0.5, 0.5], width=[0.2, 0.2, 0.2])


def test_plateau_values():
    g = GridSpec(dim=1, box=((-1.0, 2.0),), cells_per_axis=(300,))
    u = TestFunction.plateau_1d(g, 0.0, 1.0)
    x = g.cell_centers()[:, 0]
    flat = (x > 0.005) & (x < 0.995)
    assert_allclose(u.cell_values[flat], 1.0, atol=1e-12)
    ramp = (x > -0.995) & (x < -0.005)
    assert_allclose(u.cell_values[ramp], x[ramp] + 1.0, atol=1e-12)
    assert_allclose(u.cell_gradient[ramp, 0], 1.0, atol=1e-12)


def test_modulation_preserves_values_and_norm(rng):
    g = unit_grid(2, (6, 6))
    u = random_node_functions(rng, g, 1)[0]
    m = u.modulated(17.0, np.array([0.6, 0.8]))
    assert_allclose(np.abs(m.cell_values), np.abs(u.cell_values), atol=1e-14)
    assert_allclose(m.norm_sq(), u.norm_sq(), rtol=1e-14)
    # gradient picks up the plane-wave factor
    centers = g.cell_centers()
    phase = np.exp(1j * 17.0 * centers @ np.array([0.6, 0.8]))
    expected = phase[:, None] * (u.cell_gradient
                                 + 1j * 17.0 * np.array([0.6, 0.8])
                                 * u.cell_values[:, None])
    assert_allclose(m.cell_gradient, expected, atol=1e-12)

    # one call over a lambda array gives every lambda the bits of its own
    # call, with the frequency axis ahead of the family's
    g = unit_grid(2, (37, 41))
    family = random_node_functions(rng, g, 2)
    xi = np.array([0.6, 0.8])
    waves = family.modulated(np.asarray(PROBE_LAMBDAS), xi)
    assert waves.cell_gradient.shape == (len(PROBE_LAMBDAS), 2, g.n_cells, 2)
    for lam, row in zip(PROBE_LAMBDAS, waves):
        for u, wave in zip(family, row):
            one = u.modulated(lam, xi)
            assert np.array_equal(wave.cell_values, one.cell_values)
            assert np.array_equal(wave.cell_gradient, one.cell_gradient)


@pytest.mark.parametrize("base_kind", ["input", "zeros"])
@pytest.mark.parametrize("n_cells", [0, 1, 40])
def test_delta_field_rows_are_the_whole_fields(rng, base_kind, n_cells):
    """Every way of indexing a delta field gives the rows of the field it
    stands for, over a real base and over a broadcast zero base that
    holds no memory, with no cell, one cell or many cells patched in."""
    shape = (50, 2, 2)
    base = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if base_kind == "zeros":
        base = np.broadcast_to(np.zeros((), complex), shape)
    cells = np.sort(rng.choice(50, n_cells, replace=False))
    values = rng.standard_normal((n_cells, 2, 2)) + 0j
    field = DeltaField(base, cells, values)
    whole = np.array(base)
    whole[cells] = values
    assert (len(field), field.shape, field.ndim) == (50, shape, 3)
    assert np.asarray(field).tobytes() == whole.tobytes()
    assert field.__array__(complex, copy=True).tobytes() == whole.tobytes()
    mask = np.arange(50) % 3 == 0
    for rows in (slice(None), slice(0, 7), slice(45, 90), slice(3, 40, 4),
                 np.array([49, 0, 7, 7]), np.array([], int), mask, 0, -1,
                 int(cells[0]) if n_cells else 5):
        got = field[rows]
        assert got.tobytes() == whole[rows].tobytes(), rows
        assert got.shape == whole[rows].shape
    assert np.array_equal(whole - field, np.zeros(shape))


def test_eval_form_on_delta_fields_is_the_dense_evaluation(rng):
    """A coefficient set of delta fields keeps them as they are, and
    ``eval_form`` on it, over every cell or over listed ones, gives the
    bits of the same evaluation on the dense fields."""
    grid = unit_grid(2, (80, 120))
    dense = random_coefficients(rng, grid)
    cells = np.sort(rng.choice(grid.n_cells, 900, replace=False))
    deltas = [DeltaField(f, cells, f[cells] * 0.5)
              for f in (dense.C_field, dense.b_field, dense.d_field,
                        dense.c0_field)]
    delta = CoefficientSet(grid, *deltas, theta=dense.theta,
                           K_bound=dense.K_bound)
    assert all(getattr(delta, name) is f for name, f in zip(
        ("C_field", "b_field", "d_field", "c0_field"), deltas))
    whole = CoefficientSet(grid, *map(np.asarray, deltas),
                           theta=dense.theta, K_bound=dense.K_bound)
    funcs = TestFunction.stack(grid, random_node_functions(rng, grid, 3))
    for where in (None, cells):
        got = eval_form(delta, funcs, funcs, cells=where)
        want = eval_form(whole, funcs, funcs, cells=where)
        for a, b in zip(got.parts, want.parts):
            assert a.tobytes() == b.tobytes()


# -- coefficient validation -------------------------------------------------


def test_random_coefficients_validate(rng):
    for dim in (1, 2, 3):
        coeffs = random_coefficients(rng, random_grid(rng, dim))
        assert coeffs.validate() is coeffs


def test_sector_violation_names_cell(rng):
    grid = unit_grid(1, (4,))
    c = np.ones((4, 1, 1), dtype=complex)
    c[2, 0, 0] = 1.0 + 5.0j  # far outside a pi/4 sector
    zeros = np.zeros((4, 1), dtype=complex)
    coeffs = CoefficientSet(grid=grid, C_field=c, b_field=zeros,
                            d_field=zeros, c0_field=np.zeros(4, dtype=complex),
                            theta=np.pi / 4, K_bound=1.0)
    with pytest.raises(SectorViolation) as err:
        coeffs.validate()
    assert err.value.cell == 2
    assert err.value.witness is not None


def test_domination_violation_names_cell():
    grid = unit_grid(1, (3,))
    c = np.ones((3, 1, 1), dtype=complex)
    b = np.zeros((3, 1), dtype=complex)
    b[1, 0] = 10.0  # |b|^2 > K^2 A
    coeffs = CoefficientSet(grid=grid, C_field=c, b_field=b,
                            d_field=np.zeros((3, 1), dtype=complex),
                            c0_field=np.zeros(3, dtype=complex),
                            theta=0.1, K_bound=1.0)
    with pytest.raises(DominationViolation) as err:
        coeffs.validate()
    assert err.value.cell == 1


def test_nonfinite_rejected(rng):
    coeffs = random_coefficients(rng, unit_grid(1, (4,)))
    coeffs.c0_field[2] = np.nan
    with pytest.raises(ValidationError):
        coeffs.validate()


# -- derived fields ---------------------------------------------------------


def test_derive_reconstruction(rng):
    for dim in (1, 2, 3):
        coeffs = random_coefficients(rng, random_grid(rng, dim))
        derived = derive_fields(coeffs)
        a = herm_part(coeffs.C_field)
        assert_allclose(np.matmul(derived.Asqrt_field, derived.Asqrt_field),
                        a, atol=1e-12)
        recon = np.matmul(derived.Asqrt_field,
                          np.matmul(np.broadcast_to(np.eye(dim), a.shape)
                                    + 1j * derived.Z_field,
                                    derived.Asqrt_field))
        assert_allclose(recon, coeffs.C_field,
                        atol=1e-9 * max(1, np.max(np.abs(coeffs.C_field))))


def test_xy_factorization_solves_and_bounds(rng):
    """A^{1/2} X = conj(b), A^{1/2} Y = d, with sup norms below K."""
    for k in range(5):
        coeffs = random_coefficients(rng, random_grid(rng, 1 + k % 3))
        derived = derive_fields(coeffs)
        bx = np.einsum("nkl,nl->nk", derived.Asqrt_field, derived.X_field)
        assert_allclose(bx, np.conj(coeffs.b_field), atol=1e-12)
        dy = np.einsum("nkl,nl->nk", derived.Asqrt_field, derived.Y_field)
        assert_allclose(dy, coeffs.d_field, atol=1e-12)
        assert np.max(np.linalg.norm(derived.X_field, axis=-1)) \
            <= coeffs.K_bound + 1e-9
        assert np.max(np.linalg.norm(derived.Y_field, axis=-1)) \
            <= coeffs.K_bound + 1e-9


def test_derive_idempotent(rng):
    """Re-deriving from the reconstructed model moves nothing."""
    coeffs = random_coefficients(rng, random_grid(rng, 2))
    derived = derive_fields(coeffs)
    eye = np.broadcast_to(np.eye(2), coeffs.C_field.shape)
    recon_c = np.matmul(derived.Asqrt_field,
                        np.matmul(eye + 1j * derived.Z_field,
                                  derived.Asqrt_field))
    again = derive_fields(CoefficientSet(
        grid=coeffs.grid, C_field=recon_c, b_field=coeffs.b_field,
        d_field=coeffs.d_field, c0_field=coeffs.c0_field,
        theta=coeffs.theta, K_bound=coeffs.K_bound))
    for name in ("Asqrt_field", "Z_field", "X_field", "Y_field"):
        assert_allclose(getattr(again, name), getattr(derived, name),
                        atol=1e-9)


def test_zero_principal_part_fields(rng):
    """Cells with A = 0 produce zero A^{1/2}, Z, X, Y."""
    grid = unit_grid(1, (4,))
    c = np.zeros((4, 1, 1), dtype=complex)
    c[0, 0, 0] = 1.0 + 0.5j
    zeros = np.zeros((4, 1), dtype=complex)
    coeffs = CoefficientSet(grid=grid, C_field=c, b_field=zeros,
                            d_field=zeros,
                            c0_field=np.ones(4, dtype=complex),
                            theta=0.5, K_bound=1.0)
    derived = derive_fields(coeffs.validate())
    assert_allclose(derived.Asqrt_field[1:], 0, atol=0)
    assert_allclose(derived.Z_field[1:], 0, atol=0)
    assert_allclose(derived.X_field[1:], 0, atol=0)


# -- form evaluation --------------------------------------------------------


def test_eval_form_sesquilinear(rng):
    coeffs = random_coefficients(rng, random_grid(rng, 2))
    u, v, w = random_node_functions(rng, coeffs.grid, 3)
    alpha, beta = 1.3 - 0.4j, -0.7 + 2.1j
    lhs = eval_form(coeffs, u.scaled(alpha), v).value
    assert_allclose(lhs, alpha * eval_form(coeffs, u, v).value, rtol=1e-12)
    lhs2 = eval_form(coeffs, u, v.scaled(beta)).value
    assert_allclose(lhs2, np.conj(beta) * eval_form(coeffs, u, v).value,
                    rtol=1e-12)
    add = eval_form(coeffs, u, TestFunction(
        grid=coeffs.grid, cell_values=v.cell_values + w.cell_values,
        cell_gradient=v.cell_gradient + w.cell_gradient)).value
    assert_allclose(add, eval_form(coeffs, u, v).value
                    + eval_form(coeffs, u, w).value, rtol=1e-11)


def test_eval_form_matches_factored(rng):
    """Direct coefficient evaluation vs the pulled-through-A^{1/2} form:
    the ``F x F`` block of the dense reference's form Gram, written with
    ``Z``, ``X`` and ``Y``, is the factored form, transposed."""
    for k in range(6):
        coeffs = random_coefficients(rng, random_grid(rng, 1 + k % 3))
        derived = derive_fields(coeffs)
        family = random_node_functions(rng, coeffs.grid, 2)
        q = np.zeros_like(coeffs.C_field)
        direct = eval_form(coeffs, family, family).value
        fact = dense_grams(coeffs, derived, q, family)[1][:2, :2].T
        assert_allclose(fact, direct, rtol=1e-10,
                        atol=1e-10 * (1 + np.min(np.abs(direct))))


def test_eval_form_batches_pairs(rng):
    """Two families give the matrix of every pair, part by part."""
    coeffs = random_coefficients(rng, random_grid(rng, 2))
    us = random_node_functions(rng, coeffs.grid, 3)
    vs = random_node_functions(rng, coeffs.grid, 2)
    batch = eval_form(coeffs, us, vs)
    assert batch.value.shape == (3, 2)
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            pair = eval_form(coeffs, u, v)
            assert isinstance(pair.value, complex)
            for a, b in zip(pair.parts, batch.parts):
                assert_allclose(b[i, j], a, rtol=1e-12, atol=1e-14)


def test_eval_form_over_listed_cells(rng, monkeypatch):
    """An index array of cells sums the form over those cells only: it is
    the form whose coefficients are zeroed on every other cell, to
    rounding, also run over chunks of 7 listed cells.  An empty list gives
    zeros of the family shape."""
    import regpart.grid
    coeffs = random_coefficients(rng, unit_grid(2, (6, 5)))
    us = random_node_functions(rng, coeffs.grid, 3)
    vs = random_node_functions(rng, coeffs.grid, 2)
    cells = np.flatnonzero(rng.random(coeffs.n_cells) < 0.6)
    keep = np.zeros(coeffs.n_cells)
    keep[cells] = 1.0
    zeroed = CoefficientSet(
        grid=coeffs.grid, C_field=keep[:, None, None] * coeffs.C_field,
        b_field=keep[:, None] * coeffs.b_field,
        d_field=keep[:, None] * coeffs.d_field,
        c0_field=keep * coeffs.c0_field, theta=coeffs.theta,
        K_bound=coeffs.K_bound)
    want = eval_form(zeroed, us, vs).parts
    got = [eval_form(coeffs, us, vs, cells=cells).parts]
    monkeypatch.setattr(regpart.grid, "CELL_CHUNK", 7)
    assert len(regpart.grid.cell_chunks(len(cells))) >= 2
    got.append(eval_form(coeffs, us, vs, cells=cells).parts)
    for parts in got:
        for a, b in zip(want, parts):
            assert_allclose(b, a, rtol=1e-13, atol=1e-14)
    empty = eval_form(coeffs, us, vs, cells=cells[:0])
    for part in empty.parts:
        assert part.shape == (3, 2) and not np.any(part)


def test_chunked_cell_passes_match_one_pass(rng, monkeypatch):
    """Run over chunks of 7 cells, ``eval_form`` and ``form_gram`` agree
    with the one-chunk pass to rounding (only the summation order
    differs), and the pointwise ``derive_fields`` and ``validate`` are
    unchanged bit for bit."""
    import regpart.grid
    coeffs = random_coefficients(rng, unit_grid(2, (6, 5)))
    us = random_node_functions(rng, coeffs.grid, 3)
    vs = random_node_functions(rng, coeffs.grid, 2)

    def passes():
        return (eval_form(coeffs, us, vs).parts, form_gram(coeffs, us),
                derive_fields(coeffs).Z_field)
    whole = passes()
    monkeypatch.setattr(regpart.grid, "CELL_CHUNK", 7)
    assert len(regpart.grid.cell_chunks(coeffs.n_cells)) == 4
    chunked = passes()
    for a, b in zip(whole[0] + whole[1], chunked[0] + chunked[1]):
        assert_allclose(b, a, rtol=1e-13, atol=1e-13)
    assert np.array_equal(chunked[2], whole[2])
    assert coeffs.validate() is coeffs


@pytest.mark.parametrize("cells", [(96, 96), (21, 21, 21), (9000,)])
def test_chunked_derive_fields_is_one_pass(cells):
    """On grids of two or three chunks, in dimensions 1 to 3, the chunked
    ``derive_fields`` gives every field bit for bit as one pass over the
    whole stack does."""
    coeffs = random_coefficients(np.random.default_rng(len(cells)),
                                 unit_grid(len(cells), cells))
    assert len(cell_chunks(coeffs.n_cells)) >= 2
    derived = derive_fields(coeffs)
    for got, want in zip((derived.Asqrt_field, derived.Z_field,
                          derived.X_field, derived.Y_field),
                         one_pass_fields(coeffs)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [0, 1, CELL_CHUNK, 2 * CELL_CHUNK - 1,
                               2 * CELL_CHUNK, 5 * CELL_CHUNK + 7])
def test_chunked_kernel_is_one_pass(n):
    """``chunked`` runs a per-cell kernel once per chunk of
    ``cell_chunks(n)`` and fills each output with the bits of one pass over
    the whole stack, in the dtype and trailing shape of the kernel's
    outputs; at ``n = 0`` the kernel runs once, on an empty slice, and the
    outputs are empty."""
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
    v = rng.standard_normal((n, 3))
    seen = []

    def kernel(rows):
        seen.append(rows)
        a = m[rows]
        return (np.einsum("nij,njk,nkl->nil", a, adjoint(a), a),
                np.einsum("nij,nj->ni", a.real, v[rows]),
                np.linalg.eigvalsh(herm_part(a))[..., 0],
                np.abs(a[:, 0, 0]) > 1.0)

    got = chunked(kernel, n)
    assert seen == (cell_chunks(n) or [slice(0, 0)])
    want = kernel(slice(None))
    assert isinstance(got, tuple) and len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()
    if n == 0:
        assert len(seen) == 2  # the empty chunk, then the one pass
        assert [(g.shape, g.dtype) for g in got] == [
            ((0, 3, 3), complex), ((0, 3), float), ((0,), float),
            ((0,), bool)]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_derive_fields_keeps_four_fields(dim):
    """A ``derive_fields`` result retains ``A^{1/2}``, ``Z``, ``X`` and
    ``Y`` only: ``(2 d^2 + 2 d)`` complex numbers per cell, plus a small
    constant."""
    cells = {1: (9000,), 2: (96, 96), 3: (21, 21, 21)}[dim]
    coeffs = random_coefficients(np.random.default_rng(dim),
                                 unit_grid(dim, cells))
    n = coeffs.n_cells
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        derived = derive_fields(coeffs)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert derived.Z_field.shape == (n, dim, dim)
    assert kept <= (2 * dim * dim + 2 * dim) * 16 * n + 16384


def test_eval_form_grid_mismatch(rng):
    coeffs = random_coefficients(rng, unit_grid(1, (4,)))
    other = random_node_functions(rng, unit_grid(1, (5,)), 1)[0]
    mine = random_node_functions(rng, unit_grid(1, (4,)), 1)[0]
    with pytest.raises(GridMismatch):
        eval_form(coeffs, mine, other)
    with pytest.raises(GridMismatch):
        TestFunction.stack(coeffs.grid, [mine, other])
    # values and gradients must share their batch shape
    for vals, grads in (((2, 4), (3, 4, 1)), ((2, 4), (4, 1)),
                        ((4,), (2, 4, 1)), ((), (1,))):
        with pytest.raises(GridMismatch):
            TestFunction(grid=coeffs.grid, cell_values=np.zeros(vals),
                         cell_gradient=np.zeros(grads))


def test_h_inner_and_gram_convention(rng):
    coeffs = random_coefficients(rng, random_grid(rng, 1))
    basis = random_node_functions(rng, coeffs.grid, 3)
    bmat, mmat = form_gram(coeffs, basis)
    # B[i, j] = a(u_j, u_i): contracting with coordinates evaluates the form
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    u = TestFunction(grid=coeffs.grid,
                     cell_values=sum(ci * b.cell_values
                                     for ci, b in zip(c, basis)),
                     cell_gradient=sum(ci * b.cell_gradient
                                       for ci, b in zip(c, basis)))
    assert_allclose(np.conj(c) @ bmat @ c, eval_form(coeffs, u, u).value,
                    rtol=1e-10, atol=1e-12)
    # M[i, j] = <u_j, u_i>: the midpoint-rule L2 inner product
    h_norm_sq = coeffs.grid.cell_volume * np.sum(np.abs(u.cell_values) ** 2)
    assert_allclose(np.conj(c) @ mmat @ c, h_norm_sq, rtol=1e-12)
    assert_allclose(mmat[0, 1], coeffs.grid.cell_volume * np.sum(
        basis[1].cell_values * np.conj(basis[0].cell_values)), rtol=1e-12)


def test_vertex_floor_on_basis(rng):
    """Re a(u,u) - gamma ||u||^2 >= -1e-9 for every basis vector."""
    coeffs = random_coefficients(rng, random_grid(rng, 2))
    basis = random_node_functions(rng, coeffs.grid, 4)
    params = estimate_vertex_angle(coeffs, basis)
    mass = np.diagonal(form_gram(coeffs, basis)[1]).real
    for u, m in zip(basis, mass):
        val = eval_form(coeffs, u, u).value
        assert val.real - params.gamma * m >= -1e-9


def _random_pencil(rng, k, cond):
    """A random complex ``B`` and a Hermitian positive definite ``M`` with
    eigenvalues log-spaced over ``[2 / cond, 2]``."""
    b = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    u, _ = np.linalg.qr(rng.standard_normal((k, k))
                        + 1j * rng.standard_normal((k, k)))
    eigs = 2.0 * np.logspace(0.0, -np.log10(cond), k)
    return b, (u * eigs) @ adjoint(u)


@pytest.mark.parametrize("cond", [1.0, 1e2, 1e6, 1e10])
def test_vertex_search_solves_the_pencil(rng, cond):
    """gamma and the witness are an eigenpair of (Re B, M), the witness is
    M-normalized, and gamma is the least Rayleigh quotient of the
    eigenvectors an independent Cholesky reduction finds.  Forming ``M x``
    for a witness of length up to ``cond**0.5`` costs ``eps * cond`` in
    any method, so the residual is a normwise backward error and the
    agreements scale with ``cond``."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    for k in (1, 2, 3, 5, 8):
        for _ in range(6):
            b, m = _random_pencil(rng, k, cond)
            params, x, _ = vertex_search(b, m)
            gamma, reb = params.gamma, herm_part(b)
            lam = np.linalg.eigvalsh(m)
            bnorm = np.linalg.norm(reb, 2)
            backward = (np.linalg.norm(reb @ x - gamma * (m @ x))
                        / ((bnorm + abs(gamma) * lam[-1])
                           * np.linalg.norm(x)))
            assert backward <= 1e-12
            assert abs(np.vdot(x, m @ x) - 1.0) <= 1e-13 * cond

            tol = 1e-13 * cond * bnorm / lam[0]
            low = np.linalg.cholesky(m)
            y = np.linalg.eigh(herm_part(np.linalg.solve(
                low, adjoint(np.linalg.solve(low, reb)))))[1]
            vecs = np.linalg.solve(adjoint(low), y)
            quotients = (np.einsum("ik,ij,jk->k", np.conj(vecs), reb, vecs)
                         / np.einsum("ik,ij,jk->k", np.conj(vecs), m, vecs))
            assert abs(np.min(quotients.real) - gamma) <= tol
            ref = scipy_linalg.eigh(reb, m, eigvals_only=True)[0]
            assert abs(ref - gamma) <= tol


def test_empty_family_has_empty_grams(rng):
    """An empty family gives 0 x 0 Gram matrices, and the vertex search
    refuses them."""
    coeffs = random_coefficients(rng, random_grid(rng, 2))
    empty = TestFunction.stack(coeffs.grid, [])
    assert empty.cell_gradient.shape == (0, coeffs.n_cells, 2)
    bmat, mmat = form_gram(coeffs, empty)
    assert bmat.shape == mmat.shape == (0, 0)
    with pytest.raises(DegenerateBasis):
        estimate_vertex_angle(coeffs, empty)


def test_vertex_angle_symmetric_form():
    """C = I, no lower order: gamma >= 0 and theta = 0 (real form)."""
    grid = unit_grid(1, (8,))
    c = np.full((8, 1, 1), 1.0 + 0.0j)
    coeffs = CoefficientSet(grid=grid, C_field=c,
                            b_field=np.zeros((8, 1), dtype=complex),
                            d_field=np.zeros((8, 1), dtype=complex),
                            c0_field=np.zeros(8, dtype=complex),
                            theta=0.0, K_bound=1.0)
    rng = np.random.default_rng(5)
    basis = random_node_functions(rng, grid, 3)
    params = estimate_vertex_angle(coeffs, basis)
    assert params.gamma >= -1e-9
    assert params.theta <= 1e-9


def test_vertex_sector_contains_samples(rng):
    """The returned pair (gamma, theta) really bounds the numerical range
    over the span: check 10^4 random coordinate directions."""
    coeffs = random_coefficients(rng, random_grid(rng, 2))
    basis = random_node_functions(rng, coeffs.grid, 4)
    params = estimate_vertex_angle(coeffs, basis)
    bmat, mmat = form_gram(coeffs, basis)
    tan = np.tan(params.theta)
    cs = rng.standard_normal((10000, 4)) + 1j * rng.standard_normal(
        (10000, 4))
    vals = np.einsum("sk,kl,sl->s", np.conj(cs), bmat, cs)
    norms = np.einsum("sk,kl,sl->s", np.conj(cs), mmat, cs).real
    shifted = vals - params.gamma * norms
    slack = 1e-8 * (1 + np.abs(vals))
    assert np.all(shifted.real >= -slack)
    assert np.all(np.abs(shifted.imag) <= tan * shifted.real + slack)
