"""Grids, test functions, coefficient validation and derived fields."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from regpart.errors import (DegenerateBasis, DominationViolation,
                            GridMismatch, SectorViolation, ValidationError)
from regpart.grid import GridSpec, TestFunction
from regpart.model import (CoefficientSet, derive_fields,
                           estimate_vertex_angle, eval_form, form_gram)
from regpart.pointwise import adjoint, herm_part
from regpart.randomized import (random_coefficients, random_grid,
                                random_node_functions)

from dense_reference import dense_grams


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
    nodes = (0.25 + 2.0 * xs + 3.0 * ys) * xs * 0  # placeholder shape
    nodes = 2.0 * xs + 3.0 * ys - 2.3
    # force zero boundary off: use interior support check bypass
    u = TestFunction.from_node_values(g, nodes, require_support=False)
    centers = g.cell_centers()
    assert_allclose(u.cell_values,
                    2.0 * centers[:, 0] + 3.0 * centers[:, 1] - 2.3,
                    atol=1e-13)
    assert_allclose(u.cell_gradient[:, 0], 2.0, atol=1e-12)
    assert_allclose(u.cell_gradient[:, 1], 3.0, atol=1e-12)


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
        assert_allclose(derived.A_field, a, atol=1e-12)
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
    for name in ("A_field", "Asqrt_field", "g_field", "Z_field",
                 "X_field", "Y_field"):
        assert_allclose(getattr(again, name), getattr(derived, name),
                        atol=1e-9)


def test_zero_principal_part_fields(rng):
    """Cells with A = 0 produce zero A^{1/2}, g, Z, X, Y."""
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
        u, v = random_node_functions(rng, coeffs.grid, 2)
        q = np.zeros_like(coeffs.C_field)
        direct = eval_form(coeffs, [u, v], [u, v]).value
        fact = dense_grams(coeffs, derived, q, [u, v])[1][:2, :2].T
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


def test_eval_form_grid_mismatch(rng):
    coeffs = random_coefficients(rng, unit_grid(1, (4,)))
    other = random_node_functions(rng, unit_grid(1, (5,)), 1)[0]
    mine = random_node_functions(rng, unit_grid(1, (4,)), 1)[0]
    with pytest.raises(GridMismatch):
        eval_form(coeffs, mine, other)


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


def test_empty_family_has_empty_grams(rng):
    """An empty family gives 0 x 0 Gram matrices, and the vertex search
    refuses them."""
    coeffs = random_coefficients(rng, random_grid(rng, 2))
    bmat, mmat = form_gram(coeffs, [])
    assert bmat.shape == mmat.shape == (0, 0)
    with pytest.raises(DegenerateBasis):
        estimate_vertex_angle(coeffs, [])


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
