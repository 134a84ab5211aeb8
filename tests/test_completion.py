"""Embedded-space construction: Gram matrices, operators, oracle, probe."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dense_reference import (ambient_inner, ambient_weights, dense_ops,
                             full_grid_singular_basis, hprime_from_coords)
from regpart.completion import (AMBIENT_MARGIN, _ambient_min_eig,
                                _singular_basis, build_ambient,
                                build_v_subspace, compute_operators,
                                oracle_regular_part, phi_vector, t_pi2_probe)
from regpart.diagnostics import generate_noncommuting_example
from regpart.errors import DegenerateBasis, KernelMismatch, ProjectionInvalid
from regpart.grid import GridSpec, TestFunction
from regpart.model import CoefficientSet, derive_fields, eval_form, form_gram
from regpart.pipeline import MULT_TOL, ORACLE_RTOL, multiplication_residuals, \
    oracle_crosscheck
from regpart.pointwise import adjoint, herm_part, imag_part
from regpart.randomized import (random_coefficients, random_grid,
                                random_node_functions, random_oracle_case,
                                random_projection_field)


def constant_model(c0=0.0, cells=6):
    grid = GridSpec(dim=1, box=((0.0, 1.0),), cells_per_axis=(cells,))
    n = grid.n_cells
    coeffs = CoefficientSet(
        grid=grid, C_field=np.ones((n, 1, 1), dtype=complex),
        b_field=np.zeros((n, 1), dtype=complex),
        d_field=np.zeros((n, 1), dtype=complex),
        c0_field=np.full(n, c0, dtype=complex), theta=0.1, K_bound=1.0)
    return coeffs, derive_fields(coeffs)


def random_setup(rng, dim, n_funcs=3):
    coeffs = random_coefficients(rng, random_grid(rng, dim))
    derived = derive_fields(coeffs)
    q = random_projection_field(rng, dim, coeffs.n_cells)
    funcs = random_node_functions(rng, coeffs.grid, n_funcs)
    vs = build_v_subspace(coeffs, derived, q, funcs)
    return coeffs, derived, q, funcs, vs


# -- ambient inner product --------------------------------------------------


def test_ambient_trivial_weights():
    coeffs, derived = constant_model()
    gamma = build_ambient(coeffs, derived)
    assert gamma == 0.0
    ws, vxy = ambient_weights(coeffs, derived, gamma)
    assert_allclose(ws, 1.0, atol=0)
    assert_allclose(vxy, 0.0, atol=0)


def test_ambient_lowers_gamma_for_negative_zeroth_order():
    coeffs, derived = constant_model(c0=-5.0)
    gamma = build_ambient(coeffs, derived)
    # starting value min(0, 1 + (-5) - 0.5) already clears the margin
    assert gamma == -4.5
    assert_allclose(ambient_weights(coeffs, derived, gamma)[0], 0.5, atol=0)


def test_v_subspace_stores_the_vertex_shift(rng):
    coeffs, derived, _, _, vs = random_setup(rng, 2)
    assert vs.gamma == build_ambient(coeffs, derived)


def test_ambient_blocks_positive_definite(rng):
    for dim in (1, 2, 3):
        coeffs = random_coefficients(rng, random_grid(rng, dim))
        derived = derive_fields(coeffs)
        gamma = build_ambient(coeffs, derived)
        assert gamma <= 0.0
        ws, vxy = ambient_weights(coeffs, derived, gamma)
        d = dim
        for c in range(coeffs.n_cells):
            block = np.zeros((d + 1, d + 1), dtype=complex)
            block[0, 0] = ws[c]
            block[0, 1:] = 0.5 * np.conj(vxy[c])
            block[1:, 0] = 0.5 * vxy[c]
            block[1:, 1:] = np.eye(d)
            low = float(np.linalg.eigvalsh(block)[0])
            assert low >= AMBIENT_MARGIN - 1e-12


def test_ambient_min_eig_without_cancellation():
    """The small root stays accurate when the scalar weight dwarfs 1."""
    ws = np.array([1e16, 1e20, 3.0])
    v_sq = np.array([1.0, 4e19, 0.0])
    assert_allclose(_ambient_min_eig(ws, v_sq), [1.0, 0.9, 1.0], rtol=1e-12)
    for w, vv in zip(ws, v_sq):
        # exact 2x2 reduction [[ws, |v|/2], [|v|/2, 1]], scaled to O(1)
        block = np.array([[w, 0.5 * np.sqrt(vv)], [0.5 * np.sqrt(vv), 1.0]])
        det = w - 0.25 * vv
        large = float(np.linalg.eigvalsh(block)[-1])
        assert_allclose(_ambient_min_eig(np.array([w]), np.array([vv])),
                        min(det / large, 1.0), rtol=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ambient_min_eig_near_the_largest_float():
    """A weight near the largest float neither overflows nor loses the
    small root: ``ws - |v|^2/4`` over a larger root of about ``ws``."""
    ws = np.array([1.7e308, 1.7e308, 1e308])
    v_sq = np.array([0.0, 4.0, 1e308])
    assert_allclose(_ambient_min_eig(ws, v_sq), [1.0, 1.0, 0.75],
                    rtol=1e-12)


def test_ambient_inner_is_an_inner_product(rng):
    coeffs = random_coefficients(rng, random_grid(rng, 2))
    derived = derive_fields(coeffs)
    gamma = build_ambient(coeffs, derived)
    n, d = coeffs.n_cells, coeffs.dim

    def inner(x, y):
        return ambient_inner(coeffs, derived, gamma, x, y)

    for _ in range(5):
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n),
             rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
        y = (rng.standard_normal(n) + 1j * rng.standard_normal(n),
             rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
        sym_gap = inner(x, y) - np.conj(inner(y, x))
        assert abs(sym_gap) < 1e-10
        val = inner(x, x)
        mass = coeffs.grid.cell_volume * (np.sum(np.abs(x[0]) ** 2)
                                          + np.sum(np.abs(x[1]) ** 2))
        assert abs(val.imag) < 1e-10
        assert val.real >= AMBIENT_MARGIN * mass - 1e-10


# -- Gram matrices ----------------------------------------------------------


def direct_extended_form(vs, x, y):
    """The extended form on H'-pairs, written out independently."""
    u1, w1 = x
    u2, w2 = y
    z = vs.derived.Z_field
    izw = w1 + 1j * np.einsum("nkl,nl->nk", z, w1)
    t1 = np.sum(izw * np.conj(w2))
    t2 = np.sum(w1 * np.conj(vs.derived.X_field) * np.conj(u2)[:, None])
    t3 = np.sum(u1[:, None] * vs.derived.Y_field * np.conj(w2))
    t4 = np.sum(vs.coeffs.c0_field * u1 * np.conj(u2))
    return vs.coeffs.grid.cell_volume * complex(t1 + t2 + t3 + t4)


def test_gram_blocks_match_direct_form(rng):
    coeffs, derived, _, _, vs = random_setup(rng, 2)
    for _ in range(6):
        cx = rng.standard_normal(vs.dim) + 1j * rng.standard_normal(vs.dim)
        cy = rng.standard_normal(vs.dim) + 1j * rng.standard_normal(vs.dim)
        x = hprime_from_coords(vs, cx)
        y = hprime_from_coords(vs, cy)
        via_gram = complex(np.conj(cy) @ vs.gram_form @ cx)
        assert_allclose(via_gram, direct_extended_form(vs, x, y),
                        rtol=1e-10, atol=1e-10)
        via_gram_a = complex(np.conj(cy) @ vs.gram_a @ cx)
        assert_allclose(via_gram_a,
                        ambient_inner(coeffs, derived, vs.gamma, x, y),
                        rtol=1e-10, atol=1e-10)


def test_gram_a_is_shifted_hermitian_part(rng):
    """The ambient Gram equals the form Gram's Hermitian part plus the
    vertex shift times the plain L2 Gram of the embedded functions."""
    coeffs, _, _, funcs, vs = random_setup(rng, 2)
    shift = np.zeros((vs.dim, vs.dim), dtype=complex)
    shift[:vs.n_funcs, :vs.n_funcs] = form_gram(coeffs, funcs)[1]
    expected = herm_part(vs.gram_form) + (1.0 - vs.gamma) * shift
    assert_allclose(vs.gram_a, expected, atol=1e-11)


def test_singular_block_is_scaled_identity(rng):
    _, _, _, _, vs = random_setup(rng, 3)
    jj = slice(vs.n_funcs, vs.dim)
    vol = vs.coeffs.grid.cell_volume
    eye = vol * np.eye(vs.n_singular)
    assert_allclose(vs.gram_a[jj, jj], eye, atol=1e-13)
    assert_allclose(herm_part(vs.gram_form)[jj, jj], eye, atol=1e-13)


# -- operators --------------------------------------------------------------


def test_kernel_projection_normal_equations(rng):
    _, _, _, _, vs = random_setup(rng, 2)
    ops = dense_ops(vs, compute_operators(vs))
    jj = slice(vs.n_funcs, vs.dim)
    scale = float(np.max(np.abs(vs.gram_a)))
    # pi2 x is a-orthogonal to every singular basis vector
    assert np.max(np.abs((vs.gram_a @ ops.pi2)[jj, :])) < 1e-10 * scale
    assert_allclose(ops.pi1 @ ops.pi1, ops.pi1, atol=1e-9)
    assert_allclose(ops.pi1 + ops.pi2, np.eye(vs.dim), atol=0)


def test_t_defining_relation(rng):
    _, _, _, _, vs = random_setup(rng, 2)
    ops = dense_ops(vs, compute_operators(vs))
    jj = slice(vs.n_funcs, vs.dim)
    hh = herm_part(vs.gram_form)
    him = imag_part(vs.gram_form)
    assert_allclose((hh @ ops.T)[jj, :], him[jj, :], atol=1e-12)
    # rows outside the singular block stay zero
    assert np.max(np.abs(ops.T[:vs.n_funcs, :])) == 0.0
    assert_allclose(ops.T11, adjoint(ops.T11), atol=1e-12)


def test_correction_operator_equation(rng):
    """Pi = pi2 - i (I + iT11)^{-1} T pi2 row-block, checked via its
    defining linear system."""
    _, _, _, _, vs = random_setup(rng, 3)
    ops = dense_ops(vs, compute_operators(vs))
    jj = slice(vs.n_funcs, vs.dim)
    lhs = (np.eye(vs.n_singular) + 1j * ops.T11) @ (ops.pi2 - ops.Pi)[jj, :]
    rhs = 1j * (ops.T @ ops.pi2)[jj, :]
    assert_allclose(lhs, rhs, atol=1e-11)
    # function rows of Pi and pi2 agree (the correction lives in V1)
    assert_allclose(ops.Pi[:vs.n_funcs, :], ops.pi2[:vs.n_funcs, :], atol=0)


def test_operators_are_multiplications(rng):
    for dim, commuting in ((1, None), (2, True), (3, False)):
        case = random_oracle_case(rng, dim=dim, commuting=commuting)
        coeffs = case.coeffs
        derived = derive_fields(coeffs)
        vs = build_v_subspace(coeffs, derived, case.q_field, case.funcs)
        pi1_res, t_res = multiplication_residuals(vs, compute_operators(vs))
        assert pi1_res < MULT_TOL
        assert t_res < MULT_TOL


def test_oracle_agrees_with_assembly(rng):
    for _ in range(6):
        case = random_oracle_case(rng)
        out = oracle_crosscheck(case)
        assert out["oracle_rel"] < ORACLE_RTOL
        assert out["pi1_res"] < MULT_TOL
        assert out["t_res"] < MULT_TOL


@pytest.mark.parametrize("commuting", [True, False])
def test_oracle_agrees_in_four_dimensions(rng, commuting):
    """Four-dimensional cases draw one axis per dimension and cross-check
    like the lower ones."""
    for _ in range(2):
        case = random_oracle_case(rng, dim=4, commuting=commuting)
        assert case.coeffs.dim == 4 and case.commuting is commuting
        assert len(case.coeffs.grid.cells_per_axis) == 4
        out = oracle_crosscheck(case)
        assert out["oracle_rel"] < ORACLE_RTOL
        assert out["pi1_res"] < MULT_TOL
        assert out["t_res"] < MULT_TOL


def test_oracle_explicit_pair(rng):
    """One case spelled out without the pipeline wrapper."""
    from regpart.regularize import assemble_regular, build_singular_structure
    case = random_oracle_case(rng, dim=2, commuting=True)
    coeffs = case.coeffs
    derived = derive_fields(coeffs)
    s = build_singular_structure(case.q_field, derived)
    reg = assemble_regular(coeffs, derived, s)
    vs = build_v_subspace(coeffs, derived, case.q_field, case.funcs)
    ops = compute_operators(vs)
    reg_set = reg.regular_set(coeffs.theta, coeffs.K_bound)
    u, v = case.funcs[0], case.funcs[-1]
    formula = eval_form(reg_set, u, v).value
    oracle = oracle_regular_part(ops, vs)[0, -1]
    assert abs(formula - oracle) <= ORACLE_RTOL * (1.0 + abs(formula))


def test_real_part_operators(rng):
    _, _, _, _, vs = random_setup(rng, 2)
    ops_h = compute_operators(vs, real_part=True)
    dense = dense_ops(vs, ops_h)
    assert np.max(np.abs(dense.T)) < 1e-12
    assert_allclose(dense.Pi, dense.pi2, atol=1e-12)
    # the Hermitian form's regular part is Hermitian in its arguments
    table = oracle_regular_part(ops_h, vs)
    assert_allclose(table, adjoint(table), atol=1e-10)


def test_oracle_index_range(rng):
    """The table holds exactly the embedded functions' pairs."""
    _, _, _, _, vs = random_setup(rng, 1)
    table = oracle_regular_part(compute_operators(vs), vs)
    assert table.shape == (vs.n_funcs, vs.n_funcs)
    with pytest.raises(IndexError):
        table[0, vs.n_funcs]


# -- degeneracy guards ------------------------------------------------------


def test_kernel_mismatch_detected(rng):
    coeffs, derived = constant_model(cells=8)
    f1 = random_node_functions(rng, coeffs.grid, 1)[0]
    f2 = TestFunction(grid=coeffs.grid, cell_values=f1.cell_values.copy(),
                      cell_gradient=f1.cell_gradient + 1.0)
    q = np.zeros((coeffs.n_cells, 1, 1), dtype=complex)
    with pytest.raises(KernelMismatch):
        build_v_subspace(coeffs, derived, q,
                         TestFunction.stack(coeffs.grid, [f1, f2]))


def test_degenerate_basis_detected(rng):
    coeffs, derived = constant_model(cells=8)
    f = random_node_functions(rng, coeffs.grid, 1)[0]
    q = np.zeros((coeffs.n_cells, 1, 1), dtype=complex)
    with pytest.raises(DegenerateBasis):
        build_v_subspace(coeffs, derived, q, TestFunction.stack(
            coeffs.grid, [f, f.scaled(2.0)]))


def test_no_singular_directions(rng):
    coeffs, derived = constant_model(cells=8)
    f = random_node_functions(rng, coeffs.grid, 1)[0]
    q = np.zeros((coeffs.n_cells, 1, 1), dtype=complex)
    vs = build_v_subspace(coeffs, derived, q,
                          TestFunction.stack(coeffs.grid, [f]))
    assert vs.dim == 1 and vs.n_singular == 0
    ops = compute_operators(vs)
    dense = dense_ops(vs, ops)
    assert_allclose(dense.Pi, np.eye(1), atol=0)
    assert np.max(np.abs(dense.pi1)) == 0.0
    # with no singular directions the whole form is its own regular part
    oracle = oracle_regular_part(ops, vs)[0, 0]
    assert_allclose(oracle, eval_form(coeffs, f, f).value,
                    rtol=1e-10, atol=1e-12)


def test_empty_family_builds(cantor3):
    """With no functions V is the singular block alone: the ambient Gram
    is ``vol`` times the identity and its condition number is one."""
    coeffs, derived = cantor3["coeffs"], cantor3["derived"]
    vs = build_v_subspace(coeffs, derived, cantor3["q_field"],
                          TestFunction.stack(coeffs.grid, []))
    assert (vs.n_funcs, vs.dim) == (0, 72)
    assert vs.func_values.shape == (0, coeffs.n_cells)
    assert vs.cond == 1.0
    assert_allclose(vs.gram_a, coeffs.grid.cell_volume * np.eye(72),
                    atol=1e-13)
    ops = compute_operators(vs)
    assert ops.pi1_jf.shape == ops.pi_jf.shape == (72, 0)


def test_cantor_singular_count(cantor3):
    coeffs = cantor3["coeffs"]
    derived = cantor3["derived"]
    q_field = cantor3["q_field"]
    funcs = TestFunction.stack(coeffs.grid, cantor3["funcs"].values())
    vs = build_v_subspace(coeffs, derived, q_field, funcs)
    # the V build reads the family in place
    assert np.shares_memory(vs.func_values, funcs.cell_values)
    mask = np.nonzero(q_field[:, 0, 0].real > 0.5)[0]
    # stage-3 removed-interval endpoints fall on cell boundaries, so the
    # kept measure 9/16 over the unit interval counts cells exactly
    assert mask.size == 72
    assert vs.n_singular == 72
    assert np.array_equal(vs.singular_cells, mask)


# -- growth probe -----------------------------------------------------------


def test_probe_constant_noncommuting_model():
    coeffs, q = generate_noncommuting_example(coupling=0.5)
    derived = derive_fields(coeffs)
    tau = TestFunction.bump(coeffs.grid, [0.5, 0.5], [0.4, 0.4])
    vs = build_v_subspace(coeffs, derived, q,
                          TestFunction.stack(coeffs.grid, [tau]))
    ops = compute_operators(vs)
    report = t_pi2_probe(vs, ops, tau, (0.0, 1.0), (5.0, 10.0, 20.0, 40.0))
    assert not report.skipped
    # |Q Z (I-Q) A^{1/2} xi| = coupling for xi along the second axis
    expected_ref = 0.25 * coeffs.grid.cell_volume * float(
        np.sum(np.abs(tau.cell_values) ** 2))
    assert_allclose(report.reference, expected_ref, rtol=1e-12)
    # real constant coefficients: the ratio is affine in lambda^2, so the
    # fitted slope hits the quadrature reference at machine precision
    assert report.rel_error < 1e-6
    assert all(b > a for a, b in zip(report.ratios, report.ratios[1:]))
    assert report.intercept > -1e-9


def test_probe_commuting_is_flat():
    coeffs, _ = generate_noncommuting_example(coupling=0.5)
    derived = derive_fields(coeffs)
    tau = TestFunction.bump(coeffs.grid, [0.5, 0.5], [0.4, 0.4])
    n = coeffs.n_cells
    q_full = np.broadcast_to(np.eye(2), (n, 2, 2)).astype(complex).copy()
    vs = build_v_subspace(coeffs, derived, q_full,
                          TestFunction.stack(coeffs.grid, [tau]))
    ops = compute_operators(vs)
    report = t_pi2_probe(vs, ops, tau, (0.0, 1.0), (5.0, 10.0, 20.0, 40.0))
    assert report.reference == 0.0
    assert abs(report.slope) < 1e-12
    assert report.rel_error < 1e-8


def test_probe_skip_semantics():
    coeffs, q = generate_noncommuting_example(coupling=0.5)
    derived = derive_fields(coeffs)
    tau = TestFunction.bump(coeffs.grid, [0.5, 0.5], [0.4, 0.4])
    vs = build_v_subspace(coeffs, derived, q,
                          TestFunction.stack(coeffs.grid, [tau]))
    ops = compute_operators(vs)

    # one distinct lambda^2 cannot fix a slope
    for lambdas in ((10.0,), (3.0, 3.0), (3.0, -3.0), (0.0, -0.0)):
        single = t_pi2_probe(vs, ops, tau, (0.0, 1.0), lambdas)
        assert single.skipped and single.ratios == ()

    zero = t_pi2_probe(vs, ops, tau.scaled(0.0), (0.0, 1.0), (5.0, 10.0))
    assert zero.skipped

    q0 = np.zeros((coeffs.n_cells, 2, 2), dtype=complex)
    vs0 = build_v_subspace(coeffs, derived, q0,
                           TestFunction.stack(coeffs.grid, [tau]))
    empty = t_pi2_probe(vs0, compute_operators(vs0), tau, (0.0, 1.0),
                        (5.0, 10.0))
    assert not empty.skipped
    assert empty.ratios == ()
    assert math.isnan(empty.rel_error)


def test_phi_vector_matches_factored_gradient(rng):
    coeffs = random_coefficients(rng, random_grid(rng, 2))
    derived = derive_fields(coeffs)
    family = random_node_functions(rng, coeffs.grid, 2)
    u, w = phi_vector(derived, family)
    assert u is family.cell_values
    for f, wf in zip(family, w):
        assert np.array_equal(phi_vector(derived, f)[1], wf)
        expected = np.einsum("nkl,nl->nk", derived.Asqrt_field,
                             f.cell_gradient)
        assert_allclose(wf, expected, atol=0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_singular_basis_on_support_is_full_grid_basis(d):
    """Decomposing ``Q`` on ``supp Q`` only gives the full-grid basis bit
    for bit, on scattered support cells of mixed rank, and names the same
    cell when a projection there is invalid, also when that cell is not
    the first of the support."""
    rng = np.random.default_rng(50 + d)
    n = 400
    q = random_projection_field(rng, d, n)
    q[rng.random(n) < 0.6] = 0.0
    support = np.flatnonzero(np.any(q != 0, axis=(1, 2)))
    cells, vecs = _singular_basis(q, support)
    want_cells, want_vecs = full_grid_singular_basis(q)
    assert cells.tobytes() == want_cells.tobytes()
    assert vecs.tobytes() == want_vecs.tobytes()
    assert 0 < len(np.unique(cells)) < n

    bad_cell = support[len(support) // 2]
    q[bad_cell] = 0.5 * np.eye(d)
    for basis in (lambda: _singular_basis(q, support),
                  lambda: full_grid_singular_basis(q)):
        with pytest.raises(ProjectionInvalid) as err:
            basis()
        assert err.value.cell == bad_cell
