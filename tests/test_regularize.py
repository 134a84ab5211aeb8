"""Singular structure, the kernel identities and the assembled splitting."""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dense_reference import (one_pass_identity_norms, one_pass_kernel,
                             one_shot_qz_draws, sector_pencils,
                             structure_fields)
from regpart.diagnostics import regular_sector_tangent
from regpart.errors import GridMismatch, NotCommuting, ProjectionInvalid
from regpart.grid import CELL_CHUNK, GridSpec, cell_chunks
from regpart.model import CoefficientSet, derive_fields, eval_form
from regpart.pointwise import (PSD_TOL, adjoint, frobenius, herm_part,
                               imag_part, pinv_sqrt)
from regpart.randomized import (QZ_BLOCK, commuting_projection_field,
                                random_coefficients, random_grid,
                                random_node_functions,
                                random_projection_field, random_qz_blocks,
                                random_qz_draws)
from regpart.regularize import (_commuting_fields, _identity_report,
                                _package, _regular_fields, assemble_regular,
                                assemble_regular_commuting,
                                build_singular_structure, commutator_norms,
                                identity_residuals, identity_suite,
                                indicator_projection,
                                projection_from_spanning,
                                pure_second_order_parts)

IDENTITY_NAMES = (
    "resolvent_commutation", "double_contraction", "mixed_first_order",
    "second_order_reduction", "adjoint_first_order", "zeroth_order_reduction",
)


def make_case(rng, dim, commuting=False):
    coeffs = random_coefficients(rng, random_grid(rng, dim))
    derived = derive_fields(coeffs)
    if commuting:
        q = commuting_projection_field(rng, derived)
    else:
        q = random_projection_field(rng, dim, coeffs.n_cells)
    s = build_singular_structure(q, derived)
    return coeffs, derived, s


def test_structure_rejects_non_projection(rng):
    coeffs = random_coefficients(rng, random_grid(rng, 2))
    derived = derive_fields(coeffs)
    q = random_projection_field(rng, 2, coeffs.n_cells)
    q[3] += 0.05
    with pytest.raises(ProjectionInvalid) as err:
        build_singular_structure(q, derived)
    assert "3" in str(err.value)


def test_w_solves_its_defining_equation(rng):
    coeffs, derived, s = make_case(rng, 3)
    q, w, _ = structure_fields(s, coeffs.n_cells)
    qzq = herm_part(np.matmul(np.matmul(q, derived.Z_field), q))
    eye = np.broadcast_to(np.eye(3), qzq.shape)
    lhs = np.matmul(eye + 1j * qzq, w)
    assert_allclose(lhs, q, atol=1e-12)
    # W is supported on the Q block from both sides
    assert_allclose(np.matmul(q, w), w, atol=1e-12)
    assert_allclose(np.matmul(w, q), w, atol=1e-12)


def test_identity_suite_on_models(rng):
    for dim in (1, 2, 3):
        _, derived, s = make_case(rng, dim)
        report = identity_suite(s, derived)
        assert set(report.residuals) == set(IDENTITY_NAMES)
        assert report.max_residual < 1e-12


def test_identity_residuals_raw_draws(rng):
    for d in range(1, 7):
        q, z = random_qz_draws(rng, d, 50)
        report = identity_residuals(q, z)
        assert report.max_residual < 1e-10


def test_identities_fail_for_wrong_w(rng):
    """Negative control: replacing W by Q breaks the resolvent identity
    whenever QZQ != 0."""
    coeffs, derived, s = make_case(rng, 2)
    q = structure_fields(s, coeffs.n_cells)[0]
    qzq = np.matmul(np.matmul(q, derived.Z_field), q)
    if np.max(np.abs(qzq)) < 1e-3:
        pytest.skip("draw produced a negligible QZQ")
    broken = _identity_report(q, derived.Z_field, w=q.copy())
    assert broken.max_residual > 1e-6


# -- assembly ---------------------------------------------------------------


def direct_kernel_value(derived, s, c0_field, u, v):
    """Independent sesquilinear evaluation of the regularized form, written
    directly from the kernel-sandwich expression (second order), the
    ``(I - iWZ)`` / ``(I + iW*Z)`` first-order kernels and the ``X* W Y``
    zeroth-order correction."""
    vol = derived.grid.cell_volume
    n, d = derived.n_cells, derived.dim
    eye = np.broadcast_to(np.eye(d), (n, d, d))
    _, w, p = structure_fields(s, n)
    z = derived.Z_field
    pa = np.matmul(p, derived.Asqrt_field)
    wu = np.einsum("nkl,nl->nk", pa, u.cell_gradient)
    wv = np.einsum("nkl,nl->nk", pa, v.cell_gradient)
    kernel = eye + 1j * z + np.matmul(z, np.matmul(w, z))
    second = np.sum(np.einsum("nkl,nl,nk->n", kernel, wu, np.conj(wv)))
    m_b = eye - 1j * np.matmul(w, z)
    xrow = np.einsum("nk,nkl,nl->n", np.conj(derived.X_field), m_b, wu)
    first_b = np.sum(xrow * np.conj(v.cell_values))
    m_d = eye + 1j * np.matmul(adjoint(w), z)
    yrow = np.einsum("nk,nkl,nl->n", np.conj(derived.Y_field), m_d, wv)
    first_d = np.sum(u.cell_values * np.conj(yrow))
    wy = np.einsum("nkl,nl->nk", w, derived.Y_field)
    xwy = np.einsum("nk,nk->n", np.conj(derived.X_field), wy)
    zeroth = np.sum((np.asarray(c0_field) - xwy) * u.cell_values
                    * np.conj(v.cell_values))
    return vol * complex(second + first_b + first_d + zeroth)


def test_assembly_matches_direct_contraction(rng):
    """Golden orientation lock: quadrature with the assembled coefficient
    fields must equal the direct kernel-sandwich evaluation."""
    for dim in (1, 2, 3):
        coeffs, derived, s = make_case(rng, dim)
        reg = assemble_regular(coeffs, derived, s)
        reg_set = reg.regular_set(coeffs.theta, coeffs.K_bound)
        u, v = random_node_functions(rng, coeffs.grid, 2)
        direct = direct_kernel_value(derived, s, coeffs.c0_field, u, v)
        assembled = eval_form(reg_set, u, v).value
        assert_allclose(assembled, direct, rtol=1e-10,
                        atol=1e-11 * (1 + abs(direct)))


def test_complement_fields_bitwise(rng):
    coeffs, derived, s = make_case(rng, 2)
    reg = assemble_regular(coeffs, derived, s)
    assert np.array_equal(reg.C_s, coeffs.C_field - reg.C_reg)
    assert np.array_equal(reg.b_s, coeffs.b_field - reg.b_reg)
    assert np.array_equal(reg.d_s, coeffs.d_field - reg.d_reg)
    assert np.array_equal(reg.c0_s, coeffs.c0_field - reg.c0_reg)


def test_regular_part_is_sectorial_pointwise(rng):
    """C_reg admits some sector angle below pi/2 on every cell."""
    coeffs, derived, s = make_case(rng, 3)
    reg = assemble_regular(coeffs, derived, s)
    tangent = regular_sector_tangent(reg, derived, s)
    assert np.isfinite(tangent)
    theta = min(np.arctan(tangent) + 1e-6, np.pi / 2 - 1e-12)
    _, mins = sector_pencils(reg.C_reg, theta)
    assert np.all(mins >= -PSD_TOL * np.maximum(1.0, frobenius(reg.C_reg)))


def test_trivial_projections():
    """Q = 0 keeps everything; Q = I keeps only lower-order couplings."""
    rng = np.random.default_rng(11)
    coeffs = random_coefficients(rng, random_grid(rng, 2))
    derived = derive_fields(coeffs)
    n, d = coeffs.n_cells, coeffs.dim
    s0 = build_singular_structure(np.zeros((n, d, d), dtype=complex), derived)
    reg0 = assemble_regular(coeffs, derived, s0)
    assert_allclose(reg0.C_reg, coeffs.C_field, atol=1e-10)
    assert_allclose(reg0.b_reg, coeffs.b_field, atol=1e-10)
    assert_allclose(reg0.d_reg, coeffs.d_field, atol=1e-10)
    assert_allclose(reg0.c0_reg, coeffs.c0_field, atol=1e-12)

    eye = np.broadcast_to(np.eye(d), (n, d, d)).astype(complex)
    s1 = build_singular_structure(eye.copy(), derived)
    reg1 = assemble_regular(coeffs, derived, s1)
    assert_allclose(reg1.C_reg, 0, atol=1e-12)
    assert_allclose(reg1.b_reg, 0, atol=1e-12)
    assert_allclose(reg1.d_reg, 0, atol=1e-12)


def test_commuting_assembly_agrees(rng):
    """With eigenspace projections the simplified assembly reproduces the
    full one on every coefficient field."""
    coeffs, derived, s = make_case(rng, 3, commuting=True)
    assert np.max(commutator_norms(s, derived)) < 1e-12
    full = assemble_regular(coeffs, derived, s)
    simple = assemble_regular_commuting(coeffs, derived, s)
    assert_allclose(simple.C_reg, full.C_reg, atol=1e-11)
    assert_allclose(simple.b_reg, full.b_reg, atol=1e-11)
    assert_allclose(simple.d_reg, full.d_reg, atol=1e-11)
    assert_allclose(simple.c0_reg, full.c0_reg, atol=1e-11)


def _worst_commutator_cell(s, derived):
    """The cell of the largest full-grid ratio ``||QZ - ZQ||_F`` over
    ``max(1, ||Z||_F)``."""
    return int(np.argmax(commutator_norms(s, derived)
                         / np.maximum(1.0, frobenius(derived.Z_field))))


def test_commuting_assembly_guard(rng):
    """The simplified assembly refuses a non-commuting model and names the
    cell of the largest relative commutator over the whole grid: here one
    in the second chunk of ``supp Q``, which starts at cell 10, with milder
    offenders before and after it."""
    n, swap = 2 * CELL_CHUNK + 16, np.array([[0.0, 1.0], [1.0, 0.0]])
    grid = GridSpec(dim=2, box=((0.0, 1.0), (0.0, 1.0)),
                    cells_per_axis=(2, CELL_CHUNK + 8))
    t = np.zeros(n)
    t[[20, CELL_CHUNK + 20, 2 * CELL_CHUNK + 3]] = (0.1, 0.3, 0.2)
    zeros = np.zeros((n, 2), dtype=complex)
    coeffs = CoefficientSet(
        grid=grid, C_field=np.eye(2) + 1j * t[:, None, None] * swap,
        b_field=zeros, d_field=zeros, c0_field=np.zeros(n), theta=0.5,
        K_bound=1.0)
    derived = derive_fields(coeffs)
    q = np.zeros((n, 2, 2), dtype=complex)
    q[10:, 0, 0] = 1.0
    s = build_singular_structure(q, derived)
    assert len(cell_chunks(len(s.support))) == 2
    assert _worst_commutator_cell(s, derived) == CELL_CHUNK + 20
    with pytest.raises(NotCommuting, match="^cell %d: " % (CELL_CHUNK + 20)):
        assemble_regular_commuting(coeffs, derived, s)

    coeffs, derived, s = make_case(rng, 3, commuting=False)
    if np.max(commutator_norms(s, derived)) < 1e-6:
        pytest.skip("draw happened to commute")
    with pytest.raises(NotCommuting, match="^cell %d: "
                       % _worst_commutator_cell(s, derived)):
        assemble_regular_commuting(coeffs, derived, s)


def test_singular_part_decomposition(rng):
    """Commuting case: a_s equals the pure-second-order singular part plus
    Q-localized lower-order couplings plus the W-weighted zeroth term."""
    coeffs, derived, s = make_case(rng, 2, commuting=True)
    reg = assemble_regular(coeffs, derived, s)
    pure = pure_second_order_parts(reg)
    u, v = random_node_functions(rng, coeffs.grid, 2)
    vol = coeffs.grid.cell_volume

    a_s = eval_form(reg.singular_set(coeffs.theta, coeffs.K_bound),
                    u, v).value
    ap_s = eval_form(pure.singular_set(coeffs.theta, coeffs.K_bound),
                     u, v).value
    q, w, _ = structure_fields(s, coeffs.n_cells)
    qa = np.matmul(q, derived.Asqrt_field)
    qwu = np.einsum("nkl,nl->nk", qa, u.cell_gradient)
    qwv = np.einsum("nkl,nl->nk", qa, v.cell_gradient)
    term_b = np.sum(np.einsum("nk,nk->n", qwu, np.conj(derived.X_field))
                    * np.conj(v.cell_values))
    term_d = np.sum(u.cell_values
                    * np.einsum("nk,nk->n", derived.Y_field, np.conj(qwv)))
    wy = np.einsum("nkl,nl->nk", w, derived.Y_field)
    term_w = np.sum(u.cell_values * np.conj(v.cell_values)
                    * np.einsum("nk,nk->n", wy, np.conj(derived.X_field)))
    expected = ap_s + vol * complex(term_b + term_d + term_w)
    assert_allclose(a_s, expected, rtol=1e-9, atol=1e-9 * (1 + abs(expected)))


def _assemble_zeroed_companion(coeffs, derived, s):
    """The companion form with the lower-order coefficients zeroed out
    (same ``A``, ``Z`` and ``Q``), split by the full assembly."""
    pure = CoefficientSet(
        grid=coeffs.grid, C_field=coeffs.C_field,
        b_field=np.zeros_like(coeffs.b_field),
        d_field=np.zeros_like(coeffs.d_field),
        c0_field=np.zeros_like(coeffs.c0_field),
        theta=coeffs.theta, K_bound=coeffs.K_bound)
    return assemble_regular(pure, replace(
        derived, X_field=np.zeros_like(derived.X_field),
        Y_field=np.zeros_like(derived.Y_field)), s)


def test_pure_second_order_consistency(rng):
    """Dropping lower-order data never changes the second-order split: the
    companion read off the full split is the zeroed companion assembled on
    its own, bit for bit; its lower-order regular fields are 0 (the
    assembled ones may carry signed zeros)."""
    for dim in (1, 2, 3):
        coeffs, derived, s = make_case(rng, dim)
        reg = assemble_regular(coeffs, derived, s)
        pure = pure_second_order_parts(reg)
        direct = _assemble_zeroed_companion(coeffs, derived, s)
        assert pure.support is reg.support
        for name in ("C_reg", "C_s", "b_s", "d_s", "c0_s"):
            assert np.asarray(getattr(pure, name)).tobytes() == \
                np.asarray(getattr(direct, name)).tobytes()
        for name in ("b_reg", "d_reg", "c0_reg"):
            field = np.asarray(getattr(pure, name))
            assert np.array_equal(field, getattr(direct, name))
            assert not np.any(field)
        assert pure.C_reg.values is reg.C_reg.values
        assert pure.C_reg.base is coeffs.C_field


def test_grid_mismatch_guard(rng):
    coeffs, derived, s = make_case(rng, 1)
    other = random_coefficients(rng, random_grid(rng, 1))
    if other.grid == coeffs.grid:
        pytest.skip("grids coincided")
    other_derived = derive_fields(other)
    with pytest.raises(GridMismatch):
        assemble_regular(other, other_derived, s)


# -- projection constructors ------------------------------------------------


def test_indicator_projection():
    from regpart.grid import GridSpec
    grid = GridSpec(dim=2, box=((0.0, 1.0), (0.0, 1.0)),
                    cells_per_axis=(2, 2))
    mask = np.array([True, False, True, False])
    q = indicator_projection(grid, mask)
    assert q.shape == (4, 2, 2)
    assert_allclose(q[0], np.eye(2), atol=0)
    assert_allclose(q[1], 0, atol=0)


def test_projection_from_spanning(rng):
    vecs = rng.standard_normal((6, 3, 2)) + 1j * rng.standard_normal(
        (6, 3, 2))
    q = projection_from_spanning(vecs)
    assert_allclose(np.matmul(q, q), q, atol=1e-10)
    assert_allclose(q, adjoint(q), atol=1e-12)
    # spanning vectors are fixed by the projection
    assert_allclose(np.einsum("nkl,nlr->nkr", q, vecs), vecs, atol=1e-10)
    # rank equals the span dimension (independent draws: 2)
    ranks = np.linalg.matrix_rank(q, tol=1e-8)
    assert np.all(ranks == 2)


def test_projection_from_spanning_dependent_columns(rng):
    base = rng.standard_normal((4, 3, 1)) + 1j * rng.standard_normal(
        (4, 3, 1))
    vecs = np.concatenate([base, 2.0 * base], axis=-1)
    q = projection_from_spanning(vecs)
    ranks = np.linalg.matrix_rank(q, tol=1e-8)
    assert np.all(ranks == 1)


# -- cells off supp Q ---------------------------------------------------------


def _field2d_case(rng, cells=24):
    """A 2-D random model whose ``Q`` lives on a central square only, the
    shape of the ``field2d`` benchmark model."""
    from regpart.grid import GridSpec
    grid = GridSpec(dim=2, box=((0.0, 1.0), (0.0, 1.0)),
                    cells_per_axis=(cells, cells))
    coeffs = random_coefficients(rng, grid)
    derived = derive_fields(coeffs)
    q = commuting_projection_field(rng, derived)
    q[~np.all(np.abs(grid.cell_centers() - 0.5) < 0.2, axis=1)] = 0.0
    return coeffs, derived, q


def _oracle_case(rng):
    """A random oracle case (mixed ranks of ``Q``) with ``Q`` zeroed on a
    random third of the cells."""
    from regpart.randomized import random_oracle_case
    case = random_oracle_case(rng)
    q = np.array(case.q_field)
    q[rng.random(len(q)) < 1 / 3] = 0.0
    return case.coeffs, derive_fields(case.coeffs), q


def _off_support_cases():
    rng = np.random.default_rng(4)
    yield _field2d_case(rng)
    yield _field2d_case(rng, cells=9)
    for _ in range(12):
        yield _oracle_case(rng)


def test_split_is_exact_off_supp_q():
    """Where ``Q = 0`` the regular part is the form itself: the regular
    fields are the input bit for bit and the singular fields are 0.  The
    split keeps nothing there: its stacks hold one row per cell of
    ``supp Q``, and its regular fields read the input itself."""
    seen_rank = set()
    for coeffs, derived, q in _off_support_cases():
        s = build_singular_structure(q, derived)
        off = ~np.any(q != 0, axis=(1, 2))
        assert np.any(off) and np.any(~off)
        seen_rank.update(np.linalg.matrix_rank(q[~off]).tolist())
        splits = [assemble_regular(coeffs, derived, s)]
        if np.max(commutator_norms(s, derived)) < 1e-9:
            splits.append(assemble_regular_commuting(coeffs, derived, s))
        for reg in splits:
            assert np.array_equal(reg.support, s.support)
            for k, name in enumerate(("C", "b", "d", "c0")):
                field = getattr(coeffs, name + "_field")
                assert getattr(reg, name + "_reg").base is field
                for part in (reg.regular[k], reg.singular[k]):
                    assert part.values.shape == \
                        (len(s.support),) + field.shape[1:]
                assert np.array_equal(getattr(reg, name + "_reg")[off],
                                      field[off])
                assert np.all(getattr(reg, name + "_s")[off] == 0.0)
        pure = pure_second_order_parts(splits[0])
        assert np.array_equal(pure.C_reg[off], coeffs.C_field[off])
        assert np.all(pure.C_s[off] == 0.0)
        assert np.all(pure.b_reg[off] == 0.0)
        assert np.array_equal(s.support, np.flatnonzero(~off))
        assert np.array_equal(s.Q, q[s.support])
        assert s.W.shape == s.Q.shape
    assert {1, 2} <= seen_rank


def test_regular_tangent_is_full_grid_expression():
    """Reading ``Z`` off ``supp Q`` changes no bit of the regular sector
    tangent: it equals the spectral norm of ``g(A') Im(C') g(A')`` taken
    over every cell."""
    for coeffs, derived, q in _off_support_cases():
        s = build_singular_structure(q, derived)
        reg = assemble_regular(coeffs, derived, s)
        g = pinv_sqrt(herm_part(reg.C_reg))
        zr = np.einsum("nij,njk,nkl->nil", g, imag_part(reg.C_reg), g)
        full = float(np.max(np.abs(np.linalg.eigvalsh(herm_part(zr)))))
        assert regular_sector_tangent(reg, derived, s) == full


def test_identity_suite_is_full_grid_suite():
    """Restricting the suite to ``supp Q`` changes no residual: the full
    grid suite, in one pass over the scattered fields, is exactly 0 where
    ``Q = 0`` and has the suite's norms, bit for bit, on ``supp Q``."""
    for coeffs, derived, q in _off_support_cases():
        s = build_singular_structure(q, derived)
        report = identity_suite(s, derived)
        full = one_pass_identity_norms(*structure_fields(s, coeffs.n_cells),
                                       derived.Z_field)
        assert report.residuals == {name: float(np.max(val))
                                    for name, val in full.items()}
        assert np.array_equal(report.cells, s.support)
        off = ~np.any(q != 0, axis=(1, 2))
        for name, val in report.per_cell.items():
            assert val.shape == s.support.shape
            assert np.all(full[name][off] == 0.0)
            assert np.array_equal(val, full[name][s.support])


@pytest.mark.parametrize("d", range(1, 7))
def test_identity_residuals_blocks_match_one_pass(d):
    """Run block by block, one identity at a time, the suite gives every
    per-draw norm of one pass over all the draws, bit for bit, at each
    draw count around the block boundaries."""
    c = CELL_CHUNK
    counts = (0, 1, c - 1, c, 2 * c - 1, 2 * c, 2 * c + 1, 3 * c + 5)
    q, z = random_qz_draws(np.random.default_rng(100 + d), d, max(counts))
    full = one_pass_identity_norms(q, one_pass_kernel(q, z),
                                   np.broadcast_to(np.eye(d), q.shape) - q, z)
    for n in counts:
        report = identity_residuals(q[:n], z[:n])
        assert report.cells is None
        assert list(report.per_cell) == list(full)
        for name, val in full.items():
            assert report.per_cell[name].tobytes() == val[:n].tobytes()
            assert report.residuals[name] == float(np.max(val[:n],
                                                          initial=0.0))


@pytest.mark.parametrize("d", range(1, 7))
def test_qz_blocks_are_the_one_shot_draws(d):
    """The blocks of the stream, joined, are the one-shot reference draws
    bit for bit, at each draw count around the block boundaries, and both
    the stream and ``random_qz_draws`` leave the generator where the
    reference leaves it."""
    b = QZ_BLOCK
    for trials in (0, 1, b - 1, b, b + 1, 3 * b + 5):
        ref_rng = np.random.default_rng(40 + d)
        want = one_shot_qz_draws(ref_rng, d, trials)
        rng = np.random.default_rng(40 + d)
        blocks = list(random_qz_blocks(rng, d, trials))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert [len(q) for q, _ in blocks] == \
            [min(b, trials - s) for s in range(0, trials, b)]
        for k, got in enumerate(zip(*blocks)):
            assert np.concatenate(got).tobytes() == want[k].tobytes()
        rng = np.random.default_rng(40 + d)
        got = random_qz_draws(rng, d, trials)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def _suite_peak(n, d=3):
    """Peak bytes that ``identity_residuals`` holds above its ``n`` draws."""
    q, z = random_qz_draws(np.random.default_rng(5), d, n)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        identity_residuals(q, z)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_identity_residuals_memory_is_set_by_the_block():
    """Four times the draws leave the suite's peak above its inputs
    nearly where it was, at dimension 3: only the six per-draw norms grow
    with the draw count, not the temporaries of a block."""
    assert _suite_peak(8 * CELL_CHUNK) <= 1.5 * _suite_peak(2 * CELL_CHUNK)


def _blocked_case(d, n, seed):
    """A random ``d``-dimensional model on ``n`` cells with random
    projections of mixed rank, 0 among them, zeroed on a further random
    tenth of the cells."""
    rng = np.random.default_rng(seed)
    coeffs = random_coefficients(rng, GridSpec(
        dim=d, box=((0.0, 1.0),) * d, cells_per_axis=(n,) + (1,) * (d - 1)))
    q = random_projection_field(rng, d, n)
    q[rng.random(n) < 0.1] = 0.0
    return coeffs, derive_fields(coeffs), q


def _package_all(coeffs, derived, s):
    """The simplified assembly without its commutation check."""
    return _package(coeffs, derived, s, _commuting_fields)


@pytest.mark.parametrize("d", [2, 3])
def test_blocked_structure_and_assembly_are_one_pass(d):
    """Run over blocks of ``supp Q``, the structure's ``W`` and both
    assemblies give the bits of one pass over the whole support."""
    coeffs, derived, q = _blocked_case(d, 5 * CELL_CHUNK, 30 + d)
    s = build_singular_structure(q, derived)
    assert len(cell_chunks(len(s.support))) >= 2
    z = derived.Z_field[s.support]
    assert s.W.tobytes() == one_pass_kernel(s.Q, z).tobytes()
    for assemble, fields in ((assemble_regular, _regular_fields),
                             (_package_all, _commuting_fields)):
        reg = assemble(coeffs, derived, s)
        whole = fields(coeffs, derived, s, slice(None))
        for name, want in zip(("C_reg", "b_reg", "d_reg", "c0_reg"), whole):
            assert getattr(reg, name)[s.support].tobytes() == want.tobytes()


def test_blocked_projection_check_names_the_worst_cell():
    """The block-by-block projection check names the cell of the largest
    residual over all of ``supp Q``, wherever the blocks split, and a cell
    with a NaN residual before any finite one."""
    _, derived, q = _blocked_case(2, 5 * CELL_CHUNK, 7)
    support = np.flatnonzero(np.any(q != 0, axis=(1, 2)))
    first, worst, later = support[[10, CELL_CHUNK + 5, 2 * CELL_CHUNK + 9]]
    bad = q.copy()
    bad[first] *= 1.5
    bad[worst] *= 3.0
    bad[later] *= 2.0
    with pytest.raises(ProjectionInvalid) as err:
        build_singular_structure(bad, derived)
    assert err.value.cell == worst
    bad[later, 0, 0] = np.inf
    with pytest.raises(ProjectionInvalid) as err:
        build_singular_structure(bad, derived)
    assert err.value.cell == later


def _stage_excess(n):
    """Peak bytes held above their retained results by
    ``build_singular_structure`` and by ``assemble_regular`` on ``n``
    cells with ``d = 2``, ``C = I`` and ``Q = e_0 e_0*`` on every cell."""
    grid = GridSpec(dim=2, box=((0.0, 1.0), (0.0, 1.0)),
                    cells_per_axis=(n // 128, 128))
    zeros = np.zeros((n, 2), dtype=complex)
    coeffs = CoefficientSet(
        grid=grid, C_field=np.broadcast_to(np.eye(2), (n, 2, 2)),
        b_field=zeros, d_field=zeros, c0_field=np.zeros(n), theta=0.1,
        K_bound=1.0)
    derived = derive_fields(coeffs)
    q = np.zeros((n, 2, 2), dtype=complex)
    q[:, 0, 0] = 1.0
    gc.collect()
    tracemalloc.start()
    try:
        s = build_singular_structure(q, derived)
        kept, peak = tracemalloc.get_traced_memory()
        structure = peak - kept
        tracemalloc.reset_peak()
        reg = assemble_regular(coeffs, derived, s)
        assert len(reg.C_reg) == n
        after, peak = tracemalloc.get_traced_memory()
        return structure, peak - after
    finally:
        tracemalloc.stop()


def test_structure_and_assembly_memory_is_set_by_the_block():
    """Where ``Q`` is nonzero on every cell, four times the cells leave the
    peak that the singular structure and the assembly each hold above
    their results nearly where it was: their temporaries are set by the
    block of ``supp Q``, not by the support."""
    small, large = _stage_excess(2 * CELL_CHUNK), _stage_excess(8 * CELL_CHUNK)
    for lo, hi in zip(small, large):
        assert hi <= 1.5 * lo
