"""The cell-local V-space algebra against its dense reference, the
compressed condition gate, and the memory the algebra needs."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dense_reference import (dense_gate_rejects, dense_grams,
                             dense_kernel_image, dense_operators, dense_ops,
                             dense_oracle_table, dense_probe_ratios)
from regpart.completion import (build_v_subspace, compute_operators,
                                oracle_regular_part, singular_field,
                                t_pi2_probe)
from regpart.diagnostics import PROBE_LAMBDAS, generate_cantor_example
from regpart.errors import DegenerateBasis, KernelMismatch
from regpart.grid import TestFunction, cell_data_from_nodes
from regpart.model import derive_fields
from regpart.modelio import LoadedModel
from regpart.pipeline import MULT_TOL, compute_report, \
    multiplication_residuals
from regpart.randomized import (random_coefficients, random_grid,
                                random_oracle_case, random_projection_field)

#: Agreement required between the cell-local and the dense algebra,
#: relative to the largest entry of the dense result.
DENSE_RTOL = 1e-12


def rel_gap(new, ref):
    ref = np.asarray(ref)
    return float(np.max(np.abs(np.asarray(new) - ref))
                 / max(float(np.max(np.abs(ref))), 1e-300))


def reference_cases():
    """40 random oracle cases and Cantor stages 3 and 4, each as
    ``(name, coeffs, q_field, funcs, tau, xi)``."""
    rng = np.random.default_rng(4242)
    for k in range(40):
        case = random_oracle_case(rng)
        yield ("random%d" % k, case.coeffs, case.q_field, case.funcs,
               case.funcs[0], case.xi)
    for stage in (3, 4):
        coeffs, q_field, funcs = generate_cantor_example(stage)
        funcs = TestFunction.stack(coeffs.grid, funcs.values())
        yield ("cantor%d" % stage, coeffs, q_field, funcs, funcs[0],
               np.ones(1))


@pytest.mark.parametrize("case", list(reference_cases()),
                         ids=lambda c: c[0])
def test_cell_local_matches_dense_reference(case):
    _, coeffs, q_field, funcs, tau, xi = case
    derived = derive_fields(coeffs)
    vs = build_v_subspace(coeffs, derived, q_field, funcs)
    gram_a, gram_form = dense_grams(coeffs, derived, q_field, funcs)
    nf = vs.n_funcs
    assert rel_gap(vs.gram_a, gram_a) <= DENSE_RTOL
    assert rel_gap(vs.gram_form, gram_form) <= DENSE_RTOL

    for real_part in (False, True):
        ops = compute_operators(vs, real_part=real_part)
        pi1, pi2, t_full, _, pi_op = dense_operators(gram_a, gram_form, nf,
                                                     real_part=real_part)
        assert rel_gap(oracle_regular_part(ops, vs), dense_oracle_table(
            gram_form, pi_op, nf, real_part=real_part)) <= DENSE_RTOL
        assert rel_gap(dense_ops(vs, ops).Pi[:, :nf],
                       pi_op[:, :nf]) <= DENSE_RTOL
        if not real_part:
            assert rel_gap(singular_field(vs, ops.tpi2_jf),
                           dense_kernel_image(vs, t_full, pi2)) <= DENSE_RTOL

    ratios = t_pi2_probe(vs, compute_operators(vs), tau, xi,
                         PROBE_LAMBDAS).ratios
    ref = dense_probe_ratios(vs, gram_a, gram_form, tau, xi, PROBE_LAMBDAS)
    assert_allclose(ratios, ref, rtol=DENSE_RTOL, atol=0)


def node_draws(rng, grid, count):
    """``count`` node arrays vanishing on the boundary, drawn as
    :func:`random_node_functions` draws them."""
    nodes = np.zeros((count,) + grid.node_shape, dtype=complex)
    shape = tuple(n - 1 for n in grid.cells_per_axis)
    for node_values in nodes:
        node_values[(slice(1, -1),) * grid.dim] = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return nodes


def gate_sweep():
    """Function families for the gate: random ones, families with a
    scaled duplicate, and near-dependent pairs ``f, f + eps g`` whose
    condition number crosses the cap."""
    rng = np.random.default_rng(77)
    for k in range(60):
        dim = 1 + k % 3
        coeffs = random_coefficients(rng, random_grid(rng, dim))
        grid = coeffs.grid
        q = random_projection_field(rng, dim, coeffs.n_cells)
        nodes = node_draws(rng, grid, int(rng.integers(2, 6)))
        kind = k % 3
        if kind == 2:
            eps = 10.0 ** -float(rng.uniform(1.0, 5.0))
            nodes = np.concatenate(
                [nodes, nodes[:1] + eps * node_draws(rng, grid, 1)])
        funcs = TestFunction(grid, *cell_data_from_nodes(grid, nodes))
        if kind == 1:
            funcs = TestFunction.stack(grid, [
                *funcs, funcs[0].scaled(float(rng.uniform(0.5, 3.0)))])
        yield coeffs, q, funcs


def test_gate_decisions_match_dense_eigvalsh():
    decisions = []
    for coeffs, q, funcs in gate_sweep():
        derived = derive_fields(coeffs)
        try:
            vs = build_v_subspace(coeffs, derived, q, funcs)
            rejected = False
        except KernelMismatch:
            continue
        except DegenerateBasis:
            rejected = True
        gram_a, _ = dense_grams(coeffs, derived, q, funcs)
        assert rejected == dense_gate_rejects(gram_a)
        if not rejected:
            ew = np.linalg.eigvalsh(gram_a)
            assert_allclose(vs.cond, ew[-1] / ew[0], rtol=1e-4)
        decisions.append(rejected)
    assert sum(decisions) >= 10
    assert len(decisions) - sum(decisions) >= 10


def test_multiplication_residuals_visit_every_basis_vector(rng):
    """Spoiling the ``T`` image of any one basis vector, or the ``pi1``
    image of any one function, shows up in the residual.  (The ``pi1``
    image of a singular vector is the vector itself by construction.)"""
    case = random_oracle_case(rng, dim=2, commuting=True)
    derived = derive_fields(case.coeffs)
    vs = build_v_subspace(case.coeffs, derived, case.q_field, case.funcs)
    ops = compute_operators(vs)
    assert max(multiplication_residuals(vs, ops)) < MULT_TOL
    nf = vs.n_funcs
    for k in range(vs.dim):
        if k < nf:
            for slot, name in enumerate(("pi1_jf", "t_jf")):
                spoiled = getattr(ops, name).copy()
                spoiled[0, k] += 1e-3
                res = multiplication_residuals(
                    vs, dataclasses.replace(ops, **{name: spoiled}))
                assert res[slot] > MULT_TOL
            continue
        blocks = [b.copy() for b in ops.t11_cells]
        for rows, blk in zip(vs.groups, blocks):
            cell, col = np.nonzero(rows == k - nf)
            blk[cell, col, col] += 1e-3
        res = multiplication_residuals(
            vs, dataclasses.replace(ops, t11_cells=tuple(blocks)))
        assert res[1] > MULT_TOL


def test_compute_memory_below_one_dense_matrix():
    """Cantor stage 5 computes in less memory than one dense complex
    ``dim x dim`` matrix of its V space would take."""
    coeffs, q_field, funcs = generate_cantor_example(5)
    model = LoadedModel(grid=coeffs.grid, coeffs=coeffs, q_field=q_field,
                        names=tuple(funcs),
                        family=TestFunction.stack(coeffs.grid,
                                                  funcs.values()))
    nb = len(funcs) + int(np.count_nonzero(q_field[:, 0, 0].real > 0.5))
    tracemalloc.start()
    try:
        compute_report(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nb == 1062
    assert peak < 16 * nb ** 2
