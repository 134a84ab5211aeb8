"""Closed-form regular part vs the projection-based construction.

Two completely different routes to the same numbers:

* ``assemble_regular`` rewrites the coefficient fields cell by cell
  through the resolvent kernel W and evaluates the resulting form by
  quadrature;
* the oracle embeds the test functions into the ambient product space,
  orthogonalizes the singular directions, builds the Gram matrices of
  the form, and applies ``pi2 - i E (I + i T11)^{-1} T pi2`` — never
  touching the rewritten fields.

Agreement to machine precision on random models (commuting projections,
rank-deficient principal parts, non-commuting constant pairs) is the
strongest correctness evidence the package has.
"""

import numpy as np

from regpart import (assemble_regular, build_singular_structure,
                     build_v_subspace, compute_operators, derive_fields,
                     eval_form, oracle_regular_part)
from regpart.pipeline import multiplication_residuals
from regpart.randomized import random_oracle_case

rng = np.random.default_rng(90210)

for commuting in (True, False):
    case = random_oracle_case(rng, commuting=commuting)
    coeffs = case.coeffs
    print("== %s model: d=%d, %d cells, %d test functions =="
          % ("commuting" if commuting else "non-commuting",
             coeffs.dim, coeffs.n_cells, len(case.funcs)))

    derived = derive_fields(coeffs)
    structure = build_singular_structure(case.q_field, derived)
    reg = assemble_regular(coeffs, derived, structure)
    reg_set = reg.regular_set(coeffs.theta, coeffs.K_bound)

    vs = build_v_subspace(coeffs, derived, case.q_field, case.funcs)
    ops = compute_operators(vs)
    print("   ambient weight gamma = %.3f, subspace dim = %d "
          "(%d functions + %d singular directions)"
          % (vs.gamma, vs.dim, vs.n_funcs, vs.n_singular))

    print("   pair   closed form               oracle                    "
          "|diff|")
    formula = eval_form(reg_set, case.funcs, case.funcs).value
    oracle = oracle_regular_part(ops, vs)
    diff = np.abs(formula - oracle)
    for i in range(2):
        for j in range(2):
            print("   (%d,%d)  %+.6f%+.6fi   %+.6f%+.6fi   %.1e"
                  % (i, j, formula[i, j].real, formula[i, j].imag,
                     oracle[i, j].real, oracle[i, j].imag, diff[i, j]))
    print("   worst relative error over all pairs: %.3e"
          % np.max(diff / (1.0 + np.abs(formula))))

    pi1_res, t_res = multiplication_residuals(vs, ops)
    print("   pi1 multiplication-formula residual: %.3e" % pi1_res)
    print("   T   multiplication-formula residual: %.3e" % t_res)

    bx = np.einsum("nkl,nl->nk", derived.Asqrt_field, derived.X_field)
    dy = np.einsum("nkl,nl->nk", derived.Asqrt_field, derived.Y_field)
    print("   factorization A^(1/2)X = conj(b): %.1e,  A^(1/2)Y = d: %.1e\n"
          % (np.max(np.abs(bx - np.conj(coeffs.b_field))),
             np.max(np.abs(dy - coeffs.d_field))))
