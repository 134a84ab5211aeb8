"""Detecting non-commuting singular directions by plane-wave modulation.

When the projection field Q fails to commute with the skew field Z, no
rewriting of the coefficients can make the singular remainder sectorial.
The witness is quantitative: modulate a bump ``tau`` by ``exp(i lambda
x.xi)``, project off the singular kernel, push through the operator T,
and watch the squared norm grow like ``lambda^2`` with slope

    integral of |Q Z (I - Q) A^(1/2) (tau xi)|^2.

On commuting models the same curve stays flat.  The equivalence checker
folds this probe into its verdicts, so the decision comes with a
certificate either way.
"""

import numpy as np

from regpart import (assemble_regular, build_ambient, build_singular_structure,
                     build_v_subspace, check_equivalences, compute_operators,
                     derive_fields, eval_form, generate_noncommuting_example,
                     t_pi2_probe, TestFunction)

LAMBDAS = (5.0, 10.0, 20.0, 40.0, 80.0)


def probe_model(label, coeffs, q_field, xi):
    derived = derive_fields(coeffs)
    ambient = build_ambient(coeffs, derived)
    tau = TestFunction.bump(coeffs.grid, [0.5, 0.5], [0.4, 0.4])
    vs = build_v_subspace(ambient, coeffs, derived, q_field, [tau])
    report = t_pi2_probe(vs, compute_operators(vs), tau, xi, LAMBDAS)
    print("== %s ==" % label)
    print("   lambda      ||T pi2 tau_lambda||^2 / lambda^2-fit input")
    for lam, ratio in zip(LAMBDAS, report.ratios):
        print("   %6.1f      %.6e" % (lam, ratio))
    print("   fitted slope     : %.6e" % report.slope)
    print("   quadrature target: %.6e" % report.reference)
    if report.reference > 0:
        print("   relative error   : %.2e" % report.rel_error)
    else:
        print("   flat curve: no growth, commuting singular directions")
    print()
    return derived


print("non-commuting pair: Q projects on axis 1, Z couples axes 1 and 2\n")
coeffs, q_field = generate_noncommuting_example(coupling=0.5)
derived = probe_model("coupling 0.5", coeffs, q_field, (0.0, 1.0))

weak, q_weak = generate_noncommuting_example(coupling=0.05)
probe_model("coupling 0.05 (slope scales like coupling^2)", weak, q_weak,
            (0.0, 1.0))

# commuting control: same grid, Q = identity everywhere
grid = coeffs.grid
q_id = np.broadcast_to(np.eye(2), (grid.n_cells, 2, 2)).copy()
probe_model("control with Q = I (commutes with everything)", coeffs, q_id,
            (0.0, 1.0))

print("verdicts from the equivalence checker on the coupled model:")
structure = build_singular_structure(q_field, derived)
funcs = [TestFunction.bump(grid, [0.5, 0.5], [0.4, 0.4]),
         TestFunction.bump(grid, [0.3, 0.6], [0.25, 0.3])]
reg = assemble_regular(coeffs, derived, structure)
vs = build_v_subspace(build_ambient(coeffs, derived), coeffs, derived,
                      q_field, funcs)
formula = eval_form(reg.regular_set(coeffs.theta, coeffs.K_bound), funcs,
                    funcs).value
diag = check_equivalences(vs, compute_operators(vs), reg, structure, funcs,
                          formula, xi=(0.0, 1.0))
print("   commutator max |QZ - ZQ| = %.3f" % diag.commutator_max)
for name, verdict in diag.verdicts.items():
    print("   %-24s %-5s (%s)"
          % (name, verdict["value"], verdict["mode"]))
