"""End-to-end drivers shared by the command line and the demo scripts.

``compute_report`` takes a loaded model through derivation, splitting,
identity checks, the abstract cross-check and diagnostics, and returns the
report document; it and ``oracle_crosscheck`` build the split and the
oracle's V subspace once, in one shared prelude, and hand both to every
check.  ``run_verification`` drives the randomized suites; it screens
the identity draws one fixed block at a time, keeping only running
maxima, so ``verify`` holds the same memory at any ``--trials``.
``run_probe`` exposes the plane-wave growth probe on a loaded model.  The
worked-example document ``cantor_model_doc`` is defined in
:mod:`~regpart.diagnostics` and importable from here.
"""

import numpy as np

from .completion import (build_v_subspace, compute_operators,
                         pi1_multiplication, singular_field, t_multiplication,
                         t_pi2_probe)
from .diagnostics import (PROBE_LAMBDAS, cantor_model_doc, check_equivalences,
                          oracle_pairs)
from .errors import ValidationError
from .model import derive_fields
from .modelio import SCHEMA_VERSION, complex_pair, grid_to_doc
from .randomized import random_oracle_case, random_qz_blocks
from .regularize import (assemble_regular, build_singular_structure,
                         identity_residuals, identity_suite)

__all__ = [
    "IDENTITY_TOL",
    "ORACLE_RTOL",
    "MULT_TOL",
    "compute_report",
    "multiplication_residuals",
    "oracle_crosscheck",
    "run_verification",
    "run_probe",
    "cantor_model_doc",
]

#: Acceptance threshold for the pointwise operator identities.
IDENTITY_TOL = 1e-10
#: Relative agreement required between assembled and abstract regular parts.
ORACLE_RTOL = 1e-8
#: Residual allowed for the pi1/T multiplication formulas on basis vectors.
MULT_TOL = 1e-9


# ---------------------------------------------------------------------------
# report serialization helpers


def _finite_or_none(x):
    x = float(x)
    return x if np.isfinite(x) else None


def _sector_doc(params):
    return {
        "gamma": float(params.gamma),
        "theta": float(params.theta),
        "tan_theta": float(np.tan(params.theta)),
    }


def _vertex_doc(vr):
    return {**_sector_doc(vr.params), "certified": bool(vr.certified)}


def _probe_doc(p):
    return {
        "lambdas": [float(l) for l in p.lambdas],
        "ratios": [float(r) for r in p.ratios],
        "slope": float(p.slope),
        "intercept": float(p.intercept),
        "reference": float(p.reference),
        "rel_error": _finite_or_none(p.rel_error),
        "skipped": bool(p.skipped),
    }


def _realpart_doc(r):
    return {
        "ok": bool(r.ok),
        "commutator_residual": float(r.commutator_residual),
        "xy_residual": float(r.xy_residual),
        "oracle_max_diff": float(r.oracle_max_diff),
    }


def _diag_doc(diag):
    return {
        "commutator_max": float(diag.commutator_max),
        "qz_iq_asqrt_max": float(diag.qz_iq_asqrt_max),
        "regular_tangent": float(diag.regular_tangent),
        "realpart": _realpart_doc(diag.realpart),
        "slope_probe": _probe_doc(diag.slope_probe),
        "singular_vertex": _vertex_doc(diag.as_vertex),
        "pure_singular_vertex": _vertex_doc(diag.aps_vertex),
        "verdicts": {
            name: {"value": bool(v["value"]), "mode": str(v["mode"]),
                   "residual": float(v["residual"])}
            for name, v in diag.verdicts.items()
        },
    }


def _field_doc(c_field, b_field, d_field, c0_field):
    """The four fields as complex array leaves (the
    :class:`~regpart.grid.DeltaField` s of a split), which
    :func:`~regpart.modelio.dumps_canonical` writes as ``[re, im]`` lists."""
    return {"C": c_field, "b": b_field, "d": d_field, "c0": c0_field}


# ---------------------------------------------------------------------------
# compute


def _prelude(coeffs, q_field, funcs, derived=None):
    """Build each artifact of the split and its cross-check once: returns
    ``(derived, structure, reg, vs, ops)``, with the oracle's V subspace on
    the family ``funcs`` and its operators ``None`` when it is empty.  The
    derived fields are ``derived``, or derived here when it is ``None``.
    ``Q`` is scanned for its support once, by the singular structure."""
    if derived is None:
        derived = derive_fields(coeffs)
    structure = build_singular_structure(q_field, derived)
    reg = assemble_regular(coeffs, derived, structure)
    if not len(funcs):
        return derived, structure, reg, None, None
    vs = build_v_subspace(coeffs, derived, q_field, funcs,
                          support=structure.support)
    return derived, structure, reg, vs, compute_operators(vs)


def compute_report(model, lambdas=PROBE_LAMBDAS, seed=0):
    """Full pipeline on one loaded model; returns the report document."""
    coeffs = model.coeffs
    names, funcs = list(model.funcs), model.family
    derived, structure, reg, vs, ops = _prelude(coeffs, model.q_field,
                                                funcs)
    # the suite's per-cell residuals are not kept past their maxima
    identity = identity_suite(structure, derived)
    identity_doc = {
        "residuals": {k: float(v) for k, v in identity.residuals.items()},
        "max_residual": float(identity.max_residual),
    }
    del identity

    warnings = []
    oracle_table = []
    diag_doc = None
    vertex_doc = {"form": None, "singular": None, "pure_singular": None}
    if names:
        formula, oracle = oracle_pairs(
            reg.regular_set(coeffs.theta, coeffs.K_bound), vs, ops)
        diag = check_equivalences(vs, ops, reg, structure, formula,
                                  lambdas=lambdas)
        diag_doc = _diag_doc(diag)
        vertex_doc = {"form": _sector_doc(diag.form_vertex.params),
                      "singular": _vertex_doc(diag.as_vertex),
                      "pure_singular": _vertex_doc(diag.aps_vertex)}

        for i, name_u in enumerate(names):
            for j, name_v in enumerate(names):
                f, o = complex(formula[i, j]), complex(oracle[i, j])
                abs_err = abs(f - o)
                oracle_table.append({
                    "pair": [name_u, name_v],
                    "formula": complex_pair(f),
                    "oracle": complex_pair(o),
                    "abs_err": float(abs_err),
                    "rel_err": float(abs_err / (1.0 + abs(f))),
                })
    else:
        warnings.append("function list empty; oracle comparison and "
                        "diagnostics skipped")

    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "report",
        "seed": int(seed),
        "grid": grid_to_doc(coeffs.grid),
        "regular": _field_doc(*reg.regular),
        "singular": _field_doc(*reg.singular),
        "identity_suite": identity_doc,
        "oracle_table": oracle_table,
        "diagnostics": diag_doc,
        "vertex": vertex_doc,
        "warnings": warnings,
    }


# ---------------------------------------------------------------------------
# randomized verification


def multiplication_residuals(vs, ops):
    """Worst distance of computed ``pi1``/``T`` columns from their pointwise
    multiplication formulas, over every basis vector of the subspace.

    The embedded functions are checked as one batch over the grid.  A
    singular vector ``(0, s_p)``, its ``pi1`` image ``(0, s_p)`` and its
    ``T`` image ``(0, sum_q T11[q, p] s_q)`` all live in its cell ``c_p``,
    so those are checked as one-cell pairs, batched over ``p``."""
    vol = vs.coeffs.grid.cell_volume

    def pair_norm(u, w):
        return np.sqrt(vol * (np.sum(np.abs(u) ** 2, axis=-1)
                              + np.sum(np.abs(w) ** 2, axis=(-2, -1))))

    def worst(formula, x, cells, image):
        eu, ew = formula(vs, *x, cells)
        res = pair_norm(image[0] - eu, image[1] - ew) / np.maximum(
            1.0, pair_norm(eu, ew))
        return float(np.max(res, initial=0.0))

    sv = vs.singular_vecs
    funcs = (vs.func_values, vs.func_grads)
    sing = (np.zeros((vs.n_singular, 1), dtype=complex), sv[:, None, :])
    cells = vs.singular_cells[:, None]
    t11_sv = np.empty_like(sv)
    for rows, blk in zip(vs.groups, ops.t11_cells):
        t11_sv[rows] = np.einsum("gqp,gqk->gpk", blk, sv[rows])

    def func_image(jf):
        return np.zeros_like(vs.func_values), singular_field(vs, jf)

    pi1_res = max(worst(pi1_multiplication, funcs, slice(None),
                        func_image(ops.pi1_jf)),
                  worst(pi1_multiplication, sing, cells, sing))
    t_res = max(worst(t_multiplication, funcs, slice(None),
                      func_image(ops.t_jf)),
                worst(t_multiplication, sing, cells,
                      (sing[0], t11_sv[:, None, :])))
    return pi1_res, t_res


def oracle_crosscheck(case):
    """Compare assembled and abstract regular parts on one random case.

    Returns a dict with the worst relative pair error and the worst
    ``pi1``/``T`` multiplication residuals.
    """
    coeffs = case.coeffs
    _, _, reg, vs, ops = _prelude(coeffs, case.q_field, case.funcs,
                                  derived=case.derived)
    formula, oracle = oracle_pairs(
        reg.regular_set(coeffs.theta, coeffs.K_bound), vs, ops)
    worst = float(np.max(np.abs(formula - oracle) / (1.0 + np.abs(formula))))
    pi1_res, t_res = multiplication_residuals(vs, ops)
    return {"oracle_rel": worst, "pi1_res": pi1_res, "t_res": t_res}


def run_verification(seed=0, trials=1000, dims=(1, 2, 3)):
    """Randomized identity + oracle-equivalence suites; returns a summary.

    The summary's ``code`` follows the command-line convention: 0 when all
    thresholds hold, 1 on a breach (the reproducing seed is printed).  The
    identity draws come one block at a time
    (:func:`~regpart.randomized.random_qz_blocks`), and each block's
    residuals are folded into running maxima before the next is drawn, so
    the memory the suite takes does not grow with ``trials``.  A negative
    ``seed`` or ``trials`` raises :class:`ValidationError`.
    """
    for name, value in (("seed", seed), ("trials", trials)):
        if value < 0:
            raise ValidationError("%s must be >= 0, got %d" % (name, value))
    summary = {"code": 0, "identity_worst": {}, "oracle_worst": 0.0,
               "pi1_worst": 0.0, "t_worst": 0.0, "models": 0}
    if trials <= 0:
        print("warning: trials=0; verification is vacuous")
        return summary

    rng = np.random.default_rng(seed)
    worst = {}
    for d in dims:
        for q, z in random_qz_blocks(rng, int(d), trials):
            for name, value in identity_residuals(q, z).residuals.items():
                worst[name] = max(worst.get(name, 0.0), float(value))
    summary["identity_worst"] = worst
    for name in sorted(worst):
        print("identity %-24s worst residual %.3e" % (name, worst[name]))
    if max(worst.values()) > IDENTITY_TOL:
        summary["code"] = 1
        print("FAIL identity residual above %.1e (reproduce with seed %d)"
              % (IDENTITY_TOL, seed))

    n_models = max(1, trials // 20)
    limits = {"oracle_rel": ORACLE_RTOL, "pi1_res": MULT_TOL,
              "t_res": MULT_TOL}
    worst_model = dict.fromkeys(limits, 0.0)
    bad_seed = None
    for _ in range(n_models):
        model_seed = int(rng.integers(2 ** 32))
        case = random_oracle_case(np.random.default_rng(model_seed))
        result = oracle_crosscheck(case)
        for key, limit in limits.items():
            if result[key] > worst_model[key]:
                worst_model[key] = result[key]
                if result[key] > limit:
                    bad_seed = model_seed
    summary.update(oracle_worst=worst_model["oracle_rel"],
                   pi1_worst=worst_model["pi1_res"],
                   t_worst=worst_model["t_res"], models=n_models)
    print("oracle agreement over %d models: worst rel err %.3e "
          "(pi1 %.3e, T %.3e)" % (n_models, summary["oracle_worst"],
                                  summary["pi1_worst"], summary["t_worst"]))
    if bad_seed is not None:
        summary["code"] = 1
        print("FAIL oracle/operator threshold breached "
              "(reproduce with model seed %d)" % bad_seed)
    return summary


# ---------------------------------------------------------------------------
# probe


def run_probe(model, lambdas=PROBE_LAMBDAS):
    """Growth probe on a loaded model, modulating its first function along
    the all-ones direction; returns the probe document."""
    if not model.funcs:
        raise ValidationError("the probe needs at least one model function")
    xi = np.ones(model.grid.dim) / np.sqrt(model.grid.dim)
    coeffs, funcs = model.coeffs, model.family
    vs = build_v_subspace(coeffs, derive_fields(coeffs), model.q_field, funcs)
    report = t_pi2_probe(vs, compute_operators(vs), funcs[0], xi, lambdas)
    doc = _probe_doc(report)
    doc.update({
        "schema_version": SCHEMA_VERSION,
        "kind": "probe",
        "tau": next(iter(model.funcs)),
        "xi": [float(x) for x in xi],
    })
    return doc
