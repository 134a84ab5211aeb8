"""Verdict logic, vertex searches and the fat-Cantor worked example."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from regpart.diagnostics import (COMMUTE_TOL, PROBE_POSITIVE, cantor_mask,
                                 cantor_model_doc, check_equivalences,
                                 check_realpart_commutation,
                                 default_cantor_grid, generate_cantor_example,
                                 generate_noncommuting_example,
                                 regular_sector_tangent, singular_vertex,
                                 svc_intervals, svc_measure)
from regpart.errors import (DegenerateBasis, ResolutionTooCoarse,
                            ValidationError)
from regpart.grid import GridSpec, TestFunction
from regpart.completion import _qz_iq_asqrt
from regpart.model import CoefficientSet, derive_fields, eval_form, form_gram
from regpart.modelio import dumps_canonical
from regpart.pipeline import _prelude
from regpart.pointwise import frobenius
from regpart.randomized import random_node_functions, random_oracle_case
from regpart.regularize import (build_singular_structure,
                                pure_second_order_parts)

from dense_reference import dense_qz_iq_asqrt

F = Fraction


# -- Smith-Volterra-Cantor construction -------------------------------------


def test_svc_intervals_frozen_stages():
    assert svc_intervals(0) == [(F(0), F(1))]
    assert svc_intervals(1) == [(F(0), F(3, 8)), (F(5, 8), F(1))]
    assert svc_intervals(2) == [
        (F(0), F(5, 32)), (F(7, 32), F(3, 8)),
        (F(5, 8), F(25, 32)), (F(27, 32), F(1)),
    ]


def test_svc_intervals_structure():
    for stage in range(7):
        ivs = svc_intervals(stage)
        assert len(ivs) == 2 ** stage
        # disjoint, ordered, inside the unit interval
        assert ivs[0][0] == 0 and ivs[-1][1] == 1
        for (a, b), (c, d) in zip(ivs, ivs[1:]):
            assert a < b < c < d
        total = sum(hi - lo for lo, hi in ivs)
        assert total == svc_measure(stage)


def test_svc_measure_frozen():
    expected = [F(1), F(3, 4), F(5, 8), F(9, 16), F(17, 32), F(33, 64)]
    assert [svc_measure(s) for s in range(6)] == expected


def test_svc_stage_validation():
    with pytest.raises(ValidationError):
        svc_intervals(-1)


def test_default_cantor_grid():
    grid = default_cantor_grid(2)
    assert grid.box == ((-1.0, 2.0),)
    assert grid.cells_per_axis == (96,)


def test_cantor_mask_exact_alignment():
    grid = default_cantor_grid(2)
    mask = cantor_mask(2, grid)
    # 32 cells per unit; kept measure 5/8 of the unit interval
    assert int(mask.sum()) == 20
    assert not mask[:32].any() and not mask[64:].any()


def test_cantor_mask_resolution_errors():
    with pytest.raises(ResolutionTooCoarse):
        cantor_mask(2, default_cantor_grid(1))
    bad = GridSpec(dim=1, box=((-1.0, 2.0),), cells_per_axis=(100,))
    with pytest.raises(ResolutionTooCoarse):
        cantor_mask(1, bad)
    off_box = GridSpec(dim=1, box=((0.0, 1.0),), cells_per_axis=(96,))
    with pytest.raises(ValidationError):
        cantor_mask(1, off_box)


#: SHA-256 of the canonical text of the worked example's model document,
#: stages 0 to 5.
CANTOR_DOC_SHA256 = (
    "2d9f076995662626bf56bc518aab71142714bef8ccdfb11012ceb376a8fdf793",
    "b41f3c0a46e1d9887354ca85bee58be6648bb9acbe2cf93f3068a49f8527d987",
    "01c52fdc41812572ba217d1c7ff592664b59664e3cd8f8ffa07d14adfec1e687",
    "77e7ef64a8f77c6db26ad402ce99dcb390c8729c29e3fa79097a300414c33dd5",
    "467c4e957b345a4f9327feff7509b4466c09684cdef09a6b002cacc12c9cf34e",
    "5123c6fc759932463b88f606a172932d1ba73846ad2b6d8fa4811e1ad968859b",
)


def test_cantor_model_doc_bytes_are_pinned():
    """The worked example's document, its one definition, keeps its bytes
    at every stage: a change to its coefficients, ``Q``, functions or the
    canonical writer shows here."""
    for stage, want in enumerate(CANTOR_DOC_SHA256):
        text = dumps_canonical(cantor_model_doc(stage))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want, stage


def test_generated_examples_validate():
    coeffs, q_field, funcs = generate_cantor_example(2)
    coeffs.validate()
    assert set(funcs) == {"plateau", "bump_gap", "bump_left", "bump_right",
                          "bump_wide", "bump_outside"}
    mask = cantor_mask(2, coeffs.grid)
    assert_allclose(q_field[:, 0, 0], mask.astype(float), atol=0)

    nc_coeffs, nc_q = generate_noncommuting_example(coupling=0.5)
    nc_coeffs.validate()
    derived = derive_fields(nc_coeffs)
    s = build_singular_structure(nc_q, derived)
    from regpart.regularize import commutator_norms
    assert float(np.max(commutator_norms(s, derived))) > 0.5


# -- vertex search ----------------------------------------------------------


def symmetric_model(cells=10):
    grid = GridSpec(dim=1, box=((0.0, 1.0),), cells_per_axis=(cells,))
    n = grid.n_cells
    return CoefficientSet(
        grid=grid, C_field=np.ones((n, 1, 1), dtype=complex),
        b_field=np.zeros((n, 1), dtype=complex),
        d_field=np.zeros((n, 1), dtype=complex),
        c0_field=np.zeros(n, dtype=complex), theta=0.0, K_bound=1.0)


def test_singular_vertex_symmetric_form(rng):
    coeffs = symmetric_model()
    funcs = random_node_functions(rng, coeffs.grid, 3)
    report = singular_vertex(*form_gram(coeffs, funcs))
    assert report.certified
    assert report.params.theta == 0.0
    assert report.params.gamma > 0.0
    assert report.witness.shape == (3,)


def test_singular_vertex_degenerate_basis(rng):
    coeffs = symmetric_model()
    f = random_node_functions(rng, coeffs.grid, 1)[0]
    with pytest.raises(DegenerateBasis):
        singular_vertex(*form_gram(coeffs,
                                   TestFunction.stack(coeffs.grid, [])))
    with pytest.raises(DegenerateBasis):
        singular_vertex(np.zeros((0, 0)), np.zeros((0, 0)))
    with pytest.raises(DegenerateBasis):
        singular_vertex(*form_gram(coeffs, TestFunction.stack(
            coeffs.grid, [f, f.scaled(2.0)])))


# -- pointwise real-part criterion ------------------------------------------


def test_realpart_pointwise_criterion(rng):
    """The pointwise verdict and its value-backed gap agree: taking real
    parts and regular parts fail to commute on the non-commuting example,
    and commute exactly when ``Q = 0``."""
    coeffs, q = generate_noncommuting_example(coupling=0.5)
    funcs = random_node_functions(rng, coeffs.grid, 3)
    reports = []
    for q_field in (q, np.zeros_like(q)):
        _, s, reg, vs, _ = _prelude(coeffs, q_field, funcs)
        reports.append(check_realpart_commutation(
            s, vs, regular_table(coeffs, reg, funcs)))
    report, report0 = reports
    assert not report.ok
    assert report.commutator_residual > 0.5
    assert report.xy_residual == 0.0  # no first-order terms in this model
    assert report.oracle_max_diff > 1.0
    assert report0.ok
    assert report0.oracle_max_diff == 0.0


# -- five-way equivalence ---------------------------------------------------


def regular_table(coeffs, reg, funcs):
    """The assembled regular part on every pair of ``funcs``."""
    return eval_form(reg.regular_set(coeffs.theta, coeffs.K_bound), funcs,
                     funcs).value


def run_diagnostics(case):
    _, s, reg, vs, ops = _prelude(case.coeffs, case.q_field, case.funcs)
    return check_equivalences(vs, ops, reg, s,
                              regular_table(case.coeffs, reg, case.funcs),
                              xi=case.xi)


VERDICT_KEYS = ("commuting", "simplified_formula", "kernel_image_formula",
                "singular_sectorial", "pure_singular_sectorial")


def test_commuting_case_all_verdicts_true(rng):
    case = random_oracle_case(rng, commuting=True)
    report = run_diagnostics(case)
    assert set(report.verdicts) == set(VERDICT_KEYS)
    for key in VERDICT_KEYS:
        assert report.verdicts[key]["value"], key
    assert report.commutator_max <= COMMUTE_TOL
    assert report.verdicts["singular_sectorial"]["mode"] == "consistent-true"
    assert report.slope_probe.slope <= PROBE_POSITIVE


def test_noncommuting_case_all_verdicts_false(rng):
    case = random_oracle_case(rng, commuting=False)
    report = run_diagnostics(case)
    for key in VERDICT_KEYS:
        assert not report.verdicts[key]["value"], key
    assert report.verdicts["singular_sectorial"]["mode"] == "certified-false"
    assert report.slope_probe.slope > PROBE_POSITIVE
    assert report.qz_iq_asqrt_max > 1e-3


def test_verdicts_move_together(rng):
    """The five statements hold or fail in lockstep, and certified growth
    only appears with a substantial commutator."""
    for _ in range(10):
        case = random_oracle_case(rng)
        report = run_diagnostics(case)
        values = {key: report.verdicts[key]["value"] for key in VERDICT_KEYS}
        assert len(set(values.values())) == 1, values
        assert values["commuting"] == case.commuting
        if report.slope_probe.slope > PROBE_POSITIVE:
            assert report.commutator_max > 1e-6


def model_cases(rng, cantor3):
    """Cantor 3 and one random oracle model per dimension and class, each
    as ``(coeffs, q_field, funcs)``."""
    grid = cantor3["coeffs"].grid
    return [(cantor3["coeffs"], cantor3["q_field"],
             TestFunction.stack(grid, cantor3["funcs"].values()))] + [
        (c.coeffs, c.q_field, c.funcs) for c in (
            random_oracle_case(rng, dim=dim, commuting=commuting)
            for dim in (1, 2, 3) for commuting in (True, False))]


def diagnose(coeffs, q, funcs):
    """The split, the subspace and the diagnostics report of one model."""
    _, s, reg, vs, ops = _prelude(coeffs, q, funcs)
    return reg, vs, check_equivalences(vs, ops, reg, s,
                                       regular_table(coeffs, reg, funcs))


def _same_vertex(a, b):
    return (a.params == b.params and a.certified == b.certified
            and np.array_equal(a.witness, b.witness))


def test_pure_vertex_is_the_companions_own(rng, cantor3):
    """The pure-companion vertex read off the singular Gram's second-order
    part is the one a search on the companion's own Gram finds, and the
    form vertex is the one ``form_gram`` gives."""
    for coeffs, q, funcs in model_cases(rng, cantor3):
        reg, _, report = diagnose(coeffs, q, funcs)
        pure = pure_second_order_parts(reg).singular_set(coeffs.theta,
                                                         coeffs.K_bound)
        sing = eval_form(reg.singular_set(coeffs.theta, coeffs.K_bound),
                         funcs, funcs)
        assert np.array_equal(sing.second_order.T, form_gram(pure, funcs)[0])
        assert _same_vertex(report.aps_vertex,
                            singular_vertex(*form_gram(pure, funcs)))
        assert _same_vertex(report.form_vertex,
                            singular_vertex(*form_gram(coeffs, funcs)))


def test_coupling_field_matches_full_grid_formula(rng, cantor3):
    """``Q Z (I-Q) A^{1/2}`` computed on ``supp Q`` equals the full-grid
    product there, and the full-grid product is zero elsewhere; the probe
    reference and the report's maximum equal their full-grid values."""
    coeffs, q = generate_noncommuting_example(coupling=0.5)
    q[::3] = 0.0
    partial = (coeffs, q, random_node_functions(rng, coeffs.grid, 3))
    for coeffs, q, funcs in model_cases(rng, cantor3) + [partial]:
        _, vs, report = diagnose(coeffs, q, funcs)
        dense = dense_qz_iq_asqrt(q, vs.derived)
        cells, local = _qz_iq_asqrt(vs)
        full = np.zeros_like(dense)
        full[cells] = local
        assert np.array_equal(full, dense)
        assert report.qz_iq_asqrt_max == float(np.max(frobenius(dense)))
        xi = np.ones(coeffs.dim) / np.sqrt(coeffs.dim)
        vec = np.einsum("nkl,l->nk", dense, xi)
        reference = coeffs.grid.cell_volume * float(np.sum(
            np.abs(funcs[0].cell_values) ** 2
            * np.sum(np.abs(vec) ** 2, axis=-1)))
        assert report.slope_probe.reference == reference


def test_regular_tangent_below_vertical(rng):
    case = random_oracle_case(rng)
    report = run_diagnostics(case)
    assert np.isfinite(report.regular_tangent)
    assert report.regular_tangent >= 0.0


# -- the worked example end to end ------------------------------------------


def test_cantor_diagnostics(cantor3):
    funcs = TestFunction.stack(cantor3["coeffs"].grid,
                               cantor3["funcs"].values())
    _, s, reg, vs, ops = _prelude(cantor3["coeffs"], cantor3["q_field"], funcs)
    report = check_equivalences(vs, ops, reg, s,
                                regular_table(cantor3["coeffs"], reg, funcs))

    # indicator coefficients have Z = 0: everything commutes
    assert report.commutator_max == 0.0
    assert report.qz_iq_asqrt_max == 0.0
    for key in VERDICT_KEYS:
        assert report.verdicts[key]["value"], key
    assert abs(report.slope_probe.slope) < 1e-12
    assert report.slope_probe.reference == 0.0

    # the regular part is a pure multiplication form: zero tangent
    assert report.regular_tangent == 0.0

    # real parts do NOT commute with regularization here: the first-order
    # couplings point in opposite directions (X = +1, Y = -1 on the set)
    assert not report.realpart.ok
    assert report.realpart.commutator_residual == 0.0
    assert_allclose(report.realpart.xy_residual, 2.0, rtol=1e-12)
    assert report.realpart.oracle_max_diff > 0.1

    # the singular part has a strictly negative vertex over the family,
    # while its pure-second-order companion stays at zero
    assert report.as_vertex.params.gamma < -0.05
    assert abs(report.aps_vertex.params.gamma) < 1e-9


def test_cantor_regular_part_fields(cantor3):
    """On the set the regular coefficients collapse to a multiplication
    operator: second- and first-order fields vanish identically and the
    zeroth-order field doubles the indicator.  The split holds them as
    stacks over the set, the fields off it being the input's."""
    from regpart.regularize import assemble_regular
    coeffs = cantor3["coeffs"]
    derived = cantor3["derived"]
    s = cantor3["structure"]
    reg = assemble_regular(coeffs, derived, s)
    mask = cantor_mask(3, coeffs.grid)
    assert np.array_equal(reg.support, np.flatnonzero(mask))
    for field in reg.regular[:3]:
        assert len(field.values) == np.count_nonzero(mask)
        assert np.all(field.values == 0)
    assert np.all(reg.c0_reg.values == 2.0)
    for name in ("C_reg", "b_reg", "d_reg"):
        assert np.all(np.asarray(getattr(reg, name)) == 0)
    assert_allclose(np.asarray(reg.c0_reg), 2.0 * mask.astype(complex),
                    atol=0)
    assert regular_sector_tangent(reg, derived, s) == 0.0


def test_cantor_plateau_values(cantor3):
    """Quadrature values the aligned construction pins down exactly: on the
    plateau the full form equals the set measure, the regular part doubles
    it and the singular part contributes minus the measure."""
    from regpart.model import eval_form
    from regpart.regularize import assemble_regular
    coeffs = cantor3["coeffs"]
    reg = assemble_regular(coeffs, cantor3["derived"], cantor3["structure"])
    plateau = cantor3["funcs"]["plateau"]
    measure = float(svc_measure(3))

    assert_allclose(eval_form(coeffs, plateau, plateau).value, measure,
                    rtol=1e-12)

    sing = reg.singular_set(coeffs.theta, coeffs.K_bound)
    a_s = eval_form(sing, plateau, plateau)
    # second-order: plateau gradient vanishes on [0, 1] where the set lives
    assert a_s.second_order == 0.0
    assert_allclose(a_s.value.real, -measure, rtol=1e-12)

    regular = reg.regular_set(coeffs.theta, coeffs.K_bound)
    a_r = eval_form(regular, plateau, plateau)
    assert_allclose(a_r.value, 2.0 * measure, rtol=1e-12)


def test_one_support_scan_per_compute(monkeypatch):
    """``compute_report`` scans ``Q`` for its support once: the V build
    takes the singular structure's support instead of scanning again."""
    from regpart import completion, regularize
    from regpart.modelio import dumps_canonical, parse_model
    from regpart.pipeline import cantor_model_doc, compute_report
    model = parse_model(dumps_canonical(cantor_model_doc(3)))
    real, scans = regularize._support, []

    def counting(q):
        scans.append(len(q))
        return real(q)

    for module in (regularize, completion):
        monkeypatch.setattr(module, "_support", counting)
    report = compute_report(model)
    assert scans == [model.grid.n_cells]
    assert report["diagnostics"] is not None
