"""Output checks accept real reports and catch one-ulp and tolerance breaks."""

import copy
import json
import types

import numpy as np
import pytest

import checks
import run
from regpart.modelio import doc_to_model, dumps_canonical
from regpart.pipeline import cantor_model_doc, compute_report


@pytest.fixture(scope="module")
def cantor3():
    model_doc = json.loads(dumps_canonical(cantor_model_doc(3)))
    report = compute_report(doc_to_model(model_doc))
    return model_doc, json.loads(dumps_canonical(report))


def test_clean_report_passes(cantor3):
    model_doc, report = cantor3
    assert checks.check_report(model_doc, report, cantor=True) == []


def test_one_ulp_in_singular_field_fails(cantor3):
    model_doc, report = cantor3
    bad = copy.deepcopy(report)
    entry = bad["singular"]["C"][7][0][0]
    entry[0] = float(np.nextafter(entry[0], np.inf))
    errors = checks.check_report(model_doc, bad, cantor=True)
    assert any("bitwise" in e for e in errors)


def test_oracle_past_tolerance_fails(cantor3):
    model_doc, report = cantor3
    bad = copy.deepcopy(report)
    entry = bad["oracle_table"][3]
    formula = complex(*entry["formula"])
    entry["oracle"][0] = formula.real + 2e-8 * (1.0 + abs(formula))
    errors = checks.check_report(model_doc, bad)
    assert any("oracle pair" in e for e in errors)


def test_cantor_collapse_is_checked(cantor3):
    model_doc, report = cantor3
    bad = copy.deepcopy(report)
    bad["regular"]["c0"][0][0] = 1.0
    errors = checks.check_report(model_doc, bad, cantor=True)
    assert any("c0_reg" in e for e in errors)


def test_identity_residual_is_checked(cantor3):
    model_doc, report = cantor3
    bad = copy.deepcopy(report)
    bad["identity_suite"]["max_residual"] = 1e-9
    assert checks.check_report(model_doc, bad)


def test_probe_and_verify_checks():
    good = {"skipped": False, "slope": 0.1, "reference": 0.1}
    assert checks.check_probe(good) == []
    assert checks.check_probe(dict(good, skipped=True))
    assert checks.check_probe(dict(good, slope=None))
    line = "oracle agreement over 100 models: worst rel err 1e-15"
    assert checks.check_verify(line, 2000) == []
    assert checks.check_verify(line, 10000)
    assert checks.check_verify("", 2000)


def test_perturbed_report_counts_as_failed(cantor3, tmp_path):
    """Negative control through the benchmark's own failure accounting."""
    model_doc, report = cantor3
    bad = copy.deepcopy(report)
    entry = bad["singular"]["b"][11][0]
    entry[1] = float(np.nextafter(entry[1], -np.inf))
    (tmp_path / "cantor.model.json").write_text(json.dumps(model_doc))
    kept = tmp_path / "report.json"
    kept.write_text(json.dumps(bad))
    digest = checks.sha256_of(str(kept))
    ops = [{"kind": "compute", "model": "cantor", "round": r,
            "seconds": 1.0, "errors": [], "sha256": digest}
           for r in range(2)]
    ops.append({"kind": "verify", "model": None, "round": 0,
                "seconds": 1.0, "errors": []})
    bench = run.Run(types.SimpleNamespace(trace=0))
    bench.check_reports({"models": {"cantor": "cantor.model.json"},
                         "cantor": True}, str(tmp_path),
                        {"ops": ops, "kept": {"cantor": str(kept)}})
    assert bench.attempted == 3
    assert len(bench.failures) == 2
