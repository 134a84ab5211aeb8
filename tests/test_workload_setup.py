"""The benchmark's set-up code runs on the package as it is: each
workload's models, written at smoke size, load, compute and probe.  A
change to a type the set-up reads (``OracleCase.funcs``, say) fails here,
not only in the benchmark run.  The written reports and probes pass the
benchmark's own output checks, read back from their files as the
benchmark reads them, so a report the benchmark would refuse fails here
too."""

import importlib.util
import json
import os

import pytest

from regpart.modelio import load_model, write_doc
from regpart.pipeline import compute_report, run_probe

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "_regpart_" + name, os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")
CHECKS = _load("checks")


def _read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_workload_models_compute_and_probe(workload, tmp_path):
    manifest = WORKLOADS.generate(workload, 5, str(tmp_path), smoke=True)
    assert manifest["models"]
    for fname in manifest["models"].values():
        path = tmp_path / fname
        model = load_model(str(path))
        report = compute_report(model)
        assert len(report["oracle_table"]) == len(model.funcs) ** 2
        probe = run_probe(model)
        assert probe["kind"] == "probe"
        write_doc(tmp_path / "report.json", report)
        write_doc(tmp_path / "probe.json", probe)
        assert CHECKS.check_report(
            _read_json(path), _read_json(tmp_path / "report.json"),
            cantor=manifest["cantor"]) == []
        assert CHECKS.check_probe(_read_json(tmp_path / "probe.json")) == []


def test_validate_runs_no_eigensolver(monkeypatch):
    """Loading a model checks only what needs no factorization: with every
    eigensolver raising, ``doc_to_model`` and ``validate`` still pass on
    Cantor stage 5 and the benchmark's ``field2d`` model."""
    import numpy as np

    from regpart.modelio import doc_to_model
    from regpart.pipeline import cantor_model_doc

    docs = [cantor_model_doc(5), WORKLOADS.field2d_doc(1, 160)]

    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver ran")

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for doc in docs:
        coeffs = doc_to_model(doc).coeffs
        assert coeffs.validate() is coeffs
