"""The benchmark's set-up code runs on the package as it is: each
workload's models, written at smoke size, load, compute and probe.  A
change to a type the set-up reads (``OracleCase.funcs``, say) fails here,
not only in the benchmark run."""

import importlib.util
import os

import pytest

from regpart.modelio import load_model
from regpart.pipeline import compute_report, run_probe

WORKLOADS_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "perfbench", "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_regpart_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_workload_models_compute_and_probe(workload, tmp_path):
    manifest = WORKLOADS.generate(workload, 5, str(tmp_path), smoke=True)
    assert manifest["models"]
    for fname in manifest["models"].values():
        model = load_model(str(tmp_path / fname))
        report = compute_report(model)
        assert len(report["oracle_table"]) == len(model.funcs) ** 2
        assert run_probe(model)["kind"] == "probe"
