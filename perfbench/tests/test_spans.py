"""Span accounting: wrappers reach internal calls and spans nest."""

import contextlib
import io
import json
import os

import pytest

import regpart
import spans
from regpart import cli, model, pipeline
from regpart.modelio import write_doc
from regpart.pipeline import cantor_model_doc


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("spans") / "cantor3.json")
    write_doc(path, cantor_model_doc(3))
    originals = (pipeline.compute_report, model.eval_form,
                 model.CoefficientSet.validate)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for round_no, (kind, argv) in enumerate([
                ("compute", ["compute", "--model", path,
                             "--out", path + ".report"]),
                ("verify", ["verify", "--trials", "100", "--seed", "3"])]):
            root = tracer.begin_op(kind, round_no)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            tracer.end_op(root)
    finally:
        tracer.uninstall()
    return tracer, originals


def test_uninstall_restores_originals(traced):
    _, originals = traced
    assert (pipeline.compute_report, model.eval_form,
            model.CoefficientSet.validate) == originals
    assert regpart.eval_form is model.eval_form


def test_internal_calls_are_recorded(traced):
    tracer, _ = traced
    parent_of = {}
    for idx, name in enumerate(tracer.names):
        parent = tracer.parents[idx]
        parent_of.setdefault(name, set()).add(
            tracer.names[parent] if parent >= 0 else None)
    assert parent_of["pipeline.compute_report"] == {"op.compute"}
    assert "model.form_gram" in parent_of["model.eval_form"]
    assert "modelio.load_model" in parent_of["model.CoefficientSet.validate"]
    assert "randomized.random_oracle_case" in \
        parent_of["completion.build_v_subspace"]


def test_children_fit_inside_parents(traced):
    tracer, _ = traced
    _, own = tracer.self_times()
    assert all(end is not None for end in tracer.ends)
    assert min(own) >= -1e-9
    for idx, parent in enumerate(tracer.parents):
        if parent >= 0:
            assert tracer.starts[parent] <= tracer.starts[idx]
            assert tracer.ends[idx] <= tracer.ends[parent]
            assert tracer.ops[idx] == tracer.ops[parent]


def test_layer_metrics_cover_the_benchmark(traced):
    tracer, _ = traced
    layers = spans.layer_metrics(tracer, [0, 1], models_per_verify=5)
    spec = os.path.join(os.path.dirname(spans.__file__), os.pardir,
                        "BENCHMARK.json")
    with open(spec) as handle:
        names = {m["name"] for m in json.load(handle)["per_layer"]}
    from_parent = {"modelio.model_bytes", "modelio.report_bytes",
                   "trace.overhead_frac"}
    assert names - from_parent <= set(layers)
    assert layers["completion.build_v_subspace.calls_per_model"] >= 2.0
    assert 0.0 < layers["randomized.case_accept_ratio"] <= 1.0
    assert layers["completion.v_dim"] > 0
    shares = spans.module_shares(tracer, "compute")
    assert abs(sum(shares.values()) - 1.0) < 1e-6


def test_dump_writes_every_span(traced, tmp_path):
    tracer, _ = traced
    out = tmp_path / "spans.json"
    tracer.dump(str(out))
    doc = json.loads(out.read_text())
    assert len(doc["spans"]) == len(tracer.names)
