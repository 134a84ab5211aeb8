"""Command-line flows, exit codes and report documents."""

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from dense_reference import one_shot_qz_draws
from regpart.cli import main
from regpart.diagnostics import (MAX_CANTOR_STAGE, PROBE_LAMBDAS,
                                 generate_cantor_example)
from regpart.errors import (DominationViolation, SectorViolation,
                            ValidationError)
from regpart.grid import CELL_CHUNK, GridSpec, TestFunction
from regpart.model import CoefficientSet, derive_fields
from regpart.modelio import (LoadedModel, complex_to_json, dumps_canonical,
                             make_model_doc, q_indicator_spec, q_matrix_spec,
                             write_doc)
from regpart.pipeline import (IDENTITY_TOL, ORACLE_RTOL, cantor_model_doc,
                              compute_report, oracle_crosscheck, run_probe)
from regpart.randomized import QZ_BLOCK, random_oracle_case


REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir)


def _src_env():
    """Environment for a subprocess that imports ``regpart`` from ``src/``."""
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def cantor_file(tmp_path):
    path = tmp_path / "cantor.json"
    assert main(["example", "cantor", "--stage", "1",
                 "--out", str(path)]) == 0
    return path


def test_example_writes_model(cantor_file):
    doc = json.loads(cantor_file.read_text())
    assert doc["schema_version"] == 1
    assert doc["grid"]["cells_per_axis"] == [24]
    assert {f["name"] for f in doc["functions"]} == {
        "plateau", "bump_gap", "bump_left", "bump_right", "bump_wide",
        "bump_outside"}


def test_cantor_doc_builds_coefficients_only(monkeypatch):
    """The worked-example document builds its coefficients and nothing
    else: ``Q`` and the functions go into it as specs, so it needs neither
    the indicator projection nor a test function."""
    import regpart.modelio

    want = dumps_canonical(cantor_model_doc(3))

    def refuse(*args, **kwargs):
        raise AssertionError("built data the document does not read")
    monkeypatch.setattr(TestFunction, "bump", refuse)
    monkeypatch.setattr(TestFunction, "plateau_1d", refuse)
    monkeypatch.setattr(regpart.modelio, "indicator_projection", refuse)
    assert dumps_canonical(cantor_model_doc(3)) == want


def test_unknown_example_name(tmp_path, capsys):
    code = main(["example", "torus", "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "validation error:" in capsys.readouterr().err


def test_compute_report_flow(cantor_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["compute", "--model", str(cantor_file), "--seed", "7",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["kind"] == "report" and report["seed"] == 7
    assert report["identity_suite"]["max_residual"] <= IDENTITY_TOL
    assert len(report["oracle_table"]) == 36
    assert all(row["rel_err"] <= ORACLE_RTOL
               for row in report["oracle_table"])
    assert report["warnings"] == []
    verdicts = report["diagnostics"]["verdicts"]
    assert all(v["value"] for v in verdicts.values())
    assert report["vertex"]["singular"]["gamma"] < -0.05


def test_compute_to_stdout(cantor_file, capsys):
    assert main(["compute", "--model", str(cantor_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "report"


def test_compute_deterministic_bytes(cantor_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["compute", "--model", str(cantor_file), "--out",
                 str(a)]) == 0
    assert main(["compute", "--model", str(cantor_file), "--out",
                 str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_probe_flow(cantor_file, capsys):
    assert main(["probe", "--model", str(cantor_file),
                 "--lambda-list", "5,10,20"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "probe"
    assert doc["tau"] == "plateau"
    assert doc["lambdas"] == [5.0, 10.0, 20.0]
    assert len(doc["ratios"]) == 3
    # indicator model commutes: no growth
    assert abs(doc["slope"]) < 1e-10


def test_compute_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    assert main(["compute", "--model", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("parse error:")


def test_missing_model_file(tmp_path, capsys):
    assert main(["compute", "--model", str(tmp_path / "nope.json")]) == 3


def test_compute_rejects_non_projection_q(cantor_file, tmp_path, capsys):
    doc = json.loads(cantor_file.read_text())
    n = doc["grid"]["cells_per_axis"][0]
    doc["Q"] = q_matrix_spec(np.full((n, 1, 1), 0.5, dtype=complex))
    bad = tmp_path / "badq.json"
    write_doc(bad, doc)
    assert main(["compute", "--model", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "validation error:" in err and "cell 0" in err


def test_compute_rejects_sector_violation(cantor_file, tmp_path, capsys):
    doc = json.loads(cantor_file.read_text())
    doc["coefficients"]["C"][5] = [[[-2.0, 0.0]]]
    bad = tmp_path / "badc.json"
    write_doc(bad, doc)
    assert main(["compute", "--model", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "validation error:" in err and "cell 5" in err


@pytest.mark.parametrize("q_spec", [
    {"bogus": 1}, {"matrix": [[[[0.0, 0.0]]]]}])
def test_malformed_q_is_read_before_validation(q_spec, cantor_file,
                                               tmp_path, capsys):
    """``Q`` is read at load and the sector gate runs in ``compute``, so
    a model with a malformed ``Q`` and a sector violation is a parse
    error."""
    doc = json.loads(cantor_file.read_text())
    doc["coefficients"]["C"][5] = [[[-2.0, 0.0]]]
    doc["Q"] = q_spec
    bad = tmp_path / "badcq.json"
    write_doc(bad, doc)
    assert main(["compute", "--model", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("parse error: Q")


def test_bad_function_spec_is_read_before_the_sector_gate(tmp_path,
                                                         capsys):
    """Function specs are read at load and the sector gate runs in
    ``compute``, so a model with a malformed function spec and a sector
    violation is a parse error."""
    doc = cantor_model_doc(2)
    doc["coefficients"]["C"][5] = -2.0
    doc["functions"][1]["amplitude"] = "2"
    bad = tmp_path / "badfc.json"
    write_doc(bad, doc)
    assert main(["compute", "--model", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "amplitude" in err


@pytest.mark.parametrize("key, value, code", [
    ("amplitude", "2", 3), ("amplitude", [2.0], 3), ("width", [0.0], 2)])
def test_compute_rejects_bad_function_spec(key, value, code, tmp_path,
                                           capsys):
    doc = cantor_model_doc(2)
    doc["functions"][1][key] = value
    bad = tmp_path / "badf.json"
    write_doc(bad, doc)
    assert main(["compute", "--model", str(bad)]) == code
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compute", "probe"])
@pytest.mark.parametrize("lam", [1e200, 1e308])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_embedding_exits_2(command, lam, tmp_path, capsys):
    """A plane wave so fast that its gradient (or its Gram entries)
    overflows is a degenerate basis, not a crash."""
    doc = cantor_model_doc(2)
    doc["functions"].insert(1, {
        "name": "wave", "kind": "plane_wave", "lambda": lam, "xi": [1.0],
        "tau": {"kind": "bump", "center": [0.5], "width": [0.45]}})
    path = tmp_path / "wave.json"
    write_doc(path, doc)
    assert main([command, "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert "validation error: function 1: non-finite" in err


@pytest.mark.parametrize("k_bound", [1.4e154, 1e200, 1e308])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_k_bound_exits_2(k_bound, tmp_path, capsys):
    """A domination constant whose square overflows is refused by name."""
    doc = cantor_model_doc(2)
    doc["K_bound"] = k_bound
    path = tmp_path / "k.json"
    write_doc(path, doc)
    assert main(["compute", "--model", str(path)]) == 2
    assert "validation error: K_bound" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["b", "d"])
@pytest.mark.parametrize("cell", [0, 50])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_first_order_entry_exits_2(field, cell, tmp_path,
                                               capsys):
    """A first-order entry of ``1e308`` fails the domination check in its
    cell, where ``A = 0`` (cells 0 and 50), without an overflow."""
    doc = cantor_model_doc(2)
    doc["coefficients"][field][cell] = 1e308
    path = tmp_path / "big.json"
    write_doc(path, doc)
    assert main(["compute", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert "validation error: cell %d:" % cell in err
    assert "%s_field is not carried by range(A^{1/2})" % field in err


@pytest.mark.parametrize("value", [-1e160, -1e200])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_negative_c_entry_names_its_cell(value, tmp_path, capsys):
    """The sector check's slack scales with the cell's norm, computed
    without overflow, so a huge negative ``C`` entry fails it by cell."""
    doc = cantor_model_doc(2)
    doc["coefficients"]["C"][50] = value
    path = tmp_path / "negc.json"
    write_doc(path, doc)
    assert main(["compute", "--model", str(path)]) == 2
    assert "validation error: cell 50 leaves the sector" in \
        capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tiny_bump_width_computes_quietly(tmp_path):
    """A subnormal bump width overflows the arch's argument on every node
    off the centre; those nodes are masked to 0 without a warning."""
    doc = cantor_model_doc(2)
    doc["functions"][1]["width"] = [1e-320]
    path = tmp_path / "spike.json"
    write_doc(path, doc)
    for command in ("compute", "probe"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--model", str(path)]) == 0


def _leaf_paths(node, path=()):
    """Paths to the leaves of a document: the values reached through
    objects and lists of objects (a numeric array is one leaf)."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list) and node and all(isinstance(v, dict)
                                                 for v in node):
        for idx, value in enumerate(node):
            yield from _leaf_paths(value, path + (idx,))
    else:
        yield path


MUTATIONS = (None, True, "x", 1e308, -1e308, 0, -1, [], {}, [[]], 2 ** 70)


def _compute_code(path, out):
    """Exit code of ``compute`` on ``path``, or the name of the exception
    that escaped it."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(["compute", "--model", str(path), "--out", str(out)])
    except Exception as exc:  # a traceback; listed by the callers
        return type(exc).__name__


#: Single array entries of the stage-2 model, each with its exit code:
#: malformed arrays and entries that are not JSON numbers are parse errors,
#: JSON integers are numbers, and huge negative ``C`` is a sector violation.
ENTRY_MUTATIONS = (
    (("C", 3), [[[1.0, 0.0]], [[1.0, 0.0]]], 3),   # ragged cell
    (("c0", 3), [1.0], 3),                          # one-number pair
    (("b", 3, 0, 0), "x", 3),                       # string entry
    (("C", 3, 0, 0), [1.0, 0.0, 0.0], 3),           # three-number entry
    (("c0", 0), ["2", 0.0], 3),                     # string spelling 2
    (("C", 3, 0, 0, 0), False, 3),
    (("b", 3, 0, 0), None, 3),
    (("b", 3, 0, 0), "1.0", 3),
    (("b", 3, 0, 0), True, 3),
    (("b", 3, 0, 0), 10 ** 400, 3),                 # no float holds it
    (("c0", 3, 1), 7, 0),                           # integer entry
    (("b", 3, 0, 0), 2 ** 70, 2),                   # a number, undominated
    (("C", 50), [[[-1e100, 0.0]]], 2),
    (("C", 50), [[[-1e160, 0.0]]], 2),
    (("C", 50), [[[-1e200, 0.0]]], 2),
)


def test_mutated_model_exits_0_2_or_3(tmp_path):
    """Every leaf of the worked-example model replaced by each value of a
    fixed list: ``compute`` ends with exit code 0, 2 or 3, never a
    traceback.  The canonical text cut short is a parse error, and so is
    each malformed array entry of ``ENTRY_MUTATIONS``."""
    text = dumps_canonical(cantor_model_doc(2))
    base = json.loads(text)
    path, out = tmp_path / "m.json", tmp_path / "r.json"
    codes = {}
    for leaf in _leaf_paths(base):
        for value in MUTATIONS:
            doc = json.loads(text)
            node = doc
            for key in leaf[:-1]:
                node = node[key]
            node[leaf[-1]] = value
            write_doc(path, doc)
            codes[leaf, repr(value)] = _compute_code(path, out)
    assert len(codes) > 300
    assert {k: c for k, c in codes.items() if c not in (0, 2, 3)} == {}

    exact = {}
    for cut in (1, len(text) // 4, len(text) // 2, len(text) - 3):
        path.write_text(text[:cut], encoding="utf-8")
        exact["cut", cut] = (_compute_code(path, out), 3)
    for where, value, want in ENTRY_MUTATIONS:
        doc = json.loads(text)
        node = doc["coefficients"]
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        write_doc(path, doc)
        exact[where, repr(value)] = (_compute_code(path, out), want)
    assert {k: c for k, c in exact.items() if c[0] != c[1]} == {}


#: A number no model below holds, written into an array entry and then
#: replaced by the text under test.
SENTINEL = 123.456789012345


def _spliced(doc, where, spelling):
    """Canonical text of ``doc`` with the entry at ``where`` written as
    ``spelling``; an array leaf on the way is entered as its ``[re, im]``
    float view."""
    node = doc
    for key in where[:-1]:
        node = node[key]
        if isinstance(node, np.ndarray) and node.dtype == complex:
            node = node.view(float).reshape(node.shape + (2,))
    node[where[-1]] = SENTINEL
    text = dumps_canonical(doc)
    assert text.count(repr(SENTINEL)) == 1
    return text.replace(repr(SENTINEL), spelling)


def _small_2d_doc():
    """A 30-cell 2-D oracle case with ``samples`` functions; ``Q`` is 0 in
    cell 0."""
    case = random_oracle_case(np.random.default_rng(5), dim=2,
                              commuting=True)
    specs = [{"name": "f%d" % k, "kind": "samples",
              "cell_values": complex_to_json(f.cell_values),
              "cell_gradient": complex_to_json(f.cell_gradient)}
             for k, f in enumerate(case.funcs)]
    doc = make_model_doc(case.coeffs, q_matrix_spec(case.q_field), specs)
    assert not np.any(case.q_field[0])
    return doc


#: Where a spelling goes: the real part of ``coefficients.c0[3]`` of the
#: stage-2 Cantor model, the imaginary part of ``Q[0][1][1]`` (a cell where
#: ``Q = 0``) and the real part of one ``cell_values`` entry of the 2-D model.
SPLICE_SITES = {
    "c0": (lambda: cantor_model_doc(2), ("coefficients", "c0", 3, 0)),
    "Q": (_small_2d_doc, ("Q", "matrix", 0, 1, 1, 1)),
    "samples": (_small_2d_doc, ("functions", 0, "cell_values", 0, 0)),
}

#: Spellings of one number and the exit code of ``compute`` at each site.
#: JSON numbers are read as ``json`` reads them: ``-0`` and ``7`` are
#: integers, ``1e400`` is a float literal that reads as ``inf`` (refused by
#: validation), and an integer no float holds is a parse error.  Anything
#: outside the JSON number grammar is a parse error.  On ``Q``, every value
#: but zero breaks the projection; on ``samples``, ``1e5`` breaks the Gram
#: conditioning.
SPELLINGS = (
    ("1E5", 0, 2, 2), ("1e+05", 0, 2, 2), ("0.5e-3", 0, 2, 0),
    ("-0", 0, 0, 0), ("7", 0, 2, 0), (" 2.0 ", 0, 2, 0), ("2.0\n", 0, 2, 0),
    ("-0.0", 0, 0, 0), ("1e400", 2, None, 2), ("1" + "0" * 400, 3, 3, 3),
    ("1.", 3, 3, 3), (".5", 3, 3, 3), ("+1", 3, 3, 3), ("01", 3, 3, 3),
    ("1e", 3, 3, 3), ("1_0", 3, 3, 3), ("inf", 3, 3, 3), ("NaN", 3, 3, 3),
    ("0x1", 3, 3, 3), ("-", 3, 3, 3), ("1e5.0", 3, 3, 3), ("--1", 3, 3, 3),
    ("1 2", 3, 3, 3), ("[1.0]", 3, 3, 3), ('"1.0"', 3, 3, 3),
)


@pytest.mark.parametrize("site, spelling, code", [
    (site, row[0], row[1 + k]) for row in SPELLINGS
    for k, site in enumerate(SPLICE_SITES) if row[1 + k] is not None])
def test_number_spelling_exit_code(site, spelling, code, tmp_path):
    """One array entry spelled as text: ``compute`` ends with the exact exit
    code of the table."""
    make_doc, where = SPLICE_SITES[site]
    path = tmp_path / "m.json"
    path.write_text(_spliced(make_doc(), where, spelling), encoding="utf-8")
    assert _compute_code(path, tmp_path / "r.json") == code


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infinite_q_entry_exits_2(tmp_path, capsys):
    """A ``Q`` entry that reads as ``inf`` has NaN projection residuals,
    and fails the projection check by cell."""
    make_doc, where = SPLICE_SITES["Q"]
    path = tmp_path / "m.json"
    path.write_text(_spliced(make_doc(), where, "1e400"), encoding="utf-8")
    assert main(["compute", "--model", str(path)]) == 2
    assert "validation error: cell 0: Q is not an orthogonal projection" \
        in capsys.readouterr().err


@pytest.mark.parametrize("site", sorted(SPLICE_SITES))
def test_integer_past_the_digit_limit_exits_3(site, tmp_path, capsys):
    """An integer longer than Python converts (4300 digits) is a parse
    error naming its array."""
    make_doc, where = SPLICE_SITES[site]
    path = tmp_path / "m.json"
    path.write_text(_spliced(make_doc(), where, "1" * 5000),
                    encoding="utf-8")
    assert main(["compute", "--model", str(path)]) == 3
    err = capsys.readouterr().err
    name = {"c0": "coefficients.c0", "Q": "Q.matrix",
            "samples": "function 'f0'.cell_values"}[site]
    assert err.startswith("parse error: %s: " % name)


def _reversed_keys(node):
    if isinstance(node, dict):
        return {k: _reversed_keys(node[k]) for k in sorted(node, reverse=True)}
    if isinstance(node, list):
        return [_reversed_keys(v) for v in node]
    return node


def test_layout_and_key_like_strings_load_as_canonical(tmp_path):
    """Keys in reverse order, pretty-printed blanks, and function names that
    spell a payload key and its array give the report of the canonical
    file."""
    doc = _small_2d_doc()
    names = ['"C":[1]', '"cell_values": [[1.0, 0.0]]']
    for spec, name in zip(doc["functions"], names):
        spec["name"] = name
    canonical, pretty = tmp_path / "canonical.json", tmp_path / "pretty.json"
    write_doc(canonical, doc)
    pretty.write_text(json.dumps(_reversed_keys(json.loads(
        canonical.read_text(encoding="utf-8"))), indent=2) + "\n",
        encoding="utf-8")
    reports = []
    for path in (canonical, pretty):
        out = tmp_path / ("report-" + path.name)
        assert _compute_code(path, out) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    pairs = json.loads(reports[0])["oracle_table"]
    assert {name for row in pairs for name in row["pair"]} >= set(names)


def test_oversized_header_refused_before_allocating(tmp_path):
    """A grid header of a million cells over a 96-cell model is a parse
    error, found before anything the size of the header is allocated."""
    doc = cantor_model_doc(2)
    assert doc["grid"]["cells_per_axis"] == [96]
    doc["grid"]["cells_per_axis"] = [1000000]
    path = tmp_path / "big.json"
    write_doc(path, doc)
    tracemalloc.start()
    try:
        code = _compute_code(path, tmp_path / "r.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    # one complex value per cell would take 16 MB
    assert peak < 2_000_000


def test_compute_empty_function_list(tmp_path, rng):
    from regpart.randomized import (random_coefficients, random_grid,
                                    random_projection_field)
    coeffs = random_coefficients(rng, random_grid(rng, 1))
    q = random_projection_field(rng, 1, coeffs.n_cells)
    path = tmp_path / "nofuncs.json"
    write_doc(path, make_model_doc(coeffs, q_matrix_spec(q), []))
    out = tmp_path / "report.json"
    assert main(["compute", "--model", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["oracle_table"] == []
    assert report["diagnostics"] is None
    assert any("function list empty" in w for w in report["warnings"])


def test_compute_empty_indicator_set(tmp_path):
    """A 1-D model whose singular set is empty, as the program writes it,
    loads back and computes: the singular part is 0 everywhere."""
    doc = cantor_model_doc(1)
    doc["Q"] = q_indicator_spec([])
    path = tmp_path / "empty-set.json"
    write_doc(path, doc)
    out = tmp_path / "report.json"
    assert main(["compute", "--model", str(path), "--out", str(out)]) == 0
    c_s = np.asarray(json.loads(out.read_text())["singular"]["C"], dtype=float)
    assert c_s.size and np.all(c_s == 0.0)


def test_lambda_list_argument_errors(cantor_file, capsys):
    """A list that is not numbers is a parse error; one with fewer than two
    distinct ``lambda**2``, whose least-squares slope would be an arbitrary
    split of one ratio, is refused and named."""
    for command in ("compute", "probe"):
        assert main([command, "--model", str(cantor_file),
                     "--lambda-list", "abc"]) == 3
        for lambdas in ("5", "3,3", "3,-3", "0,0"):
            assert main([command, "--model", str(cantor_file),
                         "--lambda-list", lambdas]) == 2
            assert "--lambda-list '%s'" % lambdas in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compute", "probe"])
@pytest.mark.parametrize("lambdas", ["5,inf", "5,nan", "1e200,1e300"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_probe_frequency_exits_2(command, lambdas, cantor_file,
                                             capsys):
    """A frequency whose ratio or square is not finite is named as a
    degenerate probe, not a least-squares crash."""
    assert main([command, "--model", str(cantor_file),
                 "--lambda-list", lambdas]) == 2
    err = capsys.readouterr().err
    bad = {"5,inf": "inf", "5,nan": "nan", "1e200,1e300": "1e+200"}[lambdas]
    assert "validation error: probe frequency %s:" % bad in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["compute", "probe"])
@pytest.mark.parametrize("lambdas, bad", [("5,inf", "inf"), ("5, nan", "nan"),
                                          ("-inf,5", "-inf")])
def test_non_finite_lambda_list_named(command, lambdas, bad, tmp_path,
                                      capsys):
    """On a model with ``Q = 0`` the probe is skipped; the option and its
    bad entry are still named, where the list is parsed."""
    doc = cantor_model_doc(1)
    doc["Q"] = q_indicator_spec([(2.0, 3.0)])
    path = tmp_path / "noq.json"
    write_doc(path, doc)
    assert main([command, "--model", str(path),
                 "--lambda-list=" + lambdas]) == 2
    err = capsys.readouterr().err
    assert "--lambda-list entry '%s' is not finite" % bad in err


@pytest.mark.parametrize("argv, named", [
    (["verify", "--seed", "-1"], "--seed"),
    (["compute", "--model", "{model}", "--out", "{missing}"], "{missing}"),
    (["probe", "--model", "{model}", "--out", "{missing}"], "{missing}"),
    (["example", "cantor", "--stage", "1", "--out", "{missing}"],
     "{missing}"),
    (["example", "cantor", "--stage", "-1", "--out", "{out}"], "stage"),
    (["example", "cantor", "--stage", str(MAX_CANTOR_STAGE + 1), "--out",
      "{out}"], "stage"),
    (["verify", "--trials", "-5"], "--trials must be >= 0, got -5"),
])
def test_argument_errors_exit_2(argv, named, cantor_file, tmp_path, capsys):
    """An out-of-range argument or an ``--out`` path that cannot be written
    exits 2 with a message naming it, not with a traceback."""
    paths = {"model": str(cantor_file), "out": str(tmp_path / "x.json"),
             "missing": str(tmp_path / "no-such-dir" / "x.json")}
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ")
    assert named.format(**paths) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["compute", "probe"])
def test_bad_out_refused_before_any_work(command, cantor_file, tmp_path,
                                         monkeypatch, capsys):
    """An ``--out`` in a missing directory, or naming a directory, exits 2
    before the model is read: neither the load nor the compute runs."""
    import regpart.cli
    entered = []
    for name in ("load_model", "compute_report", "run_probe"):
        monkeypatch.setattr(regpart.cli, name,
                            lambda *a, name=name, **k: entered.append(name))
    for out, problem in ((tmp_path / "no-such-dir" / "r.json",
                          "no such directory"), (tmp_path, "is a directory")):
        assert main([command, "--model", str(cantor_file), "--out",
                     str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: --out %s: %s"
                              % (out, problem))
    assert entered == []
    assert _names(tmp_path) == ["cantor.json"]


def _no_dir_writes(path, mode, **kwargs):
    """``os.access`` as it answers a user who may write no directory."""
    return not (mode & os.W_OK and os.path.isdir(path))


@pytest.mark.parametrize("command", ["compute", "probe"])
def test_out_in_an_unwritable_directory(command, cantor_file, tmp_path,
                                        monkeypatch, capsys):
    """Where no directory may be written, ``--out`` to ``/dev/null``, to a
    pipe or to an existing writable file still exits 0, written in place;
    a new file there, or an existing file that may not be written, exits 2
    before the model is read."""
    import regpart.cli
    import regpart.modelio
    monkeypatch.setattr(os, "access", _no_dir_writes)
    argv = [command, "--model", str(cantor_file), "--out"]
    assert main(argv + [os.devnull]) == 0

    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    assert main(argv + [str(fifo)]) == 0
    reader.join(timeout=60)

    old = tmp_path / "old.json"
    old.write_text("old\n", encoding="utf-8")
    inode = old.stat().st_ino
    assert main(argv + [str(old)]) == 0
    assert old.stat().st_ino == inode
    assert got == [old.read_bytes()]
    kind = {"compute": "report"}.get(command, command)
    assert json.loads(old.read_text())["kind"] == kind
    capsys.readouterr()

    entered = []
    monkeypatch.setattr(regpart.cli, "load_model",
                        lambda *a, **k: entered.append("load_model"))
    assert main(argv + [str(tmp_path / "new.json")]) == 2
    assert "directory %s is not writable" % tmp_path \
        in capsys.readouterr().err
    monkeypatch.setattr(os, "access", lambda path, mode, **kwargs: False)
    assert main(argv + [str(old)]) == 2
    assert "--out %s: is not writable" % old in capsys.readouterr().err
    assert entered == []
    assert _names(tmp_path) == ["cantor.json", "old.json", "pipe"]


def _names(directory):
    return sorted(p.name for p in directory.iterdir())


def _second_chunk_model(kind):
    """A 2-D model of ``2 * CELL_CHUNK + 16`` cells, valid but for cell
    ``CELL_CHUNK + 5`` in the second chunk of every cell pass (and, for
    ``"sector"``, a milder violation in the first chunk); returns the
    coefficients and that cell."""
    grid = GridSpec(dim=2, box=((0.0, 1.0), (0.0, 1.0)),
                    cells_per_axis=(2, CELL_CHUNK + 8))
    n, cell, tiny = grid.n_cells, CELL_CHUNK + 5, 1e-6
    c = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
    b = np.zeros((n, 2), dtype=complex)
    if kind == "sector":
        c[10], c[cell] = -0.5 * np.eye(2), -np.eye(2)
    elif kind == "domination":
        b[cell] = [3.0, 0.0]
    elif kind == "overflow":
        b[cell] = [1e200, 0.0]
    elif kind == "psd":
        # below the psd floor of the rank rule
        c[cell] = np.diag([1.0, -1e-11])
    elif kind == "skew":
        # Im C leaves range(A) = span e_0
        c[cell] = [[1.0, 1j * tiny], [1j * tiny, 0.0]]
    else:
        c[cell] = np.diag([1.0, 0.0])
        b[cell] = [0.0, tiny]
    return CoefficientSet(grid=grid, C_field=c, b_field=b,
                          d_field=np.zeros((n, 2), dtype=complex),
                          c0_field=np.zeros(n, dtype=complex), theta=0.5,
                          K_bound=1.0), cell


SECOND_CHUNK_KINDS = (
    ("sector", SectorViolation), ("domination", DominationViolation),
    ("overflow", DominationViolation), ("psd", SectorViolation),
    ("skew", SectorViolation), ("range", DominationViolation))


@pytest.mark.parametrize("kind, error", SECOND_CHUNK_KINDS)
def test_second_chunk_violation_names_global_cell(kind, error, tmp_path,
                                                  capsys):
    """A sector or domination violation, or an ``A`` below the psd floor,
    in the second chunk of cells passes ``validate`` and is named by
    ``derive_fields`` by its global cell index, and ``compute`` exits 2
    with that index."""
    coeffs, cell = _second_chunk_model(kind)
    assert coeffs.validate() is coeffs
    with pytest.raises(error) as raised:
        derive_fields(coeffs)
    assert raised.value.cell == cell
    assert "cell %d" % cell in str(raised.value)
    path = tmp_path / "model.json"
    write_doc(path, make_model_doc(coeffs, q_matrix_spec(
        np.zeros_like(coeffs.C_field)), []))
    assert main(["compute", "--model", str(path)]) == 2
    assert "validation error: cell %d" % cell in capsys.readouterr().err


def _in_units(coeffs, k):
    """The model in other units: ``C``, ``b``, ``d`` and ``c0`` times
    ``s = 4^k`` and ``K_bound`` times ``2^k = sqrt(s)``, both exact."""
    s = 4.0 ** k
    return CoefficientSet(
        grid=coeffs.grid, C_field=s * coeffs.C_field,
        b_field=s * coeffs.b_field, d_field=s * coeffs.d_field,
        c0_field=s * coeffs.c0_field, theta=coeffs.theta,
        K_bound=2.0 ** k * coeffs.K_bound)


def _gate_verdict(coeffs):
    """``None`` when the model passes ``validate`` and ``derive_fields``,
    else the error class and the cell it names."""
    try:
        derive_fields(coeffs.validate())
    except ValidationError as exc:
        return type(exc), exc.cell
    return None


@pytest.mark.parametrize("kind", [None, "cantor"]
                         + [kind for kind, _ in SECOND_CHUNK_KINDS])
def test_gate_verdict_is_free_of_units(kind):
    """The same model in other units, ``s = 4^k`` for ``|k| <= 100``, gets
    the same verdict, error class and named cell: at ``s = 2^-40`` the
    skew part of ``C`` outside ``range(A)`` is still seen."""
    if kind is None:
        coeffs = random_oracle_case(np.random.default_rng(3), dim=3,
                                    commuting=True).coeffs
    elif kind == "cantor":
        coeffs = generate_cantor_example(2)[0]
    else:
        coeffs = _second_chunk_model(kind)[0]
    want = _gate_verdict(coeffs)
    assert (want is None) == (kind in (None, "cantor"))
    for k in (-100, -20, -1, 1, 20, 100):
        assert _gate_verdict(_in_units(coeffs, k)) == want, k


def test_stage_help_states_the_range(capsys):
    """Stages past ``MAX_CANTOR_STAGE`` would exceed the grid's cell cap."""
    assert MAX_CANTOR_STAGE == 10
    with pytest.raises(SystemExit):
        main(["example", "--help"])
    assert "(0..10)" in capsys.readouterr().out


def test_non_finite_array_leaf_exits_2(cantor_file, monkeypatch, capsys):
    import regpart.cli
    monkeypatch.setattr(regpart.cli, "compute_report",
                        lambda *a, **k: {"C": np.array([1.0, np.nan])})
    assert main(["compute", "--model", str(cantor_file)]) == 2
    err = capsys.readouterr().err
    assert "validation error: non-finite value in document" in err


def test_compute_with_nul_function_names(tmp_path):
    """Function names made of NUL characters survive into the report."""
    doc = cantor_model_doc(2)
    names = ["\0", "x\0"]
    doc["functions"] = [dict(spec, name=name) for spec, name
                        in zip(doc["functions"], names)]
    path, out = tmp_path / "nul.json", tmp_path / "report.json"
    write_doc(path, doc)
    assert main(["compute", "--model", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert [row["pair"] for row in report["oracle_table"]] == \
        [[u, v] for u in names for v in names]
    n = report["grid"]["cells_per_axis"][0]
    for block in ("regular", "singular"):
        assert np.shape(report[block]["C"]) == (n, 1, 1, 2)
        assert np.shape(report[block]["b"]) == (n, 1, 2)
        assert np.shape(report[block]["c0"]) == (n, 2)


def test_verify_passes(capsys):
    assert main(["verify", "--trials", "40", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "identity" in out and "oracle agreement" in out


def test_verify_zero_trials(capsys):
    assert main(["verify", "--trials", "0"]) == 0
    assert "vacuous" in capsys.readouterr().out


def test_verify_dims_arguments(capsys):
    assert main(["verify", "--trials", "5", "--dims", "0"]) == 2
    assert main(["verify", "--trials", "5", "--dims", "x"]) == 3
    capsys.readouterr()


def _one_shot_blocks(rng, d, trials):
    """The identity draws as the one block of the one-shot reference."""
    return iter([one_shot_qz_draws(rng, d, trials)])


def test_verify_summary_is_the_one_shot_run(monkeypatch, capsys):
    """Drawn and screened in blocks, ``run_verification`` gives the summary
    and output of a run that draws each dimension's pairs in one stack and
    screens them at once, oracle models included (their seeds follow the
    draws)."""
    import regpart.pipeline as pipeline
    kwargs = {"seed": 4, "trials": 2 * QZ_BLOCK + 5, "dims": range(1, 7)}
    got = pipeline.run_verification(**kwargs)
    got_out = capsys.readouterr().out
    monkeypatch.setattr(pipeline, "random_qz_blocks", _one_shot_blocks)
    assert pipeline.run_verification(**kwargs) == got
    assert capsys.readouterr().out == got_out
    assert got["code"] == 0 and len(got["identity_worst"]) == 6


@pytest.mark.parametrize("kwargs, message", [
    ({"trials": -5}, "trials must be >= 0, got -5"),
    ({"seed": -1}, "seed must be >= 0, got -1")])
def test_verification_refuses_negative_arguments(kwargs, message, capsys):
    """Called as a library, ``run_verification`` refuses a negative trial
    count or seed with a :class:`ValidationError` naming the value, and
    prints nothing."""
    import regpart.pipeline as pipeline
    with pytest.raises(ValidationError, match="^%s$" % message):
        pipeline.run_verification(**kwargs)
    assert capsys.readouterr() == ("", "")


def _identity_phase_peak(monkeypatch, trials, d=3):
    """Peak bytes ``run_verification`` takes on ``trials`` draws of
    dimension ``d``, with the oracle models stubbed out."""
    import gc
    import regpart.pipeline as pipeline
    monkeypatch.setattr(pipeline, "random_oracle_case", lambda rng: None)
    monkeypatch.setattr(pipeline, "oracle_crosscheck", lambda case: {
        "oracle_rel": 0.0, "pi1_res": 0.0, "t_res": 0.0})
    with contextlib.redirect_stdout(io.StringIO()):
        pipeline.run_verification(trials=8, dims=(d,))  # lazy set-up
        gc.collect()
        tracemalloc.start()
        try:
            pipeline.run_verification(trials=trials, dims=(d,))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_verify_memory_does_not_grow_with_trials(monkeypatch):
    """Eight times the trials leave the identity phase's peak nearly where
    it was: one block of draws is held at a time."""
    assert _identity_phase_peak(monkeypatch, 16 * QZ_BLOCK) <= \
        1.3 * _identity_phase_peak(monkeypatch, 2 * QZ_BLOCK)


def test_verify_detects_broken_identities(monkeypatch, capsys):
    """Negative control: corrupting the projection draws must flip the
    exit code to 1 and name the reproducing seed."""
    import regpart.pipeline as pipeline
    real = pipeline.random_qz_blocks

    def corrupted(rng, d, trials):
        return ((q + 0.25, z) for q, z in real(rng, d, trials))

    monkeypatch.setattr(pipeline, "random_qz_blocks", corrupted)
    assert main(["verify", "--trials", "20", "--dims", "1",
                 "--seed", "11"]) == 1
    out = capsys.readouterr().out
    assert "FAIL identity" in out and "seed 11" in out


def test_main_calls_leave_no_options_behind(cantor_file, monkeypatch,
                                            capsys):
    """The parser is built once, and an option given to one ``main`` call
    is not seen by the next: each falls back to its default."""
    import regpart.cli as cli
    seen = []
    monkeypatch.setattr(cli, "compute_report", lambda model, lambdas, seed:
                        seen.append((lambdas, seed)) or {"kind": "report"})
    monkeypatch.setattr(cli, "run_verification", lambda seed, trials, dims:
                        seen.append((seed, trials, dims)) or {"code": 0})
    assert cli.build_parser() is cli.build_parser()
    model = str(cantor_file)
    assert main(["compute", "--model", model, "--lambda-list", "1,2",
                 "--seed", "3"]) == 0
    assert main(["compute", "--model", model]) == 0
    assert main(["verify", "--seed", "5", "--trials", "7",
                 "--dims", "2"]) == 0
    assert main(["verify"]) == 0
    capsys.readouterr()
    assert seen == [((1.0, 2.0), 3), (PROBE_LAMBDAS, 0),
                    (5, 7, (2,)), (0, 1000, (1, 2, 3))]


def test_console_script_installed(tmp_path):
    """The ``regpart`` command declared in ``[project.scripts]`` runs as an
    installed console script would: through the launcher that pip writes,
    importing the package under test from ``src/``."""
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["regpart"]
    module, attr = target.split(":")
    exe = tmp_path / "bin" / "regpart"
    exe.parent.mkdir()
    exe.write_text(
        f"#!{sys.executable}\n"
        "# -*- coding: utf-8 -*-\n"
        "import re\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', "
        "sys.argv[0])\n"
        f"    sys.exit({attr}())\n", encoding="utf-8")
    exe.chmod(0o755)
    env = _src_env()
    model = tmp_path / "m.json"
    run = subprocess.run([str(exe), "example", "cantor", "--stage", "1",
                          "--out", str(model)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    probe = subprocess.run([str(exe), "probe", "--model", str(model),
                            "--lambda-list", "5,10"],
                           capture_output=True, text=True, env=env)
    assert probe.returncode == 0, probe.stderr
    assert json.loads(probe.stdout)["kind"] == "probe"
    missing = subprocess.run([str(exe), "compute", "--model",
                              str(tmp_path / "nope.json")],
                             capture_output=True, text=True, env=env)
    assert missing.returncode == 3, missing.stderr


def test_commands_run_without_scipy(tmp_path):
    """A fresh process imports the package and runs every command without
    loading scipy, whose import would double the cold start."""
    model, report = tmp_path / "m.json", tmp_path / "r.json"
    script = (
        "import contextlib, io, sys\n"
        "import regpart, regpart.cli\n"
        "for argv in %r:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert regpart.cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        % ([["example", "cantor", "--stage", "2", "--out", str(model)],
            ["compute", "--model", str(model), "--out", str(report)],
            ["probe", "--model", str(model), "--out", str(report)],
            ["verify", "--trials", "40"]],))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=_src_env())
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


#: Functions whose calls the artifact-count tests record.
COUNTED = (("completion", "build_ambient"),
           ("completion", "build_v_subspace"),
           ("completion", "compute_operators"),
           ("completion", "t_pi2_probe"),
           ("model", "derive_fields"),
           ("model", "eval_form"),
           ("model", "form_gram"),
           ("model", "estimate_vertex_angle"),
           ("regularize", "assemble_regular"),
           ("regularize", "pure_second_order_parts"))


@pytest.fixture
def calls(monkeypatch):
    """Counts of the ``COUNTED`` calls from here on, and for each function
    the names of the functions that called it."""
    counts, callers = {}, {}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            callers.setdefault(name, set()).add(
                sys._getframe(1).f_code.co_name)
            return func(*args, **kwargs)
        return wrapper

    modules = [m for n, m in sys.modules.items()
               if n == "regpart" or n.startswith("regpart.")]
    for owner, name in COUNTED:
        original = getattr(sys.modules["regpart." + owner], name)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    monkeypatch.setattr(TestFunction, "stack", classmethod(
        counted("stack", TestFunction.stack.__func__)))
    return counts, callers


def _loaded(model):
    coeffs = model["coeffs"]
    funcs = model["funcs"]
    return LoadedModel(grid=coeffs.grid, coeffs=coeffs,
                       q_field=model["q_field"], names=tuple(funcs),
                       family=TestFunction.stack(coeffs.grid, funcs.values()))


def test_compute_builds_each_artifact_once(cantor3, calls):
    """One compute builds the V space once and solves its operators twice:
    for the form and for its real part.  It evaluates the form three times,
    each on a whole function family: the V build's form Gram (its one
    ``form_gram``, which the form's vertex reads too), the regular part's
    pair table, which the oracle comparison and the real-part check share,
    and the singular part's Gram, whose second-order part is the pure
    companion's.  The three vertex searches read those Grams, so neither
    ``estimate_vertex_angle`` nor ``pure_second_order_parts`` runs.  The
    model holds its functions as one family, which the compute reads
    without stacking them again."""
    model = _loaded(cantor3)
    counts, callers = calls
    assert counts == {"stack": 1}
    counts.clear()
    compute_report(model)
    assert counts == {"build_ambient": 1, "build_v_subspace": 1,
                      "compute_operators": 2, "derive_fields": 1,
                      "eval_form": 3, "form_gram": 1,
                      "assemble_regular": 1, "t_pi2_probe": 1}
    assert callers["form_gram"] == {"build_v_subspace"}


def test_probe_builds_each_artifact_once(cantor3, calls):
    """A probe derives, builds and solves once, on the model's family
    without stacking it again; its one form evaluation is the V build's
    form Gram."""
    model = _loaded(cantor3)
    counts, callers = calls
    counts.clear()
    run_probe(model, lambdas=(5.0, 10.0))
    assert counts == {"build_ambient": 1, "build_v_subspace": 1,
                      "compute_operators": 1, "derive_fields": 1,
                      "eval_form": 1, "form_gram": 1, "t_pi2_probe": 1}
    assert callers["form_gram"] == {"build_v_subspace"}


def test_oracle_crosscheck_builds_each_artifact_once(calls):
    """One oracle cross-check of a drawn case: one split on the derived
    fields the draw validated with, so no second derivation, one V build
    and one operator solve, and two form evaluations: the V build's form
    Gram and the regular part's pair table.  The drawn family is used as
    it is, with no stack."""
    counts, callers = calls
    case = random_oracle_case(np.random.default_rng(4))
    counts.clear()
    callers.clear()
    oracle_crosscheck(case)
    assert counts == {"build_ambient": 1, "build_v_subspace": 1,
                      "compute_operators": 1, "eval_form": 2,
                      "form_gram": 1, "assemble_regular": 1}
    assert callers["form_gram"] == {"build_v_subspace"}


def test_module_entry_point(tmp_path):
    model = tmp_path / "m.json"
    run = subprocess.run([sys.executable, "-m", "regpart", "example",
                          "cantor", "--stage", "1", "--out", str(model)],
                         capture_output=True, text=True, env=_src_env())
    assert run.returncode == 0, run.stderr
    assert json.loads(model.read_text())["grid"]["cells_per_axis"] == [24]


def test_dumps_canonical_used_for_reports(cantor_file, tmp_path):
    """Reports are canonical JSON: re-encoding the parsed document is a
    byte-identical round trip."""
    out = tmp_path / "report.json"
    assert main(["compute", "--model", str(cantor_file), "--out",
                 str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert dumps_canonical(json.loads(text)) == text


def test_verify_builds_no_over_drawn_family(monkeypatch, capsys):
    """A family with more functions than its grid has interior nodes is
    linearly dependent, so ``random_oracle_case`` redraws it without
    building its V space."""
    import regpart.randomized
    build = regpart.randomized.build_v_subspace
    sizes = []

    def counted(coeffs, derived, q_field, funcs, **kwargs):
        nodes = np.prod(np.subtract(coeffs.grid.cells_per_axis, 1))
        sizes.append((len(funcs), int(nodes)))
        return build(coeffs, derived, q_field, funcs, **kwargs)

    monkeypatch.setattr(regpart.randomized, "build_v_subspace", counted)
    assert main(["verify", "--trials", "400", "--seed", "1"]) == 0
    assert sizes
    assert [pair for pair in sizes if pair[0] > pair[1]] == []
