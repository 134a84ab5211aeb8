"""Command-line flows, exit codes and report documents."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from regpart.cli import main
from regpart.modelio import (LoadedModel, dumps_canonical, load_doc,
                             q_indicator_spec, q_matrix_spec, write_doc)
from regpart.pipeline import (IDENTITY_TOL, ORACLE_RTOL, cantor_model_doc,
                              compute_report)


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
    doc = load_doc(cantor_file)
    assert doc["schema_version"] == 1
    assert doc["grid"]["cells_per_axis"] == [24]
    assert {f["name"] for f in doc["functions"]} == {
        "plateau", "bump_gap", "bump_left", "bump_right", "bump_wide",
        "bump_outside"}


def test_unknown_example_name(tmp_path, capsys):
    code = main(["example", "torus", "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "validation error:" in capsys.readouterr().err


def test_compute_report_flow(cantor_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["compute", "--model", str(cantor_file), "--seed", "7",
                 "--out", str(out)]) == 0
    report = load_doc(out)
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
    doc = load_doc(cantor_file)
    n = doc["grid"]["cells_per_axis"][0]
    doc["Q"] = q_matrix_spec(np.full((n, 1, 1), 0.5, dtype=complex))
    bad = tmp_path / "badq.json"
    write_doc(bad, doc)
    assert main(["compute", "--model", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "validation error:" in err and "cell 0" in err


def test_compute_rejects_sector_violation(cantor_file, tmp_path, capsys):
    doc = load_doc(cantor_file)
    doc["coefficients"]["C"][5] = [[[-2.0, 0.0]]]
    bad = tmp_path / "badc.json"
    write_doc(bad, doc)
    assert main(["compute", "--model", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "validation error:" in err and "cell 5" in err


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


def test_compute_empty_function_list(tmp_path, rng):
    from regpart.randomized import (random_coefficients, random_grid,
                                    random_projection_field)
    from regpart.modelio import make_model_doc
    coeffs = random_coefficients(rng, random_grid(rng, 1))
    q = random_projection_field(rng, 1, coeffs.n_cells)
    path = tmp_path / "nofuncs.json"
    write_doc(path, make_model_doc(coeffs, q_matrix_spec(q), []))
    out = tmp_path / "report.json"
    assert main(["compute", "--model", str(path), "--out", str(out)]) == 0
    report = load_doc(out)
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
    c_s = np.asarray(load_doc(out)["singular"]["C"], dtype=float)
    assert c_s.size and np.all(c_s == 0.0)


def test_lambda_list_argument_errors(cantor_file, capsys):
    assert main(["compute", "--model", str(cantor_file),
                 "--lambda-list", "abc"]) == 3
    assert main(["compute", "--model", str(cantor_file),
                 "--lambda-list", "5"]) == 2
    capsys.readouterr()


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


def test_verify_detects_broken_identities(monkeypatch, capsys):
    """Negative control: corrupting the projection draws must flip the
    exit code to 1 and name the reproducing seed."""
    import regpart.pipeline as pipeline
    real = pipeline.random_qz_draws

    def corrupted(rng, d, trials, z_scale=2.0):
        q, z = real(rng, d, trials, z_scale=z_scale)
        return q + 0.25, z

    monkeypatch.setattr(pipeline, "random_qz_draws", corrupted)
    assert main(["verify", "--trials", "20", "--dims", "1",
                 "--seed", "11"]) == 1
    out = capsys.readouterr().out
    assert "FAIL identity" in out and "seed 11" in out


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


def test_compute_builds_each_artifact_once(cantor3, monkeypatch):
    """One compute builds the V space once and solves its operators twice:
    for the form and for its real part.  It evaluates the form four times,
    each on a whole function family: the regular part's pair table, which
    the oracle comparison and the real-part check share, and the three
    vertex searches."""
    counts = {}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return func(*args, **kwargs)
        return wrapper

    modules = [m for n, m in sys.modules.items()
               if n == "regpart" or n.startswith("regpart.")]
    for owner, name in (("completion", "build_ambient"),
                        ("completion", "build_v_subspace"),
                        ("completion", "compute_operators"),
                        ("model", "derive_fields"),
                        ("model", "eval_form"),
                        ("regularize", "assemble_regular")):
        original = getattr(sys.modules["regpart." + owner], name)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    coeffs = cantor3["coeffs"]
    compute_report(LoadedModel(grid=coeffs.grid, coeffs=coeffs,
                               q_field=cantor3["q_field"],
                               funcs=cantor3["funcs"]))
    assert counts == {"build_ambient": 1, "build_v_subspace": 1,
                      "compute_operators": 2, "derive_fields": 1,
                      "eval_form": 4, "assemble_regular": 1}


def test_module_entry_point(tmp_path):
    model = tmp_path / "m.json"
    run = subprocess.run([sys.executable, "-m", "regpart", "example",
                          "cantor", "--stage", "1", "--out", str(model)],
                         capture_output=True, text=True, env=_src_env())
    assert run.returncode == 0, run.stderr
    assert load_doc(model)["grid"]["cells_per_axis"] == [24]


def test_dumps_canonical_used_for_reports(cantor_file, tmp_path):
    """Reports are canonical JSON: re-encoding the parsed document is a
    byte-identical round trip."""
    out = tmp_path / "report.json"
    assert main(["compute", "--model", str(cantor_file), "--out",
                 str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert dumps_canonical(json.loads(text)) == text
