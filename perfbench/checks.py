"""Output checks: the guarantees of the split, not the report bytes.

Each check returns a list of error strings, empty when the output holds.
They read plain JSON with the standard library and numpy, so they share no
code with the program's own parser.  The thresholds are fixed here, not
imported, so a change to the program's constants cannot loosen them.
"""

import hashlib
import math
import re

import numpy as np

__all__ = ["ORACLE_RTOL", "IDENTITY_TOL", "check_report", "check_probe",
           "check_verify", "verify_models", "sha256_of"]

#: Largest relative gap allowed between assembled and oracle regular parts.
ORACLE_RTOL = 1e-8
#: Largest identity-suite residual allowed.
IDENTITY_TOL = 1e-10

FIELDS = ("C", "b", "d", "c0")


def _pairs(data):
    """Nested ``[re, im]`` lists -> float array with a trailing axis of 2."""
    return np.asarray(data, dtype=float)


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def _cantor_set(model_doc):
    """Per-cell indicator of the model's ``Q`` set on its 1-D grid."""
    (lo, hi), = model_doc["grid"]["box"]
    n, = model_doc["grid"]["cells_per_axis"]
    centers = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    mask = np.zeros(n, dtype=bool)
    for a, b in model_doc["Q"]["set"]:
        mask |= (centers > a) & (centers < b)
    return mask


def check_report(model_doc, report_doc, cantor=False):
    """Check one ``compute`` report against the model it came from."""
    errors = []
    coeffs = model_doc["coefficients"]
    for key in FIELDS:
        full = _pairs(coeffs[key])
        reg = _pairs(report_doc["regular"][key])
        sing = _pairs(report_doc["singular"][key])
        if full.shape != reg.shape:
            errors.append("%s_reg has shape %s, model has %s"
                          % (key, reg.shape, full.shape))
        elif not _bitwise_equal(full - reg, sing):
            errors.append("split not bitwise exact: %s - %s_reg != %s_s"
                          % (key, key, key))

    n_funcs = len(model_doc["functions"])
    table = report_doc["oracle_table"]
    if len(table) != n_funcs ** 2:
        errors.append("oracle table has %d entries, expected %d"
                      % (len(table), n_funcs ** 2))
    for entry in table:
        formula = complex(*entry["formula"])
        oracle = complex(*entry["oracle"])
        rel = abs(formula - oracle) / (1.0 + abs(formula))
        if not (rel <= ORACLE_RTOL and entry["rel_err"] <= ORACLE_RTOL):
            errors.append("oracle pair %s: rel err %.3e (reported %.3e) "
                          "above %.0e" % (entry["pair"], rel,
                                          entry["rel_err"], ORACLE_RTOL))

    identity = report_doc["identity_suite"]
    worst = max([identity["max_residual"]]
                + list(identity["residuals"].values()))
    if not worst <= IDENTITY_TOL:
        errors.append("identity residual %.3e above %.0e"
                      % (worst, IDENTITY_TOL))

    if cantor:
        reg = report_doc["regular"]
        for key in ("C", "b", "d"):
            if not np.all(_pairs(reg[key]) == 0.0):
                errors.append("cantor: %s_reg is not exactly 0" % key)
        c0 = _pairs(reg["c0"])
        expect = 2.0 * _cantor_set(model_doc)
        if not (np.array_equal(c0[:, 0], expect) and np.all(c0[:, 1] == 0.0)):
            errors.append("cantor: c0_reg is not exactly 2 * 1_K")
    return errors


def _finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_probe(doc):
    """The probe ran, and its slope and reference are finite."""
    errors = []
    if doc.get("skipped") is not False:
        errors.append("probe skipped")
    for key in ("slope", "reference"):
        if not _finite(doc.get(key)):
            errors.append("probe %s is not finite: %r" % (key, doc.get(key)))
    return errors


_MODELS_LINE = re.compile(r"oracle agreement over (\d+) models")


def verify_models(trials):
    """Oracle models one ``verify --trials`` run cross-checks."""
    return max(1, trials // 20)


def sha256_of(path):
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def check_verify(output, trials):
    """``verify`` cross-checked ``trials // 20`` oracle models."""
    found = _MODELS_LINE.search(output)
    expected = verify_models(trials)
    if found is None:
        return ["verify printed no model count"]
    if int(found.group(1)) != expected:
        return ["verify checked %s models, expected %d"
                % (found.group(1), expected)]
    return []
