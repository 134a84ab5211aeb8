"""Model-file schema: canonical JSON encoding, parsing, expansion.

A model file is a single JSON document with top-level keys
``schema_version``, ``grid``, ``coefficients``, ``theta``, ``K_bound``,
``Q`` and ``functions``.  Complex entries are stored as ``[re, im]``
pairs, so a complex array of shape ``s`` appears as a nested list of
shape ``s + (2,)``.  The singular-direction field ``Q`` is either a dense
per-cell stack ``{"matrix": ...}`` or, on one-dimensional grids, the
indicator shorthand ``{"set": [[a, b], ...], "scale": "identity"}``
expanded at load time to ``1_set * I``.  Functions are named generator
specs (``plateau``, ``bump``, ``plane_wave``) or raw ``samples``.

Writing is canonical: sorted keys, minimal separators, one trailing
newline.  Re-encoding a parsed canonical file reproduces it byte for
byte; the ``Q`` and ``functions`` sub-documents are passed through
verbatim while the numeric payload is re-encoded from the arrays.

A document may carry complex ndarrays as leaves, as the reports do for
their coefficient fields.  :func:`dumps_canonical` writes such a leaf as
the nested ``[re, im]`` lists that :func:`complex_to_json` would give,
byte for byte, without building those lists: every distinct float is
formatted once and the array's text is filled in one step.

Structural problems (bad JSON, missing keys, wrong shapes) raise
:class:`ParseError`; semantic problems (sector violations, bad grids)
surface as :class:`ValidationError` subclasses from the model layer.
"""

import gc
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ParseError, ValidationError
from .grid import GridSpec, TestFunction
from .model import CoefficientSet
from .regularize import indicator_projection, interval_mask

__all__ = [
    "SCHEMA_VERSION",
    "LoadedModel",
    "complex_to_json",
    "json_to_complex",
    "complex_pair",
    "dumps_canonical",
    "write_doc",
    "load_doc",
    "parse_model",
    "load_model",
    "doc_to_model",
    "model_to_doc",
    "make_model_doc",
    "q_matrix_spec",
    "q_indicator_spec",
    "expand_q_spec",
    "expand_function_spec",
]

SCHEMA_VERSION = 1

#: JSON names of the value types a parsed document holds.
JSON_NAMES = {dict: "object", list: "array", str: "string", int: "number",
              float: "number", bool: "boolean", type(None): "null"}


# ---------------------------------------------------------------------------
# primitive encoding


def complex_to_json(arr):
    """Complex array -> nested lists with innermost ``[re, im]`` pairs."""
    a = np.asarray(arr, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def complex_pair(z):
    """Single complex scalar -> ``[re, im]``."""
    z = complex(z)
    return [z.real, z.imag]


def json_to_complex(data, ndim, what):
    """Inverse of :func:`complex_to_json` for a known array rank."""
    a = _numbers(data, ndim + 1, what)
    if a.shape[-1] != 2:
        raise ParseError(
            "%s: expected rank-%d array of [re, im] pairs, got shape %s"
            % (what, ndim, a.shape))
    # Componentwise assignment keeps signed zeros intact, which the
    # byte-identical round trip relies on.
    out = np.empty(a.shape[:-1], dtype=complex)
    out.real = a[..., 0]
    out.imag = a[..., 1]
    return out


def _numbers(data, ndim, what):
    """A rank-``ndim`` float array from nested lists of JSON numbers.

    The lists are read one level at a time: each level must hold lists of
    one length, and the last one JSON numbers, so a string that spells a
    number, ``true`` or ``null`` is refused where a cast would read it.
    """
    level, shape = [data], []
    for _ in range(ndim):
        kinds = set(map(type, level)) - {list}
        if kinds:
            raise ParseError("%s: expected rank-%d array, found %s at depth "
                             "%d" % (what, ndim, _json_names(kinds),
                                     len(shape)))
        lengths = set(map(len, level))
        if len(lengths) > 1:
            raise ParseError("%s: ragged array, lengths %s at depth %d"
                             % (what, sorted(lengths), len(shape)))
        if not lengths:
            raise ParseError("%s: expected rank-%d array, got shape %s"
                             % (what, ndim, tuple(shape)))
        shape.append(lengths.pop())
        level = list(chain.from_iterable(level))
    kinds = set(map(type, level)) - {float, int}
    if kinds:
        raise ParseError("%s: entries must be JSON numbers, found %s"
                         % (what, _json_names(kinds)))
    try:
        return np.array(level, dtype=float).reshape(shape)
    except OverflowError as exc:
        raise ParseError("%s: %s" % (what, exc)) from None


def _json_names(kinds):
    return ", ".join(sorted(JSON_NAMES.get(k, k.__name__) for k in kinds))


def _get(doc, key, kinds, what):
    if not isinstance(doc, dict):
        raise ParseError("%s: expected an object" % what)
    if key not in doc:
        raise ParseError("%s: missing key '%s'" % (what, key))
    value = doc[key]
    # JSON true/false are Python ints too; no key takes a boolean
    if kinds is not None and (not isinstance(value, kinds)
                              or isinstance(value, bool)):
        raise ParseError("%s: key '%s' has type %s"
                         % (what, key, type(value).__name__))
    return value


def _number(doc, key, what):
    return float(_get(doc, key, (int, float), what))


# ---------------------------------------------------------------------------
# canonical serialization


def _non_finite(reason="Out of range float values are not JSON compliant"):
    return ValidationError("non-finite value in document: %s" % reason)


def _array_text(arr):
    """``json.dumps(complex_to_json(arr))`` with tight separators, written
    from the array: each distinct float bit pattern is formatted once with
    ``float.__repr__`` (so ``-0.0`` and ``0.0`` stay apart) and one ``%``
    fill puts them into the nested-list template of the array's shape."""
    a = np.asarray(arr, dtype=complex, order="C")
    flat = a.reshape(-1).view(float)
    if not np.all(np.isfinite(flat)):
        raise _non_finite()
    bits, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
    words = np.array(list(map(float.__repr__, bits.view(float).tolist())),
                     dtype=object)
    template = "[%s,%s]"
    for size in reversed(a.shape):
        template = "[" + ",".join([template] * size) + "]"
    return template % tuple(words[inverse])


def _encode(doc, marker):
    """Canonical ``json`` text of ``doc`` with each ndarray leaf written as
    the string ``marker``; returns the text and the arrays in text order."""
    arrays = []

    def stash(obj):
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            return marker
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(obj).__name__)

    try:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                          allow_nan=False, default=stash)
    except ValueError as exc:
        raise _non_finite(exc) from None
    return text, arrays


def dumps_canonical(doc):
    """Canonical JSON text: sorted keys, tight separators, newline end.

    ndarray leaves are written as complex arrays by :func:`_array_text`;
    everything else goes through the ``json`` encoder, which sees a marker
    string in place of each array.  The array texts are spliced in at the
    markers.  A marker is a run of ``k`` NUL characters; when the text
    holds more markers than there are arrays, a string of the document
    collided with it, so ``k`` doubles and the document is encoded again.
    """
    k = 1
    while True:
        text, arrays = _encode(doc, "\0" * k)
        if not arrays:
            return text + "\n"
        parts = text.split('"%s"' % ("\\u0000" * k))
        if len(parts) == len(arrays) + 1:
            break
        k *= 2
    out = [parts[0]]
    for arr, part in zip(arrays, parts[1:]):
        out += (_array_text(arr), part)
    out.append("\n")
    return "".join(out)


def write_doc(path, doc):
    text = dumps_canonical(doc)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text


def _reject_constant(token):
    raise ParseError("non-finite literal %r is not allowed" % token)


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector.  A parsed document is made of
    acyclic lists and dicts, hundreds of thousands of them for a large
    model, and the collector's passes over them, while it is built and
    while it is read, would double the load time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def loads_doc(text):
    """Parse JSON text, with the cyclic collector paused."""
    with _gc_paused():
        try:
            return json.loads(text, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise ParseError("invalid JSON: %s" % exc) from None


def load_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from None
    return loads_doc(text)


# ---------------------------------------------------------------------------
# grid


def grid_to_doc(grid):
    return {
        "dim": int(grid.dim),
        "box": [[float(lo), float(hi)] for lo, hi in grid.box],
        "cells_per_axis": [int(c) for c in grid.cells_per_axis],
    }


def doc_to_grid(doc):
    dim = _get(doc, "dim", int, "grid")
    box = _get(doc, "box", list, "grid")
    cells = _get(doc, "cells_per_axis", list, "grid")
    box_arr = _numbers(box, 2, "grid.box")
    if box_arr.shape != (dim, 2):
        raise ParseError("grid.box: expected shape (%d, 2), got %s"
                         % (dim, box_arr.shape))
    if len(cells) != dim or not all(isinstance(c, int) and not
                                    isinstance(c, bool) for c in cells):
        raise ParseError("grid.cells_per_axis: expected %d integers" % dim)
    return GridSpec(dim=dim, box=tuple(map(tuple, box_arr.tolist())),
                    cells_per_axis=tuple(cells))


# ---------------------------------------------------------------------------
# Q field


def q_matrix_spec(q_field):
    return {"matrix": complex_to_json(q_field)}


def q_indicator_spec(intervals):
    return {"set": [[float(a), float(b)] for a, b in intervals],
            "scale": "identity"}


def expand_q_spec(spec, grid):
    """Dense per-cell projection stack from either Q encoding."""
    if not isinstance(spec, dict):
        raise ParseError("Q: expected an object")
    if "matrix" in spec:
        q = json_to_complex(spec["matrix"], 3, "Q.matrix")
        if q.shape != (grid.n_cells, grid.dim, grid.dim):
            raise ParseError("Q.matrix: expected shape %s, got %s"
                             % ((grid.n_cells, grid.dim, grid.dim), q.shape))
        return q
    if "set" in spec:
        if grid.dim != 1:
            raise ParseError("Q indicator shorthand requires a 1-D grid")
        if spec.get("scale") != "identity":
            raise ParseError("Q.scale: only 'identity' is supported")
        # [] is the empty set (Q = 0), as q_indicator_spec([]) writes it
        raw = spec["set"]
        intervals = np.empty((0, 2)) if isinstance(raw, list) and not raw \
            else _numbers(raw, 2, "Q.set")
        if intervals.shape[1] != 2:
            raise ParseError("Q.set: expected a list of [a, b] intervals")
        return indicator_projection(grid, interval_mask(grid, intervals))
    raise ParseError("Q: expected key 'matrix' or 'set'")


# ---------------------------------------------------------------------------
# functions


def expand_function_spec(spec, grid):
    """Build one named TestFunction from its generator spec."""
    kind = _get(spec, "kind", str, "function")
    name = _get(spec, "name", str, "function")
    where = "function '%s'" % name
    if kind == "samples":
        values = json_to_complex(_get(spec, "cell_values", list, where),
                                 1, where + ".cell_values")
        grads = json_to_complex(_get(spec, "cell_gradient", list, where),
                                2, where + ".cell_gradient")
        if values.shape != (grid.n_cells,):
            raise ParseError(where + ": cell_values length mismatch")
        if grads.shape != (grid.n_cells, grid.dim):
            raise ParseError(where + ": cell_gradient shape mismatch")
        return name, TestFunction(grid=grid, cell_values=values,
                                  cell_gradient=grads)
    if kind == "plateau":
        flat = _numbers(_get(spec, "flat", list, where), 1,
                        where + ".flat")
        if flat.shape != (2,):
            raise ParseError(where + ".flat: expected [lo, hi]")
        amp = _number(spec, "amplitude", where) if "amplitude" in spec \
            else 1.0
        return name, TestFunction.plateau_1d(grid, flat[0], flat[1],
                                             amplitude=amp)
    if kind == "bump":
        center = _numbers(_get(spec, "center", list, where), 1,
                          where + ".center")
        width = _numbers(_get(spec, "width", list, where), 1,
                         where + ".width")
        amp = _number(spec, "amplitude", where) if "amplitude" in spec \
            else 1.0
        return name, TestFunction.bump(grid, center, width, amplitude=amp)
    if kind == "plane_wave":
        lam = _number(spec, "lambda", where)
        xi = _numbers(_get(spec, "xi", list, where), 1, where + ".xi")
        if xi.shape != (grid.dim,):
            raise ParseError(where + ".xi: expected %d components" % grid.dim)
        tau_spec = dict(_get(spec, "tau", dict, where))
        tau_spec.setdefault("name", name + ".tau")
        _, tau = expand_function_spec(tau_spec, grid)
        return name, tau.modulated(lam, xi)
    raise ParseError(where + ": unknown kind %r" % kind)


# ---------------------------------------------------------------------------
# whole model


@dataclass
class LoadedModel:
    """A parsed, validated, fully expanded model file."""

    grid: GridSpec
    coeffs: CoefficientSet
    q_field: np.ndarray
    funcs: dict
    q_spec: dict = field(repr=False, default=None)
    func_specs: list = field(repr=False, default=None)


def doc_to_model(doc, validate=True):
    version = _get(doc, "schema_version", int, "model")
    if version != SCHEMA_VERSION:
        raise ParseError("unsupported schema_version %r" % version)
    grid = doc_to_grid(_get(doc, "grid", dict, "model"))
    coef = _get(doc, "coefficients", dict, "model")
    n, d = grid.n_cells, grid.dim
    c_field = json_to_complex(_get(coef, "C", list, "coefficients"), 3,
                              "coefficients.C")
    b_field = json_to_complex(_get(coef, "b", list, "coefficients"), 2,
                              "coefficients.b")
    d_field = json_to_complex(_get(coef, "d", list, "coefficients"), 2,
                              "coefficients.d")
    c0_field = json_to_complex(_get(coef, "c0", list, "coefficients"), 1,
                               "coefficients.c0")
    for name, arr, shape in (("C", c_field, (n, d, d)),
                             ("b", b_field, (n, d)),
                             ("d", d_field, (n, d)),
                             ("c0", c0_field, (n,))):
        if arr.shape != shape:
            raise ParseError("coefficients.%s: expected shape %s, got %s"
                             % (name, shape, arr.shape))
    theta = _number(doc, "theta", "model")
    k_bound = _number(doc, "K_bound", "model")
    coeffs = CoefficientSet(grid=grid, C_field=c_field, b_field=b_field,
                            d_field=d_field, c0_field=c0_field,
                            theta=theta, K_bound=k_bound)
    if validate:
        coeffs.validate()
    q_spec = _get(doc, "Q", dict, "model")
    q_field = expand_q_spec(q_spec, grid)
    func_specs = _get(doc, "functions", list, "model")
    funcs = {}
    for spec in func_specs:
        name, func = expand_function_spec(spec, grid)
        if name in funcs:
            raise ParseError("duplicate function name '%s'" % name)
        funcs[name] = func
    return LoadedModel(grid=grid, coeffs=coeffs, q_field=q_field,
                       funcs=funcs, q_spec=q_spec, func_specs=func_specs)


def parse_model(text):
    # the document is dropped when doc_to_model returns, before the
    # collector resumes
    with _gc_paused():
        return doc_to_model(loads_doc(text))


def load_model(path):
    with _gc_paused():
        return doc_to_model(load_doc(path))


def make_model_doc(coeffs, q_spec, func_specs):
    """Assemble the canonical document for a coefficient set.

    ``q_spec``/``func_specs`` are schema sub-documents (see
    :func:`q_matrix_spec`, :func:`q_indicator_spec`).
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "grid": grid_to_doc(coeffs.grid),
        "coefficients": {
            "C": complex_to_json(coeffs.C_field),
            "b": complex_to_json(coeffs.b_field),
            "d": complex_to_json(coeffs.d_field),
            "c0": complex_to_json(coeffs.c0_field),
        },
        "theta": float(coeffs.theta),
        "K_bound": float(coeffs.K_bound),
        "Q": q_spec,
        "functions": list(func_specs),
    }


def model_to_doc(model):
    """Re-encode a loaded model; canonical round trips are byte-stable."""
    q_spec = model.q_spec if model.q_spec is not None \
        else q_matrix_spec(model.q_field)
    func_specs = model.func_specs
    if func_specs is None:
        func_specs = [
            {"name": name, "kind": "samples",
             "cell_values": complex_to_json(f.cell_values),
             "cell_gradient": complex_to_json(f.cell_gradient)}
            for name, f in model.funcs.items()
        ]
    return make_model_doc(model.coeffs, q_spec, func_specs)
