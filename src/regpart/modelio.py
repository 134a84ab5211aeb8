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

Reading a model (:func:`parse_model`, :func:`load_model`) never builds
the nested lists of its numeric payloads: ``coefficients.C/b/d/c0``,
``Q.matrix`` and the ``cell_values``/``cell_gradient`` of ``samples``
functions.  The loader scans the bytes for the JSON strings, and the
array that follows a key of one of these names is cut out of the text
when it is a nested array of JSON numbers of the key's depth; ``json``
parses the small document that is left.  When the model is built, each
payload is checked against the shape that the grid declares (its
brackets and commas must be exactly those of that shape, which is
tested before anything of that size is allocated) and read by one numpy
text read into the complex array, with the bits that ``json`` would
give: an integer ``-0`` reads as ``0.0``, and an integer too large for
a float is refused.  Tokens outside the JSON number grammar (``inf``,
``NaN``, ``+1``, ``.5``, ``1.``, ``01``, ``1_0``, two numbers apart by
blanks, ...) are never cut out, so they fail as JSON does.  Every refusal
is a :class:`ParseError` (exit code 3) that names the array, or the JSON
position in the file.  The loaded model keeps the arrays in its ``Q`` and
``functions`` sub-documents, not lists.  In-memory documents given to
:func:`doc_to_model` may hold nested lists wherever a file holds a
payload.

Structural problems (bad JSON, missing keys, wrong shapes) raise
:class:`ParseError`; semantic problems (sector violations, bad grids)
surface as :class:`ValidationError` subclasses from the model layer.
"""

import gc
import json
import math
import re
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


def _complex_field(doc, key, shape, what):
    """The complex array of ``shape`` under ``doc[key]``: a payload cut
    out of a model file, or nested lists of an in-memory document."""
    value = _get(doc, key, (list, _Payload), what)
    where = "%s.%s" % (what, key)
    if isinstance(value, _Payload):
        return value.read(shape, where)
    arr = json_to_complex(value, len(shape), where)
    if arr.shape != shape:
        raise ParseError("%s: expected shape %s, got %s"
                         % (where, shape, arr.shape))
    return arr


# ---------------------------------------------------------------------------
# payload reader

#: Keys whose value is cut out of a model text as a numeric payload, with
#: the depth of its nested lists (the ``[re, im]`` level included).
PAYLOAD_DEPTHS = {b"C": 4, b"b": 3, b"d": 3, b"c0": 2, b"matrix": 4,
                  b"cell_values": 2, b"cell_gradient": 3}

_BLANK = rb"[ \t\n\r]*+"
#: A JSON string, and the colon after it when it is a key.
_STRING = re.compile(rb'"((?:[^"\\]++|\\.)*+)"(' + _BLANK + rb":" + _BLANK
                     + rb")?+", re.DOTALL)
_NUMBER = rb"-?+(?:0|[1-9][0-9]*+)(?:\.[0-9]++)?+(?:[eE][-+]?+[0-9]++)?+"


def _nested_numbers(depth):
    """Pattern of the non-empty JSON arrays nested ``depth`` deep whose
    innermost arrays are pairs of JSON numbers: the arrays
    :func:`json_to_complex` may accept.  The quantifiers are possessive, so
    one match keeps no backtracking state however long the array is."""
    item = (rb"\[" + _BLANK + _NUMBER + _BLANK + rb"," + _BLANK + _NUMBER
            + _BLANK + rb"\]")
    for _ in range(depth - 1):
        item = (rb"\[" + _BLANK + item + rb"(?:" + _BLANK + rb"," + _BLANK
                + item + rb")*+" + _BLANK + rb"\]")
    return item


#: Compiled on first use (``re`` caches them): compiling all three takes
#: about 6 ms, which a process that loads no model should not pay.
_NESTED = {depth: _nested_numbers(depth)
           for depth in set(PAYLOAD_DEPTHS.values())}
_NOT_STRUCTURE = b"0123456789.eE+- \t\n\r"
_BRACKETS_TO_BLANKS = bytes.maketrans(b"[]", b"  ")
_TOKEN = re.compile(rb"[^, \t\n\r]++")
#: An integer ``-0``, or (harmlessly) an exponent ``e-0``.
_MINUS_ZERO = re.compile(rb"-0(?![.eE0-9])")


def _skeleton(shape):
    """The brackets and commas of a nested array of ``shape``."""
    text = b""
    for size in reversed(shape):
        text = b"[" + (text + b",") * (size - 1) + text + b"]"
    return text


def _skeleton_length(shape):
    length = 0
    for size in reversed(shape):
        length = 2 + size * length + size - 1
    return length


class _Payload:
    """A numeric array left as text by :func:`_loads_model`.

    ``text[start:end]`` is a nested array of JSON numbers.  ``slot`` is the
    ``(object, key)`` that holds the payload in the parsed document (``None``
    when a later duplicate key replaced it); a read puts the array there in
    its place.
    """

    __slots__ = ("text", "start", "end", "slot")

    def __init__(self, text, start, end):
        self.text, self.start, self.end = text, start, end
        self.slot = None

    def read(self, shape, what):
        """The complex array of ``shape``; the brackets and commas must be
        those of ``shape + (2,)``, checked before any number is read."""
        full = shape + (2,)
        found = self.text[self.start:self.end].translate(None, _NOT_STRUCTURE)
        if len(found) != _skeleton_length(full) or found != _skeleton(full):
            raise ParseError("%s: expected an array of shape %s of [re, im] "
                             "pairs" % (what, shape))
        numbers = self.text[self.start:self.end].translate(_BRACKETS_TO_BLANKS)
        flat = np.fromstring(numbers, dtype=float, count=2 * math.prod(shape),
                             sep=",")
        if _MINUS_ZERO.search(numbers) or not np.isfinite(flat).all():
            _read_integers(numbers, flat, what)
        arr = flat.view(complex).reshape(shape)
        node, key = self.slot
        node[key] = arr
        return arr

    def settle(self):
        """Leave the payload's slot without a reference to the text: a
        payload that no reader took becomes the lists ``json`` gives."""
        if self.slot is not None and self.slot[0][self.slot[1]] is self:
            node, key = self.slot
            node[key] = json.loads(self.text[self.start:self.end])


def _read_integers(numbers, flat, what):
    """Give each integer token of ``numbers`` the value ``json`` reads:
    ``-0`` is ``0.0``, and an integer too large for a float is refused."""
    for i, token in enumerate(_TOKEN.findall(numbers)):
        if token.lstrip(b"-").isdigit():
            try:
                flat[i] = float(int(token))
            except (OverflowError, ValueError) as exc:
                raise ParseError("%s: %s" % (what, exc)) from None


def _loads_model(text):
    """Parse model ``text`` (bytes) with its payloads cut out.

    Returns the document, in which each cut payload is a :class:`_Payload`,
    and the list of payloads.  The cut spans are valid JSON values, and
    each is replaced by a string no string of the text can equal (a run of
    NUL characters longer than any in the text, then the payload's index),
    so the text is valid JSON exactly when what is left is.
    """
    k = 1
    # the search for the escape is slow over digits; a backslash is fast
    if b"\\" in text:
        while b"\\u0000" * k in text:
            k *= 2
    pieces, payloads, shifts = [], [], []
    pos = done = skeleton_len = 0
    while True:
        string = _STRING.search(text, pos)
        if string is None:
            break
        pos = string.end()
        if string.group(2) is None:
            continue
        key = string.group(1)
        if b"\\" in key:
            try:
                key = json.loads(b'"%s"' % key).encode("utf-8")
            except ValueError:
                continue
        depth = PAYLOAD_DEPTHS.get(key)
        array = depth and re.compile(_NESTED[depth]).match(text, pos)
        if not array:
            continue
        marker = b'"%s%d"' % (b"\\u0000" * k, len(payloads))
        pieces += (text[done:array.start()], marker)
        skeleton_len += array.start() - done + len(marker)
        shifts.append((skeleton_len, array.end() - skeleton_len))
        payloads.append(_Payload(text, array.start(), array.end()))
        pos = done = array.end()
    pieces.append(text[done:])

    def source_offset(at):
        """Offset in ``text`` of byte ``at`` of the text that was parsed."""
        shift = 0
        for end, after in shifts:
            if end > at:
                break
            shift = after
        return at + shift

    prefix = "\0" * k

    def take_payloads(pairs):
        obj = dict(pairs)
        for key, value in obj.items():
            if type(value) is str and value.startswith(prefix):
                payload = payloads[int(value[k:])]
                payload.slot = obj, key
                obj[key] = payload
        return obj

    skeleton = b"".join(pieces)
    try:
        doc = json.loads(skeleton.decode("utf-8"),
                         parse_constant=_reject_constant,
                         object_pairs_hook=take_payloads)
    except UnicodeDecodeError as exc:
        raise ParseError("model text is not UTF-8 at byte %d"
                         % source_offset(exc.start)) from None
    except json.JSONDecodeError as exc:
        at = source_offset(len(exc.doc[:exc.pos].encode("utf-8")))
        head = text[:at].decode("utf-8")
        raise ParseError("invalid JSON: %s" % json.JSONDecodeError(
            exc.msg, head, len(head))) from None
    except (ValueError, RecursionError) as exc:
        raise ParseError("invalid JSON: %s" % exc) from None
    return doc, payloads


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
    report, and the collector's passes over them while it is built would
    double the parse time."""
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


def _read_file(path):
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from None


def load_doc(path):
    return loads_doc(_read_file(path).decode("utf-8"))


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
        return _complex_field(spec, "matrix",
                              (grid.n_cells, grid.dim, grid.dim), "Q")
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
        values = _complex_field(spec, "cell_values", (grid.n_cells,), where)
        grads = _complex_field(spec, "cell_gradient",
                               (grid.n_cells, grid.dim), where)
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
    """A parsed, validated, fully expanded model file.

    ``q_spec`` and ``func_specs`` are the file's ``Q`` and ``functions``
    sub-documents, for :func:`model_to_doc`; a payload read from a file is
    held there as the array that the model uses.
    """

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
    c_field = _complex_field(coef, "C", (n, d, d), "coefficients")
    b_field = _complex_field(coef, "b", (n, d), "coefficients")
    d_field = _complex_field(coef, "d", (n, d), "coefficients")
    c0_field = _complex_field(coef, "c0", (n,), "coefficients")
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
    """The model in ``text`` (bytes, or str encoded as UTF-8)."""
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    doc, payloads = _loads_model(text)
    model = doc_to_model(doc)
    for payload in payloads:
        payload.settle()
    return model


def load_model(path):
    return parse_model(_read_file(path))


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
