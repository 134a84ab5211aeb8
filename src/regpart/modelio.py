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

A document may carry complex arrays as leaves: ndarrays, as the model
documents of :func:`make_model_doc` do for their coefficient, ``Q`` and
``samples`` fields, or the :class:`~regpart.grid.DeltaField` s of a
split, as the reports do.  :func:`dumps_canonical` writes such a leaf as
the nested ``[re, im]`` lists that :func:`complex_to_json` would give,
byte for byte, without building those lists: the leaf is written in
pieces of whole rows that hold at most ``CELL_CHUNK`` floats, every
distinct float of a piece is formatted once and the piece's text is
filled in one step.  A run of rows equal bit for bit is formatted once,
its first row, and written as that row's text repeated (see
:func:`_array_pieces`).  :func:`write_doc` and :func:`write_canonical` write
the same text piece by piece and never join it; every leaf is checked to
be finite before the first byte goes out.  :func:`write_doc` writes a
new or replaceable file into a temporary file beside it and renames that
over it, so a refused document or a failed write leaves no partial file.

Reading a model (:func:`parse_model`, :func:`load_model`) never builds
the nested lists of its numeric payloads: ``coefficients.C/b/d/c0``,
``Q.matrix`` and the ``cell_values``/``cell_gradient`` of ``samples``
functions.  The loader scans the bytes for the JSON strings, and the
array that follows a key of one of these names is cut out of the text
when it is a nested array of JSON numbers of the key's depth; ``json``
parses the small document that is left.  When the model is built, each
payload is cut at commas into pieces of a bounded size.  The brackets and
commas of every piece must be exactly those of that part of the shape
that the grid declares, which is tested before anything of that size is
allocated; then each piece is read by one numpy text read into the
complex array, with the bits that ``json`` would give: an integer ``-0``
reads as ``0.0``, and an integer too large for a float is refused.
Tokens outside the JSON number grammar (``inf``, ``NaN``, ``+1``,
``.5``, ``1.``, ``01``, ``1_0``, two numbers apart by blanks, ...) are
never cut out, so they fail as JSON does.  Every refusal
is a :class:`ParseError` (exit code 3) that names the array, or the JSON
position in the file.  A payload drops the text once it is read, and the
loader keeps no other reference to it, so the text is freed when the last
payload is read.  The loaded model keeps the arrays in its ``Q`` and
``functions`` sub-documents, not lists.  In-memory documents given to
:func:`doc_to_model` may hold complex array leaves or nested lists
wherever a file holds a payload.

Structural problems (bad JSON, missing keys, wrong shapes) raise
:class:`ParseError`; semantic problems (non-finite data, bad grids)
surface as :class:`ValidationError` subclasses from the model layer.  The
sector gate (:func:`~regpart.model.derive_fields`) runs where the model
is factored, in ``compute`` and ``probe``, not at load.
"""

import functools
import json
import math
import os
import re
import stat
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ParseError, ValidationError
from .grid import CELL_CHUNK, DeltaField, GridSpec, TestFunction
from .model import CoefficientSet
from .regularize import indicator_projection, interval_mask

__all__ = [
    "SCHEMA_VERSION",
    "LoadedModel",
    "complex_to_json",
    "json_to_complex",
    "complex_pair",
    "dumps_canonical",
    "write_canonical",
    "write_doc",
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
    out of a model file, or an array leaf or nested lists of an in-memory
    document."""
    value = _get(doc, key, (list, _Payload, np.ndarray), what)
    where = "%s.%s" % (what, key)
    if isinstance(value, _Payload):
        return value.read(shape, where)
    if isinstance(value, np.ndarray):
        try:
            arr = np.asarray(value, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise ParseError("%s: %s" % (where, exc)) from None
    else:
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


def _skeleton_part(shape, lo, hi):
    """``_skeleton(shape)[lo:hi]``, made from one period of it: the
    skeleton of one row and the comma after it.  The skeleton is ``[``,
    that period ``shape[0]`` times, and ``]`` in place of the last
    comma."""
    period = _skeleton(shape[1:]) + b","
    first = max(lo - 1, 0) // len(period)
    last = min(-(-(hi - 1) // len(period)), shape[0])
    text = period * (last - first)
    if last == shape[0]:
        text = text[:-1] + b"]"
    at = 1 + first * len(period)  # where ``text`` starts in the skeleton
    if lo == 0:
        text, at = b"[" + text, 0
    return text[lo - at:hi - at]


class _Payload:
    """A numeric array left as text by :func:`_loads_model`.

    ``text[start:end]`` is a nested array of JSON numbers.  ``slot`` is the
    ``(object, key)`` that holds the payload in the parsed document (``None``
    when a later duplicate key replaced it); a read puts the array there in
    its place.  A read or settled payload drops its reference to the text.
    """

    __slots__ = ("text", "start", "end", "slot")

    def __init__(self, text, start, end):
        self.text, self.start, self.end = text, start, end
        self.slot = None

    def read(self, shape, what):
        """The complex array of ``shape``; the brackets and commas must be
        those of ``shape + (2,)``.  The text is cut at commas into pieces
        of at most ``8 * CELL_CHUNK`` bytes.  The brackets and commas of
        each piece are checked against that part of the skeleton, all of
        them before anything of the array's size is allocated; then the
        numbers are read piece by piece.  No slice or copy of the whole
        payload is made, and the payload then drops the text."""
        full = shape + (2,)
        text, end = self.text, self.end
        pieces, at = [], 0
        pos = self.start
        while pos < end:
            stop = pos + 8 * CELL_CHUNK
            cut = text.rfind(b",", pos, stop) if stop < end else end
            if cut < 0:  # a number longer than the piece
                cut = text.find(b",", stop, end)
                cut = end if cut < 0 else cut
            frag = text[pos:cut].translate(None, _NOT_STRUCTURE)
            if cut < end:
                frag += b","
            if frag != _skeleton_part(full, at, at + len(frag)):
                raise _misshapen(what, shape)
            at += len(frag)
            # every comma stands between two numbers
            pieces.append((pos, cut, frag.count(b",") + (cut == end)))
            pos = cut + 1
        if at != _skeleton_length(full):
            raise _misshapen(what, shape)
        flat = np.empty(2 * math.prod(shape))
        done = 0
        for pos, cut, count in pieces:
            numbers = text[pos:cut].translate(_BRACKETS_TO_BLANKS)
            part = np.fromstring(numbers, dtype=float, count=count, sep=",")
            if _MINUS_ZERO.search(numbers) or not np.isfinite(part).all():
                _read_integers(numbers, part, what)
            flat[done:done + count] = part
            done += count
        arr = flat.view(complex).reshape(shape)
        node, key = self.slot
        node[key] = arr
        self.text = None
        return arr

    def settle(self):
        """Leave the payload's slot without a reference to the text: a
        payload that no reader took becomes the lists ``json`` gives."""
        if self.slot is not None and self.slot[0][self.slot[1]] is self:
            node, key = self.slot
            node[key] = json.loads(self.text[self.start:self.end])
        self.text = None


def _misshapen(what, shape):
    return ParseError("%s: expected an array of shape %s of [re, im] pairs"
                      % (what, shape))


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


def _array_text(arr, template=None):
    """``json.dumps(complex_to_json(arr))`` with tight separators, written
    from a finite array: each distinct float bit pattern is formatted once
    with ``float.__repr__`` (so ``-0.0`` and ``0.0`` stay apart) and one
    ``%`` fill puts them into the nested-list template of the array's
    shape, or into ``template``, which holds a ``%s`` for each float."""
    a = np.asarray(arr, dtype=complex, order="C")
    flat = a.reshape(-1).view(np.uint64)
    order = flat.argsort()
    bits = flat[order]
    first = np.empty(len(bits), dtype=bool)  # of each distinct pattern
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    inverse = np.empty(len(bits), dtype=np.intp)
    inverse[order] = first.cumsum() - 1
    words = np.array(list(map(float.__repr__,
                              bits[first].view(float).tolist())),
                     dtype=object)
    if template is None:
        template = _template(a.shape)
    return template % tuple(words.take(inverse).tolist())


@functools.lru_cache(maxsize=16)
def _template(shape):
    """The nested-list text of a complex array of ``shape`` with ``%s`` in
    place of each float.  The pieces of one leaf share their shape but for
    the last, the heads of runs take the template of one row, and a piece
    holds at most ``CELL_CHUNK`` floats, so a few small templates are
    kept."""
    template = "[%s,%s]"
    for size in reversed(shape):
        template = "[" + ",".join([template] * size) + "]"
    return template


@functools.lru_cache(maxsize=64)
def _row_pieces(shape):
    """Slices of the leading axis of an array leaf of ``shape`` that cover
    it in order, each of as many rows as hold at most ``CELL_CHUNK``
    floats, and of one row when a row alone holds more (a 0-d array is the
    one piece ``()``)."""
    if not shape:
        return ((),)
    step = max(1, CELL_CHUNK // max(1, 2 * math.prod(shape[1:])))
    return tuple(slice(lo, lo + step) for lo in range(0, shape[0], step))


def _array_pieces(arr):
    """The text of :func:`_array_text` for an array leaf, an ndarray or a
    :class:`~regpart.grid.DeltaField`, in pieces of the rows of one
    :func:`_row_pieces` slice each; a row that alone holds more than
    ``CELL_CHUNK`` floats is written in pieces of its own.  No piece holds
    the whole array, and a delta leaf is made one slice of rows at a time.

    The run rule: rows equal bit for bit to the row before them (their
    ``uint64`` views, so a ``-0.0`` row and a ``0.0`` row differ) repeat
    its text, across slices too.  The first row of every run that starts
    in a slice is formatted, all of them in one :func:`_array_text` fill;
    a slice in which no row repeats the one before is that one fill of
    its rows."""
    if arr.ndim == 0:
        yield _array_text(arr)
        return
    if 2 * math.prod(arr.shape[1:]) > CELL_CHUNK:
        yield "["
        for k, rows in enumerate(_row_pieces(arr.shape)):
            if k:
                yield ","
            yield from _array_pieces(arr[rows][0])
        yield "]"
        return
    # a row's text ends in ``]`` once per axis, and only a row's does
    cut = "]" * arr.ndim + ","
    pieces = _row_pieces(arr.shape)
    last = None  # the bits of the last row written
    for k, rows in enumerate(pieces):
        block = np.asarray(arr[rows], dtype=complex, order="C")
        bits = block.view(np.uint64).reshape(len(block), -1)
        new = np.empty(len(block), dtype=bool)
        new[0] = last is None or (bits[0] != last).any()
        np.logical_or.reduce(bits[1:] != bits[:-1], axis=1, out=new[1:])
        last = bits[-1]
        starts = new.nonzero()[0]
        if len(starts) == len(block):
            body = _array_text(block)[1:-1]
        else:
            body = _runs_text(block, starts, cut, body if k else None)
        yield ("," if k else "[") + body + (
            "]" if k == len(pieces) - 1 else "")
    if not pieces:
        yield "[]"


def _runs_text(block, starts, cut, before):
    """The text of the rows of ``block``, less its brackets, where each run
    of equal rows starts at one of ``starts``, and the rows ahead of the
    first repeat the last row of ``before``, the text of the piece before.
    One fill formats the first row of each run, with a NUL after each
    that repeats; the fill is cut at the NULs and a repeat is written as
    the text of the row before it."""
    lead = starts[0] if len(starts) else len(block)
    texts = []
    if lead:
        row = before.rpartition(cut)[2]
        texts += (row, ("," + row) * (lead - 1))
    if not len(starts):
        return "".join(texts)
    counts = np.empty(len(starts), dtype=np.intp)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = len(block) - starts[-1]
    repeats = (counts > 1).nonzero()[0]
    heads = [_template(block.shape[1:])] * len(starts)
    for j in repeats.tolist():
        heads[j] += "\0"
    parts = _array_text(block[starts], ",".join(heads)).split("\0")
    if lead:
        texts.append(",")
    for part, count in zip(parts, counts[repeats].tolist()):
        row = part.rpartition(cut)[2].lstrip(",")
        texts += (part, ("," + row) * (count - 1))
    texts.append(parts[-1])
    return "".join(texts)


def _finite(arr):
    """Whether every entry of the array leaf ``arr`` is finite, checked one
    :func:`_row_pieces` slice at a time.  A delta field is checked in its
    base and its patched rows, and row by row only when they are not
    finite."""
    parts = (arr.base, arr.values) if isinstance(arr, DeltaField) else (arr,)
    if all(np.isfinite(np.asarray(part[rows], dtype=complex)).all()
           for part in parts for rows in _row_pieces(part.shape)):
        return True
    return isinstance(arr, DeltaField) and all(
        np.isfinite(arr[rows]).all() for rows in _row_pieces(arr.shape))


def _encode(doc, marker):
    """Canonical ``json`` text of ``doc`` with each array leaf written as
    the string ``marker``; returns the text and the arrays in text order."""
    arrays = []

    def stash(obj):
        if isinstance(obj, (np.ndarray, DeltaField)):
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


def _canonical_pieces(doc):
    """The canonical text of ``doc`` as an iterator of strings.

    Array leaves (ndarrays and :class:`~regpart.grid.DeltaField` s) are
    written as complex arrays by :func:`_array_pieces`;
    everything else goes through the ``json`` encoder, which sees a marker
    string in place of each array.  The array texts are spliced in at the
    markers.  A marker is a run of ``k`` NUL characters; when the text
    holds more markers than there are arrays, a string of the document
    collided with it, so ``k`` doubles and the document is encoded again.
    Every leaf is checked to be finite before the first piece is given,
    so a refused document yields nothing.
    """
    k = 1
    while True:
        text, arrays = _encode(doc, "\0" * k)
        if not arrays:
            yield text + "\n"
            return
        parts = text.split('"%s"' % ("\\u0000" * k))
        if len(parts) == len(arrays) + 1:
            break
        k *= 2
    if not all(map(_finite, arrays)):
        raise _non_finite()
    yield parts[0]
    for arr, part in zip(arrays, parts[1:]):
        yield from _array_pieces(arr)
        yield part
    yield "\n"


def dumps_canonical(doc):
    """Canonical JSON text: sorted keys, tight separators, newline end.

    Array leaves are written as complex arrays, byte for byte as
    :func:`complex_to_json` lists would be (see :func:`_canonical_pieces`).
    """
    return "".join(_canonical_pieces(doc))


def write_canonical(handle, doc):
    """Write the text of :func:`dumps_canonical` to the text ``handle``
    piece by piece, never holding the whole document; nothing is written
    when a leaf is not finite."""
    handle.writelines(_canonical_pieces(doc))


def write_doc(path, doc):
    """Write the canonical text of ``doc`` to ``path``.

    A new file, or an existing regular file that it and its directory let
    be written, is written atomically: the text goes piece by piece into a
    new temporary file in the target's directory, which takes the
    target's permission bits and then replaces it.  A refused document (a
    leaf that is not finite) or a failed write leaves no partial file and
    an existing ``path`` untouched.  Any other existing target
    (``/dev/null``, a pipe, a file in a directory that cannot be written,
    a file that cannot be written) is opened and written in place, as
    :func:`open` allows, once the document has passed its checks.
    """
    pieces = _canonical_pieces(doc)
    # the checks run before the first piece comes, and before any file
    pieces = chain([next(pieces)], pieces)
    # through a symbolic link, the file it names is written
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not (
            stat.S_ISREG(mode) and os.access(target, os.W_OK)
            and os.access(directory, os.W_OK | os.X_OK)):
        with open(target, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
        return
    tmp = os.path.join(directory, ".%s.%s.tmp" % (name, os.urandom(8).hex()))
    # O_EXCL: a fresh file, which the umask gives the mode open() would
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        if mode is not None:
            os.fchmod(fd, stat.S_IMODE(mode))
        with open(fd, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _reject_constant(token):
    raise ParseError("non-finite literal %r is not allowed" % token)


def _read_file(path):
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from None


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
    return {"matrix": np.array(q_field, dtype=complex)}


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
    """A parsed, fully expanded model file whose fields passed
    :meth:`~regpart.model.CoefficientSet.validate` (not the sector gate).

    ``family`` holds the model's functions as one stacked
    :class:`~regpart.grid.TestFunction` whose rows are named by ``names``,
    in file order; ``funcs`` maps each name to its row, a view of the
    family.  ``q_spec`` and ``func_specs`` are the file's ``Q`` and
    ``functions`` sub-documents, for :func:`model_to_doc`; a payload read
    from a file is held there as the array that the model uses.
    """

    grid: GridSpec
    coeffs: CoefficientSet
    q_field: np.ndarray
    names: tuple
    family: TestFunction = field(repr=False)
    q_spec: dict = field(repr=False, default=None)
    func_specs: list = field(repr=False, default=None)
    funcs: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.funcs = dict(zip(self.names, self.family))


def _function_names(func_specs):
    """The names of the function specs, in order; a repeated name is
    refused."""
    names = []
    for spec in func_specs:
        name = _get(spec, "name", str, "function")
        if name in names:
            raise ParseError("duplicate function name '%s'" % name)
        names.append(name)
    return tuple(names)


def _fill_family(func_specs, funcs):
    """Expand each function spec and copy it into its row of ``funcs`` in
    turn.  A ``samples`` spec that holds the arrays it was read into then
    holds the row's instead, so the model keeps one copy of every
    function."""
    for spec, row in zip(func_specs, funcs):
        func = expand_function_spec(spec, row.grid)[1]
        for key in ("cell_values", "cell_gradient"):
            getattr(row, key)[...] = getattr(func, key)
            if spec.get(key) is getattr(func, key):
                spec[key] = getattr(row, key)
        del func  # before the next one is expanded


def doc_to_model(doc):
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
    # unless a function holds a payload, Q's payload is the last to be
    # read, so the file's text is freed before the model is expanded
    q_spec = _get(doc, "Q", dict, "model")
    q_field = expand_q_spec(q_spec, grid)
    coeffs.validate()
    func_specs = _get(doc, "functions", list, "model")
    # the model's family is made unfilled, then expanded into row by row
    shape = (len(func_specs), n)
    model = LoadedModel(
        grid=grid, coeffs=coeffs, q_field=q_field,
        names=_function_names(func_specs),
        family=TestFunction(grid=grid, cell_values=np.empty(shape, complex),
                            cell_gradient=np.empty(shape + (d,), complex)),
        q_spec=q_spec, func_specs=func_specs)
    _fill_family(func_specs, model.funcs.values())
    return model


def parse_model(text):
    """The model in ``text`` (bytes, or str encoded as UTF-8).  Past the
    scan for payloads, only the payloads not yet read refer to the text
    (or to its encoding)."""
    return _model(*_loads_model(text.encode("utf-8", "surrogatepass")
                                if isinstance(text, str) else text))


def load_model(path):
    """The model in the file ``path``.  The file's text is freed once its
    last payload is read, before the functions are expanded when no
    ``samples`` function holds a payload."""
    return _model(*_loads_model(_read_file(path)))


def _model(doc, payloads):
    model = doc_to_model(doc)
    for payload in payloads:
        payload.settle()
    return model


def make_model_doc(coeffs, q_spec, func_specs):
    """Assemble the canonical document for a coefficient set.

    The coefficient fields go in as array leaves, copies of the set's
    fields.  ``q_spec``/``func_specs`` are schema sub-documents (see
    :func:`q_matrix_spec`, :func:`q_indicator_spec`).
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "grid": grid_to_doc(coeffs.grid),
        "coefficients": {
            "C": np.array(coeffs.C_field, dtype=complex),
            "b": np.array(coeffs.b_field, dtype=complex),
            "d": np.array(coeffs.d_field, dtype=complex),
            "c0": np.array(coeffs.c0_field, dtype=complex),
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
             "cell_values": np.array(f.cell_values, dtype=complex),
             "cell_gradient": np.array(f.cell_gradient, dtype=complex)}
            for name, f in model.funcs.items()
        ]
    return make_model_doc(model.coeffs, q_spec, func_specs)
