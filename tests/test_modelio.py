"""Model-file codec: canonical text, schema errors, byte-stable round trips."""

import errno
import gc
import json
import os
import stat
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from regpart.diagnostics import cantor_mask, default_cantor_grid, svc_intervals
from regpart.errors import ParseError, ValidationError
from regpart.grid import CELL_CHUNK, DeltaField, GridSpec, TestFunction
from regpart.modelio import (SCHEMA_VERSION, _canonical_pieces, complex_pair,
                             complex_to_json,
                             doc_to_grid, doc_to_model, dumps_canonical,
                             expand_function_spec, expand_q_spec,
                             grid_to_doc, json_to_complex, load_model,
                             make_model_doc, model_to_doc, parse_model,
                             q_indicator_spec, q_matrix_spec, write_doc)
from regpart.randomized import (random_coefficients, random_grid,
                                random_projection_field)
from regpart.regularize import indicator_projection


# -- primitive codec --------------------------------------------------------


def test_complex_codec_round_trip(rng):
    arr = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    encoded = complex_to_json(arr)
    decoded = json_to_complex(encoded, 2, "test")
    assert np.array_equal(decoded, arr)
    assert complex_pair(2.0 - 3.0j) == [2.0, -3.0]


def test_complex_codec_keeps_signed_zeros():
    arr = np.array([1.0 + 0.0j, complex(-0.0, -0.0), complex(0.0, -0.0)])
    decoded = json_to_complex(complex_to_json(arr), 1, "test")
    assert np.array_equal(np.signbit(decoded.real), np.signbit(arr.real))
    assert np.array_equal(np.signbit(decoded.imag), np.signbit(arr.imag))
    # and the re-encoded text keeps the "-0.0" literals
    text = dumps_canonical(complex_to_json(decoded))
    assert text.count("-0.0") == 3


def test_json_to_complex_errors():
    with pytest.raises(ParseError):
        json_to_complex([[1.0, 2.0]], 0, "test")  # rank mismatch
    with pytest.raises(ParseError):
        json_to_complex([[1.0, 2.0, 3.0]], 1, "test")  # not [re, im]
    with pytest.raises(ParseError):
        json_to_complex([["a", "b"]], 1, "test")


def test_dumps_canonical_deterministic():
    assert dumps_canonical({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'
    with pytest.raises(ValidationError):
        dumps_canonical({"x": float("nan")})


#: Floats whose text is easy to get wrong: signed zeros, subnormals, the
#: switch points of ``repr`` between fixed and exponent notation, the
#: largest float.
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e-05, 1e-04, 1e16, 1e15, 0.1, -1.5, sys.float_info.max,
               -sys.float_info.max)


def _complex_arrays(shape):
    parts = st.one_of(st.sampled_from(EDGE_FLOATS),
                      st.floats(allow_nan=False, allow_infinity=False))
    return arrays(np.float64, shape + (2,), elements=parts).map(
        lambda a: a.view(complex)[..., 0])


_shapes = st.one_of(
    st.just((0,)),
    st.tuples(st.integers(1, 6)),
    st.tuples(st.integers(1, 5), st.integers(1, 3)),
    st.integers(1, 3).flatmap(lambda d: st.tuples(st.integers(1, 4),
                                                  st.just(d), st.just(d))))


@settings(max_examples=150, deadline=None, database=None,
          derandomize=True)
@given(_shapes.flatmap(_complex_arrays))
def test_array_leaf_matches_nested_lists(arr):
    """An ndarray leaf is written exactly as its ``[re, im]`` lists."""
    assert dumps_canonical({"x": arr}) == \
        dumps_canonical({"x": complex_to_json(arr)})


def test_array_leaf_edge_floats_and_zero_rank():
    arr = np.empty(len(EDGE_FLOATS), dtype=complex)
    arr.real, arr.imag = EDGE_FLOATS, EDGE_FLOATS[::-1]
    text = dumps_canonical({"x": arr, "y": arr[1, ...]})
    assert text == dumps_canonical({"x": complex_to_json(arr),
                                    "y": complex_to_json(arr[1])})
    assert text.count("-0.0") == 3 and text.count("5e-324") == 4


def test_array_leaves_beside_marker_like_strings(rng):
    """Document strings made of NUL characters, as keys or values, next to
    and inside the arrays' containers, do not disturb the splice."""
    arr = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    for names in (["\0"], ["\0", "x\0"], ["\0\0", '"\0'], ["\0" * 5]):
        doc = {name: [arr, name, {name: arr[0]}] for name in names}
        doc["\0"] = "\0"
        plain = {name: [complex_to_json(arr), name,
                        {name: complex_to_json(arr[0])}] for name in names}
        plain["\0"] = "\0"
        text = dumps_canonical(doc)
        assert text == dumps_canonical(plain)
        assert json.loads(text) == json.loads(dumps_canonical(plain))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_array_leaf_non_finite_rejected(bad):
    arr = np.zeros(4, dtype=complex)
    arr[2] = complex(0.0, bad)
    with pytest.raises(ValidationError,
                       match="non-finite value in document"):
        dumps_canonical({"x": arr})


def test_dumps_canonical_rejects_other_objects():
    with pytest.raises(TypeError):
        dumps_canonical({"x": object()})


def test_model_loader_rejects_bad_text():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_model("{not json")
    with pytest.raises(ParseError, match="non-finite literal 'NaN'"):
        parse_model('{"x": NaN}')
    with pytest.raises(ParseError, match="cannot read"):
        load_model("/nonexistent/path/model.json")


# -- streaming, atomic writer -----------------------------------------------

C = CELL_CHUNK
#: Signed zeros, subnormals and the largest finite float.
SPECIALS = (complex(-0.0, 5e-324), complex(5e-324, -0.0),
            complex(-2.5e-310, 0.0), complex(0.0, -1.7976931348623157e308))


def _piece_sizes(monkeypatch):
    """The floats of each piece that the writer formats, as it formats
    them."""
    import regpart.modelio as modelio
    real, sizes = modelio._array_text, []

    def recording(arr):
        sizes.append(2 * np.size(arr))
        return real(arr)

    monkeypatch.setattr(modelio, "_array_text", recording)
    return sizes


def _deltas(arr, p):
    """Delta leaves standing for ``arr`` over a base that differs from it
    on the patched cells (none, all, and cells on either side of every
    piece boundary and every third), and the same supports over a zero
    base."""
    n = len(arr)
    at = np.arange(n)
    straddle = np.flatnonzero((at % p == 0) | (at % p == p - 1)
                              | (at % 3 == 0))
    zeros = np.broadcast_to(np.zeros((), complex), arr.shape)
    for cells in (np.array([], int), at, straddle):
        base = arr.copy()
        base[cells] = 7.0 - 3.0j
        yield DeltaField(base, cells, arr[cells])
        yield DeltaField(zeros, cells, arr[cells])


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("length", [0, 1, C - 1, C, C + 1, 2 * C + 1])
def test_writer_chunk_boundaries(rank, length, tmp_path, monkeypatch):
    """``write_doc`` writes an array leaf, dense or a delta field, in
    pieces of whole rows that format at most ``CELL_CHUNK`` floats each:
    ``C / 2 ** rank`` rows here, so ``C`` rows make a whole number of
    pieces at every rank.  At and around the piece boundaries its bytes
    are those of ``dumps_canonical`` and of the nested ``[re, im]`` lists,
    signed zeros and subnormals included, and no piece holds the whole
    text."""
    p = C // 2 ** rank  # rows of 2 ** rank floats in one piece
    rng = np.random.default_rng(10 * length + rank)
    shape = (length,) + (2,) * (rank - 1)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rows = arr.reshape(length, 2 ** (rank - 1))
    for i in {0, p - 1, p, p + 1, 2 * p, C - 1, C, C + 1, 2 * C,
              length - 1} & set(range(length)):
        rows[i] = SPECIALS[:rows.shape[1]]
    path = tmp_path / "doc.json"
    sizes = _piece_sizes(monkeypatch)
    for leaf in (arr, *_deltas(arr, p)):
        dense = np.asarray(leaf)
        doc = {"a": leaf, "b": [1.5, leaf[:1]]}
        write_doc(path, doc)
        text = path.read_text(encoding="utf-8")
        assert text == dumps_canonical(doc)
        assert text == json.dumps(
            {"a": complex_to_json(dense),
             "b": [1.5, complex_to_json(dense[:1])]},
            sort_keys=True, separators=(",", ":")) + "\n"
        if length > 2 * p:
            assert max(map(len, _canonical_pieces(doc))) < 0.6 * len(text)
    assert max(sizes, default=0) <= C


@pytest.mark.parametrize("shape", [(2, C // 2 + 3), (3, 2, C + 1), (1, C)])
def test_writer_cuts_a_wide_row(shape, monkeypatch):
    """A row that alone holds more than ``CELL_CHUNK`` floats is written in
    pieces of its own, with the bytes of the nested lists."""
    rng = np.random.default_rng(len(shape))
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    arr.reshape(-1)[::97] = SPECIALS[0]
    sizes = _piece_sizes(monkeypatch)
    assert dumps_canonical({"x": arr}) == \
        dumps_canonical({"x": complex_to_json(arr)})
    assert max(sizes) <= C < 2 * arr.size


def _writer_peak(rows, delta, tmp_path):
    """Peak bytes that ``write_doc`` holds above a leaf of ``rows`` rows of
    ``2 x 2`` matrices, dense or a delta field over it."""
    rng = np.random.default_rng(rows)
    arr = rng.standard_normal((rows, 2, 2)) + 1j * rng.standard_normal(
        (rows, 2, 2))
    cells = np.arange(0, rows, 7)
    leaf = DeltaField(arr, cells, arr[cells] * 0.5) if delta else arr
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write_doc(tmp_path / "leaf.json", {"x": leaf})
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("delta", [False, True])
def test_writer_memory_is_set_by_the_piece(delta, tmp_path):
    """Four times the rows leave the writer's peak above its leaf nearly
    where it was, for a dense leaf and for a delta field: it formats one
    piece of at most ``CELL_CHUNK`` floats at a time, and builds a delta
    field one piece of rows at a time."""
    small = _writer_peak(2 * C, delta, tmp_path)
    assert _writer_peak(8 * C, delta, tmp_path) <= 1.5 * small


def _names(directory):
    return sorted(p.name for p in directory.iterdir())


def test_write_doc_refused_leaf_writes_nothing(tmp_path):
    """A non-finite leaf, in a late chunk of an array, refuses the document
    before any byte is written: no file appears and an existing one is
    left as it was."""
    arr = np.zeros(2 * C + 1, dtype=complex)
    arr[-1] = complex(0.0, np.nan)
    path = tmp_path / "report.json"
    with pytest.raises(ValidationError, match="non-finite"):
        write_doc(path, {"x": arr})
    assert _names(tmp_path) == []
    path.write_text("old\n", encoding="utf-8")
    for doc in ({"x": arr}, {"x": np.zeros(3, dtype=complex), "y": np.inf}):
        with pytest.raises(ValidationError, match="non-finite"):
            write_doc(path, doc)
    assert _names(tmp_path) == ["report.json"]
    assert path.read_text(encoding="utf-8") == "old\n"


def test_write_doc_failed_write_keeps_old_file(tmp_path, monkeypatch):
    """An ``OSError`` in the middle of the write (a full disk, say), here
    while the second piece of ``CELL_CHUNK`` floats is formatted, leaves
    no partial file and the old file untouched; the next write replaces
    it and keeps its permission bits, and a new file gets the ones
    ``open`` gives."""
    import regpart.modelio as modelio
    path = tmp_path / "report.json"
    path.write_text("old\n", encoding="utf-8")
    path.chmod(0o640)
    real, calls = modelio._array_text, []

    def failing(arr):
        calls.append(len(arr))
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(arr)

    monkeypatch.setattr(modelio, "_array_text", failing)
    doc = {"x": np.ones(2 * C + 1, dtype=complex)}
    with pytest.raises(OSError, match="No space"):
        write_doc(path, doc)
    assert calls == [C // 2, C // 2]
    assert _names(tmp_path) == ["report.json"]
    assert path.read_text(encoding="utf-8") == "old\n"

    monkeypatch.undo()
    write_doc(path, doc)
    assert path.read_text(encoding="utf-8") == dumps_canonical(doc)
    assert _names(tmp_path) == ["report.json"]
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    write_doc(tmp_path / "new.json", doc)
    mask = os.umask(0)
    os.umask(mask)
    assert stat.S_IMODE((tmp_path / "new.json").stat().st_mode) \
        == 0o666 & ~mask


def test_write_doc_in_place_where_it_cannot_replace(tmp_path, monkeypatch):
    """An existing file that may not be replaced, since its directory or
    the file itself may not be written, is written in place as ``open``
    allows: the same inode, no temporary file.  A refused document still
    leaves it untouched."""
    path = tmp_path / "report.json"
    path.write_text("old\n", encoding="utf-8")
    inode = path.stat().st_ino
    doc = {"x": np.ones(2 * C + 1, dtype=complex)}
    for denied in (str(tmp_path), str(path)):
        monkeypatch.setattr(os, "access", lambda p, mode, denied=denied,
                            **kwargs: str(p) != denied)
        with pytest.raises(ValidationError, match="non-finite"):
            write_doc(path, {"x": np.array([np.inf + 0j])})
        assert path.read_text(encoding="utf-8") == "old\n"
        write_doc(path, doc)
        assert path.read_text(encoding="utf-8") == dumps_canonical(doc)
        assert path.stat().st_ino == inode
        assert _names(tmp_path) == ["report.json"]
        path.write_text("old\n", encoding="utf-8")


def test_write_doc_through_a_link_and_into_a_pipe(tmp_path):
    """Through a symbolic link, the file it names is replaced and the link
    kept; a target that is not a regular file is written in place, not
    replaced."""
    link, real = tmp_path / "link.json", tmp_path / "real.json"
    real.write_text("old\n", encoding="utf-8")
    link.symlink_to(real)
    write_doc(link, {"a": 1})
    assert link.is_symlink() and real.read_text() == '{"a":1}\n'
    assert _names(tmp_path) == ["link.json", "real.json"]

    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()))
    reader.start()
    doc = {"x": np.arange(3, dtype=complex)}
    write_doc(fifo, doc)
    reader.join(timeout=10)
    assert got == [dumps_canonical(doc)]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


# -- grid block -------------------------------------------------------------


def test_grid_doc_round_trip():
    grid = GridSpec(dim=2, box=((0.0, 1.0), (-1.0, 3.0)),
                    cells_per_axis=(4, 6))
    assert doc_to_grid(grid_to_doc(grid)) == grid


def test_grid_doc_errors():
    good = grid_to_doc(GridSpec(dim=1, box=((0.0, 1.0),),
                                cells_per_axis=(4,)))
    bad_box = dict(good, box=[[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ParseError):
        doc_to_grid(bad_box)
    with pytest.raises(ParseError):
        doc_to_grid(dict(good, cells_per_axis=[True]))
    # JSON true is a Python int, but not a dimension
    with pytest.raises(ParseError, match="dim"):
        doc_to_grid(dict(good, dim=True))
    with pytest.raises(ParseError):
        doc_to_grid({"dim": 1, "box": [[0.0, 1.0]]})


# -- Q block ----------------------------------------------------------------


def test_q_matrix_spec_round_trip(rng):
    grid = random_grid(rng, 2)
    q = random_projection_field(rng, 2, grid.n_cells)
    out = expand_q_spec(q_matrix_spec(q), grid)
    assert np.array_equal(out, q)


def test_q_indicator_shorthand_matches_dense():
    grid = default_cantor_grid(2)
    spec = q_indicator_spec([(float(a), float(b))
                             for a, b in svc_intervals(2)])
    expanded = expand_q_spec(spec, grid)
    dense = indicator_projection(grid, cantor_mask(2, grid))
    assert np.array_equal(expanded, dense)


def test_q_spec_errors(rng):
    grid1 = GridSpec(dim=1, box=((0.0, 1.0),), cells_per_axis=(4,))
    grid2 = GridSpec(dim=2, box=((0.0, 1.0), (0.0, 1.0)),
                     cells_per_axis=(2, 2))
    with pytest.raises(ParseError):
        expand_q_spec({"neither": 1}, grid1)
    with pytest.raises(ParseError):
        expand_q_spec({"set": [[0.0, 1.0]], "scale": "identity"}, grid2)
    with pytest.raises(ParseError):
        expand_q_spec({"set": [[0.0, 1.0]], "scale": "other"}, grid1)
    with pytest.raises(ParseError):
        expand_q_spec(q_matrix_spec(np.zeros((3, 1, 1))), grid1)
    with pytest.raises(ParseError):
        expand_q_spec([], grid1)
    for bad in ([1.0, 2.0], [[1.0, 2.0, 3.0]], [[]], [[1.0]], "x"):
        with pytest.raises(ParseError):
            expand_q_spec({"set": bad, "scale": "identity"}, grid1)


def test_q_indicator_empty_set_is_zero():
    """``q_indicator_spec([])`` writes ``"set": []``, which reads back as
    ``Q = 0``."""
    grid = GridSpec(dim=1, box=((0.0, 1.0),), cells_per_axis=(4,))
    spec = q_indicator_spec([])
    assert spec["set"] == []
    q = expand_q_spec(spec, grid)
    assert q.shape == (4, 1, 1) and not np.any(q)


# -- function specs ---------------------------------------------------------


def test_function_specs_match_constructors():
    grid1 = default_cantor_grid(1)
    name, f = expand_function_spec(
        {"name": "p", "kind": "plateau", "flat": [0.0, 1.0]}, grid1)
    direct = TestFunction.plateau_1d(grid1, 0.0, 1.0)
    assert name == "p"
    assert np.array_equal(f.cell_values, direct.cell_values)
    assert np.array_equal(f.cell_gradient, direct.cell_gradient)

    name, g = expand_function_spec(
        {"name": "b", "kind": "bump", "center": [0.5], "width": [0.25],
         "amplitude": 2.5}, grid1)
    direct = TestFunction.bump(grid1, [0.5], [0.25], amplitude=2.5)
    assert np.array_equal(g.cell_values, direct.cell_values)

    grid2 = GridSpec(dim=2, box=((0.0, 1.0), (0.0, 1.0)),
                     cells_per_axis=(6, 6))
    spec = {"name": "w", "kind": "plane_wave", "lambda": 7.0,
            "xi": [0.0, 1.0],
            "tau": {"kind": "bump", "center": [0.5, 0.5],
                    "width": [0.3, 0.3]}}
    name, h = expand_function_spec(spec, grid2)
    direct = TestFunction.bump(grid2, [0.5, 0.5], [0.3, 0.3]).modulated(
        7.0, [0.0, 1.0])
    assert np.array_equal(h.cell_values, direct.cell_values)
    assert np.array_equal(h.cell_gradient, direct.cell_gradient)


def test_function_samples_round_trip(rng):
    grid = GridSpec(dim=1, box=((0.0, 1.0),), cells_per_axis=(5,))
    vals = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    grads = rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1))
    spec = {"name": "s", "kind": "samples",
            "cell_values": complex_to_json(vals),
            "cell_gradient": complex_to_json(grads)}
    _, f = expand_function_spec(spec, grid)
    assert np.array_equal(f.cell_values, vals)
    assert np.array_equal(f.cell_gradient, grads)


def test_function_spec_errors():
    grid = GridSpec(dim=1, box=((0.0, 1.0),), cells_per_axis=(4,))
    with pytest.raises(ParseError):
        expand_function_spec({"name": "x", "kind": "mystery"}, grid)
    with pytest.raises(ParseError):
        expand_function_spec({"kind": "bump"}, grid)  # no name
    with pytest.raises(ParseError):
        expand_function_spec({"name": "x", "kind": "plateau",
                              "flat": [0.1]}, grid)
    with pytest.raises(ParseError):
        expand_function_spec(
            {"name": "x", "kind": "plane_wave", "lambda": 1.0,
             "xi": [1.0, 0.0],
             "tau": {"kind": "bump", "center": [0.5], "width": [0.2]}},
            grid)  # xi has too many components
    for amp in ("2", [2.0], True):
        for spec in ({"name": "x", "kind": "bump", "center": [0.5],
                      "width": [0.2], "amplitude": amp},
                     {"name": "x", "kind": "plateau", "flat": [0.2, 0.8],
                      "amplitude": amp}):
            with pytest.raises(ParseError, match="amplitude"):
                expand_function_spec(spec, grid)


# -- whole documents --------------------------------------------------------


def model_doc(rng):
    coeffs = random_coefficients(rng, random_grid(rng, 1))
    q = random_projection_field(rng, 1, coeffs.n_cells)
    func_specs = [
        {"name": "bump", "kind": "bump", "center": [0.5], "width": [0.3]},
    ]
    return make_model_doc(coeffs, q_matrix_spec(q), func_specs), coeffs, q


def test_model_round_trip_values(rng):
    doc, coeffs, q = model_doc(rng)
    model = parse_model(dumps_canonical(doc))
    assert model.grid == coeffs.grid
    assert_allclose(model.coeffs.C_field, coeffs.C_field, atol=0)
    assert_allclose(model.coeffs.b_field, coeffs.b_field, atol=0)
    assert_allclose(model.coeffs.d_field, coeffs.d_field, atol=0)
    assert_allclose(model.coeffs.c0_field, coeffs.c0_field, atol=0)
    assert model.coeffs.theta == coeffs.theta
    assert model.coeffs.K_bound == coeffs.K_bound
    assert np.array_equal(model.q_field, q)
    assert list(model.funcs) == ["bump"]


def test_model_round_trip_bytes(rng):
    doc, _, _ = model_doc(rng)
    text = dumps_canonical(doc)
    again = dumps_canonical(model_to_doc(parse_model(text)))
    assert again == text


def test_cantor_doc_round_trip_bytes():
    from regpart.pipeline import cantor_model_doc
    doc = cantor_model_doc(2)
    text = dumps_canonical(doc)
    model = parse_model(text)
    assert dumps_canonical(model_to_doc(model)) == text
    # shorthand Q expanded to the aligned indicator projections
    dense = indicator_projection(model.grid, cantor_mask(2, model.grid))
    assert np.array_equal(model.q_field, dense)


def test_model_doc_with_signed_zeros(rng):
    doc, _, _ = model_doc(rng)
    doc["coefficients"]["c0"][0] = [-0.0, -0.0]
    text = dumps_canonical(doc)
    assert dumps_canonical(model_to_doc(parse_model(text))) == text


def test_model_schema_errors(rng):
    doc, _, _ = model_doc(rng)
    with pytest.raises(ParseError):
        doc_to_model(dict(doc, schema_version=99))
    with pytest.raises(ParseError):
        doc_to_model({k: v for k, v in doc.items() if k != "theta"})
    bad = json.loads(dumps_canonical(doc))
    bad["coefficients"]["b"] = bad["coefficients"]["b"][:-1]
    with pytest.raises(ParseError):
        doc_to_model(bad)
    dup = json.loads(dumps_canonical(doc))
    dup["functions"] = dup["functions"] * 2
    with pytest.raises(ParseError):
        doc_to_model(dup)
    with pytest.raises(ParseError):
        doc_to_model(dict(doc, K_bound=True))
    with pytest.raises(ParseError, match="schema_version"):
        doc_to_model(dict(doc, schema_version=True))


def test_model_validation_gate(rng):
    doc, _, _ = model_doc(rng)
    bad = json.loads(dumps_canonical(doc))
    # a negative second-order block violates the sector condition in cell 0
    bad["coefficients"]["C"][0] = [[[-1.0, 0.0]]]
    with pytest.raises(ValidationError):
        doc_to_model(bad)


def test_write_and_load_file(rng, tmp_path):
    doc, coeffs, _ = model_doc(rng)
    path = tmp_path / "model.json"
    write_doc(path, doc)
    assert path.read_text(encoding="utf-8") == dumps_canonical(doc)
    model = load_model(path)
    assert model.grid == coeffs.grid


def test_loaded_model_keeps_arrays_not_lists(rng):
    """The ``Q`` and ``functions`` sub-documents of a loaded model hold the
    model's own arrays; a payload under a key no reader takes comes back as
    the lists ``json`` gives, and the round trip stays byte-identical."""
    doc, _, _ = model_doc(rng)
    grid = doc_to_grid(doc["grid"])
    vals = rng.standard_normal(grid.n_cells) + 0j
    doc["functions"].append({
        "name": "s", "kind": "samples", "cell_values": complex_to_json(vals),
        "cell_gradient": complex_to_json(np.zeros((grid.n_cells, 1)))})
    doc["functions"][0]["C"] = [[[1.0, 2.0]], [[3.0, 4.0, 5.0]]]
    text = dumps_canonical(doc)
    model = parse_model(text)
    assert model.q_spec["matrix"] is model.q_field
    assert model.func_specs[1]["cell_values"] is model.funcs["s"].cell_values
    assert np.array_equal(model.funcs["s"].cell_values, vals)
    assert model.func_specs[0]["C"] == doc["functions"][0]["C"]
    assert dumps_canonical(model_to_doc(model)) == text


# -- payload reader ---------------------------------------------------------


#: A payload key for each complex rank.
PAYLOAD_KEYS = {1: "c0", 2: "b", 3: "C"}

#: Float formats a JSON writer may use, exact and rounded; an integral
#: value may also be written as an integer.
NUMBER_FORMATS = ("%r", "%.17e", "%.17E", "%.17g", "%.3g", "%.25e")

PAYLOAD_FLOATS = EDGE_FLOATS + (1.0, -7.0, 2.0 ** 70, -(2.0 ** 70), 1e22,
                                123456789.0, 1e-310)


def _payload_text(arr, draw):
    """JSON text of ``complex_to_json(arr)`` with each number written in a
    format drawn from ``NUMBER_FORMATS`` (or as an integer) and blanks
    drawn around every token."""
    def blank():
        return draw(st.text(" \t\n\r", max_size=2))

    def number(x):
        fmts = NUMBER_FORMATS + (("int",) if x == int(x)
                                 and abs(x) < 1e300 else ())
        fmt = draw(st.sampled_from(fmts))
        return str(int(x)) if fmt == "int" else fmt % x

    def text(node):
        if isinstance(node, list):
            return "[" + ",".join(blank() + text(v) + blank()
                                  for v in node) + "]"
        return number(node)
    return text(complex_to_json(arr))


def _read(text, key, shape, via_payloads):
    """The array under ``key`` of the JSON object ``text``, read by the
    model loader (its payload reader) or by ``json`` and
    :func:`json_to_complex`; a refusal is ``"refused"``."""
    from regpart import modelio
    try:
        if via_payloads:
            doc, payloads = modelio._loads_model(text.encode("utf-8"))
        else:
            doc, payloads = json.loads(text), []
        arr = modelio._complex_field(doc, key, shape, "x")
    except (ParseError, json.JSONDecodeError):
        return "refused"
    return arr, len(payloads)


_payload_arrays = st.integers(1, 3).flatmap(
    lambda rank: arrays(np.float64, st.tuples(*[st.integers(1, 3)] * rank)
                        .map(lambda s: s + (2,)),
                        elements=st.one_of(
                            st.sampled_from(PAYLOAD_FLOATS),
                            st.floats(allow_nan=False,
                                      allow_infinity=False)))).map(
    lambda a: a.view(complex)[..., 0])


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_payload_arrays, st.data())
def test_payload_reader_matches_json(arr, data):
    """Any JSON spelling of an array, with any legal blanks, reads to the
    bits that ``json`` and :func:`json_to_complex` give, through a payload
    that was cut out of the text."""
    key = PAYLOAD_KEYS[arr.ndim]
    text = '{"%s":%s}' % (key, _payload_text(arr, data.draw))
    fast, cut = _read(text, key, arr.shape, True)
    slow, _ = _read(text, key, arr.shape, False)
    assert cut == 1
    assert fast.tobytes() == slow.tobytes()


#: Insertions that keep a payload valid JSON but change its shape or read.
FRAGMENTS = (",1", "1,", ",-0", "[1,2],", ",[[1,2]]", "1e400", "1" * 400)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_payload_arrays, st.data())
def test_corrupted_payload_refused_as_json_refuses_it(arr, data):
    """A payload text with a few characters or ``FRAGMENTS`` inserted,
    deleted or replaced is refused by the loader exactly when ``json`` and
    :func:`json_to_complex` refuse it, and otherwise reads to the same
    bits."""
    key = PAYLOAD_KEYS[arr.ndim]
    text = '{"%s":%s}' % (key, _payload_text(arr, data.draw))
    alphabet = '0123456789.eE+-[], \t\n"x'
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        new = data.draw(st.one_of(st.text(alphabet, max_size=2),
                                  st.sampled_from(FRAGMENTS)))
        cut = data.draw(st.integers(0, 2))
        text = text[:at] + new + text[at + cut:]
    fast = _read(text, key, arr.shape, True)
    slow = _read(text, key, arr.shape, False)
    if slow == "refused":
        assert fast == "refused"
    else:
        assert fast != "refused" and fast[0].tobytes() == slow[0].tobytes()


def test_escaped_key_is_a_payload():
    """A payload key written with escapes is cut out like its plain
    spelling."""
    from regpart import modelio
    doc, payloads = modelio._loads_model(b'{"\\u0063\\u0030": [[1.0, 2.0]]}')
    assert len(payloads) == 1 and list(doc) == ["c0"]
    assert modelio._complex_field(doc, "c0", (1,), "x")[0] == 1 + 2j


def test_json_error_position_is_the_files(rng):
    """A syntax error after cut payloads is reported at its position in the
    file, as ``json`` reports it for the whole text."""
    doc, _, _ = model_doc(rng)
    text = dumps_canonical(doc)
    at = text.index('"theta"')
    bad = text[:at] + "?" + text[at:]
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(bad)
    with pytest.raises(ParseError) as got:
        parse_model(bad)
    assert str(got.value) == "invalid JSON: %s" % want.value
    assert "char %d" % at in str(got.value)


@pytest.mark.parametrize("text", [b'{"a": "\xff"}', "{\"a\": \"\udc80\"}"])
def test_model_text_not_utf8(text):
    with pytest.raises(ParseError, match="UTF-8"):
        parse_model(text)


def _field_model_file(tmp_path):
    """A 64 x 64 random 2-D model file, built as the benchmark's ``field2d``
    model is, and its grid."""
    from regpart.model import derive_fields
    from regpart.randomized import commuting_projection_field
    rng = np.random.default_rng(1)
    grid = GridSpec(dim=2, box=((0.0, 1.0), (0.0, 1.0)),
                    cells_per_axis=(64, 64))
    coeffs = random_coefficients(rng, grid)
    q = commuting_projection_field(rng, derive_fields(coeffs))
    q[np.any(np.abs(grid.cell_centers() - 0.5) >= 0.05, axis=1)] = 0.0
    specs = [{"name": "bump%d" % k, "kind": "bump",
              "center": [float(x) for x in c], "width": [0.3]}
             for k, c in enumerate(rng.uniform(0.35, 0.65, size=(4, 2)))]
    path = tmp_path / "field.json"
    write_doc(path, make_model_doc(coeffs, q_matrix_spec(q), specs))
    return path, grid


def test_load_memory_is_a_few_file_sizes(tmp_path):
    """Loading the 64 x 64 ``field2d``-style model peaks at no more than
    four times the file size, and the loaded model keeps no more than one
    and a half times it."""
    path, grid = _field_model_file(tmp_path)
    size = path.stat().st_size
    gc.collect()
    tracemalloc.start()
    try:
        model = load_model(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.grid == grid
    assert peak <= 4 * size
    assert kept <= 1.5 * size


def test_compute_memory_is_a_few_model_sizes(tmp_path):
    """``compute_report`` on the 64 x 64 ``field2d``-style model (4,096
    cells, 25 of them in ``supp Q``) peaks at no more than 4.5 times the
    bytes of the model's arrays.  The split and its derived fields keep
    about 2.5 times them; the rest is transient.  Before the singular-side
    checks were cut to ``supp Q`` the peak was 5.1 times them."""
    from regpart.pipeline import compute_report
    model = load_model(_field_model_file(tmp_path)[0])
    coeffs = model.coeffs
    arrays = sum(a.nbytes for a in (coeffs.C_field, coeffs.b_field,
                                    coeffs.d_field, coeffs.c0_field,
                                    model.q_field))
    arrays += sum(f.cell_values.nbytes + f.cell_gradient.nbytes
                  for f in model.funcs.values())
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = compute_report(model)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert report["warnings"] == []
    assert peak <= 4.5 * arrays


def test_compute_report_keeps_no_full_grid_field(tmp_path):
    """The report of ``compute_report`` holds its eight coefficient fields
    as ``supp Q`` deltas of the model's own arrays: on the 64 x 64
    ``field2d``-style model (25 of 4,096 cells in ``supp Q``) it keeps
    less than a quarter of the bytes of the model's four coefficient
    fields, where eight full-grid fields would take twice them."""
    from regpart.pipeline import compute_report
    model = load_model(_field_model_file(tmp_path)[0])
    coeffs = model.coeffs
    inputs = (coeffs.C_field, coeffs.b_field, coeffs.d_field,
              coeffs.c0_field)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = compute_report(model)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    support = np.flatnonzero(np.any(model.q_field != 0, axis=(1, 2)))
    assert len(support) == 25
    for side in ("regular", "singular"):
        for key, field in zip(("C", "b", "d", "c0"), inputs):
            leaf = report[side][key]
            assert isinstance(leaf, DeltaField) and leaf.shape == field.shape
            assert np.array_equal(leaf.cells, support)
    assert report["regular"]["C"].base is coeffs.C_field
    assert kept < 0.25 * sum(f.nbytes for f in inputs)


def _large_field_model_text(cells):
    """The text of a ``cells x cells`` random 2-D model with ``Q`` dense
    and two bump functions, which hold no payload."""
    rng = np.random.default_rng(cells)
    grid = GridSpec(dim=2, box=((0.0, 1.0), (0.0, 1.0)),
                    cells_per_axis=(cells, cells))
    coeffs = random_coefficients(rng, grid)
    q = random_projection_field(rng, 2, grid.n_cells)
    specs = [{"name": "bump%d" % k, "kind": "bump", "center": [0.5, 0.5],
              "width": [0.2 + 0.1 * k]} for k in range(2)]
    return dumps_canonical(make_model_doc(coeffs, q_matrix_spec(q),
                                          specs)).encode("utf-8")


def test_payload_reads_make_no_payload_sized_copy(monkeypatch):
    """Each payload of a 128 x 128 model is read in pieces: above the
    array it fills, a read holds less than a quarter of the payload's
    text, where a slice of the payload would take all of it."""
    import regpart.modelio as modelio
    text = _large_field_model_text(128)
    real, reads = modelio._Payload.read, []

    def traced(payload, shape, what):
        size = payload.end - payload.start
        current = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        arr = real(payload, shape, what)
        reads.append((what, tracemalloc.get_traced_memory()[1] - current
                      - arr.nbytes, size))
        return arr

    monkeypatch.setattr(modelio._Payload, "read", traced)
    tracemalloc.start()
    try:
        model = parse_model(text)
    finally:
        tracemalloc.stop()
    assert model.grid.n_cells == 128 * 128
    assert [what for what, _, _ in reads] == [
        "coefficients.C", "coefficients.b", "coefficients.d",
        "coefficients.c0", "Q.matrix"]
    for what, held, size in reads:
        assert held < 0.25 * size, what


def test_model_text_freed_before_functions_expand(tmp_path, monkeypatch):
    """``load_model`` keeps no reference to the file's text, and a payload
    drops it once read: when the functions are expanded, which read no
    payload here, the memory held above the start is the model's arrays,
    not the text."""
    import regpart.modelio as modelio
    path = tmp_path / "model.json"
    path.write_bytes(_large_field_model_text(96))
    size = path.stat().st_size
    real, held = modelio._fill_family, []

    def traced(func_specs, funcs):
        held.append(tracemalloc.get_traced_memory()[0] - start)
        return real(func_specs, funcs)

    monkeypatch.setattr(modelio, "_fill_family", traced)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        model = load_model(path)
    finally:
        tracemalloc.stop()
    coeffs, family = model.coeffs, model.family
    arrays = sum(a.nbytes for a in (
        coeffs.C_field, coeffs.b_field, coeffs.d_field, coeffs.c0_field,
        model.q_field, family.cell_values, family.cell_gradient))
    assert len(held) == 1
    assert held[0] < arrays + 0.25 * size < size
