"""Model-file codec: canonical text, schema errors, byte-stable round trips."""

import gc
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from regpart.diagnostics import cantor_mask, default_cantor_grid, svc_intervals
from regpart.errors import ParseError, ValidationError
from regpart.grid import GridSpec, TestFunction
from regpart.modelio import (SCHEMA_VERSION, complex_pair, complex_to_json,
                             doc_to_grid, doc_to_model, dumps_canonical,
                             expand_function_spec, expand_q_spec,
                             grid_to_doc, json_to_complex, load_doc,
                             load_model, loads_doc, make_model_doc,
                             model_to_doc, parse_model, q_indicator_spec,
                             q_matrix_spec, write_doc)
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


@pytest.mark.parametrize("start_enabled", [True, False])
@pytest.mark.parametrize("text", ['{"a": [[1.0, 2.0]]}', "{not json"])
def test_loads_doc_restores_gc_state(start_enabled, text):
    was = gc.isenabled()
    try:
        (gc.enable if start_enabled else gc.disable)()
        try:
            loads_doc(text)
        except ParseError:
            pass
        assert gc.isenabled() is start_enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_loads_doc_rejects_bad_text():
    with pytest.raises(ParseError):
        loads_doc("{not json")
    with pytest.raises(ParseError):
        loads_doc('{"x": NaN}')
    with pytest.raises(ParseError):
        load_doc("/nonexistent/path/model.json")


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


def test_model_validation_gate(rng):
    doc, _, _ = model_doc(rng)
    bad = json.loads(dumps_canonical(doc))
    # a negative second-order block violates the sector condition in cell 0
    bad["coefficients"]["C"][0] = [[[-1.0, 0.0]]]
    with pytest.raises(ValidationError):
        doc_to_model(bad)
    model = doc_to_model(bad, validate=False)
    assert model.coeffs.C_field[0, 0, 0] == -1.0


def test_write_and_load_file(rng, tmp_path):
    doc, coeffs, _ = model_doc(rng)
    path = tmp_path / "model.json"
    text = write_doc(path, doc)
    assert path.read_text(encoding="utf-8") == text
    model = load_model(path)
    assert model.grid == coeffs.grid
