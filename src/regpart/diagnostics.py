"""Verdicts on the singular part: commutation, sectoriality, vertex shifts.

Five statements about a model tie together: (i) the singular part is
sectorial; (ii) ``Q`` commutes with ``Z`` everywhere; (iii) the simplified
(commuting) assembly reproduces the regular part; (iv) the kernel-directed
image of every embedded function collapses to its closed pointwise form;
(v) the singular part of the pure second-order companion is sectorial.
They are equivalent for genuine coefficient fields, and this module decides
each one numerically and cross-checks the verdicts.

Sectoriality over an emulated-infinite family can only be *refuted*
numerically (by exhibiting growth under plane-wave modulation); absence of
growth on the tested family is consistency, not proof.  Verdict entries
therefore carry a ``mode`` of ``"certified-false"`` or ``"consistent-true"``
for (i)/(v), while (ii)-(iv) are plainly decided by residuals.

The module also houses the worked fat-Cantor example, defined once as a
model document: a stage-``n`` Smith-Volterra-Cantor set drives an
indicator-coefficient model whose regular part is a pure multiplication
form and whose singular part has strictly negative vertex on a plateau.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .completion import (ProbeReport, _qz_iq_asqrt, compute_operators,
                         oracle_regular_part, singular_field, t_pi2_probe)
from .errors import ResolutionTooCoarse, ValidationError
from .grid import MAX_CELLS, GridSpec, chunked
from .model import CoefficientSet, eval_form, vertex_search
from .modelio import doc_to_model, make_model_doc, q_indicator_spec
from .pointwise import (SectorParams, frobenius, herm_part, imag_part,
                        sector_tangent)
from .regularize import _commutators, _commuting_fields, interval_mask

__all__ = [
    "DiagnosticsReport",
    "RealPartReport",
    "VertexReport",
    "check_equivalences",
    "check_realpart_commutation",
    "singular_vertex",
    "regular_sector_tangent",
    "cantor_model_doc",
    "generate_cantor_example",
    "generate_noncommuting_example",
    "default_cantor_grid",
    "cantor_mask",
    "svc_intervals",
    "svc_measure",
]

#: Cell-level threshold below which the commutator is treated as zero.
COMMUTE_TOL = 1e-9

#: Per-cell field-difference threshold for the simplified-assembly verdict.
FIELD_TOL = 1e-9

#: Threshold on the fitted modulation slope above which growth is certified.
PROBE_POSITIVE = 1e-8

#: Default modulation frequencies for the growth probe.
PROBE_LAMBDAS = (5.0, 10.0, 20.0, 40.0, 80.0)

#: Largest worked-example stage whose ``6 * 4^stage`` cells fit in a grid.
MAX_CANTOR_STAGE = max(n for n in range(32) if 6 * 4 ** n <= MAX_CELLS)


@dataclass(frozen=True)
class VertexReport:
    """Vertex/half-angle search over a basis span, with the minimizing
    coordinate vector as witness."""

    params: SectorParams
    witness: np.ndarray
    certified: bool


@dataclass(frozen=True)
class RealPartReport:
    """Does taking real parts commute with taking regular parts?"""

    ok: bool
    commutator_residual: float
    xy_residual: float
    oracle_max_diff: float


@dataclass
class DiagnosticsReport:
    commutator_max: float
    qz_iq_asqrt_max: float
    realpart: RealPartReport
    slope_probe: ProbeReport
    form_vertex: VertexReport
    as_vertex: VertexReport
    aps_vertex: VertexReport
    regular_tangent: float
    verdicts: dict


def _relative_field_gap(reg, simple):
    """Largest per-cell difference between the assembly ``reg`` and the
    simplified one, whose four regular stacks on ``supp Q`` are
    ``simple``, relative to the field scale.  Off ``supp Q`` both keep the
    input, so the difference is read on the ``supp Q`` stacks only; the
    scale is ``max(1, max|reg|, max|simple|)``, as over the whole grid,
    with ``max|reg|`` taken cell by cell."""
    gaps = []
    for fa, fb in zip(reg.regular, simple):
        diff = float(np.max(np.abs(fa.values - fb), initial=0.0))
        top, = chunked(lambda rows: (_row_max_abs(fa[rows]),), len(fa))
        scale = max(1.0, float(np.max(top)),
                    float(np.max(np.abs(fb), initial=0.0)))
        gaps.append(diff / scale)
    return max(gaps)


def _row_max_abs(stack):
    """Largest modulus of each row of a stack, taken entry by entry across
    the rows: numpy's own reduction over a short row costs several times
    as much."""
    return reduce(np.maximum, np.abs(stack).reshape(len(stack), -1).T)


def _kernel_image_residual(vs, ops):
    """Compare ``T pi2 Phi(u)`` against its closed pointwise form
    ``(0, -u QZQ(X+Y)/2 + i u Q(X-Y)/2)`` for each embedded function.  Both
    vanish off ``supp Q``, so the norms are sums over its cells."""
    if vs.n_singular == 0:
        return 0.0
    vol = vs.coeffs.grid.cell_volume
    cells = vs.support
    q, z, x, y = (f[cells] for f in (vs.q_field, vs.derived.Z_field,
                                     vs.derived.X_field, vs.derived.Y_field))
    qzq = np.matmul(np.matmul(q, z), q)
    w_num = singular_field(vs, ops.tpi2_jf, cells)
    u = vs.func_values[:, cells, None]
    w_exp = (-0.5 * u * np.einsum("nkl,nl->nk", qzq, x + y)
             + 0.5j * u * np.einsum("nkl,nl->nk", q, x - y))
    res = np.sqrt(vol * np.sum(np.abs(w_num - w_exp) ** 2, axis=(1, 2)))
    scale = np.sqrt(vol * np.sum(np.abs(w_exp) ** 2, axis=(1, 2)))
    return float(np.max(res / np.maximum(1.0, scale)))


def singular_vertex(bmat, mmat):
    """Vertex, half-angle and witness of a (possibly non-sectorial) form
    over a basis span, from its Gram pair ``(B, M)`` by
    :func:`~regpart.model.vertex_search`."""
    return VertexReport(*vertex_search(bmat, mmat))


def regular_sector_tangent(reg, derived, s):
    """Largest per-cell sector tangent of the regular second-order field,
    the spectral norm of ``g(A') Im(C') g(A')``.

    On ``supp Q`` it is :func:`~regpart.pointwise.sector_tangent` of the
    regular stack of ``s.support``; a cell whose ``Im(C')`` couples into
    ``ker A'`` reads ``TANGENT_CAP``.  Off ``supp Q`` the regular field is
    the input ``C``, whose ``g Im(C) g`` is the ``Z`` of ``derived``, and
    the spectral norms of ``Z``, taken chunk by chunk, count there.
    """
    c = reg.C_reg.values
    top = float(np.max(sector_tangent(herm_part(c), imag_part(c))[0],
                       initial=0.0))
    tangent, = chunked(lambda rows: (_row_max_abs(
        np.linalg.eigvalsh(derived.Z_field[rows])),), derived.n_cells)
    tangent[s.support] = 0.0
    return max(top, float(np.max(tangent)))


def oracle_pairs(reg_set, vs, ops):
    """The regular part on every pair of embedded functions ``vs.funcs``,
    two ways: ``formula[i, j] = eval_form(reg_set, u_i, u_j)`` from the
    assembled fields and the table ``oracle = oracle_regular_part(ops, vs)``
    from the Gram-matrix construction."""
    return (eval_form(reg_set, vs.funcs, vs.funcs).value,
            oracle_regular_part(ops, vs))


def check_realpart_commutation(s, vs, formula):
    """Pointwise criterion for ``Re`` and regularization to commute:
    ``QZ = ZQ`` and ``(I+iZ) Q X = (I-iZ) Q Y`` per cell, both read on the
    cells of ``supp Q`` (elsewhere both sides vanish).

    The verdict is backed by values on the built subspace ``vs``: the real
    part of the assembled regular part's table ``formula[i, j] =
    a_reg(u_i, u_j)`` over its function family is compared against the
    abstract regular part of the form's real part (same construction run
    on the Hermitian form Gram) over all function pairs; the maximum
    absolute gap is reported.
    """
    cells, q, derived = s.support, s.Q, vs.derived
    z, x, y = (f[cells] for f in (derived.Z_field, derived.X_field,
                                  derived.Y_field))
    comm = float(np.max(_commutators(s, derived), initial=0.0))
    qx = np.einsum("nkl,nl->nk", q, x)
    qy = np.einsum("nkl,nl->nk", q, y)
    lhs = qx + 1j * np.einsum("nkl,nl->nk", z, qx)
    rhs = qy - 1j * np.einsum("nkl,nl->nk", z, qy)
    xy_res = float(np.max(np.linalg.norm(lhs - rhs, axis=-1), initial=0.0))
    ok = comm <= COMMUTE_TOL and xy_res <= COMMUTE_TOL

    oracle = oracle_regular_part(compute_operators(vs, real_part=True), vs)
    oracle_gap = float(np.max(np.abs(
        0.5 * (formula + np.conj(formula.T)) - oracle)))
    return RealPartReport(ok=ok, commutator_residual=comm,
                          xy_residual=xy_res, oracle_max_diff=oracle_gap)


def check_equivalences(vs, ops, reg, s, formula, xi=None,
                       lambdas=PROBE_LAMBDAS):
    """Decide the five-way equivalence on one model and report residuals.

    ``vs`` is the oracle's subspace built on a non-empty family ``funcs``
    (a :class:`~regpart.grid.TestFunction` with one leading axis),
    ``ops`` its operators, ``reg`` the assembled regular part, ``formula``
    its table ``eval_form(reg_set, funcs, funcs).value`` and ``s`` the
    singular structure; the family, the coefficients, the derived fields
    and the form and L2 Grams of ``funcs`` are read off ``vs``.  ``funcs``
    drives the kernel-image check, the growth probe (``funcs[0]`` modulated
    along ``xi``, by default the all-ones direction) and the three vertex
    searches: the form's on ``vs.form_blocks.ff``, the other two on one
    ``eval_form`` of the singular part, whose ``second_order`` part is
    exactly the pure second-order companion's Gram (same ``C_s``).  The
    singular part's fields are exactly 0 off ``supp Q``, so its Gram sums
    over the cells of ``s.support`` only.
    """
    coeffs, derived, funcs = vs.coeffs, vs.derived, vs.funcs

    field_gap = _relative_field_gap(reg, chunked(
        lambda rows: _commuting_fields(coeffs, derived, s, rows),
        len(s.support)))
    kernel_res = _kernel_image_residual(vs, ops)

    if xi is None:
        xi = np.ones(coeffs.dim) / np.sqrt(coeffs.dim)
    probe = t_pi2_probe(vs, ops, funcs[0], xi, lambdas)

    realpart = check_realpart_commutation(s, vs, formula)
    comm = realpart.commutator_residual

    probe_positive = not probe.skipped and probe.slope > PROBE_POSITIVE
    sectorial = {
        "value": not probe_positive,
        "mode": "certified-false" if probe_positive else "consistent-true",
        "residual": probe.slope}
    verdicts = {
        "commuting": {"value": comm <= COMMUTE_TOL, "mode": "certified",
                      "residual": comm},
        "simplified_formula": {"value": field_gap <= FIELD_TOL,
                               "mode": "certified", "residual": field_gap},
        "kernel_image_formula": {"value": kernel_res <= FIELD_TOL,
                                 "mode": "certified", "residual": kernel_res},
        "singular_sectorial": sectorial,
        "pure_singular_sectorial": dict(sectorial),
    }
    sing = eval_form(reg.singular_set(coeffs.theta, coeffs.K_bound), funcs,
                     funcs, cells=s.support)
    return DiagnosticsReport(
        commutator_max=comm, realpart=realpart, slope_probe=probe,
        qz_iq_asqrt_max=float(np.max(frobenius(_qz_iq_asqrt(vs)[1]),
                                     initial=0.0)),
        form_vertex=VertexReport(*vertex_search(vs.form_blocks.ff, vs.mass)),
        as_vertex=singular_vertex(sing.value.T, vs.mass),
        aps_vertex=singular_vertex(sing.second_order.T, vs.mass),
        regular_tangent=regular_sector_tangent(reg, derived, s),
        verdicts=verdicts)


# -- worked example ---------------------------------------------------------

def svc_intervals(stage):
    """Closed intervals of the stage-``n`` Smith-Volterra-Cantor set as
    exact fractions: step ``k`` removes the open middle of length ``4^-k``
    from each surviving interval."""
    stage = int(stage)
    if stage < 0:
        raise ValidationError("stage must be >= 0")
    intervals = [(Fraction(0), Fraction(1))]
    for k in range(1, stage + 1):
        gap = Fraction(1, 4 ** k)
        nxt = []
        for lo, hi in intervals:
            mid = (lo + hi) / 2
            nxt.append((lo, mid - gap / 2))
            nxt.append((mid + gap / 2, hi))
        intervals = nxt
    return intervals


def svc_measure(stage):
    """Exact Lebesgue measure ``1 - (1 - 2^-n)/2`` of the stage-``n`` set."""
    stage = int(stage)
    return Fraction(1) - (Fraction(1) - Fraction(1, 2 ** stage)) / 2


def default_cantor_grid(stage):
    """Aligned 1-D grid on ``[-1, 2]``: ``2 * 4^stage`` cells per unit, so
    every set endpoint (denominator ``2^(2n+1)``) lands on a cell edge."""
    cpu = 2 * 4 ** int(stage)
    return GridSpec(dim=1, box=((-1.0, 2.0),), cells_per_axis=(3 * cpu,))


def cantor_mask(stage, grid):
    """Boolean per-cell indicator of the stage-``n`` set on an aligned grid.

    Raises :class:`ResolutionTooCoarse` when the grid cannot resolve the
    removed gaps exactly (cells per unit not a multiple of ``2 * 4^n``).
    """
    if grid.dim != 1 or grid.box != ((-1.0, 2.0),):
        raise ValidationError("the worked example lives on [-1, 2] in 1-D")
    cells = grid.cells_per_axis[0]
    if cells % 3:
        raise ResolutionTooCoarse("cell count must split [-1, 2] into unit "
                                  "thirds")
    cpu = cells // 3
    if cpu % (2 * 4 ** int(stage)):
        raise ResolutionTooCoarse(
            "need a multiple of 2*4^stage = %d cells per unit for exact "
            "alignment, got %d" % (2 * 4 ** int(stage), cpu))
    return interval_mask(grid, svc_intervals(stage))


def cantor_model_doc(stage):
    """Model document of the fat-Cantor worked example, its one definition.

    On the set: unit second-order coefficient, first-order coefficients
    ``+1`` (gradient slot) and ``-1`` (function slot), and zeroth-order
    ``+1``.  Off the set everything vanishes.  The singular directions are
    the set itself (``Q = indicator``), the sector half-angle is ``pi/4``
    and the domination constant ``1`` — all boundary-tight.  The functions
    are a plateau equal to one across ``[0, 1]`` and bumps, one of which
    lives entirely in the first removed gap.  Only the coefficients are
    built; ``Q`` and the functions go into the document as specs.
    """
    stage = int(stage)
    if not 0 <= stage <= MAX_CANTOR_STAGE:
        raise ValidationError("stage must lie in 0..%d, got %d"
                              % (MAX_CANTOR_STAGE, stage))
    grid = default_cantor_grid(stage)
    ind = cantor_mask(stage, grid).astype(complex)
    coeffs = CoefficientSet(grid=grid, C_field=ind[:, None, None],
                            b_field=ind[:, None], d_field=-ind[:, None],
                            c0_field=ind, theta=np.pi / 4, K_bound=1.0)
    bumps = {"bump_gap": (0.5, 0.1), "bump_left": (0.125, 0.1),
             "bump_right": (0.875, 0.1), "bump_wide": (0.5, 0.45),
             "bump_outside": (1.5, 0.3)}  # name: (center, width)
    func_specs = [{"name": "plateau", "kind": "plateau", "flat": [0.0, 1.0]}]
    func_specs += [{"name": name, "kind": "bump", "center": [c],
                    "width": [w]} for name, (c, w) in bumps.items()]
    return make_model_doc(coeffs, q_indicator_spec(svc_intervals(stage)),
                          func_specs)


def generate_cantor_example(stage):
    """The worked example of :func:`cantor_model_doc`, loaded: returns
    ``(coeffs, q_field, funcs)`` where ``funcs`` maps the function names
    to test functions."""
    model = doc_to_model(cantor_model_doc(stage))
    return model.coeffs, model.q_field, model.funcs


def generate_noncommuting_example(coupling=0.5):
    """Minimal 2-D constant-coefficient model whose singular directions do
    not commute with the skew field.

    ``A = I``, ``Z`` couples the two axes off-diagonally with the given
    strength, and ``Q`` projects onto the first axis, so
    ``QZ(I-Q) != 0`` with norm equal to ``coupling``.  All lower-order
    coefficients vanish and every field is real, which keeps the growth
    probe's ratio exactly affine in ``lambda^2``.
    """
    grid = GridSpec(dim=2, box=((0.0, 1.0), (0.0, 1.0)),
                    cells_per_axis=(8, 8))
    n = grid.n_cells
    z = np.array([[0.0, coupling], [coupling, 0.0]], dtype=complex)
    c = np.broadcast_to(np.eye(2) + 1j * z, (n, 2, 2)).copy()
    theta = float(np.arctan(abs(coupling))) + 1e-9 if coupling else 0.0
    coeffs = CoefficientSet(
        grid=grid, C_field=c,
        b_field=np.zeros((n, 2), dtype=complex),
        d_field=np.zeros((n, 2), dtype=complex),
        c0_field=np.zeros(n, dtype=complex),
        theta=min(theta, np.pi / 2 - 1e-9), K_bound=1.0)
    q = np.zeros((n, 2, 2), dtype=complex)
    q[:, 0, 0] = 1.0
    return coeffs, q
