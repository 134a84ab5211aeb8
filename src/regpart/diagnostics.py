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

The module also houses the worked fat-Cantor example generator: a
stage-``n`` Smith-Volterra-Cantor set drives an indicator-coefficient model
whose regular part is a pure multiplication form and whose singular part has
strictly negative vertex on a plateau function.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .completion import (ProbeReport, _qz_iq_asqrt, compute_operators,
                         oracle_regular_part, singular_field, t_pi2_probe)
from .errors import ResolutionTooCoarse, ValidationError
from .grid import GridSpec, TestFunction
from .model import CoefficientSet, eval_form, vertex_search
from .pointwise import SectorParams, frobenius, herm_part, imag_part, pinv_sqrt
from .regularize import (assemble_regular_commuting, commutator_norms,
                         indicator_projection, interval_mask)

__all__ = [
    "DiagnosticsReport",
    "RealPartReport",
    "VertexReport",
    "check_equivalences",
    "check_realpart_commutation",
    "singular_vertex",
    "regular_sector_tangent",
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


def _relative_field_gap(reg_a, reg_b):
    """Largest per-cell difference between two assemblies, relative to the
    field scale."""
    gaps = []
    for name in ("C_reg", "b_reg", "d_reg", "c0_reg"):
        fa = getattr(reg_a, name)
        fb = getattr(reg_b, name)
        diff = np.abs(fa - fb)
        while diff.ndim > 1:
            diff = diff.max(axis=-1)
        scale = max(1.0, float(np.max(np.abs(fa))), float(np.max(np.abs(fb))))
        gaps.append(float(np.max(diff)) / scale)
    return max(gaps)


def _kernel_image_residual(vs, ops):
    """Compare ``T pi2 Phi(u)`` against its closed pointwise form
    ``(0, -u QZQ(X+Y)/2 + i u Q(X-Y)/2)`` for each embedded function."""
    if vs.n_singular == 0:
        return 0.0
    vol = vs.coeffs.grid.cell_volume
    q, z = vs.q_field, vs.derived.Z_field
    qzq = np.matmul(np.matmul(q, z), q)
    xy_sum = vs.derived.X_field + vs.derived.Y_field
    xy_diff = vs.derived.X_field - vs.derived.Y_field
    w_num = singular_field(vs, ops.tpi2_jf)
    u = vs.func_values[:, :, None]
    w_exp = (-0.5 * u * np.einsum("nkl,nl->nk", qzq, xy_sum)
             + 0.5j * u * np.einsum("nkl,nl->nk", q, xy_diff))
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
    computed as the spectral norm of ``g(A') Im(C') g(A')``.

    Off ``supp Q`` the regular field is the input ``C``, whose ``g Im(C) g``
    is the ``Z`` of ``derived``; the roots are taken on ``s.support`` only.
    """
    c = reg.C_reg[s.support]
    g = pinv_sqrt(herm_part(c))
    zr = herm_part(np.einsum("nij,njk,nkl->nil", g, imag_part(c), g))
    z_off = np.delete(derived.Z_field, s.support, axis=0)
    return float(max(np.max(np.abs(np.linalg.eigvalsh(zr)), initial=0.0),
                     np.max(np.abs(np.linalg.eigvalsh(z_off)), initial=0.0)))


def oracle_pairs(reg_set, funcs, vs, ops):
    """The regular part on every pair of embedded functions, two ways:
    ``formula[i, j] = eval_form(reg_set, u_i, u_j)`` from the assembled
    fields and the table ``oracle = oracle_regular_part(ops, vs)`` from the
    Gram-matrix construction."""
    return (eval_form(reg_set, funcs, funcs).value,
            oracle_regular_part(ops, vs))


def check_realpart_commutation(coeffs, derived, s, vs, formula):
    """Pointwise criterion for ``Re`` and regularization to commute:
    ``QZ = ZQ`` and ``(I+iZ) Q X = (I-iZ) Q Y`` per cell.

    The verdict is backed by values on the built subspace ``vs``: the real
    part of the assembled regular part's table ``formula[i, j] =
    a_reg(u_i, u_j)`` over its function family is compared against the
    abstract regular part of the form's real part (same construction run
    on the Hermitian form Gram) over all function pairs; the maximum
    absolute gap is reported.
    """
    q, z = s.Q_field, derived.Z_field
    comm = float(np.max(commutator_norms(s, derived)))
    qx = np.einsum("nkl,nl->nk", q, derived.X_field)
    qy = np.einsum("nkl,nl->nk", q, derived.Y_field)
    lhs = qx + 1j * np.einsum("nkl,nl->nk", z, qx)
    rhs = qy - 1j * np.einsum("nkl,nl->nk", z, qy)
    xy_res = float(np.max(np.linalg.norm(lhs - rhs, axis=-1)))
    ok = comm <= COMMUTE_TOL and xy_res <= COMMUTE_TOL

    oracle = oracle_regular_part(compute_operators(vs, real_part=True), vs)
    oracle_gap = float(np.max(np.abs(
        0.5 * (formula + np.conj(formula.T)) - oracle)))
    return RealPartReport(ok=ok, commutator_residual=comm,
                          xy_residual=xy_res, oracle_max_diff=oracle_gap)


def check_equivalences(vs, ops, reg, s, funcs, formula, xi=None,
                       lambdas=PROBE_LAMBDAS):
    """Decide the five-way equivalence on one model and report residuals.

    ``vs`` is the oracle's subspace built on the non-empty family ``funcs``,
    ``ops`` its operators, ``reg`` the assembled regular part, ``formula``
    its table ``eval_form(reg_set, funcs, funcs).value`` and ``s`` the
    singular structure; the coefficients, the derived fields and the form
    and L2 Grams of ``funcs`` are read off ``vs``.  ``funcs`` drives the
    kernel-image check, the growth probe (``funcs[0]`` modulated along
    ``xi``, by default the all-ones direction) and the three vertex
    searches: the form's on ``vs.form_blocks.ff``, the other two on one
    ``eval_form`` of the singular part, whose ``second_order`` part is
    exactly the pure second-order companion's Gram (same ``C_s``).
    """
    coeffs, derived = vs.coeffs, vs.derived
    funcs = list(funcs)

    reg_c = assemble_regular_commuting(coeffs, derived, s, tol=np.inf)
    field_gap = _relative_field_gap(reg, reg_c)
    kernel_res = _kernel_image_residual(vs, ops)

    if xi is None:
        xi = np.ones(coeffs.dim) / np.sqrt(coeffs.dim)
    probe = t_pi2_probe(vs, ops, funcs[0], xi, lambdas)

    realpart = check_realpart_commutation(coeffs, derived, s, vs=vs,
                                          formula=formula)
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
                     funcs)
    return DiagnosticsReport(
        commutator_max=comm, realpart=realpart, slope_probe=probe,
        qz_iq_asqrt_max=float(np.max(frobenius(_qz_iq_asqrt(vs)))),
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


def default_cantor_grid(stage, m=2):
    """Aligned 1-D grid on ``[-1, 2]``: ``m * 4^stage`` cells per unit with
    ``m`` even, so every set endpoint (denominator ``2^(2n+1)``) lands on a
    cell edge."""
    if m < 2 or m % 2:
        raise ValidationError("cells-per-unit multiplier m must be even")
    cpu = (4 ** int(stage)) * int(m)
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


def generate_cantor_example(stage, include_c0=True):
    """Indicator-coefficient model on a fat Cantor set.

    On the set: unit second-order coefficient, first-order coefficients
    ``+1`` (gradient slot) and ``-1`` (function slot), and zeroth-order
    ``+1`` (dropped when ``include_c0`` is false).  Off the set everything
    vanishes.  The singular directions are the set itself
    (``Q = indicator``), the sector half-angle is ``pi/4`` and the
    domination constant ``1`` — all boundary-tight.

    Returns ``(coeffs, q_field, funcs)`` where ``funcs`` maps names to test
    functions: a plateau equal to one across ``[0, 1]`` and a family of
    bumps, one of which lives entirely in the first removed gap.
    """
    stage = int(stage)
    if stage > 12:
        raise ValidationError("stage must be <= 12")
    grid = default_cantor_grid(stage)
    mask = cantor_mask(stage, grid)
    ind = mask.astype(complex)

    n = grid.n_cells
    coeffs = CoefficientSet(
        grid=grid,
        C_field=ind[:, None, None] * np.ones((n, 1, 1)),
        b_field=ind[:, None].copy(),
        d_field=-ind[:, None],
        c0_field=ind.copy() if include_c0 else np.zeros(n, dtype=complex),
        theta=np.pi / 4,
        K_bound=1.0,
    )
    q_field = indicator_projection(grid, mask)

    funcs = {
        "plateau": TestFunction.plateau_1d(grid, 0.0, 1.0),
        "bump_gap": TestFunction.bump(grid, center=[0.5], width=[0.1]),
        "bump_left": TestFunction.bump(grid, center=[0.125], width=[0.1]),
        "bump_right": TestFunction.bump(grid, center=[0.875], width=[0.1]),
        "bump_wide": TestFunction.bump(grid, center=[0.5], width=[0.45]),
        "bump_outside": TestFunction.bump(grid, center=[1.5], width=[0.3]),
    }
    return coeffs, q_field, funcs


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
