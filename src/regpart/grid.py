"""Uniform tensor grids on a box, and piecewise data attached to their cells.

A :class:`GridSpec` describes an axis-aligned box split into equal cells.
Coefficient fields live as one value (scalar, vector, or matrix) per cell;
test functions carry one complex value and one complex gradient per cell.
Quadrature is the midpoint rule: every cell contributes
``cell_volume * integrand(center)``.

Test functions come in two flavours:

* built from node values (multilinear interpolation per cell determines the
  cell average and the constant per-cell gradient exactly), or
* built directly from per-cell values and gradients, for analytically known
  profiles such as modulated waves where the gradient should not be squeezed
  through a difference quotient.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, ValidationError

__all__ = ["GridSpec", "TestFunction", "MAX_CELLS"]

#: Refuse to allocate grids with more cells than this.
MAX_CELLS = 10**7


@dataclass(frozen=True)
class GridSpec:
    """An axis-aligned box ``[lo_1, hi_1] x ... x [lo_d, hi_d]`` divided into
    ``cells_per_axis`` equal cells along each axis.

    Cells are enumerated in C order (last axis fastest)."""

    dim: int
    box: tuple[tuple[float, float], ...]
    cells_per_axis: tuple[int, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("grid dimension must be >= 1")
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        cells = tuple(int(n) for n in self.cells_per_axis)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "cells_per_axis", cells)
        if len(box) != self.dim or len(cells) != self.dim:
            raise ValidationError(
                "box and cells_per_axis must each have one entry per dimension")
        for lo, hi in box:
            if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
                raise ValidationError("each box interval needs finite lo < hi")
        if any(n < 1 for n in cells):
            raise ValidationError("cells_per_axis entries must be >= 1")
        n_total = math.prod(cells)
        if n_total > MAX_CELLS:
            raise ValidationError(
                "grid would have %d cells, exceeding the %d-cell cap"
                % (n_total, MAX_CELLS))

    @property
    def spacings(self):
        """Cell edge lengths per axis, shape ``(dim,)``."""
        return np.array([(hi - lo) / n for (lo, hi), n
                         in zip(self.box, self.cells_per_axis)])

    @property
    def cell_volume(self):
        return float(np.prod(self.spacings))

    @property
    def n_cells(self):
        return math.prod(self.cells_per_axis)

    @property
    def node_shape(self):
        return tuple(n + 1 for n in self.cells_per_axis)

    def cell_centers(self):
        """Cell midpoints, shape ``(n_cells, dim)``, C-order enumeration."""
        axes = [lo + (np.arange(n) + 0.5) * (hi - lo) / n
                for (lo, hi), n in zip(self.box, self.cells_per_axis)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def axis_nodes(self):
        """Node coordinates per axis (list of ``dim`` arrays)."""
        return [np.linspace(lo, hi, n + 1)
                for (lo, hi), n in zip(self.box, self.cells_per_axis)]


def _corner_weights(dim):
    """Offsets of the 2**dim cell corners as an iterable of 0/1 tuples."""
    out = [()]
    for _ in range(dim):
        out = [t + (s,) for t in out for s in (0, 1)]
    return out


@dataclass
class TestFunction:
    """A piecewise test profile: one complex value and one complex gradient
    per cell, vanishing near the box boundary.

    ``cell_values`` has shape ``(n_cells,)`` and ``cell_gradient`` has shape
    ``(n_cells, dim)``.  ``node_values`` is kept when the function was built
    from nodes, otherwise ``None``.
    """

    # not a test case, despite the name test runners like to match
    __test__ = False

    grid: GridSpec
    cell_values: np.ndarray
    cell_gradient: np.ndarray
    node_values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.cell_values = np.asarray(self.cell_values, dtype=complex)
        self.cell_gradient = np.asarray(self.cell_gradient, dtype=complex)
        n, d = self.grid.n_cells, self.grid.dim
        if self.cell_values.shape != (n,):
            raise GridMismatch("cell_values must have shape (%d,)" % n)
        if self.cell_gradient.shape != (n, d):
            raise GridMismatch("cell_gradient must have shape (%d, %d)" % (n, d))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_node_values(cls, grid, node_values, require_support=True):
        """Build from values on the ``prod(n_i + 1)`` grid nodes.

        Within each cell the function is the multilinear interpolant of its
        corner values; the stored cell value is the interpolant's average over
        the cell (mean of the corners) and the stored gradient is the
        interpolant's mean gradient (pairwise corner differences / spacing).

        With ``require_support`` the node values on the boundary faces must
        vanish exactly, so the profile is compactly supported inside the
        box.
        """
        node_values = np.asarray(node_values, dtype=complex)
        if node_values.shape != grid.node_shape:
            raise GridMismatch(
                "node_values must have shape %r, got %r"
                % (grid.node_shape, node_values.shape))
        if require_support:
            for ax in range(grid.dim):
                first = np.take(node_values, 0, axis=ax)
                last = np.take(node_values, -1, axis=ax)
                bound = max(np.max(np.abs(first)), np.max(np.abs(last)))
                if bound > 0.0:
                    raise ValidationError(
                        "node values must vanish on the boundary (axis %d "
                        "has magnitude %.3e)" % (ax, float(bound)))

        dim = grid.dim
        h = grid.spacings
        corners = _corner_weights(dim)
        # Corner slabs: node_values[i+s1, j+s2, ...] for each 0/1 offset.
        slabs = {}
        for off in corners:
            idx = tuple(slice(s, n + s) for s, n in zip(off, grid.cells_per_axis))
            slabs[off] = node_values[idx]

        value = sum(slabs[off] for off in corners) / len(corners)
        grads = []
        for ax in range(dim):
            plus = sum(slabs[off] for off in corners if off[ax] == 1)
            minus = sum(slabs[off] for off in corners if off[ax] == 0)
            grads.append((plus - minus) / (len(corners) // 2) / h[ax])
        grad = np.stack([g.reshape(-1) for g in grads], axis=-1)
        return cls(grid=grid, cell_values=value.reshape(-1),
                   cell_gradient=grad, node_values=node_values)

    @classmethod
    def zero(cls, grid):
        return cls(grid=grid,
                   cell_values=np.zeros(grid.n_cells, dtype=complex),
                   cell_gradient=np.zeros((grid.n_cells, grid.dim),
                                          dtype=complex))

    @classmethod
    def bump(cls, grid, center, width, amplitude=1.0):
        """Smooth compact bump: product over axes of ``cos^2`` arches of the
        given half-``width`` around ``center``, sampled on the nodes."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        width = np.atleast_1d(np.asarray(width, dtype=float))
        if center.shape != (grid.dim,):
            raise GridMismatch("center must have %d components" % grid.dim)
        if width.shape == (1,):
            width = np.repeat(width, grid.dim)
        if width.shape != (grid.dim,):
            raise GridMismatch("width must have 1 or %d components" % grid.dim)
        if not np.all(np.isfinite(width) & (width != 0.0)):
            raise ValidationError("bump width must be finite and nonzero on "
                                  "every axis, got %s" % width.tolist())
        vals = np.ones(grid.node_shape)
        for ax, nodes in enumerate(grid.axis_nodes()):
            # a tiny width sends far nodes to inf, which the mask zeroes
            with np.errstate(over="ignore", invalid="ignore"):
                s = (nodes - center[ax]) / width[ax]
                arch = np.where(np.abs(s) < 1.0,
                                np.cos(0.5 * np.pi * s) ** 2, 0.0)
            shape = [1] * grid.dim
            shape[ax] = nodes.size
            vals = vals * arch.reshape(shape)
        return cls.from_node_values(grid, amplitude * vals)

    @classmethod
    def plateau_1d(cls, grid, flat_lo, flat_hi, amplitude=1.0):
        """One-dimensional trapezoid: 1 on ``[flat_lo, flat_hi]``, linear
        ramps down to 0 at the box endpoints."""
        if grid.dim != 1:
            raise GridMismatch("plateau_1d requires a 1-D grid")
        (lo, hi), = grid.box
        if not (lo < flat_lo < flat_hi < hi):
            raise ValidationError("plateau must sit strictly inside the box")
        x = grid.axis_nodes()[0]
        vals = np.interp(x, [lo, flat_lo, flat_hi, hi], [0.0, 1.0, 1.0, 0.0])
        vals[0] = 0.0
        vals[-1] = 0.0
        return cls.from_node_values(grid, amplitude * vals)

    # -- derived profiles --------------------------------------------------

    def modulated(self, lam, xi):
        """Multiply by the plane wave ``exp(i * lam * x . xi)`` evaluated at
        cell centers, with the analytically exact product-rule gradient
        ``exp(i lam x.xi) * (i lam xi u + grad u)``.

        The modulation is applied to the stored piecewise data directly (no
        re-interpolation), so ``|values|`` and hence the plain quadrature
        norm are preserved for every ``lam``.
        """
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.grid.dim,):
            raise GridMismatch("xi must have %d components" % self.grid.dim)
        # an overflowing wave is left non-finite for the V build to name
        with np.errstate(over="ignore", invalid="ignore"):
            phase = np.exp(1j * lam * (self.grid.cell_centers() @ xi))
            values = phase * self.cell_values
            grad = phase[:, None] * (
                self.cell_gradient + 1j * lam * np.outer(self.cell_values, xi))
        return TestFunction(grid=self.grid, cell_values=values,
                            cell_gradient=grad)

    def scaled(self, factor):
        return TestFunction(grid=self.grid,
                            cell_values=factor * self.cell_values,
                            cell_gradient=factor * self.cell_gradient,
                            node_values=None)

    # -- quadrature --------------------------------------------------------

    def norm_sq(self):
        """Squared midpoint-rule L2 norm of the cell values."""
        return float(self.grid.cell_volume
                     * np.sum(np.abs(self.cell_values) ** 2))

    def norm(self):
        return float(np.sqrt(self.norm_sq()))
