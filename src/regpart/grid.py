"""Uniform tensor grids on a box, and piecewise data attached to their cells.

A :class:`GridSpec` describes an axis-aligned box split into equal cells.
Coefficient fields live as one value (scalar, vector, or matrix) per cell;
test functions carry one complex value and one complex gradient per cell.
Quadrature is the midpoint rule: every cell contributes
``cell_volume * integrand(center)``.

A :class:`TestFunction` is one function or a family of them along leading
axes, and every kernel reads a family's arrays in place.  Its cell data
comes either

* from node values (multilinear interpolation per cell determines the
  cell average and the constant per-cell gradient exactly; the node values
  are not kept), or
* directly from per-cell values and gradients, for analytically known
  profiles such as modulated waves where the gradient should not be squeezed
  through a difference quotient.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, ValidationError

__all__ = ["GridSpec", "TestFunction", "DeltaField", "MAX_CELLS",
           "CELL_CHUNK", "cell_chunks", "chunked", "cell_data_from_nodes"]

#: Refuse to allocate grids with more cells than this.
MAX_CELLS = 10**7

#: Cells per chunk of a pass over all cells: such a pass holds its
#: temporaries for this many cells at a time (at most twice as many),
#: whatever the grid size.
CELL_CHUNK = 4096


def cell_chunks(n):
    """Consecutive slices that cover ``range(n)``: one when
    ``n <= 2 * CELL_CHUNK - 1``, none when ``n == 0``, and otherwise
    ``CELL_CHUNK`` cells each, the last one taking the remainder too.
    :func:`chunked` runs a per-cell kernel over them."""
    bounds = list(range(0, n, CELL_CHUNK)) + [n]
    if len(bounds) > 2 and n - bounds[-2] < CELL_CHUNK:
        del bounds[-2]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def chunked(kernel, n):
    """Run a per-cell ``kernel`` over the chunks of ``range(n)`` and gather
    its outputs.

    ``kernel(rows)`` takes one slice of :func:`cell_chunks` (one empty
    slice when ``n == 0``, so that the outputs still get their shapes) and
    returns a sequence of arrays with one row per cell of ``rows``.  Each
    output is allocated once, with the first chunk's dtype and trailing
    shape, and filled chunk by chunk in place; the outputs come back as a
    tuple, in the kernel's order.  A pass holds its temporaries for one
    chunk at a time, whatever ``n``; a check has its kernel return a few
    floats per cell and picks the worst cell from them afterwards, by its
    index in ``range(n)``.

    The layout rule: no chunk of more than ``CELL_CHUNK`` cells is smaller
    than ``CELL_CHUNK``, so a kernel gives the bits of one pass over the
    whole stack.  numpy lays out some temporaries (those it reuses in
    place, from 256 KiB up) by their size, and an ``einsum`` over a matrix
    stack sums in an order set by that layout; a stack of ``CELL_CHUNK``
    matrices of dimension 2 or more is already past that size, like the
    whole one.
    """
    outs = None
    for rows in cell_chunks(n) or [slice(0, 0)]:
        parts = kernel(rows)
        if outs is None:
            outs = tuple(np.empty((n,) + part.shape[1:], dtype=part.dtype)
                         for part in parts)
        for out, part in zip(outs, parts):
            out[rows] = part
    return outs


class DeltaField:
    """A per-cell field held as a base field and the rows that differ.

    Row ``r`` is ``base[r]`` except on the sorted cell indices ``cells``,
    where row ``cells[k]`` is ``values[k]``.  A ``base`` of zeros can be a
    broadcast array that holds no memory.  Indexing by a slice, by cell
    indices or by a boolean mask gives those rows as a new array, so a pass
    over a chunk of cells builds that chunk only; ``np.asarray`` builds the
    whole field, and nothing else does.
    """

    def __init__(self, base, cells, values):
        self.base, self.cells, self.values = base, cells, values

    @property
    def shape(self):
        return self.base.shape

    @property
    def ndim(self):
        return self.base.ndim

    @property
    def dtype(self):
        return self.base.dtype

    def __len__(self):
        return len(self.base)

    def __getitem__(self, rows):
        if isinstance(rows, slice) and rows.step in (None, 1):
            lo, hi, _ = rows.indices(len(self))
            out = self.base[lo:hi].copy()
            k0, k1 = self.cells.searchsorted(lo), self.cells.searchsorted(hi)
            if k1 > k0:
                out[self.cells[k0:k1] - lo] = self.values[k0:k1]
            return out
        if isinstance(rows, slice):
            rows = np.arange(*rows.indices(len(self)))
        rows = np.asarray(rows)
        if rows.ndim == 0:
            return self[rows.reshape(1)][0]
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        rows = np.where(rows < 0, rows + len(self), rows)
        out = self.base[rows]  # a new array: ``rows`` is an index array
        k = self.cells.searchsorted(rows)
        hit = k < len(self.cells)
        hit[hit] = self.cells[k[hit]] == rows[hit]
        out[hit] = self.values[k[hit]]
        return out

    def __array__(self, dtype=None, copy=None):
        out = self.base.copy()
        out[self.cells] = self.values
        return out if dtype is None else out.astype(dtype, copy=False)


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


def cell_data_from_nodes(grid, node_values):
    """Cell values ``(..., n_cells)`` and gradients ``(..., n_cells, dim)``
    of the multilinear interpolants of node values ``(..., *node_shape)``.

    A cell's value is the mean of its corners and its gradient the mean
    corner difference along each axis over the spacing.  Leading axes are
    a family of functions, each computed with the same operations, in the
    same order, as on its own.
    """
    cells = node_values.shape[:node_values.ndim - grid.dim] + (grid.n_cells,)
    corners = _corner_weights(grid.dim)
    # Corner slabs: node_values[..., i+s1, j+s2, ...] for each 0/1 offset.
    slabs = {}
    for off in corners:
        idx = tuple(slice(s, n + s) for s, n in zip(off, grid.cells_per_axis))
        slabs[off] = node_values[(Ellipsis,) + idx]
    value = sum(slabs[off] for off in corners) / len(corners)
    grads = []
    for ax, h in enumerate(grid.spacings):
        plus = sum(slabs[off] for off in corners if off[ax] == 1)
        minus = sum(slabs[off] for off in corners if off[ax] == 0)
        grads.append(((plus - minus) / (len(corners) // 2) / h)
                     .reshape(cells))
    return value.reshape(cells), np.stack(grads, axis=-1)


@dataclass
class TestFunction:
    """A piecewise test profile, or a family of them: one complex value and
    one complex gradient per cell, vanishing near the box boundary.

    ``cell_values`` has shape ``(*batch, n_cells)`` and ``cell_gradient``
    has shape ``(*batch, n_cells, dim)``; an empty ``batch`` is one function.
    ``len(f)`` and ``f[i]`` act on the leading batch axis, so iterating a
    family yields its functions, each a view of the family's rows.  A
    function built from node values does not keep them.
    """

    # not a test case, despite the name test runners like to match
    __test__ = False

    grid: GridSpec
    cell_values: np.ndarray
    cell_gradient: np.ndarray

    def __post_init__(self):
        self.cell_values = np.asarray(self.cell_values, dtype=complex)
        self.cell_gradient = np.asarray(self.cell_gradient, dtype=complex)
        n, d = self.grid.n_cells, self.grid.dim
        if self.cell_values.shape[-1:] != (n,):
            raise GridMismatch("cell_values must have shape (..., %d), got %r"
                               % (n, self.cell_values.shape))
        if self.cell_gradient.shape != self.cell_values.shape + (d,):
            raise GridMismatch(
                "cell_gradient must have shape %r, got %r"
                % (self.cell_values.shape + (d,), self.cell_gradient.shape))

    def __len__(self):
        # a single function's values hold no batch axis, so len() raises
        return len(self.cell_values[..., 0])

    def __getitem__(self, i):
        return TestFunction(grid=self.grid, cell_values=self.cell_values[i],
                            cell_gradient=self.cell_gradient[i])

    # -- constructors ------------------------------------------------------

    @classmethod
    def stack(cls, grid, funcs):
        """The family ``(k, n_cells)`` of a sequence of ``k`` single
        functions on ``grid``; an empty sequence gives ``k = 0``."""
        funcs = list(funcs)
        if any(f.grid != grid for f in funcs):
            raise GridMismatch("test functions must live on the model's grid")
        n, d = grid.n_cells, grid.dim
        vals = np.array([f.cell_values for f in funcs], dtype=complex)
        grads = np.array([f.cell_gradient for f in funcs], dtype=complex)
        return cls(grid=grid, cell_values=vals.reshape(len(funcs), n),
                   cell_gradient=grads.reshape(len(funcs), n, d))

    @classmethod
    def from_node_values(cls, grid, node_values):
        """Build from values on the ``prod(n_i + 1)`` grid nodes.

        Within each cell the function is the multilinear interpolant of its
        corner values; the stored cell value is the interpolant's average over
        the cell (mean of the corners) and the stored gradient is the
        interpolant's mean gradient (pairwise corner differences / spacing).

        The node values on the boundary faces must vanish exactly, so the
        profile is compactly supported inside the box.
        """
        node_values = np.asarray(node_values, dtype=complex)
        if node_values.shape != grid.node_shape:
            raise GridMismatch(
                "node_values must have shape %r, got %r"
                % (grid.node_shape, node_values.shape))
        for ax in range(grid.dim):
            first = np.take(node_values, 0, axis=ax)
            last = np.take(node_values, -1, axis=ax)
            bound = max(np.max(np.abs(first)), np.max(np.abs(last)))
            if bound > 0.0:
                raise ValidationError(
                    "node values must vanish on the boundary (axis %d has "
                    "magnitude %.3e)" % (ax, float(bound)))

        values, grads = cell_data_from_nodes(grid, node_values)
        return cls(grid=grid, cell_values=values, cell_gradient=grads)

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

        ``lam`` is a number or an array, whose shape leads the batch shape
        of the result: one call modulates by every frequency, each with the
        operations of a call on that frequency alone.  The modulation is
        applied to the stored piecewise data directly (no
        re-interpolation), so ``|values|`` and hence the plain quadrature
        norm are preserved for every ``lam``.
        """
        return TestFunction(self.grid, *self.modulated_cells(lam, xi,
                                                             slice(None)))

    def modulated_cells(self, lam, xi, cells):
        """The values and gradients of :meth:`modulated` on ``cells`` only
        (an index array or a slice of the cell axis), bit for bit, without
        the rest of the grid."""
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.grid.dim,):
            raise GridMismatch("xi must have %d components" % self.grid.dim)
        lam = np.asarray(lam, dtype=float)
        lam = lam.reshape(lam.shape + (1,) * self.cell_values.ndim)
        u = self.cell_values[..., cells]
        # an overflowing wave is left non-finite for the V build to name
        with np.errstate(over="ignore", invalid="ignore"):
            phase = np.exp(1j * lam * (self.grid.cell_centers() @ xi)[cells])
            values = phase * u
            grad = phase[..., None] * (
                self.cell_gradient[..., cells, :]
                + 1j * lam[..., None] * (u[..., None] * xi))
        return values, grad

    def scaled(self, factor):
        return TestFunction(grid=self.grid,
                            cell_values=factor * self.cell_values,
                            cell_gradient=factor * self.cell_gradient)

    # -- quadrature --------------------------------------------------------

    def norm_sq(self):
        """Squared midpoint-rule L2 norm of the cell values, per function."""
        return self.grid.cell_volume * np.sum(np.abs(self.cell_values) ** 2,
                                              axis=-1)
