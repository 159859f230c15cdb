"""Decode-free compressed-domain inference (the paper's Section 5 datapath).

:class:`CompressedLinear` and :class:`CompressedConv2d` run forward — and
backward with respect to activations — directly from ``(codebook,
assignments, mask)`` without materialising the dense weight tensor per
call.  The codebook-domain (LUT) path mirrors what the MVQ accelerator does
in hardware: activations are combined with the small effective-codeword
table once (``(batch, U)`` products, ``U ≪ N_G``) and partial sums are
routed to outputs by assignment index, the product-reuse idea of the CRF +
assignment routing datapath.

Two execution paths per layer, each with one older spelling:

* ``"dense"`` — reconstruct the weight matrix **once**, cache it, and run
  ordinary GEMMs.  Still serves from compressed storage (nothing is decoded
  per call after the first), and on BLAS-backed CPUs it is the fastest
  steady state.  ``"auto"`` (the default) is accepted as a spelling of
  ``"dense"``.
* ``"lut"`` — the codebook-domain path.  Routing is driven by one
  precomputed flat lookup table (``row * U + table_entry``, built once per
  layer like ``_dense_cache``).  For grouping strategies whose subvectors
  lie along the *reduction* dimension (``INPUT``, ``KERNEL``) the forward
  pass is *gather-form*: one skinny GEMM against the table, then a single
  ``np.take`` over the partial-product table.  For the paper's ``OUTPUT``
  grouping the forward pass is *scatter-form* (activations are
  segment-summed per codeword first, a per-sample ``np.bincount`` at
  float64) and the backward pass is gather-form.  ``"centroid"`` (older
  manifests, scenarios and command lines) is accepted as a spelling of
  ``"lut"``.

An engine stores the canonical path, so ``mode`` and ``last_mode`` only
ever read ``"dense"`` or ``"lut"``.

Both paths agree with the reconstructed dense weight up to float
summation order, which the equivalence tests pin down across grouping
strategies, mask settings and compute dtypes.  Every forward is also
batch-invariant: the dense path runs one GEMM per sample, and the LUT path
chunks on whole samples with a summation order fixed per layer, so a
sample's output bits never depend on what it was batched with (the serving
tier's bit-exactness rests on this).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.codebook import Codebook, assignment_dtype
from repro.core.grouping import GroupingStrategy, grouped_shape, ungroup_weight
from repro.core.precision import compute_dtype, distance_block_bytes
from repro.core.reconstruct import effective_subvector_table
from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.tensor import Parameter

MODES = ("auto", "centroid", "dense", "lut")

#: accepted spellings of the two code paths
_ALIASES = {"auto": "dense", "centroid": "lut"}


#: grouping strategies whose subvectors lie along the GEMM reduction axis,
#: making the LUT *forward* pass gather-form (one routed ``np.take``)
_REDUCTION_SIDE = (GroupingStrategy.INPUT, GroupingStrategy.KERNEL)


def _sum_in_order(stack: np.ndarray) -> np.ndarray:
    """Sum over the first axis strictly front to back.

    ``sum(axis=0)`` does that over strided rows but sums pairwise when each
    row is a single element, which would tie a lone one-output row's bits
    to the batch it came in.
    """
    if stack[0].size == 1:
        return np.cumsum(stack, axis=0)[-1]
    return stack.sum(axis=0)


class CentroidEngine:
    """Strategy-aware compressed GEMM core shared by Linear and Conv2d.

    Operates on the im2col view: ``forward(cols) -> (batch, c_out)`` and
    ``backward(grad) -> grad_cols``, where ``cols`` rows are laid out
    ``(c_in, kh, kw)`` exactly as :func:`repro.nn.functional.im2col`
    produces them.
    """

    def __init__(self, codebook: Codebook, assignments: np.ndarray,
                 mask: Optional[np.ndarray], weight_shape: Tuple[int, ...],
                 d: int, strategy: GroupingStrategy,
                 mode: str = "auto"):
        self.mode = mode
        shape4 = weight_shape if len(weight_shape) == 4 else (*weight_shape, 1, 1)
        expected = grouped_shape(shape4, d, strategy)
        # hold assignments at the narrowest safe integer width (uint8 for
        # k <= 256, the paper's operating point) — no copy when the caller
        # already supplies the narrow dtype (e.g. a shared-memory view)
        assignments = np.asarray(assignments)
        narrow = assignment_dtype(codebook.k)
        if assignments.dtype != narrow:
            assignments = assignments.astype(narrow)
        if assignments.shape[0] != expected[0]:
            raise ValueError(
                f"{assignments.shape[0]} assignments for {expected[0]} subvectors")
        self.codebook = codebook
        self.assignments = assignments
        self.mask = None if mask is None else np.asarray(mask, dtype=bool)
        self.weight_shape = tuple(weight_shape)
        self.c_out, self.c_in, self.kh, self.kw = shape4
        self.n_in = self.c_in * self.kh * self.kw
        self.d = d
        self.strategy = strategy
        self.gather_forward = strategy in _REDUCTION_SIDE
        #: mode that actually ran on the most recent forward/backward
        self.last_mode: Optional[str] = None

        self._table: Optional[np.ndarray] = None       # (U, d) float64
        self._index: Optional[np.ndarray] = None       # (N_G,)
        self._assign2d: Optional[np.ndarray] = None    # strategy-specific 2D view
        self._dense_cache: Dict[str, np.ndarray] = {}  # cache key -> (c_out, n_in)
        self._table_cache: Dict[str, np.ndarray] = {}  # cache key -> (U, d)
        self._lut: Dict[str, np.ndarray] = {}          # "route"/"flat" LUTs

    # -- compressed state -----------------------------------------------------
    def _index_view(self, index: np.ndarray) -> np.ndarray:
        """Strategy-specific 2D reshape of the routing index (a view)."""
        s = self.strategy
        if s is GroupingStrategy.OUTPUT:
            # rows (c_out/d, c_in, kh, kw): one assignment row per output group
            return index.reshape(self.c_out // self.d, self.n_in)
        if s is GroupingStrategy.INPUT:
            # rows (c_out, c_in/d, kh, kw): blocks stride the reduction axis
            return index.reshape(
                self.c_out, (self.c_in // self.d) * self.kh * self.kw)
        # KERNEL: rows (c_out, c_in), one kernel plane per subvector
        return index.reshape(self.c_out, self.c_in)

    def _build_table(self) -> None:
        if self._table is not None:
            return
        self._table, self._index = effective_subvector_table(
            self.codebook, self.assignments, self.mask)
        self._assign2d = self._index_view(self._index)

    def _build_lut(self) -> None:
        """Precompute the flat routing LUT (once per layer, like the dense
        cache): ``flat[row, col] = row * U + assign2d[row, col]`` oriented so
        one table serves gather and scatter in both directions.  Routed reads
        become a single ``np.take`` into the flattened ``(R*U, bc)`` partial
        -product tensor; routed writes become ``np.bincount`` keys."""
        if "flat" in self._lut:
            return
        self._build_table()
        u = int(self._table.shape[0])
        route = self._assign2d.T if self.gather_forward else self._assign2d
        route = np.ascontiguousarray(route)
        self._lut["route"] = route
        self._lut["flat"] = (
            route + np.arange(route.shape[0], dtype=np.int64)[:, None] * u)

    def share_tables_with(self, source: "CentroidEngine") -> None:
        """Adopt ``source``'s lazily-built derived state instead of building
        our own copy.

        Replicas of one compressed model already share the raw ``(codebook,
        assignments, mask)`` arrays; what this shares is everything derived
        from them — the effective-codeword table, the routing index, and
        the per-dtype dense/table caches (the dense cache is the O(model)
        item).  All of it is read-only after construction, so thread
        replicas can serve from one physical copy.  The cache *dicts* are
        shared by reference: a miss filled by any replica is a hit for all
        of them (worst case under races is a benign duplicate build,
        last-write-wins).
        """
        if source is self:
            return
        source._build_table()
        # the narrow-width assignment copy is derived state too (the raw
        # source array may have been wider) — share one physical copy
        self.assignments = source.assignments
        self._table = source._table
        self._index = source._index
        self._assign2d = source._assign2d
        self._dense_cache = source._dense_cache
        self._table_cache = source._table_cache
        self._lut = source._lut

    def derived_arrays(self) -> Dict[str, np.ndarray]:
        """Everything lazily derived from the raw compressed state, as flat
        name -> array (read-only after build).  The serving tier ships these
        in the :class:`~repro.serve.shm.ShmArena` so spawned workers adopt
        them zero-copy instead of rebuilding per process."""
        self._build_table()
        out: Dict[str, np.ndarray] = {"table": self._table, "index": self._index}
        for key, arr in self._lut.items():
            out[f"lut/{key}"] = arr
        for key, arr in self._table_cache.items():
            out[f"table_cache/{key}"] = arr
        for key, arr in self._dense_cache.items():
            out[f"dense_cache/{key}"] = arr
        return out

    def adopt_derived(self, arrays: Dict[str, np.ndarray]) -> None:
        """Adopt previously exported derived state (inverse of
        :meth:`derived_arrays`); arrays may be shared-memory views."""
        self._table = np.asarray(arrays["table"])
        self._index = np.asarray(arrays["index"])
        self._assign2d = self._index_view(self._index)
        for name, arr in arrays.items():
            prefix, _, key = name.partition("/")
            if prefix == "lut":
                self._lut[key] = np.asarray(arr)
            elif prefix == "table_cache":
                self._table_cache[key] = np.asarray(arr)
            elif prefix == "dense_cache":
                self._dense_cache[key] = np.asarray(arr)

    @property
    def table_size(self) -> int:
        """U — number of distinct decoded subvector values."""
        self._build_table()
        return int(self._table.shape[0])

    def lut_table_bytes(self) -> int:
        """Bytes held by the precomputed LUT routing tables and the
        per-dtype effective-codeword tables (0 until the LUT path runs)."""
        total = sum(arr.nbytes for arr in self._lut.values())
        total += sum(arr.nbytes for arr in self._table_cache.values())
        return int(total)

    @property
    def num_blocks(self) -> int:
        """Subvector blocks along the reduction axis (gather-form only)."""
        return self.n_in // self.d if self.gather_forward else self.n_in

    def _cache_key(self, dtype: np.dtype) -> str:
        """Per-dtype caches are also keyed by the integer assignment width,
        so swapping in assignments of a different width (wider codebook,
        adopted shared views) can never alias a stale entry."""
        return f"{np.dtype(dtype).name}/{self.assignments.dtype.name}"

    def _table_as(self, dtype: np.dtype) -> np.ndarray:
        self._build_table()
        key = self._cache_key(dtype)
        if key not in self._table_cache:
            self._table_cache[key] = np.ascontiguousarray(self._table, dtype=dtype)
        return self._table_cache[key]

    def weight_matrix(self, dtype: np.dtype) -> np.ndarray:
        """Cached dense ``(c_out, n_in)`` weight matrix (built at most once
        per dtype — this is the 'decode once' fallback, not a per-call decode)."""
        key = self._cache_key(dtype)
        if key not in self._dense_cache:
            self._build_table()
            grouped = self._table[self._index]
            weight = ungroup_weight(grouped, self.weight_shape, self.d, self.strategy)
            w_mat = weight.reshape(self.c_out, self.n_in)
            self._dense_cache[key] = np.ascontiguousarray(w_mat, dtype=dtype)
        return self._dense_cache[key]

    # -- mode -----------------------------------------------------------------
    @property
    def mode(self) -> str:
        """The code path forward and backward run: ``"dense"`` or ``"lut"``."""
        return self._mode

    @mode.setter
    def mode(self, mode: str) -> None:
        """Validate against :data:`MODES` and store the canonical path, so
        an alias or a mistyped mode can never reach the forward."""
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self._mode = _ALIASES.get(mode, mode)

    def serving_stats(self) -> Dict[str, object]:
        """Introspection for serving reports: mode, table reuse, shapes."""
        return {
            "mode": self.mode,
            "last_mode": self.last_mode or self.mode,
            "strategy": self.strategy.value,
            "table_size": self.table_size,
            "subvectors": int(self.assignments.shape[0]),
            "table_reuse": float(self.assignments.shape[0]
                                 / max(self.table_size, 1)),
            "n_in": self.n_in,
            "n_out": self.c_out,
            "gather_forward": self.gather_forward,
            "assignments_dtype": self.assignments.dtype.name,
            "lut_table_bytes": self.lut_table_bytes(),
        }

    # -- block layout helpers (gather-form strategies) ------------------------
    def _to_blocks(self, cols: np.ndarray) -> np.ndarray:
        """``(batch, n_in)`` im2col rows -> ``(batch, NB, d)`` subvector blocks."""
        b = cols.shape[0]
        if self.strategy is GroupingStrategy.KERNEL:
            return cols.reshape(b, self.c_in, self.kh * self.kw)
        # INPUT: channels are the subvector axis, strided by kh*kw in cols
        xb = cols.reshape(b, self.c_in // self.d, self.d, self.kh * self.kw)
        return np.ascontiguousarray(xb.transpose(0, 1, 3, 2)).reshape(
            b, self.num_blocks, self.d)

    def _from_blocks(self, xb: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`_to_blocks` for the backward pass."""
        b = xb.shape[0]
        if self.strategy is GroupingStrategy.KERNEL:
            return xb.reshape(b, self.n_in)
        xb = xb.reshape(b, self.c_in // self.d, self.kh * self.kw, self.d)
        return np.ascontiguousarray(xb.transpose(0, 1, 3, 2)).reshape(b, self.n_in)

    def _chunk_rows(self, itemsize: int) -> int:
        """Most im2col rows per chunk so the (rows, R, U) product tensor of
        either core respects the global block budget.  A function of the
        layer's widths only, never of the batch."""
        self._build_table()
        width = max(self.num_blocks, self.c_out // self.d) * self.table_size
        return max(1, distance_block_bytes() // max(1, width * itemsize))

    def _route_chunk(self, out_width: int, itemsize: int) -> int:
        """Routed reads summed per step of the gather cores, sized for a full
        row chunk: the summation order is then fixed per layer, whatever
        the number of rows in the chunk at hand.

        It is not fixed across distance block budgets: the budget sets
        this step count and the row pieces of :meth:`_chunk_rows`, so
        gather-form (``INPUT``/``KERNEL``) float64 outputs move in the last
        bits from one budget to another (within 1e-12 relative).  The
        scatter-form ``OUTPUT`` forward, and the float32 gather forward,
        were measured bit-equal across 1 MiB, 64 KiB and 4 KiB budgets;
        ``TestLutBitsAcrossBudgets`` pins both.
        """
        rows = self._chunk_rows(itemsize)
        return max(1, distance_block_bytes() // max(1, out_width * rows * itemsize))

    # -- codebook-domain (LUT) cores --------------------------------------------
    # Forward and backward are the same two primitives with the roles of
    # the block and output dimensions swapped, so one gather core and one
    # scatter core serve all four directions, both routed by the
    # precomputed flat LUT:
    #
    # * gather: subvector-shaped operands meet the table once per
    #   (row, codeword), then one np.take per chunk reads the flattened
    #   (R*U, bc) partial-product tensor at the routed entries.
    # * scatter: flat operands are segment-summed per (row, codeword)
    #   first (np.bincount over the flat keys), then one small GEMM
    #   against the table expands each segment to d outputs.

    def _lut_gather_core(self, rows3: np.ndarray, unit: int) -> np.ndarray:
        """``(bc, R, d)`` operands x table -> routed ``(bc, out_width)``."""
        table = self._table_as(rows3.dtype)
        bc, r, d = rows3.shape
        flat = self._lut["flat"]
        out_width = flat.shape[1]
        prod = F.sample_matmul(rows3.reshape(-1, d), table.T, bc // unit)
        prod = np.ascontiguousarray(prod.reshape(bc, r, -1).transpose(1, 2, 0))
        prod = prod.reshape(r * table.shape[0], bc)
        acc = np.zeros((out_width, bc), dtype=rows3.dtype)
        chunk = self._route_chunk(out_width, rows3.itemsize)
        for lo in range(0, r, chunk):
            acc += _sum_in_order(np.take(prod, flat[lo:lo + chunk], axis=0))
        return acc.T

    def _lut_scatter_core(self, values: np.ndarray, unit: int) -> np.ndarray:
        """``(bc, M)`` operands segment-summed via the flat-key bincount,
        then expanded through the table -> ``(bc, R, d)``."""
        table = self._table_as(values.dtype)
        u = table.shape[0]
        bc = values.shape[0]
        flat = self._lut["flat"]
        r, m = flat.shape
        if values.dtype == np.float64:
            keys = flat.ravel()
            seg = np.empty((bc, r * u), dtype=np.float64)
            for b in range(bc):
                seg[b] = np.bincount(
                    keys,
                    weights=np.broadcast_to(values[b], (r, m)).ravel(),
                    minlength=r * u)
            seg = seg.reshape(bc, r, u)
        else:
            # float32: bincount accumulates internally in float64, so the
            # sums would carry float64 rounding; np.add.at accumulates in
            # the compute dtype like every other float32 core
            seg = np.zeros((r, u, bc), dtype=values.dtype)
            np.add.at(seg, (np.arange(r)[:, None], self._lut["route"]),
                      values.T[None, :, :])
            seg = seg.transpose(2, 0, 1)
        return F.sample_matmul(seg.reshape(-1, u), table,
                               bc // unit).reshape(bc, r, table.shape[1])

    def _sample_chunks(self, total: int, itemsize: int, samples: int):
        """``(lo, hi, unit)`` row chunks within the block budget; each run
        of ``unit`` rows shares one table GEMM.

        ``total`` rows stack ``samples`` equal per-sample blocks.  A chunk
        holds whole samples, each running its own GEMM, or a sample too
        large for the budget is cut into the same row pieces wherever it
        sits, so a row's bits never depend on the samples it is batched
        with.  The backward passes pass one sample: row pieces, one GEMM
        each.
        """
        rows = self._chunk_rows(itemsize)
        per = max(1, total // max(1, samples))
        if per <= rows:
            step = rows // per * per
            for lo in range(0, total, step):
                yield lo, min(lo + step, total), per
        else:
            for start in range(0, total, per):
                for lo in range(start, start + per, rows):
                    hi = min(lo + rows, start + per)
                    yield lo, hi, hi - lo

    # -- integer/LUT forward/backward ------------------------------------------
    def _forward_lut(self, cols: np.ndarray, samples: int) -> np.ndarray:
        """LUT forward, chunked on whole samples."""
        self._build_lut()
        out = np.empty((cols.shape[0], self.c_out), dtype=cols.dtype)
        for lo, hi, unit in self._sample_chunks(cols.shape[0], cols.itemsize,
                                                samples):
            if self.gather_forward:
                out[lo:hi] = self._lut_gather_core(
                    self._to_blocks(cols[lo:hi]), unit)
            else:
                partial = self._lut_scatter_core(cols[lo:hi], unit)
                out[lo:hi] = partial.reshape(hi - lo, self.c_out)
        return out

    def _backward_lut(self, grad_out: np.ndarray) -> np.ndarray:
        """LUT backward w.r.t. activations."""
        self._build_lut()
        grad_cols = np.empty((grad_out.shape[0], self.n_in), dtype=grad_out.dtype)
        n_go = self.c_out // self.d
        for lo, hi, unit in self._sample_chunks(grad_out.shape[0],
                                                grad_out.itemsize, 1):
            if self.gather_forward:      # forward gathered -> backward scatters
                blocks3 = self._lut_scatter_core(grad_out[lo:hi], unit)
                grad_cols[lo:hi] = self._from_blocks(blocks3)
            else:                        # OUTPUT: the transpose product gathers
                rows3 = grad_out[lo:hi].reshape(hi - lo, n_go, self.d)
                grad_cols[lo:hi] = self._lut_gather_core(rows3, unit)
        return grad_cols

    # -- public entry points --------------------------------------------------
    def forward(self, cols: np.ndarray, samples: int) -> np.ndarray:
        """``cols`` stacks ``samples`` equal blocks of rows, one per sample.

        Both paths run fixed-shape kernels per sample, so a sample's output
        bits do not depend on the batch it came in.
        """
        self.last_mode = self.mode
        if self.mode == "dense":
            return F.sample_matmul(cols, self.weight_matrix(cols.dtype).T,
                                   samples)
        return self._forward_lut(cols, samples)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.last_mode = self.mode
        if self.mode == "dense":
            return grad_out @ self.weight_matrix(grad_out.dtype)
        return self._backward_lut(grad_out)


class CompressedLinear(Module):
    """A Linear layer that serves directly from compressed storage."""

    def __init__(self, in_features: int, out_features: int,
                 codebook: Codebook, assignments: np.ndarray,
                 mask: Optional[np.ndarray], d: int,
                 strategy: GroupingStrategy = GroupingStrategy.OUTPUT,
                 bias: Optional[np.ndarray] = None,
                 mode: str = "auto",
                 dtype=None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.dtype = np.dtype(dtype) if dtype is not None else compute_dtype()
        self.engine = CentroidEngine(codebook, assignments, mask,
                                     (out_features, in_features), d, strategy,
                                     mode=mode)
        self.bias = (Parameter(np.asarray(bias, dtype=np.float64), name="bias")
                     if bias is not None else None)
        self._cache: Optional[Tuple[int, ...]] = None

    @classmethod
    def from_layer(cls, layer, state, mode: str = "auto") -> "CompressedLinear":
        """Build from an ``nn.Linear`` and its core ``CompressedLayer``."""
        mask = state.mask if state.config.store_mask else None
        return cls(layer.in_features, layer.out_features,
                   state.codebook, state.assignments, mask,
                   state.config.d, state.config.strategy,
                   bias=None if layer.bias is None else layer.bias.value.copy(),
                   mode=mode, dtype=layer.weight.value.dtype)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x).astype(self.dtype, copy=False)
        self._cache = x.shape
        x2d = x.reshape(-1, self.in_features)
        out = self.engine.forward(np.ascontiguousarray(x2d),
                                  x.shape[0] if x.ndim > 1 else 1)
        if self.bias is not None:
            out += self.bias.value
        return out.reshape(*x.shape[:-1], self.out_features)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        g2d = np.ascontiguousarray(grad_out.reshape(-1, self.out_features))
        if self.bias is not None:
            self.bias.accumulate_grad(g2d.sum(axis=0))
        return self.engine.backward(g2d).reshape(self._cache)


class CompressedConv2d(Module):
    """A dense Conv2d that serves directly from compressed storage.

    Keeps Conv2d's interface surface (channel/kernel/stride attributes and
    the im2col ``_cache``) so FLOPs counting and downstream tooling treat
    it as a convolution.  Holds a persistent im2col buffer, sized for the
    largest batch seen, that batched serving
    (:func:`repro.nn.serve.predict_batched`) reuses across calls.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 codebook: Codebook, assignments: np.ndarray,
                 mask: Optional[np.ndarray], d: int,
                 strategy: GroupingStrategy = GroupingStrategy.OUTPUT,
                 stride: int = 1, padding: int = 0,
                 bias: Optional[np.ndarray] = None,
                 mode: str = "auto",
                 dtype=None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.depthwise = False
        self.groups = 1
        self.dtype = np.dtype(dtype) if dtype is not None else compute_dtype()
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.engine = CentroidEngine(codebook, assignments, mask, shape, d,
                                     strategy, mode=mode)
        self.bias = (Parameter(np.asarray(bias, dtype=np.float64), name="bias")
                     if bias is not None else None)
        self._cache = None
        self._col_buffer: Optional[np.ndarray] = None

    @classmethod
    def from_layer(cls, layer, state, mode: str = "auto") -> "CompressedConv2d":
        """Build from an ``nn.Conv2d`` and its core ``CompressedLayer``."""
        if layer.depthwise:
            raise ValueError("depthwise convolutions are not compressed")
        mask = state.mask if state.config.store_mask else None
        return cls(layer.in_channels, layer.out_channels, layer.kernel_size,
                   state.codebook, state.assignments, mask,
                   state.config.d, state.config.strategy,
                   stride=layer.stride, padding=layer.padding,
                   bias=None if layer.bias is None else layer.bias.value.copy(),
                   mode=mode, dtype=layer.weight.value.dtype)

    def _columns(self, x: np.ndarray) -> np.ndarray:
        """im2col into a prefix of one persistent buffer, kept at the most
        rows seen, so batches of any size stop reallocating."""
        n, _, h, w = x.shape
        k = self.kernel_size
        out_h = F.conv_output_size(h, k, self.stride, self.padding)
        out_w = F.conv_output_size(w, k, self.stride, self.padding)
        rows, width = n * out_h * out_w, self.in_channels * k * k
        buf = self._col_buffer
        if (buf is None or buf.shape[0] < rows or buf.shape[1] != width
                or buf.dtype != x.dtype):
            buf = np.empty((rows, width), dtype=x.dtype)
            self._col_buffer = buf
        return F.im2col(x, (k, k), self.stride, self.padding, out=buf[:rows])

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x).astype(self.dtype, copy=False)
        n, _, h, w = x.shape
        k = self.kernel_size
        out_h = F.conv_output_size(h, k, self.stride, self.padding)
        out_w = F.conv_output_size(w, k, self.stride, self.padding)
        cols = self._columns(x)
        out = self.engine.forward(cols, n)
        if self.bias is not None:
            out += self.bias.value
        self._cache = (cols, x.shape)
        return out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. activations only — compressed weights are frozen."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        _, x_shape = self._cache
        grad_mat = np.ascontiguousarray(
            grad_out.transpose(0, 2, 3, 1).reshape(-1, self.out_channels))
        if self.bias is not None:
            self.bias.accumulate_grad(grad_mat.sum(axis=0))
        grad_cols = self.engine.backward(grad_mat)
        k = self.kernel_size
        return F.col2im(grad_cols, x_shape, (k, k), self.stride, self.padding)


def compress_module(module: Module, state, mode: str = "auto") -> Module:
    """The compressed counterpart of one Linear/Conv2d module."""
    from repro.nn.layers import Conv2d, Linear
    if isinstance(module, Conv2d):
        return CompressedConv2d.from_layer(module, state, mode)
    if isinstance(module, Linear):
        return CompressedLinear.from_layer(module, state, mode)
    raise TypeError(f"cannot compress module of type {type(module).__name__}")


def _replace_module(root: Module, dotted: str, replacement: Module) -> None:
    """Swap the module at ``dotted`` path (attribute or list entry) in place."""
    parts = dotted.split(".")
    parent: object = root
    for part in parts[:-1]:
        parent = parent[int(part)] if part.isdigit() else getattr(parent, part)
    leaf = parts[-1]
    if leaf.isdigit():
        idx = int(leaf)
        if isinstance(parent, tuple):
            raise TypeError(
                f"cannot replace {dotted!r}: container is an immutable tuple")
        parent[idx] = replacement
    else:
        setattr(parent, leaf, replacement)


def swap_to_compressed(model: Module, compressed_model, mode: str = "auto"
                       ) -> Dict[str, Module]:
    """Replace every compressed layer of ``model`` with a compressed module.

    ``compressed_model`` is a :class:`repro.core.compressor.CompressedModel`;
    returns the mapping of dotted layer names to the new modules.
    """
    modules = dict(model.named_modules())
    swapped: Dict[str, Module] = {}
    for name, state in compressed_model.layers.items():
        replacement = compress_module(modules[name], state, mode)
        _replace_module(model, name, replacement)
        swapped[name] = replacement
    return swapped


def restore_modules(model: Module, originals: Dict[str, Module]) -> None:
    """Swap previously replaced modules back into ``model`` (inverse of
    :func:`swap_to_compressed` given the pre-swap modules)."""
    for name, module in originals.items():
        _replace_module(model, name, module)


@contextmanager
def compressed_serving(model: Module, compressed_model, mode: str = "auto"):
    """Serve from compressed storage within a scope, then restore the model.

    Swaps every compressed layer to its decode-free module on entry and
    puts the original dense modules back on exit, so evaluation harnesses
    (e.g. the pipeline's ``serve_eval`` stage) can compare compressed and
    dense serving on the same live model without cloning it.  Yields the
    ``{name: module}`` mapping of the swapped-in compressed modules.
    """
    originals = dict(model.named_modules())
    originals = {name: originals[name] for name in compressed_model.layers}
    try:
        # the swap runs inside the try so a failure partway through the
        # per-layer loop still restores the modules already replaced
        swapped = swap_to_compressed(model, compressed_model, mode=mode)
        yield swapped
    finally:
        restore_modules(model, originals)
