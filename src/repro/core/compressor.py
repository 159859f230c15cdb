"""The MVQ compression pipeline over whole models (Fig. 2).

:class:`MVQCompressor` walks a model's convolution/linear layers, groups and
prunes their weights, runs (masked) k-means layerwise or crosslayer,
quantizes the codebooks and returns a :class:`CompressedModel` that can
reconstruct weights, report storage/compression-ratio numbers and write the
reconstructed weights back into the network.

The same class also produces the ablation variants of Table 3 through the
``prune`` / ``use_masked_kmeans`` / ``store_mask`` switches:

========  ======  =================  ===========  ==========================
Case      prune   use_masked_kmeans  store_mask   description
========  ======  =================  ===========  ==========================
A         False   False              False        dense weights, common k-means
B         True    False              False        sparse weights, dense reconstruct
C         True    False              True         sparse weights, sparse reconstruct
D (MVQ)   True    True               True         the paper's method
========  ======  =================  ===========  ==========================
"""

from __future__ import annotations

import dataclasses
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core import cpu
from repro.core.codebook import Codebook
from repro.core.grouping import GroupingStrategy, compatible_d, group_weight
from repro.core.kmeans import kmeans
from repro.core.masked_kmeans import masked_kmeans
from repro.core.metrics import ClusteringReport, clustering_report
from repro.core.pruning import apply_mask, nm_prune_mask
from repro.core.reconstruct import reconstruct_grouped, reconstruct_weight
from repro.core.storage import CompressionSpec, compression_ratio
from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module


def _cluster_layer_task(args):
    """Cluster one prepared layer ``(pruned, mask, cfg, seed)``.

    Runs under the caller's precision policy: it is process-wide module
    state, so pool threads see the same policy as the thread that started
    them.
    """
    pruned, mask, cfg, seed = args
    if cfg.use_masked_kmeans:
        return masked_kmeans(pruned, mask, cfg.k, cfg.max_kmeans_iterations,
                             seed=seed)
    return kmeans(pruned, cfg.k, cfg.max_kmeans_iterations, seed=seed)


@dataclass
class LayerCompressionConfig:
    """Compression hyper-parameters for one layer (or the whole model)."""

    k: int = 256
    d: int = 8
    n_keep: int = 2
    m: int = 8
    codebook_bits: int = 8
    weight_bits: int = 32
    strategy: GroupingStrategy = GroupingStrategy.OUTPUT
    prune: bool = True
    use_masked_kmeans: bool = True
    store_mask: bool = True
    max_kmeans_iterations: int = 60
    seed: int = 0

    def spec(self) -> CompressionSpec:
        return CompressionSpec(
            k=self.k, d=self.d, n_keep=self.n_keep, m=self.m,
            codebook_bits=self.codebook_bits, weight_bits=self.weight_bits,
        )


# -- the layer-config wire schema ---------------------------------------------
# Single source of truth for LayerCompressionConfig (de)serialization: the
# .npz manifest (repro.core.serialization) and the declarative pipeline
# config (repro.pipeline.config) both use these two functions, so the
# archive format and the pipeline schema cannot drift apart.

_LAYER_CONFIG_FIELDS = {f.name for f in dataclasses.fields(LayerCompressionConfig)}


def layer_config_to_dict(config: LayerCompressionConfig) -> Dict:
    """Full JSON-able dict of one :class:`LayerCompressionConfig`."""
    data = dataclasses.asdict(config)
    data["strategy"] = config.strategy.value
    return data


def layer_config_from_dict(data, base: Optional[LayerCompressionConfig] = None
                           ) -> LayerCompressionConfig:
    """Rebuild a :class:`LayerCompressionConfig` from a (possibly partial) dict.

    Missing fields fall back to ``base`` (or the dataclass defaults), which
    keeps pre-schema ``.npz`` manifests — written without
    ``max_kmeans_iterations``/``seed`` — loadable, and lets pipeline
    overrides specify only the fields they change.  Unknown keys are an
    error so config typos fail loudly.
    """
    unknown = set(data) - _LAYER_CONFIG_FIELDS
    if unknown:
        raise ValueError(
            f"unknown LayerCompressionConfig fields {sorted(unknown)}; "
            f"expected a subset of {sorted(_LAYER_CONFIG_FIELDS)}")
    fields = dict(data)
    if "strategy" in fields and not isinstance(fields["strategy"], GroupingStrategy):
        fields["strategy"] = GroupingStrategy(fields["strategy"])
    if base is None:
        return LayerCompressionConfig(**fields)
    return replace(base, **fields)


@dataclass
class CompressedLayer:
    """Compressed state of one layer: codebook + assignments + mask."""

    name: str
    weight_shape: Tuple[int, ...]
    config: LayerCompressionConfig
    codebook: Codebook
    assignments: np.ndarray
    mask: Optional[np.ndarray]
    #: the pre-compression grouped weights, kept for SSE reporting only.
    #: ``None`` for layers rebuilt from a serving artifact (shared-memory
    #: arena, ``.npz`` without a live dense model) — reconstruction and the
    #: decode-free engines never need it.
    original_grouped: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def num_subvectors(self) -> int:
        return int(self.assignments.shape[0])

    def reconstruct_grouped(self) -> np.ndarray:
        mask = self.mask if self.config.store_mask else None
        return reconstruct_grouped(self.codebook, self.assignments, mask)

    def reconstruct_weight(self) -> np.ndarray:
        mask = self.mask if self.config.store_mask else None
        return reconstruct_weight(self.codebook, self.assignments, self.weight_shape,
                                  self.config.d, mask, self.config.strategy)

    def report(self) -> ClusteringReport:
        if self.original_grouped is None:
            raise ValueError(
                f"layer {self.name!r} has no original_grouped weights "
                "(rebuilt from a serving artifact); SSE reporting needs the "
                "pre-compression weights")
        mask = self.mask if self.mask is not None else np.ones_like(self.original_grouped, dtype=bool)
        return clustering_report(self.original_grouped, self.reconstruct_grouped(), mask)

    def sparsity(self) -> float:
        if self.mask is None or not self.config.store_mask:
            return 0.0
        return float(1.0 - self.mask.mean())


class CompressedModel:
    """Holds every compressed layer plus shared (crosslayer) codebooks."""

    def __init__(self, model: Module, layers: Dict[str, CompressedLayer],
                 crosslayer: bool = False):
        self.model = model
        self.layers = layers
        self.crosslayer = crosslayer

    def __iter__(self):
        return iter(self.layers.values())

    def __len__(self) -> int:
        return len(self.layers)

    def apply_to_model(self) -> None:
        """Write reconstructed weights into the underlying network."""
        modules = dict(self.model.named_modules())
        for name, state in self.layers.items():
            modules[name].weight.copy_(state.reconstruct_weight())

    def compression_ratio(self, count_codebook: bool = True) -> float:
        """Weighted-average compression ratio over all compressed layers (Eq. 7)."""
        uncompressed = 0.0
        compressed = 0.0
        codebooks_seen = set()
        for state in self.layers.values():
            spec = state.config.spec()
            num_weights = state.num_subvectors * spec.d
            uncompressed += num_weights * spec.weight_bits
            compressed += spec.total_bits(state.num_subvectors,
                                          store_mask=state.config.store_mask,
                                          count_codebook=False)
            if count_codebook and id(state.codebook) not in codebooks_seen:
                codebooks_seen.add(id(state.codebook))
                compressed += state.codebook.storage_bits(spec.codebook_bits)
        return uncompressed / max(compressed, 1.0)

    def sparsity(self) -> float:
        """Fraction of pruned weights among compressed layers."""
        pruned = 0.0
        total = 0.0
        for state in self.layers.values():
            n = state.num_subvectors * state.config.d
            pruned += state.sparsity() * n
            total += n
        return pruned / max(total, 1.0)

    def sse_report(self) -> Dict[str, ClusteringReport]:
        return {name: state.report() for name, state in self.layers.items()}

    def total_sse(self) -> float:
        return float(sum(r.total_sse for r in self.sse_report().values()))

    def mask_sse(self) -> float:
        return float(sum(r.mask_sse for r in self.sse_report().values()))

    def sparsity_by_layer(self) -> Dict[str, float]:
        return {name: state.sparsity() for name, state in self.layers.items()}

    def swap_into_model(self, mode: str = "auto") -> Dict[str, Module]:
        """Replace the underlying model's compressed layers with decode-free
        compressed-domain modules (:mod:`repro.nn.compressed`) in place.

        Works for any :class:`CompressedModel` — including one rebuilt from
        an ``.npz`` archive by :func:`repro.core.serialization.load_compressed_model`
        — so serialized artifacts can be served without re-running
        compression.  Returns the mapping of layer names to new modules.
        """
        # imported lazily: repro.nn.compressed depends on repro.core
        from repro.nn.compressed import swap_to_compressed

        return swap_to_compressed(self.model, self, mode=mode)


class MVQCompressor:
    """Runs the MVQ pipeline (group -> prune -> cluster -> quantize) on a model."""

    def __init__(self, config: LayerCompressionConfig,
                 per_layer_overrides: Optional[Dict[str, LayerCompressionConfig]] = None,
                 crosslayer: bool = False,
                 skip_layers: Optional[Iterable[str]] = None,
                 quantize_codebook: bool = True,
                 include_linear: bool = False,
                 workers: Optional[int] = None,
                 decorrelate_seeds: bool = False):
        self.config = config
        self.per_layer_overrides = per_layer_overrides or {}
        self.crosslayer = crosslayer
        self.skip_layers = set(skip_layers or [])
        self.quantize_codebook = quantize_codebook
        self.include_linear = include_linear
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.decorrelate_seeds = decorrelate_seeds

    # -- layer selection -----------------------------------------------------
    def compressible_layers(self, model: Module) -> List[Tuple[str, Module]]:
        """Conv (and optionally Linear) layers whose shape fits the grouping."""
        selected = []
        for name, mod in model.named_modules():
            if name in self.skip_layers:
                continue
            cfg = self.per_layer_overrides.get(name, self.config)
            if isinstance(mod, Conv2d) and not mod.depthwise:
                if compatible_d(mod.weight.shape, cfg.d, cfg.strategy):
                    selected.append((name, mod))
            elif self.include_linear and isinstance(mod, Linear):
                if compatible_d(mod.weight.shape, cfg.d, cfg.strategy):
                    selected.append((name, mod))
        return selected

    # -- stage-sized building blocks -------------------------------------------
    # Each of these is one named stage of the declarative pipeline
    # (repro.pipeline.stages); compress() is their canonical composition.

    def layer_config(self, name: str) -> LayerCompressionConfig:
        """Effective config of one layer (override or the global default)."""
        return self.per_layer_overrides.get(name, self.config)

    def group_layer(self, weight: np.ndarray, cfg: LayerCompressionConfig) -> np.ndarray:
        """``group`` stage for one weight tensor: (N_G, d) subvectors."""
        return group_weight(weight, cfg.d, cfg.strategy)

    def prune_grouped(self, grouped: np.ndarray, cfg: LayerCompressionConfig
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """``prune`` stage for one grouped layer: (mask, pruned data)."""
        if cfg.prune:
            mask = nm_prune_mask(grouped, cfg.n_keep, cfg.m)
            return mask, apply_mask(grouped, mask)
        return np.ones_like(grouped, dtype=bool), grouped

    def prepare_layers(self, targets) -> Dict[str, Tuple]:
        """Group + prune every target: ``{name: (cfg, grouped, pruned, mask)}``."""
        prepared = {}
        for name, mod in targets:
            cfg = self.layer_config(name)
            grouped = self.group_layer(mod.weight.value, cfg)
            mask, pruned = self.prune_grouped(grouped, cfg)
            prepared[name] = (cfg, grouped, pruned, mask)
        return prepared

    def _layer_seed(self, name: str, cfg: LayerCompressionConfig) -> int:
        """Deterministic clustering seed for one layer.

        By default every layer uses ``cfg.seed`` verbatim (the seed
        implementation's behaviour, and invariant under execution order).
        With ``decorrelate_seeds`` the layer name is mixed in so layers do
        not all draw the same init indices — still a pure function of
        (config, name), so the parallel and sequential paths are identical.
        """
        if self.decorrelate_seeds:
            return (cfg.seed + zlib.crc32(name.encode("utf-8"))) % (2**32)
        return cfg.seed

    def _cluster(self, data: np.ndarray, mask: np.ndarray,
                 cfg: LayerCompressionConfig, seed: Optional[int] = None):
        seed = cfg.seed if seed is None else seed
        # single dispatch site: the crosslayer path runs the same task the
        # layer-wise pool does
        return _cluster_layer_task((data, mask, cfg, seed))

    # -- public API ------------------------------------------------------------
    def compress(self, model: Module) -> CompressedModel:
        """Compress every eligible layer and return the compressed model.

        This runs the canonical stage composition ``group -> prune ->
        cluster -> quantize`` of :mod:`repro.pipeline` — the declarative
        pipeline and this imperative API are the same code path, so a JSON
        :class:`~repro.pipeline.config.PipelineConfig` describing this
        compressor reproduces the result bit-identically.
        """
        # imported lazily: repro.pipeline depends on repro.core
        from repro.pipeline.runner import run_compression_stages

        return run_compression_stages(self, model)

    def export_compressed_model(self, model: Module,
                                mode: str = "auto") -> CompressedModel:
        """Compress ``model`` and convert it in place to compressed modules.

        Every compressed Conv2d/Linear is replaced by its decode-free
        counterpart (:mod:`repro.nn.compressed`), so subsequent forwards
        serve directly from ``(codebook, assignments, mask)`` instead of a
        reconstructed dense weight.  ``mode`` picks the execution path
        (see :data:`repro.nn.compressed.MODES`).  Returns the
        :class:`CompressedModel` (whose layer states the new modules share).
        """
        # imported lazily: repro.nn.compressed depends on repro.core
        from repro.nn.compressed import swap_to_compressed

        compressed = self.compress(model)
        swap_to_compressed(model, compressed, mode=mode)
        return compressed

    def _effective_workers(self, num_layers: int) -> int:
        """Workers to request: more than there are layers only adds
        contention (:func:`repro.core.cpu.parallel` caps it at the CPUs)."""
        if not self.workers:
            return 1
        return max(1, min(self.workers, num_layers))

    def cluster_layerwise(self, targets, prepared,
                          subset: Optional[Iterable[str]] = None) -> Dict[str, "object"]:
        """``cluster`` stage, layerwise: independent k-means per layer,
        optionally across a thread pool.

        Per-layer runs share no state and use deterministic per-layer seeds
        (:meth:`_layer_seed`), so the parallel path — and any ``subset``
        of layers, which is how the pipeline's artifact cache re-clusters
        only invalidated layers — is bit-identical to a sequential full
        run.  The threads run in parallel in the GIL-releasing BLAS and
        bincount portions of the clustering kernels.

        Layers are scheduled largest-first so one big trailing layer does
        not serialise the tail of the pool (classic makespan reduction).
        The pool runs inside the :func:`repro.core.cpu.parallel` budget:
        at most one worker per CPU, BLAS threads split between them, and
        one worker when nested in another pool.  Returns
        ``{layer name: KMeansResult}``.
        """
        wanted = None if subset is None else set(subset)
        names = [name for name, _ in targets if wanted is None or name in wanted]
        tasks = []
        for name in names:
            cfg, _, pruned, mask = prepared[name]
            tasks.append((pruned, mask, cfg, self._layer_seed(name, cfg)))

        with cpu.parallel(self._effective_workers(len(names))) as workers:
            if workers > 1:
                order = sorted(range(len(tasks)),
                               key=lambda i: tasks[i][0].shape[0], reverse=True)
                results: List = [None] * len(tasks)
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    futures = {i: pool.submit(_cluster_layer_task, tasks[i])
                               for i in order}
                    for i, future in futures.items():
                        results[i] = future.result()
            else:
                results = [_cluster_layer_task(task) for task in tasks]
        return dict(zip(names, results))

    def stack_prepared(self, targets, prepared):
        """Concatenate every layer's pruned data and mask for crosslayer
        clustering: ``(stacked, stacked_mask, boundaries)`` with boundaries
        the ``(name, start, end)`` row ranges of each layer."""
        base_cfg = self.config
        all_pruned = []
        all_masks = []
        boundaries = []
        offset = 0
        for name, _ in targets:
            cfg, _, pruned, mask = prepared[name]
            if cfg.d != base_cfg.d:
                raise ValueError("crosslayer clustering requires a single d for all layers")
            all_pruned.append(pruned)
            all_masks.append(mask)
            boundaries.append((name, offset, offset + pruned.shape[0]))
            offset += pruned.shape[0]
        return (np.concatenate(all_pruned, axis=0),
                np.concatenate(all_masks, axis=0), boundaries)

    def cluster_crosslayer(self, targets, prepared, stacked=None,
                           stacked_mask=None):
        """``cluster`` stage, crosslayer: one shared codebook for all layers.

        ``stacked``/``stacked_mask`` may be passed when the caller already
        built them (e.g. to hash for the artifact cache), avoiding a second
        concatenation of the whole compressible weight set.  Returns
        ``(KMeansResult, boundaries)``.
        """
        if stacked is None or stacked_mask is None:
            stacked, stacked_mask, boundaries = self.stack_prepared(targets, prepared)
        else:
            offset = 0
            boundaries = []
            for name, _ in targets:
                end = offset + prepared[name][2].shape[0]
                boundaries.append((name, offset, end))
                offset = end
        return self._cluster(stacked, stacked_mask, self.config), boundaries

    def assemble_layerwise(self, targets, prepared, results) -> Dict[str, CompressedLayer]:
        """Build per-layer :class:`CompressedLayer` states from clustering
        results (codebooks still unquantized — that is the next stage)."""
        layers: Dict[str, CompressedLayer] = {}
        for name, mod in targets:
            cfg, grouped, _, mask = prepared[name]
            result = results[name]
            layers[name] = CompressedLayer(
                name=name, weight_shape=mod.weight.shape, config=cfg,
                codebook=Codebook(result.codewords), assignments=result.assignments,
                mask=mask, original_grouped=grouped,
            )
        return layers

    def assemble_crosslayer(self, targets, prepared, result) -> Dict[str, CompressedLayer]:
        """Split one shared clustering result back into per-layer states
        (all sharing a single, still-unquantized codebook object)."""
        codebook = Codebook(result.codewords)
        layers: Dict[str, CompressedLayer] = {}
        offset = 0
        for name, mod in targets:
            cfg, grouped, pruned, mask = prepared[name]
            end = offset + pruned.shape[0]
            layers[name] = CompressedLayer(
                name=name, weight_shape=mod.weight.shape, config=cfg,
                codebook=codebook, assignments=result.assignments[offset:end],
                mask=mask, original_grouped=grouped,
            )
            offset = end
        return layers

    def quantize_codebooks(self, compressed: CompressedModel) -> int:
        """``quantize`` stage: int8(+LSQ) quantize every distinct codebook.

        A no-op when the compressor was built with ``quantize_codebook=False``.
        The crosslayer codebook is shared, so it is quantized once with the
        global config's bits (per-layer bits apply in the layerwise case).
        Returns the number of codebooks quantized.
        """
        if not self.quantize_codebook:
            return 0
        seen = set()
        for state in compressed:
            key = id(state.codebook)
            if key in seen:
                continue
            seen.add(key)
            bits = (self.config.codebook_bits if compressed.crosslayer
                    else state.config.codebook_bits)
            state.codebook.quantize_(bits)
        return len(seen)

    # -- convenience constructors ---------------------------------------------
    @classmethod
    def ablation_case(cls, case: str, config: LayerCompressionConfig, **kwargs) -> "MVQCompressor":
        """Compressor configured as one of Table 3's cases A/B/C/D."""
        case = case.upper()
        if case == "A":
            cfg = replace(config, prune=False, use_masked_kmeans=False, store_mask=False)
        elif case == "B":
            cfg = replace(config, prune=True, use_masked_kmeans=False, store_mask=False)
        elif case == "C":
            cfg = replace(config, prune=True, use_masked_kmeans=False, store_mask=True)
        elif case == "D":
            cfg = replace(config, prune=True, use_masked_kmeans=True, store_mask=True)
        else:
            raise ValueError(f"unknown ablation case {case!r}; expected A, B, C or D")
        return cls(cfg, **kwargs)
