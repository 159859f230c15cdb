"""MVQ core: the paper's masked vector quantization compression pipeline.

The four pipeline stages (Fig. 2 of the paper):

1. Weight grouping and N:M pruning      -> :mod:`repro.core.grouping`, :mod:`repro.core.pruning`
2. Masked k-means clustering            -> :mod:`repro.core.masked_kmeans`
3. Codebook quantization (int8 + LSQ)   -> :mod:`repro.core.codebook`
4. Fine-tuning with masked gradients    -> :mod:`repro.core.finetune`

The :class:`repro.core.compressor.MVQCompressor` orchestrates all four over
a whole model; :mod:`repro.core.storage` implements the compression-ratio
accounting of Eq. 7 and the mask look-up-table encoding.
"""

from repro.core import cpu, precision
from repro.core.precision import (
    accum_dtype,
    compute_dtype,
    distance_block_bytes,
    precision as precision_scope,
    set_compute_dtype,
    set_distance_block_bytes,
)
from repro.core.grouping import GroupingStrategy, group_weight, ungroup_weight, grouped_shape
from repro.core.pruning import (
    nm_prune_mask,
    apply_mask,
    sparsity_of_mask,
    SparseFinetuner,
    asp_prune,
)
from repro.core.kmeans import KMeansResult, kmeans
from repro.core.masked_kmeans import masked_kmeans
from repro.core.codebook import Codebook, quantize_symmetric, fit_scale_mse, LSQScale
from repro.core.reconstruct import reconstruct_grouped, reconstruct_weight
from repro.core.storage import (
    CompressionSpec,
    compression_ratio,
    mask_bits_per_weight,
    assignment_bits,
    codebook_bits,
    MaskLUT,
)
from repro.core.metrics import total_sse, masked_sse, clustering_report
from repro.core.compressor import (
    MVQCompressor,
    LayerCompressionConfig,
    CompressedLayer,
    CompressedModel,
    layer_config_from_dict,
    layer_config_to_dict,
)
from repro.core.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    fault_point,
    install_plan,
    register_error_type,
    register_fault_point,
)
from repro.core.finetune import CodebookFinetuner
from repro.core.mixed_sparsity import MixedSparsitySearch, LayerSparsityChoice
from repro.core.serialization import save_compressed_model, load_compressed_model

__all__ = [
    "cpu",
    "precision",
    "accum_dtype",
    "compute_dtype",
    "distance_block_bytes",
    "precision_scope",
    "set_compute_dtype",
    "set_distance_block_bytes",
    "GroupingStrategy",
    "group_weight",
    "ungroup_weight",
    "grouped_shape",
    "nm_prune_mask",
    "apply_mask",
    "sparsity_of_mask",
    "SparseFinetuner",
    "asp_prune",
    "KMeansResult",
    "kmeans",
    "masked_kmeans",
    "Codebook",
    "quantize_symmetric",
    "fit_scale_mse",
    "LSQScale",
    "reconstruct_grouped",
    "reconstruct_weight",
    "CompressionSpec",
    "compression_ratio",
    "mask_bits_per_weight",
    "assignment_bits",
    "codebook_bits",
    "MaskLUT",
    "total_sse",
    "masked_sse",
    "clustering_report",
    "MVQCompressor",
    "LayerCompressionConfig",
    "CompressedLayer",
    "CompressedModel",
    "layer_config_from_dict",
    "layer_config_to_dict",
    "CodebookFinetuner",
    "MixedSparsitySearch",
    "LayerSparsityChoice",
    "save_compressed_model",
    "load_compressed_model",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "fault_point",
    "install_plan",
    "register_error_type",
    "register_fault_point",
]
