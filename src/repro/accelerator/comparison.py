"""Comparison against prior sparse CNN accelerators (Table 9).

The published numbers of SparTen, CGNet, SPOTS and S2TA are kept verbatim;
their energy efficiency is normalised to the 40 nm process with the scaling
equations of Stillmaker & Baas (the reference the paper uses), and the MVQ
rows are produced by our own performance/energy models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.accelerator.config import HardwareSetting, standard_setting
from repro.accelerator.performance import PerformanceModel
from repro.accelerator.area import AreaModel


#: Dynamic-energy scaling factors relative to 40 nm (derived from the
#: Stillmaker & Baas scaling equations: energy per op roughly follows the
#: square of the feature-size ratio at matched voltage).
_PROCESS_ENERGY_SCALE_TO_40NM = {
    16: 0.20,
    28: 0.54,
    40: 1.00,
    45: 1.22,
    65: 2.36,
}


def normalize_efficiency(tops_per_watt: float, process_nm: int) -> float:
    """Normalise an efficiency measured at ``process_nm`` to a 40 nm process.

    A design at a smaller node spends less energy per operation, so its
    efficiency is scaled *down* when projected to 40 nm, and vice versa.
    """
    if process_nm not in _PROCESS_ENERGY_SCALE_TO_40NM:
        raise ValueError(f"no scaling factor for a {process_nm} nm process")
    return tops_per_watt * _PROCESS_ENERGY_SCALE_TO_40NM[process_nm]


@dataclass
class AcceleratorDatasheet:
    """Published characteristics of one comparison accelerator."""

    name: str
    venue: str
    process_nm: int
    frequency_ghz: float
    macs: int
    sparsity: str
    quantization: str
    compression_ratio: Optional[float]
    workload: str
    dataflow: str
    peak_tops: float
    area_mm2: float
    efficiency_tops_w: float

    @property
    def normalized_efficiency(self) -> float:
        return normalize_efficiency(self.efficiency_tops_w, self.process_nm)


#: Published rows of Table 9 (prior works).
SOTA_ACCELERATORS: List[AcceleratorDatasheet] = [
    AcceleratorDatasheet("SparTen", "MICRO19", 45, 0.8, 32, "Random", "INT8",
                         None, "alexnet", "OS", 0.2, 0.766, 0.68),
    AcceleratorDatasheet("CGNet", "MICRO19", 28, 0.5, 576, "Channel-wise", "INT8",
                         10.0, "resnet18", "WS", 2.4, 5.574, 4.5),
    AcceleratorDatasheet("SPOTS", "TACO22", 45, 0.5, 512, "Group-wise", "INT16",
                         3.0, "vgg16", "OS", 0.5, 8.61, 0.47),
    AcceleratorDatasheet("S2TA", "HPCA22", 16, 1.0, 2048, "N:M", "INT8",
                         6.4, "alexnet", "OS", 8.0, 3.8, 14.0),
    AcceleratorDatasheet("S2TA-65", "HPCA22", 65, 0.5, 2048, "N:M", "INT8",
                         6.4, "alexnet", "OS", 4.0, 24.0, 1.1),
]


def mvq_rows(array_sizes=(16, 32, 64), workload: str = "resnet18",
             compression_ratio: float = 22.0) -> List[Dict[str, object]]:
    """Simulated MVQ-16/32/64 rows of Table 9 (our accelerator).

    ``compression_ratio`` defaults to the paper's ~22x; the pipeline's
    ``accel_eval`` stage passes the ratio actually measured on the
    compressed model so Table 9 reflects the deployed artifact.
    """
    performance = PerformanceModel()
    area_model = AreaModel()
    from repro.workloads import shape_factory

    layers = shape_factory(workload)()
    rows = []
    for size in array_sizes:
        config = standard_setting(HardwareSetting.EWS_CMS, array_size=size)
        efficiency = performance.efficiency(layers, config)
        breakdown = area_model.breakdown(config)
        rows.append({
            "name": f"MVQ-{size}",
            "process_nm": 40,
            "frequency_ghz": config.frequency_ghz,
            "macs": size * size // 4,          # Q PEs per group: N/M of the dense count
            "sparsity": "N:M (75%)",
            "quantization": "INT8",
            "compression_ratio": compression_ratio,
            "workload": workload,
            "dataflow": "EWS",
            "peak_tops": config.peak_tops,
            "area_mm2": breakdown.total,
            "efficiency_tops_w": efficiency,
            "normalized_efficiency": efficiency,   # already 40 nm
        })
    return rows


def comparison_table(workload: str = "resnet18") -> List[Dict[str, object]]:
    """Full Table 9: published prior works + our simulated MVQ designs."""
    rows: List[Dict[str, object]] = []
    for sheet in SOTA_ACCELERATORS:
        rows.append({
            "name": sheet.name,
            "process_nm": sheet.process_nm,
            "frequency_ghz": sheet.frequency_ghz,
            "macs": sheet.macs,
            "sparsity": sheet.sparsity,
            "quantization": sheet.quantization,
            "compression_ratio": sheet.compression_ratio,
            "workload": sheet.workload,
            "dataflow": sheet.dataflow,
            "peak_tops": sheet.peak_tops,
            "area_mm2": sheet.area_mm2,
            "efficiency_tops_w": sheet.efficiency_tops_w,
            "normalized_efficiency": sheet.normalized_efficiency,
        })
    rows.extend(mvq_rows(workload=workload))
    return rows
