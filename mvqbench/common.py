"""Shared pieces of the four workloads."""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from mvqbench import probes

#: (in_channels, out_channels) of the ResNet-stage conv stack; 3x3 kernels,
#: ~0.5M d=8 subvectors in total
CONV_STACK = ((64, 128), (128, 256), (256, 512), (512, 512))


@dataclass
class Phase:
    """What one measured phase did."""

    latencies: List[float] = field(default_factory=list)     # seconds per op
    windows: List[Tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    work: float = 0.0                   # throughput numerator over elapsed
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def window(self) -> Tuple[float, float]:
        return (self.windows[0][0], self.windows[-1][1]) if self.windows else (0.0, 0.0)

    @classmethod
    def merged(cls, segments: Sequence["Phase"]) -> "Phase":
        """One phase of several segments: list extras are concatenated
        and ``extra["segments"]`` keeps each segment's own extras."""
        phase = cls(extra={"segments": [segment.extra for segment in segments]})
        for segment in segments:
            phase.latencies += segment.latencies
            phase.windows += segment.windows
            phase.attempted += segment.attempted
            phase.failed += segment.failed
            phase.elapsed += segment.elapsed
            phase.work += segment.work
            for key, value in segment.extra.items():
                if isinstance(value, list):
                    phase.extra.setdefault(key, []).extend(value)
        return phase


class Workload:
    """Defaults for a workload: no worker processes, no remote trace, and
    throughput as units of work per second of op time.

    A workload implements ``setup``/``teardown`` (run.py sets up several
    times), ``measure(seconds, full)`` -> :class:`Phase` (``full`` on the
    last set-up of an untraced run), ``quality`` -> ``(rel_sse, ratio)``,
    ``named`` (its own metrics for the detail line), ``check`` -> errors
    and ``layer_metrics(records, phase)``.
    """

    def close(self) -> None:
        self.teardown()

    def live_pids(self) -> List[int]:
        return []

    def collect_trace(self) -> None:
        pass

    def throughput(self, phase: Phase) -> float:
        return phase.work / phase.elapsed


def closed_loop(run: Callable[[int], Any], post: Callable[[int, Any], float],
                seconds: float) -> Phase:
    """One caller issuing ops back to back for ``seconds`` (at least one).

    ``run(i)`` is timed; ``post(i, result)`` checks and accounts for the
    op outside the timing and returns its units of work.  An op that
    raises counts as failed.
    """
    phase = Phase()
    start = time.perf_counter()
    while phase.attempted == 0 or time.perf_counter() - start < seconds:
        index = phase.attempted
        phase.attempted += 1
        t0 = time.perf_counter()
        try:
            result = run(index)
        except Exception:  # noqa: BLE001 - a failed op is a measured outcome
            phase.failed += 1
            continue
        t1 = time.perf_counter()
        phase.latencies.append(t1 - t0)
        phase.windows.append((t0, t1))
        phase.work += post(index, result)
    phase.elapsed = sum(phase.latencies)
    return phase


def conv_stack_spec():
    from repro.workloads import WorkloadSpec

    layers = [{"name": f"conv{i}", "op": "conv", "bias": False,
               "dims": {"in_channels": cin, "out_channels": cout,
                        "kernel_size": 3, "padding": 1}}
              for i, (cin, cout) in enumerate(CONV_STACK, 1)]
    return WorkloadSpec.from_dict({
        "name": "conv_stack_512",
        "description": "ResNet-stage conv widths 64->512, 3x3, at 7x7.",
        "input_shape": [CONV_STACK[0][0], 7, 7],
        "layers": layers,
    })


def build_spec_model(spec, seed: int):
    with probes.build_span():
        return spec.build_model(seed=seed)


def rel_sse(compressed) -> float:
    """Masked clustering SSE over the squared norm of the original weights."""
    norm = sum(float(np.sum(np.square(state.original_grouped)))
               for state in compressed)
    return compressed.mask_sse() / norm


def digest(compressed) -> str:
    """Hash of every layer's codebook, assignments and mask."""
    h = hashlib.sha256()
    for name in sorted(compressed.layers):
        state = compressed.layers[name]
        for array in (state.codebook.codewords, state.assignments, state.mask):
            h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def median(values: Sequence[float]) -> float:
    """The median, or 0.0 for a layer that did no work in this workload."""
    return float(statistics.median(values)) if len(values) else 0.0


def median_over(windows: Sequence[Tuple[float, float]],
                fn: Callable[[Tuple[float, float]], float]) -> float:
    return median([fn(window) for window in windows])


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
