"""Application registry: Table II metadata and trace construction.

:data:`APPLICATIONS` maps the paper's application abbreviations to their
builders plus the Table II / Table III metadata (benchmark suite, access
pattern, object count, memory footprints per GPU count).  Traces are
memoized by their full parameter tuple so repeated experiments don't pay
generation twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.config import PAGE_SIZE_4K, SystemConfig
from repro.workloads.base import Trace
from repro.workloads.bfs import build_bfs
from repro.workloads.c2d import build_c2d
from repro.workloads.dnn import build_lenet, build_resnet18, build_vgg16
from repro.workloads.fft import build_fft
from repro.workloads.i2c import build_i2c
from repro.workloads.mm import build_mm
from repro.workloads.mt import build_mt
from repro.workloads.pr import build_pr
from repro.workloads.st import build_st


@dataclass(frozen=True)
class ApplicationInfo:
    """Table II row plus the Table III footprint scaling."""

    name: str
    full_name: str
    suite: str
    pattern: str
    n_objects: int
    #: Memory footprint (MB) keyed by GPU count (Tables II and III).
    footprint_mb: dict[int, int]
    builder: Callable[..., Trace]

    def footprint_for(self, n_gpus: int) -> int:
        """Footprint for a GPU count (nearest documented configuration)."""
        if n_gpus in self.footprint_mb:
            return self.footprint_mb[n_gpus]
        best = min(self.footprint_mb, key=lambda k: abs(k - n_gpus))
        return self.footprint_mb[best]


APPLICATIONS: dict[str, ApplicationInfo] = {
    "bfs": ApplicationInfo(
        "bfs", "Breadth-First Search", "SHOC", "random", 5,
        {4: 32, 8: 64, 16: 128}, build_bfs,
    ),
    "c2d": ApplicationInfo(
        "c2d", "Convolution 2D", "DNN-Mark", "adjacent", 10,
        {4: 92, 8: 200, 16: 308}, build_c2d,
    ),
    "fft": ApplicationInfo(
        "fft", "Fast Fourier Transform", "SHOC", "scatter-gather", 2,
        {4: 48, 8: 96, 16: 192}, build_fft,
    ),
    "i2c": ApplicationInfo(
        "i2c", "Image to Column", "DNN-Mark", "scatter-gather", 3,
        {4: 80, 8: 175, 16: 264}, build_i2c,
    ),
    "mm": ApplicationInfo(
        "mm", "Matrix Multiplication", "AMDAPPSDK", "scatter-gather", 4,
        {4: 32, 8: 128, 16: 192}, build_mm,
    ),
    "mt": ApplicationInfo(
        "mt", "Matrix Transpose", "AMDAPPSDK", "scatter-gather", 3,
        {4: 64, 8: 160, 16: 320}, build_mt,
    ),
    "pr": ApplicationInfo(
        "pr", "Page Rank", "Hetero-Mark", "random", 6,
        {4: 32, 8: 74, 16: 132}, build_pr,
    ),
    "st": ApplicationInfo(
        "st", "Stencil 2D", "SHOC", "adjacent", 3,
        {4: 32, 8: 65, 16: 129}, build_st,
    ),
    "lenet": ApplicationInfo(
        "lenet", "LeNet", "DNN-Mark", "adjacent", 115,
        {4: 24, 8: 64, 16: 170}, build_lenet,
    ),
    "vgg16": ApplicationInfo(
        "vgg16", "Visual Geometry Group 16-layer", "DNN-Mark", "adjacent",
        240, {4: 220, 8: 358, 16: 718}, build_vgg16,
    ),
    "resnet18": ApplicationInfo(
        "resnet18", "Residual Network 18-layer", "DNN-Mark", "adjacent",
        263, {4: 297, 8: 508, 16: 1167}, build_resnet18,
    ),
}

#: Application order used in the paper's figures.
APPLICATION_ORDER = (
    "bfs", "c2d", "fft", "i2c", "mm", "mt", "pr", "st",
    "lenet", "vgg16", "resnet18",
)


@lru_cache(maxsize=64)
def _cached_build(
    name: str, n_gpus: int, page_size: int, footprint_mb: float, seed: int,
    burst: int,
) -> Trace:
    info = APPLICATIONS[name]
    return info.builder(
        n_gpus=n_gpus,
        page_size=page_size,
        footprint_mb=footprint_mb,
        seed=seed,
        burst=burst,
    )


def get_workload(
    name: str,
    config: SystemConfig | None = None,
    *,
    n_gpus: int | None = None,
    page_size: int | None = None,
    footprint_mb: float | None = None,
    seed: int = 0,
    burst: int = 32,
) -> Trace:
    """Build (or fetch from cache) one application trace.

    Args:
        name: application abbreviation from Table II (case-insensitive).
        config: optional system config providing GPU count and page size.
        n_gpus: override for the GPU count.
        page_size: override for the page size in bytes.
        footprint_mb: override the Table II/III footprint (used by the
            large-input study, Fig. 18).
        seed: RNG seed for pattern generators.
        burst: per-GPU record burst length used when interleaving.

    Note:
        Traces are cached and shared; callers must treat them as
        read-only (the simulator does).
    """
    key = name.lower()
    gpus = n_gpus if n_gpus is not None else (config.n_gpus if config else 4)
    psize = (
        page_size
        if page_size is not None
        else (config.page_size if config else PAGE_SIZE_4K)
    )
    if key not in APPLICATIONS:
        known = ", ".join(sorted(APPLICATIONS))
        raise ValueError(f"unknown application {name!r}; known: {known}")
    info = APPLICATIONS[key]
    mb = footprint_mb if footprint_mb is not None else info.footprint_for(gpus)
    return _cached_build(key, gpus, psize, float(mb), seed, burst)
