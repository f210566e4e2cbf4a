"""Shared low-level utilities: set-intersection kernels and timing helpers."""

from repro.utils.kernels import (
    BitmapKernel,
    BitsetKernel,
    KernelBackend,
    NumpyKernel,
    QFilterKernel,
    ScalarKernel,
    available_kernels,
    get_kernel,
    intersect_galloping,
    intersect_hybrid,
    intersect_merge,
    register_kernel,
)
from repro.utils.timer import Deadline, Timer

__all__ = [
    "intersect_galloping",
    "intersect_hybrid",
    "intersect_merge",
    "BitmapKernel",
    "BitsetKernel",
    "KernelBackend",
    "NumpyKernel",
    "QFilterKernel",
    "ScalarKernel",
    "available_kernels",
    "get_kernel",
    "register_kernel",
    "Deadline",
    "Timer",
]
