"""Facts about the machine and numerical stack, recorded in every result file."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict:
    """Unified and data cache sizes of cpu0 by level, as the kernel reports them."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked from the library."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def facts(seed: int) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    caches = _cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_cache": caches.get("L2"),
        "l3_cache": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }
