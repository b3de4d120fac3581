"""The machine and software a result was measured on."""

from __future__ import annotations

import os
import platform
from pathlib import Path

CPU_CACHE = Path("/sys/devices/system/cpu/cpu0/cache")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    """Unified and data cache sizes of cpu0, keyed ``L1d``, ``L2``, ``L3``."""
    out = {}
    for index in sorted(CPU_CACHE.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        out[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return out


def _kib(size: str) -> int | None:
    units = {"K": 1, "M": 1024, "G": 1024 * 1024}
    if size and size[-1] in units and size[:-1].isdigit():
        return int(size[:-1]) * units[size[-1]]
    return int(size) // 1024 if size.isdigit() else None


def environment(seed: int, workers: int, working_set: dict[str, int]) -> dict:
    """Environment record; ``working_set`` maps a name to a size in bytes."""
    import numpy

    caches = _cache_sizes()
    l3 = _kib(caches.get("L3", ""))
    sets = {}
    for name, nbytes in working_set.items():
        entry = {"bytes": nbytes}
        if l3:
            entry["share_of_L3"] = nbytes / (l3 * 1024)
        sets[name] = entry
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "workers": workers,
        "working_set": sets,
    }
