"""Environment fingerprint printed with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

import numpy as np
import scipy


def nproc() -> int:
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def _openblas() -> tuple[str | None, int | None]:
    """OpenBLAS version string and live thread count, read from the library
    numpy loaded; (None, None) if it cannot be found."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    version = info.get("version")
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return version, int(fn())
    return version, None


def _cpu() -> dict:
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {"model": model, "L2": caches.get("L2"), "L3": caches.get("L3")}


def git_sha(root: Path) -> str | None:
    """HEAD of a git checkout at root, read from .git without running git;
    None when root is not a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(root: Path, blas_threads: int, seed: int, pool_size: int) -> dict:
    version, live_threads = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": version,
        "blas_threads_pinned": blas_threads,
        "blas_threads_live": live_threads,
        "nproc": nproc(),
        "cpu": _cpu(),
        "git_sha": git_sha(root),
        "master_seed": seed,
        "trials_per_pass": pool_size,
    }
