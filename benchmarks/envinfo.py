"""Environment record: versions, core and BLAS thread counts, host speed,
memory bandwidth."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_env() -> dict[str, str]:
    """Pin BLAS threads to the cores this process may run on."""
    return {var: str(nproc()) for var in BLAS_THREAD_VARS}


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def llc_bytes() -> int:
    """Size of the highest cache level cpu0 reports; 32 MiB when unknown."""
    best = (0, 32 << 20)
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            level = int(Path(index, "level").read_text())
            raw = Path(index, "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(raw[-1:], 1)
        size = int(raw.rstrip("KMG")) * scale
        best = max(best, (level, size))
    return best[1]


def _openblas_threads(np) -> int | None:
    """Ask the OpenBLAS that numpy loaded for its thread count, if it is there."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def copy_bandwidth(np, working_set: int) -> float:
    """GB/s moved by np.copyto over two arrays that together span working_set."""
    n = max(working_set // 16, 1)
    src = np.full(n, 0.5)
    dst = np.zeros(n)
    np.copyto(dst, src)  # fault the destination pages in before timing
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t)
    return 2 * n * 8 / best / 1e9


def reference_loop_s(repeats: int = 5, n: int = 1_000_000) -> float:
    """Median seconds of a fixed pure-Python loop.

    On a shared 2-vCPU KVM guest, interpreter work was seen to slow by up to
    a fifth for minutes at a time; this figure lets two runs' timings be read
    against the host speed they saw. It is recorded, never used to adjust a
    metric.
    """
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        total = 0
        for i in range(n):
            total += i * i
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def environment(root: Path, np, scipy, bandwidth_bytes: int | None = None) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    env = {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": nproc(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _openblas_threads(np),
        "llc_bytes": llc_bytes(),
        "reference_loop_s": reference_loop_s(),
    }
    if bandwidth_bytes is not None:
        env["copy_working_set_bytes"] = bandwidth_bytes
        env["copy_gb_per_s"] = copy_bandwidth(np, bandwidth_bytes)
    return env
