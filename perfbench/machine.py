"""Facts about the machine and the numeric stack, recorded with every result."""

from __future__ import annotations

import ctypes
import importlib.util
import os
import platform
import subprocess
import time

import numpy as np

COPY_LLC_MULTIPLE = 4
COPY_REPEATS = 3


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, else the pinning variable."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def _blas_name() -> str:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def llc_bytes() -> tuple[int | None, str]:
    """Size of the last-level cache summed over its instances, per lscpu."""
    try:
        out = subprocess.run(["lscpu", "-B", "-C=NAME,ALL-SIZE,LEVEL"], capture_output=True,
                             text=True, timeout=20, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, "lscpu unavailable"
    rows = [line.split() for line in out.splitlines()[1:]]
    rows = [r for r in rows if len(r) == 3 and r[1].isdigit() and r[2].isdigit()]
    if not rows:
        return None, "lscpu reported no caches"
    name, size, _level = max(rows, key=lambda r: int(r[2]))
    return int(size), f"lscpu {name}"


def facts(pkg) -> dict:
    llc, llc_source = llc_bytes()
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": _blas_threads(),
        "numba": importlib.util.find_spec("numba") is not None,
        "kernels": "numba" if pkg["_kernels"]._HAVE_NUMBA else "numpy",
        "dtype": np.dtype(pkg["tensor"].DTYPE).name,
        "llc_bytes": llc,
        "llc_source": llc_source,
    }


def _mem_available() -> int | None:
    try:
        with open("/proc/meminfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def copy_bandwidth(llc: int | None) -> dict:
    """Sustained copy bandwidth (read + write bytes per second) on arrays of
    at least 4x the last-level cache, so the copy streams from memory.

    When the machine lacks the memory for two such arrays (with as much
    again to spare), nothing is allocated, copy_gbps is reported as 0 and
    the reason is recorded: kernel gbps then stand without the ratio.
    """
    if llc is None:
        return {"copy_gbps": 0.0, "copy_note": "no LLC size, bandwidth not measured"}
    n = COPY_LLC_MULTIPLE * llc // 8
    nbytes = n * 8
    avail = _mem_available()
    if avail is None or avail < 4 * nbytes:
        return {"copy_gbps": 0.0, "copy_array_bytes": nbytes,
                "copy_note": f"needs {4 * nbytes} bytes available, have {avail}; not measured"}
    src = np.ones(n)
    dst = np.empty_like(src)
    dst.fill(0.0)      # first touch outside the timing
    times = []
    for _ in range(COPY_REPEATS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    del src, dst
    return {"copy_gbps": 2 * nbytes / float(np.median(times)) / 1e9,
            "copy_array_bytes": nbytes, "copy_llc_bytes": llc}
