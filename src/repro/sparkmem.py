"""Driver heap size for a local Spark session, shared by the test
suite's ``conftest.py`` and the ``jobs/`` entrypoints.

``spark.driver.memory`` is read at JVM launch, not from ``SparkConf``, so
callers put the result into ``PYSPARK_SUBMIT_ARGS`` before pyspark is
imported. This module imports nothing from pyspark.
"""
from __future__ import annotations

import os


def _memtotal_gib() -> float | None:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / (1 << 20)
    except (OSError, ValueError):
        pass
    return None


def driver_mem() -> str:
    """Heap for the Spark driver JVM, e.g. ``"6g"``.

    Precedence: the ``SPARK_DRIVER_MEM`` environment variable (explicit
    override) > 75% of the cgroup v2/v1 memory limit > half of the
    machine's memory, clamped to 2–8 GiB (the sizing of the test
    command in ROADMAP.md) > ``"2g"``.

    The cgroup read is best-effort: a sandboxed container's sysfs may not
    pass the host limit through. An unbounded value (cgroup-v1's
    ~9.2e18 "unlimited" sentinel, or a missing limit) is treated as
    absent so the JVM is never handed an impossible heap. Where the size
    came from is left in ``_SPARK_DRIVER_MEM_SRC``.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            with open(p) as f:
                raw = f.read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    total = _memtotal_gib()
    if total is None:
        os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
        return "2g"
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "meminfo"
    return f"{min(8, max(2, int(total / 2)))}g"
