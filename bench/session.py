"""Spark session for the benchmark, configured like the test suite.

Same SQL settings as ``conftest.py`` (64 shuffle partitions, Arrow on,
no automatic broadcast joins), master ``local[n]`` with ``n`` the usable
cores, and a driver heap of half the machine's memory clamped to
2–8 GiB, the sizing the tier-1 test command uses. Every file Spark,
the JVM and Python write goes under one scratch directory of the
checkout, which ``stop`` removes.
"""
from __future__ import annotations

import os
import shutil
import subprocess


def cores() -> int:
    return len(os.sched_getaffinity(0))


def driver_mem() -> str:
    gib = 2
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                gib = int(line.split()[1]) // (2 * 1024 * 1024)
    return f"{min(8, max(2, gib))}g"


def start(scratch: str):
    """Launch the JVM and return a SparkSession; files go to ``scratch``."""
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch  # py4j's connection file, pyspark temp files
    os.environ["SPARK_LOCAL_DIRS"] = scratch  # shuffle and block files
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores()}] "
        f"--driver-memory {driver_mem()} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.driver.extraJavaOptions=-Djava.io.tmpdir={scratch} "
        f"--conf spark.sql.warehouse.dir={scratch}/warehouse "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("diablo-bench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark, scratch: str) -> None:
    """Stop Spark, if it was started, wait for the JVM to exit, and
    remove ``scratch``."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    if spark is not None:
        spark.stop()
    if gateway is not None:
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.stdin.close()  # the JVM exits when its stdin closes
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    shutil.rmtree(scratch, ignore_errors=True)
