"""Conversions between the backend's DataFrame arrays and the
interpreter's dict arrays, plus result canonicalization for tests."""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, Row, SparkSession

from . import ast as A
from .backend import array_schema


def _canon_value(v):
    """Normalize a Spark value for comparison: Row structs become tuples
    (fields ``_1.._n``) or dicts (named record fields)."""
    if isinstance(v, Row):
        d = v.asDict()
        if all(k.startswith("_") and k[1:].isdigit() for k in d):
            return tuple(_canon_value(d[f"_{i + 1}"]) for i in range(len(d)))
        return {k: _canon_value(x) for k, x in d.items()}
    return v


def df_to_dict(df: DataFrame, ndims: int) -> dict:
    """Array DataFrame ``(_k1.._kn, _v)`` → Python dict."""
    out = {}
    for row in df.collect():
        key = tuple(row[j] for j in range(ndims))
        out[key if ndims > 1 else key[0]] = _canon_value(row[ndims])
    return out


def dict_to_df(spark: SparkSession, d: dict, arr_type: A.TArray) -> DataFrame:
    """Python dict → array DataFrame with the canonical schema."""
    rows = []
    for k, v in d.items():
        key = k if isinstance(k, tuple) else (k,)
        rows.append(tuple(key) + (v,))
    return spark.createDataFrame(rows, array_schema(arr_type))


def pdf_to_array_df(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """pandas frame with columns already named ``_k1.._kn, _v`` →
    Spark array DataFrame (fast Arrow path for benchmark inputs)."""
    return spark.createDataFrame(pdf)


def approx_dict_equal(a: dict, b: dict, tol: float = 1e-6) -> bool:
    """Compare two array dicts with float tolerance (tuples recursed)."""
    if set(a) != set(b):
        return False

    def eq(x, y):
        if isinstance(x, tuple) and isinstance(y, tuple):
            return len(x) == len(y) and all(eq(p, q) for p, q in zip(x, y))
        if isinstance(x, float) or isinstance(y, float):
            return abs(x - y) <= tol * max(1.0, abs(x), abs(y))
        return x == y

    return all(eq(a[k], b[k]) for k in a)
