"""Spark DataFrame executor for target code.

State representation:

* an ``n``-dimensional array is a DataFrame with columns
  ``_k1, …, _kn, _v`` (sparse representation: a bag of index/value
  pairs, paper Section 3.4); tuple and record element types are Spark
  structs;
* a scalar variable is a driver-side Python value.

Each comprehension is lowered once by ``plan.lower``; this module only
interprets the plan. The source and each join's scan are a renamed
array DataFrame (``toDF``) or ``spark.range``; ``Join`` is an inner
``join`` on its key equalities and residual predicates, or a
``crossJoin`` when it has neither; ``Filter`` is ``filter``; ``Let`` is
``withColumn(s)``; ``GroupBy`` is ``groupBy().agg()`` with one aggregate
per reduction slot; ``TotalAgg`` is ``agg()`` coalesced with the monoid
identities; ``Lookup`` is a left join plus ``coalesce`` with its
default. The driver prefix runs on Python values (``plan.run_prefix``),
a constant-key lookup there as a filtered ``collect``, and a plan
without generators evaluates its head on the driver too. The array
merge ``⊲`` becomes a full outer join with ``coalesce`` (paper: "on
Spark, ⊲ can be implemented as a coGroup"). The optimizer emits neither
``⊲`` nor the outer lookup for an array still empty from its ``TInit``
(fresh-target elimination), so such an assignment is the
comprehension's plan alone, its columns widened to the declared types.

Materialization: plans are lazy and ``run_code`` chains them across
statements, so an array read by several later statements would be
recomputed at every read. ``optimize.mark_materialized`` decides at
compile time which array assignments to compute once: the last
assignment to an array in a ``while`` body (its value is loop-carried),
and an assignment that reads state in bulk and whose value the
following code reads at least twice (a read inside a ``while`` counts
twice). ``run_code`` runs exactly the marked assignments through
``localCheckpoint(eager=True)`` where they are assigned, so the reads
that follow, in the same iteration or after it, scan the stored value.
The checkpoint also cuts the lineage, which would otherwise grow by one
plan per iteration; there is no separate end-of-iteration checkpoint.
"""
from __future__ import annotations

import functools
import math
import operator

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from . import ast as A
from .comprehension import (
    BinOp,
    Call,
    Comp,
    Const,
    InRange,
    Merge,
    Proj,
    RangeT,
    StateRef,
    TupleT,
    UnOp,
    Var,
    show,
)
from .plan import (
    Filter,
    GroupBy,
    Join,
    Let,
    Lookup,
    Plan,
    Scan,
    TotalAgg,
    lower,
    py_term,
    run_prefix,
)
from .translate import _IDENTITY, TAssign, TInit, TWhile


class BackendError(Exception):
    pass


# ------------------------------------------------------------- schemas
def spark_type(t) -> T.DataType:
    if isinstance(t, A.TBasic):
        return {
            "long": T.LongType(),
            "double": T.DoubleType(),
            "bool": T.BooleanType(),
            "string": T.StringType(),
        }[t.name]
    if isinstance(t, A.TTuple):
        return T.StructType(
            [T.StructField(f"_{i + 1}", spark_type(x)) for i, x in enumerate(t.items)]
        )
    if isinstance(t, A.TRecord):
        return T.StructType([T.StructField(n, spark_type(x)) for n, x in t.fields])
    raise BackendError(f"no spark type for {t!r}")


def array_schema(t: A.TArray) -> T.StructType:
    """Schema ``(_k1, …, _kn, _v)`` of an array DataFrame."""
    fields = [
        T.StructField(f"_k{i + 1}", spark_type(t.key if i == 0 and t.ndims == 1 else A.TBasic("long")))
        for i in range(t.ndims)
    ]
    fields.append(T.StructField("_v", spark_type(t.elem)))
    return T.StructType(fields)


def empty_array(spark: SparkSession, t: A.TArray) -> DataFrame:
    return spark.createDataFrame([], array_schema(t))


# ----------------------------------------------------- column compiler
def _dist2_col(p, c):
    """Squared Euclidean distance of two 2-D point structs."""
    dx = p.getField("_1") - c.getField("_1")
    dy = p.getField("_2") - c.getField("_2")
    return dx * dx + dy * dy


_CALLS = {
    "sqrt": F.sqrt,
    "abs": F.abs,
    "exp": F.exp,
    "log": F.log,
    "floor": F.floor,
    "ceil": F.ceil,
    "dist2": _dist2_col,
    "coalesce": F.coalesce,
}


def _binop_col(op: str, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    if op == "%":
        return a % b
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    if op == "&&":
        return a & b
    if op == "||":
        return a | b
    if op == "min":
        return F.least(a, b)
    if op == "max":
        return F.greatest(a, b)
    if op == "argmin":
        return (
            F.when(a.isNull(), b)
            .when(b.isNull(), a)
            .when(a.getField("_2") <= b.getField("_2"), a)
            .otherwise(b)
        )
    raise BackendError(f"unknown binary operator {op!r}")


def to_col(t, env: dict):
    """Compile a comprehension term to a Spark Column."""
    if isinstance(t, Var):
        return F.col(t.name)
    if isinstance(t, Const):
        return F.lit(t.value)
    if isinstance(t, StateRef):
        v = env[t.name]
        if isinstance(v, DataFrame):
            raise BackendError(f"array {t.name} used in scalar position")
        if isinstance(v, tuple):
            return F.struct(
                *[F.lit(x).alias(f"_{i + 1}") for i, x in enumerate(v)]
            )
        return F.lit(v)
    if isinstance(t, BinOp):
        return _binop_col(t.op, to_col(t.left, env), to_col(t.right, env))
    if isinstance(t, UnOp):
        c = to_col(t.expr, env)
        return -c if t.op == "-" else ~c
    if isinstance(t, TupleT):
        return F.struct(
            *[to_col(x, env).alias(f"_{i + 1}") for i, x in enumerate(t.items)]
        )
    if isinstance(t, Proj):
        return to_col(t.expr, env).getField(t.field)
    if isinstance(t, Call):
        fn = _CALLS.get(t.fn)
        if fn is None:
            raise BackendError(f"unknown function {t.fn!r}")
        return fn(*[to_col(a, env) for a in t.args])
    if isinstance(t, InRange):
        c = to_col(t.expr, env)
        return (c >= to_col(t.lo, env)) & (c <= to_col(t.hi, env))
    raise BackendError(f"cannot compile term to column: {show(t)}")


_AGG_FN = {
    "+": F.sum,
    "*": F.product,
    "min": F.min,
    "max": F.max,
    "&&": F.bool_and,
    "||": F.bool_or,
}


def _agg_col(monoid: str, col):
    if monoid == "argmin":
        return F.min_by(col, col.getField("_2"))
    fn = _AGG_FN.get(monoid)
    if fn is None:
        raise BackendError(f"unknown monoid {monoid!r}")
    return fn(col)


def _needs_identity(v) -> bool:
    """Whether a monoid identity must replace NULL (a missing key or an
    empty aggregate). The ``±inf`` of ``min``/``max`` need not: their
    only consumers are ``least``/``greatest``, which ignore NULLs, and a
    float literal would widen a ``long`` column to ``double``."""
    return v is not None and not (isinstance(v, float) and math.isinf(v))


# ------------------------------------------------------ plan interpreter
def _scan(scan: Scan, env: dict, spark: SparkSession) -> DataFrame:
    if isinstance(scan.source, RangeT):
        lo, hi = (py_term(t, env)({}) for t in (scan.source.lo, scan.source.hi))
        return spark.range(int(lo), int(hi) + 1).toDF(*scan.names)
    name = scan.source.name
    df = env[name]
    if not isinstance(df, DataFrame):
        raise BackendError(f"{name} is not an array")
    if len(scan.names) != len(df.columns):
        raise BackendError(
            f"pattern arity {len(scan.names)} != array {name} arity {len(df.columns)}"
        )
    return df.toDF(*scan.names)


def _and(preds: list):
    return functools.reduce(operator.and_, preds) if preds else None


def _outer_lookup(df: DataFrame, st: Lookup, env: dict) -> DataFrame:
    """Left join with the array, ``coalesce`` with the default."""
    adf = env[st.array]
    if not isinstance(adf, DataFrame):
        raise BackendError(f"{st.array} is not an array")
    knames = [f"_lk{j}_{st.var}" for j in range(len(adf.columns) - 1)]
    vname = f"_lv_{st.var}"
    if len(st.keys) != len(knames):
        raise BackendError("outer-lookup key arity mismatch")
    on = _and([to_col(k, env) == F.col(kn) for k, kn in zip(st.keys, knames)])
    df = df.join(adf.toDF(*knames, vname), on=on, how="left")
    if not _needs_identity(st.default):
        df = df.withColumn(st.var, F.col(vname))
    else:
        df = df.withColumn(st.var, F.coalesce(F.col(vname), F.lit(st.default)))
    return df.drop(vname, *knames)


def _total_agg(a, env: dict):
    """A total aggregate, coalesced with the monoid identity so that an
    empty input aggregates to the identity instead of NULL."""
    c = _agg_col(a.monoid, to_col(a.expr, env))
    ident = _IDENTITY.get(a.monoid)
    if isinstance(ident, Const) and _needs_identity(ident.value):
        c = F.coalesce(c, F.lit(ident.value))
    return c


def _step(df: DataFrame, st, env: dict, spark: SparkSession) -> DataFrame:
    if isinstance(st, Join):
        other = _scan(st.scan, env, spark)
        on = _and([to_col(o, env) == to_col(n, env) for o, n in st.keys]
                  + [to_col(c, env) for c in st.conds])
        if on is None:
            return df.crossJoin(other)
        return df.join(other, on=on, how="inner")
    if isinstance(st, Filter):
        return df.filter(to_col(st.expr, env))
    if isinstance(st, Let):
        c = to_col(st.expr, env)
        if len(st.names) == 1:
            return df.withColumn(st.names[0], c)
        return df.withColumns(
            {n: c.getField(f"_{j + 1}") for j, n in enumerate(st.names)}
        )
    if isinstance(st, GroupBy):
        if not st.aggs:
            raise BackendError("group-by without any aggregation")
        df = df.withColumns({n: to_col(k, env) for n, k in zip(st.names, st.keys)})
        return df.groupBy(*st.names).agg(
            *[_agg_col(a.monoid, to_col(a.expr, env)).alias(s) for s, a in st.aggs]
        )
    if isinstance(st, TotalAgg):
        return df.agg(*[_total_agg(a, env).alias(s) for s, a in st.aggs])
    if isinstance(st, Lookup):
        return _outer_lookup(df, st, env)
    raise BackendError(f"unknown plan step {st!r}")


def _lookup(adf: DataFrame, key: tuple, default):
    """Driver-side read of one array element by a constant key."""
    hit = adf.filter(
        _and([F.col(f"_k{j + 1}") == F.lit(k) for j, k in enumerate(key)])
    ).collect()
    if not hit:
        return default
    v = hit[0]["_v"]
    return tuple(v) if hasattr(v, "asDict") else v


def _rows(plan: Plan, env: dict, spark: SparkSession):
    """Run a plan: a DataFrame with a column per bound variable; for a
    plan without generators, the driver row of its prefix, or None when
    a prefix condition is false."""
    row = run_prefix(plan.prefix, env, _lookup)
    if row is None or plan.source is None:
        return row
    df = _scan(plan.source, env, spark)
    for st in plan.steps:
        df = _step(df, st, env, spark)
    return df


# --------------------------------------------------------- bag results
def _lit_value(v):
    """Literal column for a Python value; tuples become structs."""
    if isinstance(v, tuple):
        return F.struct(*[_lit_value(x).alias(f"_{i + 1}") for i, x in enumerate(v)])
    return F.lit(v)


def eval_bag_to_array(term, env, spark, ndims: int) -> DataFrame:
    """Evaluate a bag term into an array DataFrame ``(_k1.._kn, _v)``,
    or None for the empty bag."""
    if isinstance(term, Merge):
        if not isinstance(term.old, StateRef):
            raise BackendError("merge target must be a state array")
        old = env[term.old.name]
        new = eval_bag_to_array(term.new, env, spark, ndims)
        if new is None:  # empty bag: V ⊲ ∅ = V
            return old
        return merge_arrays(old, new, ndims)
    if isinstance(term, StateRef):
        return env[term.name]
    if not isinstance(term, Comp):
        raise BackendError(f"cannot evaluate bag term {show(term)}")
    plan = lower(term)
    rows = _rows(plan, env, spark)
    if rows is None:
        return None
    if not isinstance(rows, DataFrame):
        # generator-free comprehension: a singleton key/value row
        v = py_term(plan.head, env)(rows)
        if not isinstance(v, tuple) or len(v) != ndims + 1:
            raise BackendError("array assignment produced a scalar")
        cols = [_lit_value(x).alias(f"_k{j + 1}") for j, x in enumerate(v[:-1])]
        cols.append(_lit_value(v[-1]).alias("_v"))
        return spark.range(1).select(*cols)
    head = plan.head
    if not isinstance(head, TupleT) or len(head.items) != ndims + 1:
        raise BackendError(
            f"array head arity mismatch: {show(head)} for {ndims} dims"
        )
    cols = [to_col(x, env).alias(f"_k{j + 1}") for j, x in enumerate(head.items[:-1])]
    cols.append(to_col(head.items[-1], env).alias("_v"))
    return rows.select(*cols)


def _widen_to_declared(df: DataFrame, t: A.TArray) -> DataFrame:
    """Widen each column to the common type of its own and the declared
    one, as a merge into the typed empty array does: the ``0`` of
    ``V[i] := 0`` into a ``vector[long]`` becomes a long, a double
    stays a double. ``coalesce`` with a typed NULL is that coercion;
    the optimizer drops the NULL and keeps only the cast."""
    return df.select(*[
        F.coalesce(F.col(c), F.lit(None).cast(f.dataType)).alias(c)
        for c, f in zip(df.columns, array_schema(t).fields)
    ])


def merge_arrays(old: DataFrame, new: DataFrame, ndims: int) -> DataFrame:
    """``old ⊲ new``: union preferring ``new`` on key collisions."""
    nnames = [f"_n{j}" for j in range(ndims)] + ["_nv"]
    new = new.toDF(*nnames)
    on = _and([F.col(f"_k{j + 1}") == F.col(f"_n{j}") for j in range(ndims)])
    joined = old.join(new, on=on, how="full")
    cols = [
        F.coalesce(F.col(f"_n{j}"), F.col(f"_k{j + 1}")).alias(f"_k{j + 1}")
        for j in range(ndims)
    ]
    cols.append(F.coalesce(F.col("_nv"), F.col("_v")).alias("_v"))
    return joined.select(*cols)


def eval_scalar(term, env, spark):
    """Evaluate a bag term expected to hold ≤1 scalar element. Returns
    (present, value): an empty bag leaves the destination unchanged
    (matching the Figure-4 conditional semantics)."""
    if not isinstance(term, Comp):
        return True, py_term(term, env)({})
    plan = lower(term)
    rows = _rows(plan, env, spark)
    if rows is None:
        return False, None
    if not isinstance(rows, DataFrame):
        return True, py_term(plan.head, env)(rows)
    out = rows.select(to_col(plan.head, env).alias("_v")).collect()
    if not out:
        return False, None
    if len(out) > 1:
        raise BackendError(
            f"scalar comprehension yields several rows: {show(term)}"
        )
    v = out[0]["_v"]
    if hasattr(v, "asDict"):  # Row (struct value) → tuple
        v = tuple(v)
    return True, v


# ------------------------------------------------------------ execution
def run_code(code, env: dict, spark: SparkSession, types: dict) -> dict:
    """Execute target code, updating and returning the environment."""
    for st in code:
        if isinstance(st, TInit):
            env[st.name] = empty_array(spark, st.type)
        elif isinstance(st, TAssign):
            t = types.get(st.name)
            if isinstance(t, A.TArray):
                df = eval_bag_to_array(st.term, env, spark, t.ndims)
                if df is None:  # X := ∅
                    df = empty_array(spark, t)
                elif not isinstance(st.term, Merge):
                    df = _widen_to_declared(df, t)
                if st.materialize:
                    df = df.localCheckpoint(eager=True)
                env[st.name] = df
            else:
                present, v = eval_scalar(st.term, env, spark)
                if present:
                    env[st.name] = v
        elif isinstance(st, TWhile):
            while True:
                present, c = eval_scalar(st.cond, env, spark)
                if not present or not c:
                    break
                run_code(st.body, env, spark, types)
        else:
            raise BackendError(f"unknown target statement {st!r}")
    return env
