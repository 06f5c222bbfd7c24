"""Materialization marks: which array assignments the optimizer marks,
and that the Spark backend still agrees with the interpreter and cuts
the lineage of loop-carried arrays every iteration."""
import pytest

from repro.core import ast as A
from repro.core.convert import approx_dict_equal, df_to_dict
from repro.core.interp import interpret
from repro.core.optimize import _statements
from repro.core.pipeline import compile_program, run_program
from repro.core.translate import TAssign
from repro.programs.suite import BY_NAME, build_envs


def _array_assigns(compiled):
    """``(name, materialize)`` of every assignment to a declared array,
    in order."""
    return [
        (st.name, st.materialize) for st in _statements(compiled.code)
        if isinstance(st, TAssign)
        and isinstance(compiled.types.get(st.name), A.TArray)
    ]


def _compiled(name):
    prog = BY_NAME[name]
    _, _, types = build_envs(prog, "tiny")
    return compile_program(prog.source, types)


def test_kmeans_marks():
    assert _array_assigns(_compiled("KMeans")) == [
        ("closest", True), ("avg", True), ("C", True),
    ]


def test_pagerank_marks_edge_count_and_loop_carried():
    # C and P initializations are pure range terms; the first P of the
    # loop body is overwritten in the same iteration
    assert _array_assigns(_compiled("PageRank")) == [
        ("C", False), ("P", False), ("C", True),
        ("Q", True), ("P", False), ("P", True),
    ]


def test_matrix_factorization_marks_err_only():
    # err is read by both the P and the Q update; pq only by err
    assert _array_assigns(_compiled("Matrix Factorization")) == [
        ("pq", False), ("pq", False), ("err", True), ("P", False), ("Q", False),
    ]


@pytest.mark.parametrize(
    "name",
    ["Word Count", "Group-By", "String Match", "Linear Regression",
     "Matrix Addition", "Matrix Multiplication"],
)
def test_single_pass_programs_unmarked(name):
    assert not any(m for _, m in _array_assigns(_compiled(name)))


@pytest.mark.parametrize(
    "use,marked",
    [
        ("s += S[0];", False),  # one read
        ("s += S[0]; s += S[1];", True),  # two reads
        ("while (k < 2) { k += 1; s += S[0]; };", True),  # in a loop: twice
        # reads after a redefinition read another value
        ("S[0] := 1.0; s += S[0]; s += S[1];", False),
        # the loop redefines S, so only its first iteration reads this S
        ("while (k < 2) { k += 1; s += S[0];"
         " var S: vector[double] = vector(); };", False),
    ],
)
def test_later_read_count(use, marked):
    c = compile_program(
        "var S: vector[double] = vector(); var s: double = 0.0;"
        "var k: long = 0; for i = 0, 3 do S[i] += V[i];" + use,
        {"V": A.TArray(1, A.TBasic("double"))},
    )
    assert _array_assigns(c)[0] == ("S", marked)


def _plan(df) -> str:
    return df._jdf.queryExecution().analyzed().toString()


@pytest.mark.parametrize("name,outs", [("KMeans", ["C"]), ("PageRank", ["P", "C"])])
def test_three_iterations_match_interp(spark, name, outs):
    prog = BY_NAME[name]
    spark_env, dict_env, types = build_envs(prog, "tiny", spark)
    spark_env["num_steps"] = dict_env["num_steps"] = 3
    compiled = compile_program(prog.source, types)
    env = run_program(compiled, spark_env, spark)
    want = interpret(prog.source, dict_env)
    for out in outs:
        ndims = compiled.types[out].ndims
        assert approx_dict_equal(df_to_dict(env[out], ndims), want[out]), out
    # every loop-carried array is read back from its checkpoint, so its
    # plan holds no join of earlier iterations
    carried = ["closest", "avg", "C"] if name == "KMeans" else ["Q", "P"]
    for arr in carried:
        assert "Join" not in _plan(env[arr]), arr
