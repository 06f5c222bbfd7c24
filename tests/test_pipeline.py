"""Pipeline driver: compile_program wiring, error propagation."""
import pytest

from repro.core import ast as A
from repro.core.parser import ParseError
from repro.core.pipeline import Compiled, compile_program
from repro.core.restrictions import RestrictionError


def test_compile_returns_compiled():
    c = compile_program("var x: long = 1;")
    assert isinstance(c, Compiled) and c.source.startswith("var x")


def test_compile_parse_error_propagates():
    with pytest.raises(ParseError):
        compile_program("var x := ;")


def test_compile_restriction_error_propagates():
    with pytest.raises(RestrictionError):
        compile_program("for i = 1, 9 do V[i] := V[i - 1];")


def test_extern_types_merged():
    t = A.TArray(1, A.TBasic("double"))
    c = compile_program("var s: double = 0.0; for v in V do s += v;", {"V": t})
    assert c.types["V"] == t and c.types["s"] == A.TBasic("double")


def test_declared_types_override_extern():
    t = A.TArray(1, A.TBasic("double"))
    c = compile_program("var V: vector[long] = vector();", {"V": t})
    assert c.types["V"].elem == A.TBasic("long")


def test_compile_is_pure():
    src = "var s: double = 0.0; for v in V do s += v;"
    t = {"V": A.TArray(1, A.TBasic("double"))}
    c1, c2 = compile_program(src, t), compile_program(src, t)
    assert len(c1.code) == len(c2.code)


def test_all_paper_negative_examples_rejected():
    for src in [
        "for i = 1, 9 do V[i] := (V[i - 1] + V[i + 1]) / 2;",
        "for i = 0, 9 do { n := V[i]; W[i] := sqrt(n); };",
        "for i = 0, 9 do V[W[i]] := 1;",
    ]:
        with pytest.raises(RestrictionError):
            compile_program(src)


def test_show_code_marks_materialized_assignments():
    from repro.core.pipeline import show_code

    src = """
    var S: vector[double] = vector();
    var s: double = 0.0;
    var k: long = 0;
    for i = 0, 3 do S[i] += V[i];
    while (k < 2) { k += 1; s += S[0]; };
    """
    text = show_code(compile_program(src, {"V": A.TArray(1, A.TBasic("double"))}).code)
    lines = text.splitlines()
    assert lines[0].startswith("init S: ")
    marked = [ln for ln in lines if ln.endswith("[materialize]")]
    assert len(marked) == 1 and marked[0].startswith("S := {")
    loop = lines.index(next(ln for ln in lines if ln.startswith("while ")))
    assert lines[loop + 1].startswith("  k := ")  # body indented
