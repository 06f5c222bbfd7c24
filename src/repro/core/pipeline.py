"""End-to-end DIABLO pipeline: parse → check → translate → normalize →
optimize → execute on Spark.

``compile_program`` is the compile-time half (what Table 1 measures);
``run_program`` executes the compiled target code over a state
environment holding input arrays (DataFrames) and scalars;
``show_code`` renders compiled target code as text.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import SparkSession

from . import ast as A
from .backend import run_code
from .comprehension import show
from .normalize import normalize_code
from .optimize import optimize_code
from .parser import parse
from .restrictions import check_program
from .translate import TAssign, TInit, TWhile, translate_program


@dataclass
class Compiled:
    """A compiled loop program: optimized target code + declared types."""

    code: list
    types: dict
    source: str


def compile_program(src: str, extern_types: dict | None = None) -> Compiled:
    """Compile loop-language source to optimized target code.

    ``extern_types`` declares the types of input state (arrays fed in
    from outside rather than declared with ``var``), e.g.
    ``{"V": TArray(1, TBasic("double"))}``.
    """
    ast = parse(src)
    check_program(ast)
    code, types = translate_program(ast)
    code = normalize_code(code)
    code = optimize_code(code)
    if extern_types:
        types = {**extern_types, **types}
    return Compiled(code, types, src)


def run_program(
    compiled: Compiled, env: dict, spark: SparkSession
) -> dict:
    """Execute compiled target code; returns the final environment.

    ``env`` maps input names to DataFrames (arrays, columns
    ``_k1.._kn, _v``) or Python values (scalars). The input dict is not
    mutated.
    """
    return run_code(compiled.code, dict(env), spark, compiled.types)


def compile_and_run(src: str, env: dict, spark: SparkSession, extern_types=None):
    return run_program(compile_program(src, extern_types), env, spark)


def show_code(code, indent: str = "") -> str:
    """Target code as text, one statement per line and a loop body
    indented under its ``while``. Assignments the Spark backend
    materializes end in ``[materialize]``."""
    lines = []
    for st in code:
        if isinstance(st, TInit):
            lines.append(f"{indent}init {st.name}: {st.type!r}")
        elif isinstance(st, TAssign):
            mark = "  [materialize]" if st.materialize else ""
            lines.append(f"{indent}{st.name} := {show(st.term)}{mark}")
        elif isinstance(st, TWhile):
            lines.append(f"{indent}while {show(st.cond)}")
            lines.append(show_code(st.body, indent + "  "))
    return "\n".join(lines)
