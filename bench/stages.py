"""The five compile stages, called one by one as ``compile_program``
calls them, and measures of the IR each stage leaves."""
from __future__ import annotations

import dataclasses
import re
import time

from repro.core.comprehension import Generator, RangeT, StateRef, show
from repro.core.normalize import normalize_code
from repro.core.optimize import optimize_code
from repro.core.parser import parse
from repro.core.pipeline import Compiled
from repro.core.restrictions import check_program
from repro.core.translate import TAssign, TInit, TWhile, translate_program

# stage name as reported → layer module, in pipeline order
STAGES = {
    "parser": "core.parser",
    "restrictions": "core.restrictions",
    "translate": "core.translate",
    "normalize": "core.normalize",
    "optimize": "core.optimize",
}


def compile_staged(src: str, extern_types: dict, span):
    """``compile_program`` with each stage inside ``span(stage, layer)``.

    Returns the result, each stage's time in ms, and the IR node count
    after translate, normalize and optimize."""
    ms, nodes = {}, {}

    def stage(name, fn, *args):
        with span(name, STAGES[name]):
            t0 = time.perf_counter()
            out = fn(*args)
            ms[name] = (time.perf_counter() - t0) * 1e3
        return out

    ast = stage("parser", parse, src)
    stage("restrictions", check_program, ast)
    code, types = stage("translate", translate_program, ast)
    nodes["translate"] = ir_nodes(code)
    code = stage("normalize", normalize_code, code)
    nodes["normalize"] = ir_nodes(code)
    code = stage("optimize", optimize_code, code)
    nodes["optimize"] = ir_nodes(code)
    if extern_types:
        types = {**extern_types, **types}
    return Compiled(code, types, src), ms, nodes


def _walk(x):
    """Every dataclass node reachable from ``x``."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        yield x
        for f in dataclasses.fields(x):
            yield from _walk(getattr(x, f.name))
    elif isinstance(x, (list, tuple)):
        for y in x:
            yield from _walk(y)


def ir_nodes(code) -> int:
    return sum(1 for _ in _walk(code))


def generators(code) -> int:
    """Array and range generators left in target code."""
    return sum(
        1
        for n in _walk(code)
        if isinstance(n, Generator) and isinstance(n.source, (StateRef, RangeT))
    )


def show_code(code, indent: str = "") -> str:
    lines = []
    for st in code:
        if isinstance(st, TInit):
            lines.append(f"{indent}init {st.name}: {st.type!r}")
        elif isinstance(st, TAssign):
            lines.append(f"{indent}{st.name} := {show(st.term)}")
        elif isinstance(st, TWhile):
            lines.append(f"{indent}while {show(st.cond)}")
            lines.append(show_code(st.body, indent + "  "))
    return "\n".join(lines)


_FRESH = re.compile(r"\b([A-Za-z]\w*?)_(\d+)\b")


def canonical(text: str) -> str:
    """Renumber fresh names (``base_<n>``) by first appearance, so two
    compiles of one program print alike."""
    seen: dict = {}

    def sub(m):
        return f"{m.group(1)}_#{seen.setdefault(m.group(0), len(seen))}"

    return _FRESH.sub(sub, text)
