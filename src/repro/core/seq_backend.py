"""Sequential collections executor for target code (Table 2's "seq").

The paper's Table 2 compares the *same* DIABLO-translated program run
on Scala parallel collections versus plain sequential lists. The
analogue here: the same target code that the Spark backend executes is
evaluated with plain Python collections. Arrays are dicts, and each
comprehension is lowered by ``plan.lower``, the same plan the Spark
backend interprets, and run over a list of row dicts: a ``Scan`` makes
one row per array element or ``range`` integer, a ``Join`` is a hash
join on its key pairs (the cross product when it has none) with its
residual predicates as a filter, a ``GroupBy`` or ``TotalAgg`` is a
dict fold, and a ``Lookup`` is a dict ``get``. A plan without
generators is the one row of its driver prefix. The literal loop
interpreter (``interp.py``) stays the ground truth; this backend is the
sequential *bulk* evaluation.
"""
from __future__ import annotations

from . import ast as A
from .comprehension import Comp, Merge, RangeT, StateRef
from .plan import (
    BIN,
    Filter,
    GroupBy,
    Join,
    Let,
    Lookup,
    Scan,
    TotalAgg,
    bind,
    lower,
    py_term,
    run_prefix,
)
from .translate import _IDENTITY, TAssign, TInit, TWhile

_IDENT = {m: c.value for m, c in _IDENTITY.items()}


class SeqError(Exception):
    pass


def _scan(scan: Scan, env: dict) -> list:
    names = scan.names
    if isinstance(scan.source, RangeT):
        lo, hi = (py_term(t, env)({}) for t in (scan.source.lo, scan.source.hi))
        n = names[0]
        return [{n: v} for v in range(int(lo), int(hi) + 1)]
    arr = env[scan.source.name]
    if len(names) == 2:
        k, v = names
        return [{k: key, v: val} for key, val in arr.items()]
    return [dict(zip(names, (*key, val))) for key, val in arr.items()]


def _join(rows: list, st: Join, env: dict) -> list:
    """Hash join on the key pairs; an empty key is the cross product."""
    okeys = [py_term(o, env) for o, _ in st.keys]
    nkeys = [py_term(n, env) for _, n in st.keys]
    fs = [py_term(c, env) for c in st.conds]
    index: dict = {}
    for r in _scan(st.scan, env):
        index.setdefault(tuple(f(r) for f in nkeys), []).append(r)
    out = []
    for r in rows:
        for m in index.get(tuple(f(r) for f in okeys), ()):
            rm = {**r, **m}
            if all(f(rm) for f in fs):
                out.append(rm)
    return out


def _group_by(rows: list, st: GroupBy, env: dict) -> list:
    kfs = [py_term(k, env) for k in st.keys]
    plans = [(s, BIN[a.monoid], _IDENT[a.monoid], py_term(a.expr, env))
             for s, a in st.aggs]
    groups: dict = {}
    for r in rows:
        k = tuple(f(r) for f in kfs)
        acc = groups.get(k)
        if acc is None:
            acc = [ident for (_, _, ident, _) in plans]
            groups[k] = acc
        for j, (_, op, _, f) in enumerate(plans):
            acc[j] = op(acc[j], f(r))
    out = []
    for k, acc in groups.items():
        r = dict(zip(st.names, k))
        for j, (s, _, _, _) in enumerate(plans):
            r[s] = acc[j]
        out.append(r)
    return out


def _total_agg(rows: list, st: TotalAgg, env: dict) -> list:
    accs = {s: _IDENT[a.monoid] for s, a in st.aggs}
    plans = [(s, BIN[a.monoid], py_term(a.expr, env)) for s, a in st.aggs]
    for r in rows:
        for s, op, f in plans:
            accs[s] = op(accs[s], f(r))
    return [accs]


def _lookup(arr: dict, key: tuple, default):
    return arr.get(key[0] if len(key) == 1 else key, default)


def _step(rows: list, st, env: dict) -> list:
    if isinstance(st, Join):
        return _join(rows, st, env)
    if isinstance(st, Filter):
        f = py_term(st.expr, env)
        return [r for r in rows if f(r)]
    if isinstance(st, Let):
        f = py_term(st.expr, env)
        for r in rows:
            bind(r, st.names, f(r))
        return rows
    if isinstance(st, GroupBy):
        return _group_by(rows, st, env)
    if isinstance(st, TotalAgg):
        return _total_agg(rows, st, env)
    if isinstance(st, Lookup):
        arr = env[st.array]
        kfs = [py_term(k, env) for k in st.keys]
        for r in rows:
            r[st.var] = _lookup(arr, tuple(f(r) for f in kfs), st.default)
        return rows
    raise SeqError(f"unknown plan step {st!r}")


def _eval(term, env: dict):
    """``(rows, head)`` of a bag term: its bag is the head over each
    row. A term without generators is the one row of its prefix, or no
    row when a prefix condition is false."""
    if not isinstance(term, Comp):
        return [{}], term
    plan = lower(term)
    row = run_prefix(plan.prefix, env, _lookup)
    if row is None:
        return [], plan.head
    if plan.source is None:
        return [row], plan.head
    rows = _scan(plan.source, env)
    for st in plan.steps:
        rows = _step(rows, st, env)
    return rows, plan.head


def _bag_to_dict(term, env, ndims: int):
    if isinstance(term, Merge):
        old = env[term.old.name]
        new = _bag_to_dict(term.new, env, ndims)
        if not new:  # V ⊲ ∅ = V
            return old
        merged = dict(old)
        merged.update(new)
        return merged
    if isinstance(term, StateRef):
        return env[term.name]
    rows, head = _eval(term, env)
    fs = [py_term(x, env) for x in head.items]
    if ndims == 1:
        return {fs[0](r): fs[1](r) for r in rows}
    return {tuple(f(r) for f in fs[:-1]): fs[-1](r) for r in rows}


def run_code_seq(code, env: dict, types: dict) -> dict:
    """Execute target code over dict arrays / Python scalars."""
    for st in code:
        if isinstance(st, TInit):
            env[st.name] = {}
        elif isinstance(st, TAssign):
            t = types.get(st.name)
            if isinstance(t, A.TArray):
                env[st.name] = _bag_to_dict(st.term, env, t.ndims)
            else:
                rows, head = _eval(st.term, env)
                if rows:
                    env[st.name] = py_term(head, env)(rows[0])
        elif isinstance(st, TWhile):
            while True:
                rows, head = _eval(st.cond, env)
                if not rows or not py_term(head, env)(rows[0]):
                    break
                run_code_seq(st.body, env, types)
        else:
            raise SeqError(f"unknown target statement {st!r}")
    return env


def run_program_seq(compiled, env: dict) -> dict:
    """Sequential-bulk execution of a compiled program (Table 2 'seq')."""
    e = {k: (dict(v) if isinstance(v, dict) else v) for k, v in env.items()}
    return run_code_seq(compiled.code, e, compiled.types)
