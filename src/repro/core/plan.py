"""One comprehension planner for both executors.

``lower(comp)`` walks a normalized comprehension's qualifiers once and
returns a :class:`Plan`. The Spark backend (``backend.py``) and the
sequential backend (``seq_backend.py``) only interpret it. A plan has
three parts:

* the driver **prefix**: the qualifiers before the first generator, as
  ``Filter``, ``Let`` and ``Lookup`` steps over one row of driver-side
  bindings, run by :func:`run_prefix`;
* the **source**: the first generator, a ``Scan`` of an array or of a
  ``range`` (``None`` for a generator-free comprehension);
* the **steps** after it: ``Join``, ``Filter``, ``Let``, ``GroupBy``,
  ``TotalAgg`` and ``Lookup``.

The planner makes these decisions, once for both executors:

* a condition that has variables and no reduction is hoisted ahead of
  the generators it constrains, so that a join sees its index
  equalities (rule 11c emits them after the array scan; without
  hoisting, a two-array access would be a cross product plus a filter).
  Pure predicates commute with generators, so hoisting keeps meaning;
* each condition is applied as soon as all its variables are bound, so
  the Section 3.6 ``inRange`` predicates land on the array scans;
* the pending conditions that a generator's variables complete form its
  join. Each ``a == b`` with one side over the variables bound so far
  and the other over the new ones is a key pair ``(old side, new
  side)``; the rest are residual predicates;
* each reduction ``⊕/e`` after a group-by, or over all rows (the total
  aggregation left by rule 16), gets a column slot ``_aggN``, numbered
  in order of first appearance in the head and then in the later
  qualifiers. Equal reductions share a slot. The head and the later
  qualifiers read the slot. A group-by before any generator groups a
  singleton bag: it binds its key, and each ``⊕/e`` over it is ``e``.

The module also holds the Python term evaluator and the operator and
call tables that the sequential backend, the Spark driver side and
constant folding share. ``interp.py`` keeps its own on purpose: it is
the independent oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .comprehension import (
    Agg,
    BinOp,
    Call,
    Comp,
    Cond,
    Const,
    Generator,
    GroupByQ,
    InRange,
    LetQ,
    OuterLookup,
    Proj,
    RangeT,
    StateRef,
    TupleT,
    UnOp,
    Var,
    free_vars,
    pat_vars,
    show,
)


class PlanError(Exception):
    pass


# ------------------------------------------------- operators and calls
def _argmin(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if a[1] <= b[1] else b


BIN = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "&&": lambda a, b: a and b,
    "||": lambda a, b: a or b,
    "min": min,
    "max": max,
    "argmin": _argmin,
}

CALLS = {
    "sqrt": math.sqrt,
    "abs": abs,
    "exp": math.exp,
    "log": math.log,
    "floor": math.floor,
    "ceil": math.ceil,
    "dist2": lambda p, c: (p[0] - c[0]) ** 2 + (p[1] - c[1]) ** 2,
    "coalesce": lambda a, b: b if a is None else a,
}


def py_term(t, env: dict):
    """Compile a term to ``fn(row) -> value``: a ``Var`` reads the row
    dict, a ``StateRef`` the program state ``env``. Reductions must have
    been replaced (``replace_aggs``) first."""
    if isinstance(t, Const):
        v = t.value
        return lambda r: v
    if isinstance(t, Var):
        n = t.name
        return lambda r: r[n]
    if isinstance(t, StateRef):
        n = t.name
        return lambda r: env[n]
    if isinstance(t, BinOp):
        f, g, op = py_term(t.left, env), py_term(t.right, env), BIN[t.op]
        return lambda r: op(f(r), g(r))
    if isinstance(t, UnOp):
        f = py_term(t.expr, env)
        return (lambda r: -f(r)) if t.op == "-" else (lambda r: not f(r))
    if isinstance(t, TupleT):
        fs = [py_term(x, env) for x in t.items]
        return lambda r: tuple(f(r) for f in fs)
    if isinstance(t, Proj):
        f = py_term(t.expr, env)
        fld = t.field
        if fld.lstrip("_").isdigit():
            i = int(fld.lstrip("_")) - 1
            return lambda r: (v[i] if (v := f(r)) is not None else None)
        return lambda r: (v[fld] if (v := f(r)) is not None else None)
    if isinstance(t, Call):
        fs = [py_term(x, env) for x in t.args]
        fn = CALLS[t.fn]
        return lambda r: fn(*[f(r) for f in fs])
    if isinstance(t, InRange):
        f = py_term(t.expr, env)
        lo = py_term(t.lo, env)
        hi = py_term(t.hi, env)
        return lambda r: lo(r) <= f(r) <= hi(r)
    raise PlanError(f"cannot evaluate term {show(t)}")


def replace_aggs(t, slots: Optional[dict]):
    """Replace each reduction ``⊕/e`` in a term, or in a condition, let
    or outer-lookup qualifier. With ``slots=None`` it becomes ``e``
    (every group is a singleton). Otherwise it becomes the variable
    ``slots[⊕/e]``, and a reduction not in ``slots`` yet is given the
    next slot ``_aggN``. Nested comprehensions are left alone."""
    def rep(x):
        return replace_aggs(x, slots)

    if isinstance(t, Agg):
        if slots is None:
            return rep(t.expr)
        if t not in slots:
            slots[t] = f"_agg{len(slots)}"
        return Var(slots[t])
    if isinstance(t, BinOp):
        return BinOp(t.op, rep(t.left), rep(t.right))
    if isinstance(t, UnOp):
        return UnOp(t.op, rep(t.expr))
    if isinstance(t, TupleT):
        return TupleT(tuple(rep(x) for x in t.items))
    if isinstance(t, Call):
        return Call(t.fn, tuple(rep(x) for x in t.args))
    if isinstance(t, Proj):
        return Proj(rep(t.expr), t.field)
    if isinstance(t, InRange):
        return InRange(rep(t.expr), rep(t.lo), rep(t.hi))
    if isinstance(t, Cond):
        return Cond(rep(t.expr))
    if isinstance(t, LetQ):
        return LetQ(t.pat, rep(t.expr))
    if isinstance(t, OuterLookup):
        return OuterLookup(t.var, t.array, rep(t.key), rep(t.default))
    return t


def _has_agg(t) -> bool:
    slots: dict = {}
    replace_aggs(t, slots)
    return bool(slots)


# ---------------------------------------------------------------- steps
@dataclass(frozen=True)
class Scan:
    """Bind ``names`` to the rows of a state array (its key columns,
    then its value) or to the integers of a ``range``."""

    names: tuple
    source: object  # StateRef or RangeT


@dataclass(frozen=True)
class Join:
    """Inner join of the rows so far with ``scan``: the ``(old side,
    new side)`` term pairs of ``keys`` must be equal and the residual
    predicates ``conds`` true. With neither, the cross product."""

    scan: Scan
    keys: tuple
    conds: tuple


@dataclass(frozen=True)
class Filter:
    expr: object


@dataclass(frozen=True)
class Let:
    """Bind ``names`` to a term's value; several names take the
    components of a tuple value."""

    names: tuple
    expr: object


@dataclass(frozen=True)
class GroupBy:
    """Group the rows by the ``keys`` terms, bound to ``names``; each
    ``(slot, ⊕/e)`` of ``aggs`` reduces a group's ``e`` into ``slot``."""

    names: tuple
    keys: tuple
    aggs: tuple


@dataclass(frozen=True)
class TotalAgg:
    """Reduce all rows to one row of ``(slot, ⊕/e)`` reductions; an
    empty input gives the monoid identities."""

    aggs: tuple


@dataclass(frozen=True)
class Lookup:
    """Bind ``var`` to ``array[keys]``, or to ``default`` where the key
    is missing (the outer lookup of rule 15a)."""

    var: str
    array: str
    keys: tuple
    default: object


@dataclass(frozen=True)
class Plan:
    """A lowered comprehension: its bag is ``head`` over each row that
    ``prefix``, then ``source`` and ``steps``, produce."""

    prefix: tuple
    source: Optional[Scan]
    steps: tuple
    head: object


# ------------------------------------------------------------- lowering
def _items(t) -> tuple:
    return t.items if isinstance(t, TupleT) else (t,)


def _hoisted(q) -> bool:
    return isinstance(q, Cond) and bool(free_vars(q.expr)) and not _has_agg(q.expr)


def _key_pair(e, old: set, new: set):
    """``(old side, new side)`` of a join equality ``a == b``, or None."""
    if not (isinstance(e, BinOp) and e.op == "=="):
        return None
    fa, fb = free_vars(e.left), free_vars(e.right)
    if fa <= old and fb <= new:
        return e.left, e.right
    if fb <= old and fa <= new:
        return e.right, e.left
    return None


def _scan(q: Generator) -> Scan:
    if not isinstance(q.source, (StateRef, RangeT)):
        raise PlanError(f"unnormalized generator source {show(q.source)}")
    return Scan(tuple(pat_vars(q.pat)), q.source)


def lower(comp: Comp) -> Plan:
    """Plan a normalized comprehension (see the module docstring)."""
    quals, head = list(comp.quals), comp.head
    pending = [q.expr for q in quals if _hoisted(q)]
    prefix: list = []
    steps: list = []
    source: Optional[Scan] = None
    bound: set = set()
    slots: dict = {}
    grouped = False

    for i, q in enumerate(quals):
        out = prefix if source is None else steps
        if isinstance(q, Cond):
            if not _hoisted(q):
                pending.append(q.expr)
        elif isinstance(q, LetQ):
            names = tuple(pat_vars(q.pat))
            out.append(Let(names, q.expr))
            bound |= set(names)
        elif isinstance(q, OuterLookup):
            default = q.default.value if isinstance(q.default, Const) else None
            out.append(Lookup(q.var, q.array, _items(q.key), default))
            bound.add(q.var)
        elif isinstance(q, Generator):
            scan = _scan(q)
            new = set(scan.names)
            if source is None:
                source = scan
            else:
                keys, conds = [], []
                for c in list(pending):
                    fv = free_vars(c)
                    if fv <= bound | new and fv & new:
                        pending.remove(c)
                        pair = _key_pair(c, bound, new)
                        if pair is None:
                            conds.append(c)
                        else:
                            keys.append(pair)
                steps.append(Join(scan, tuple(keys), tuple(conds)))
            bound |= new
        elif isinstance(q, GroupByQ):
            names = tuple(pat_vars(q.pat))
            if source is None:
                prefix.append(Let(names, q.key))
                bound |= set(names)
                head = replace_aggs(head, None)
                quals[i + 1:] = [replace_aggs(r, None) for r in quals[i + 1:]]
            else:
                keys = _items(q.key)
                if len(keys) != len(names):
                    raise PlanError("group-by pattern/key arity mismatch")
                start = len(slots)
                head = replace_aggs(head, slots)
                quals[i + 1:] = [replace_aggs(r, slots) for r in quals[i + 1:]]
                aggs = tuple((s, a) for a, s in slots.items())[start:]
                steps.append(GroupBy(names, keys, aggs))
                bound = set(names) | {s for s, _ in aggs}
                grouped = True
        else:
            raise PlanError(f"unknown qualifier {q!r}")
        out = prefix if source is None else steps
        for c in list(pending):
            if free_vars(c) <= bound:
                out.append(Filter(c))
                pending.remove(c)

    if pending:
        raise PlanError(
            "conditions with unbound variables: "
            + "; ".join(show(c) for c in pending)
        )
    if source is None:
        head = replace_aggs(head, None)
    elif not grouped:
        head = replace_aggs(head, slots)
        if slots:
            steps.append(TotalAgg(tuple((s, a) for a, s in slots.items())))
    return Plan(tuple(prefix), source, tuple(steps), head)


def bind(row: dict, names: tuple, value) -> None:
    """Bind ``names`` in ``row`` as a ``Let`` step does."""
    if len(names) == 1:
        row[names[0]] = value
    else:
        row.update(zip(names, value))


def run_prefix(prefix: tuple, env: dict, lookup) -> Optional[dict]:
    """Run a plan's driver prefix over one row of bindings. Returns the
    row, or None when a condition is false (the bag is empty).
    ``lookup(array, key, default)`` reads the element of the state array
    ``array`` at the key tuple ``key``."""
    row: dict = {}
    for st in prefix:
        if isinstance(st, Filter):
            if not py_term(st.expr, env)(row):
                return None
        elif isinstance(st, Let):
            bind(row, st.names, py_term(st.expr, env)(row))
        else:
            key = tuple(py_term(k, env)(row) for k in st.keys)
            row[st.var] = lookup(env[st.array], key, st.default)
    return row
