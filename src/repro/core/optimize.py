"""Comprehension optimizations (paper Section 4 and Section 3.6).

* **Range elimination** (Sec. 3.6): a generator ``i ← range(lo, hi)``
  joined by equality with an index variable ``I`` of an array traversal
  becomes a predicate ``inRange(F(I), lo, hi)`` where ``F`` is the
  right inverse of the (affine) index term: handled forms are ``I = i``,
  ``I = i + c``, ``I = i - c`` (and mirrored operand orders).
* **Rule 16**: a group-by whose key binds no generator variables (the
  unit key of scalar accumulations, or all-constant keys) is removed;
  the aggregation becomes a total aggregation over all rows.
* **Rule 17**: a group-by whose key is provably unique — the key
  variables are exactly the index variables of the single generator
  before the group-by — is removed and each ``⊕/e`` reduction is
  replaced by ``e`` itself (every group is a singleton).
* **Key self-join elimination**: a second generator over the same
  array, joined to an earlier one on its whole key before any
  group-by, reads the same row (array keys are unique); it is dropped
  and its variables are replaced by the earlier generator's.
* **Fresh-target elimination** (over whole target code): while an
  array is still empty from its ``TInit``, ``X := X ⊲ B`` becomes
  ``X := B`` and an outer lookup ``w <~ $X[k] ?? d`` becomes ``d``,
  which the monoid identity law ``d ⊕ e → e`` folds away. See
  ``eliminate_fresh_targets``.
* **Materialization marks** (last step, over whole target code): see
  ``mark_materialized``.
"""
from __future__ import annotations

import dataclasses
import itertools

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
    Merge,
    OuterLookup,
    Proj,
    PTuple,
    PVar,
    RangeT,
    StateRef,
    TupleT,
    UnOp,
    Var,
    free_vars,
    pat_vars,
    subst,
)
from .normalize import norm_term
from .plan import replace_aggs
from .translate import _IDENTITY, TAssign, TInit, TWhile


def _solve_for(var: str, eq: BinOp):
    """Given ``a == b`` involving range variable ``var`` on one side as
    an affine term, return (other_term_as_inverse, ) — the term that
    ``var`` equals, expressed without ``var`` — or None.

    Handled: var == t, t == var, t == var+c, t == var-c, var+c == t,
    var-c == t  (c a constant; t any term not containing var).
    """

    def inverse(affine, other):
        # affine is an expression in var; other is the opposite side
        if isinstance(affine, Var) and affine.name == var:
            return other
        if isinstance(affine, BinOp) and affine.op in ("+", "-"):
            a, b, op = affine.left, affine.right, affine.op
            if isinstance(a, Var) and a.name == var and var not in free_vars(b):
                # var + c = other  =>  var = other - c
                return BinOp("-" if op == "+" else "+", other, b)
            if op == "+" and isinstance(b, Var) and b.name == var and var not in free_vars(a):
                return BinOp("-", other, a)
        return None

    for affine, other in ((eq.left, eq.right), (eq.right, eq.left)):
        if var in free_vars(affine) and var not in free_vars(other):
            r = inverse(affine, other)
            if r is not None:
                return r
    return None


def _eliminate_ranges(c: Comp) -> Comp:
    quals, head = list(c.quals), c.head
    changed = True
    while changed:
        changed = False
        for gi, g in enumerate(quals):
            if not (isinstance(g, Generator) and isinstance(g.source, RangeT)
                    and isinstance(g.pat, PVar)):
                continue
            var = g.pat.name
            # find a pre-group-by equality condition that determines var
            # from other bound variables
            for q in quals:
                if isinstance(q, GroupByQ):
                    break
                if not (isinstance(q, Cond) and isinstance(q.expr, BinOp)
                        and q.expr.op == "=="):
                    continue
                sol = _solve_for(var, q.expr)
                if sol is None:
                    continue
                rest = quals[:gi] + quals[gi + 1:]
                rest[rest.index(q)] = Cond(
                    InRange(sol, g.source.lo, g.source.hi)
                )
                env = {var: sol}
                quals = [_subst_qual(r, env) for r in rest]
                # the range variable may appear directly in the head of
                # a group-by-free comprehension (e.g. rule 15b keys);
                # after a group-by the head only sees the rebound key
                # variables, so this substitution is a no-op there.
                head = subst(head, env)
                changed = True
                break
            if changed:
                break
    return Comp(head, tuple(quals))


def _subst_qual(q, env):
    if isinstance(q, Generator):
        return Generator(q.pat, subst(q.source, env))
    if isinstance(q, Cond):
        return Cond(subst(q.expr, env))
    if isinstance(q, LetQ):
        return LetQ(q.pat, subst(q.expr, env))
    if isinstance(q, GroupByQ):
        return GroupByQ(q.pat, subst(q.key, env))
    if isinstance(q, OuterLookup):
        return OuterLookup(q.var, q.array, subst(q.key, env), subst(q.default, env))
    raise TypeError(f"unknown qualifier {q!r}")


def _flat_array_gen(q):
    """``(key_vars, value_var)`` of a generator ``(i1, …, in, v) <- $A``
    whose pattern is flat, else None."""
    if not (isinstance(q, Generator) and isinstance(q.source, StateRef)
            and isinstance(q.pat, PTuple)
            and all(isinstance(p, PVar) for p in q.pat.items)):
        return None
    names = pat_vars(q.pat)
    return names[:-1], names[-1]


def _equates(q, a: str, b: str) -> bool:
    return (isinstance(q, Cond) and isinstance(q.expr, BinOp)
            and q.expr.op == "=="
            and {q.expr.left, q.expr.right} == {Var(a), Var(b)})


def _eliminate_self_joins(c: Comp) -> Comp:
    """Key self-join elimination: a generator ``(j1..jn, u) <- $A``
    whose whole key is equated (``jk == ik``, before any group-by) with
    an earlier generator ``(i1..in, v) <- $A`` reads the same row,
    because array keys are unique. Drop it and its key conditions and
    substitute ``jk := ik``, ``u := v``."""
    quals, head = list(c.quals), c.head
    changed = True
    while changed:
        changed = False
        end = next((i for i, q in enumerate(quals) if isinstance(q, GroupByQ)),
                   len(quals))
        for gi, hi in itertools.combinations(range(end), 2):
            g, h = _flat_array_gen(quals[gi]), _flat_array_gen(quals[hi])
            if (g is None or h is None or quals[gi].source != quals[hi].source
                    or len(g[0]) != len(h[0])):
                continue
            conds = [
                next((ci for ci in range(end) if _equates(quals[ci], i, j)), None)
                for i, j in zip(g[0], h[0])
            ]
            if None in conds:
                continue
            env = {j: Var(i) for i, j in zip(g[0], h[0])}
            env[h[1]] = Var(g[1])
            drop = {hi, *conds}
            quals = [_subst_qual(q, env) for k, q in enumerate(quals)
                     if k not in drop]
            head = subst(head, env)
            changed = True
            break
    return Comp(head, tuple(quals))


def _groupby_rules(c: Comp) -> Comp:
    quals = list(c.quals)
    for qi, q in enumerate(quals):
        if not isinstance(q, GroupByQ):
            continue
        pre = quals[:qi]
        gen_vars = set()
        for p in pre:
            if isinstance(p, (Generator,)):
                gen_vars |= set(pat_vars(p.pat))

        key_free = free_vars(q.key)
        if not (key_free & gen_vars) and not any(
            isinstance(r, OuterLookup) for r in quals[qi + 1:]
        ):
            # Rule 16: constant key — total aggregation; bind the key
            # pattern with a let and drop the group-by. Array increments
            # (which carry an OuterLookup for the pre-update value) keep
            # the group-by: grouping by a constant column preserves the
            # no-op-on-empty-input semantics, which a total aggregation
            # (always one row) would not.
            new = pre + [LetQ(q.pat, q.key)] + quals[qi + 1:]
            return Comp(c.head, tuple(new))

        # Rule 17: unique key — exactly one generator before the
        # group-by, and the key variables are precisely its index set.
        gens = [p for p in pre if isinstance(p, Generator)]
        if len(gens) == 1:
            g = gens[0]
            if isinstance(g.source, RangeT) and isinstance(g.pat, PVar):
                idx = [g.pat.name]
            else:
                flat = _flat_array_gen(g)
                idx = flat[0] if flat else None
            key_vars = (
                [x.name for x in q.key.items if isinstance(x, Var)]
                if isinstance(q.key, TupleT)
                else ([q.key.name] if isinstance(q.key, Var) else None)
            )
            if (
                idx is not None
                and key_vars is not None
                and (not isinstance(q.key, TupleT)
                     or all(isinstance(x, Var) for x in q.key.items))
                and set(key_vars) == set(idx)
                and len(key_vars) == len(idx)
            ):
                new = pre + [LetQ(q.pat, q.key)] + [
                    replace_aggs(r, None) for r in quals[qi + 1:]
                ]
                return Comp(replace_aggs(c.head, None), tuple(new))
        break  # at most one group-by per comprehension in our pipeline
    return c


def _expand_tuple_monoids(c: Comp) -> Comp:
    """Rewrite tuple-valued reductions into per-component scalar ones.

    An incremental update with a tuple value (the paper's ``Avg``-style
    monoid, e.g. ``avg[k] += (x, y, 1)``) produces a head term
    ``w ⊕ (⊕/ (e1, …, en))``. Backends only aggregate scalars, so this
    becomes ``(w._1 ⊕ ⊕/e1, …, w._n ⊕ ⊕/en)`` with a null-safe
    ``coalesce(w._i, identity)`` for the pre-update value (the outer
    lookup's default switches to NULL). ``argmin`` is intrinsically
    tuple-typed and is left alone."""

    def rewrite(t, lookups):
        if isinstance(t, BinOp) and t.op in _IDENTITY and t.op != "argmin":
            rhs = t.right
            items = None
            if isinstance(rhs, Agg) and rhs.monoid == t.op and isinstance(rhs.expr, TupleT):
                items = [Agg(t.op, x) for x in rhs.expr.items]
            elif isinstance(rhs, TupleT):  # rule 17 already removed the Agg
                items = list(rhs.items)
            if items is not None:
                w = t.left
                ident = _IDENTITY[t.op]
                if isinstance(w, Var):
                    lookups.add(w.name)
                return TupleT(tuple(
                    BinOp(
                        t.op,
                        Call("coalesce", (Proj(w, f"_{i + 1}"), ident)),
                        x,
                    )
                    for i, x in enumerate(items)
                ))
            return BinOp(t.op, rewrite(t.left, lookups), rewrite(t.right, lookups))
        if isinstance(t, TupleT):
            return TupleT(tuple(rewrite(x, lookups) for x in t.items))
        return t

    lookups: set = set()
    head = rewrite(c.head, lookups)
    if head == c.head:
        return c
    quals = tuple(
        OuterLookup(q.var, q.array, q.key, Const(None))
        if isinstance(q, OuterLookup) and q.var in lookups
        else q
        for q in c.quals
    )
    return Comp(head, quals)


def optimize_term(t):
    """Apply all optimizations bottom-up, then re-normalize."""
    if isinstance(t, Comp):
        t = Comp(
            optimize_term(t.head),
            tuple(_opt_qual(q) for q in t.quals),
        )
        t = _eliminate_ranges(t)
        t = _eliminate_self_joins(t)
        t = _groupby_rules(t)
        t = _expand_tuple_monoids(t)
        return norm_term(t)
    if isinstance(t, Merge):
        return Merge(optimize_term(t.old), optimize_term(t.new))
    if isinstance(t, BinOp):
        return BinOp(t.op, optimize_term(t.left), optimize_term(t.right))
    if isinstance(t, UnOp):
        return UnOp(t.op, optimize_term(t.expr))
    if isinstance(t, TupleT):
        return TupleT(tuple(optimize_term(x) for x in t.items))
    if isinstance(t, Call):
        return Call(t.fn, tuple(optimize_term(x) for x in t.args))
    if isinstance(t, Agg):
        return Agg(t.monoid, optimize_term(t.expr))
    if isinstance(t, Proj):
        return Proj(optimize_term(t.expr), t.field)
    return t


def _opt_qual(q):
    if isinstance(q, Generator):
        return Generator(q.pat, optimize_term(q.source))
    if isinstance(q, Cond):
        return Cond(optimize_term(q.expr))
    if isinstance(q, LetQ):
        return LetQ(q.pat, optimize_term(q.expr))
    if isinstance(q, GroupByQ):
        return GroupByQ(q.pat, optimize_term(q.key))
    if isinstance(q, OuterLookup):
        return OuterLookup(q.var, q.array, optimize_term(q.key), optimize_term(q.default))
    raise TypeError(f"unknown qualifier {q!r}")


def optimize_code(code):
    """Optimize every term of target code, drop the merges into and
    lookups in arrays still empty from their ``TInit``, then mark the
    array assignments worth materializing."""
    return mark_materialized(eliminate_fresh_targets(_optimize_stmts(code)))


def _optimize_stmts(code):
    out = []
    for st in code:
        if isinstance(st, TAssign):
            out.append(TAssign(st.name, optimize_term(st.term)))
        elif isinstance(st, TWhile):
            out.append(TWhile(optimize_term(st.cond), _optimize_stmts(st.body)))
        elif isinstance(st, TInit):
            out.append(st)
        else:
            raise TypeError(f"unknown target statement {st!r}")
    return out


def _statements(code):
    """Every statement of ``code``, loop bodies included."""
    for st in code:
        yield st
        if isinstance(st, TWhile):
            yield from _statements(st.body)


# ------------------------------------------------ fresh-target elimination
def _is_identity(t, op: str) -> bool:
    """Is ``t`` the identity of ``op``? Also matches the tuple-expanded
    pre-update value ``coalesce(NULL._i, identity)`` of a dropped lookup."""
    if isinstance(t, Call) and t.fn == "coalesce" and len(t.args) == 2:
        null = t.args[0]
        while isinstance(null, Proj):
            null = null.expr
        return null == Const(None) and _is_identity(t.args[1], op)
    ident = _IDENTITY[op].value
    return (isinstance(t, Const) and type(t.value) is type(ident)
            and t.value == ident)


def _fold_identities(t):
    """The monoid identity law ``d ⊕ e → e``."""
    if isinstance(t, BinOp):
        left, right = _fold_identities(t.left), _fold_identities(t.right)
        if t.op in _IDENTITY and _is_identity(left, t.op):
            return right
        return BinOp(t.op, left, right)
    if isinstance(t, TupleT):
        return TupleT(tuple(_fold_identities(x) for x in t.items))
    return t


def _drop_fresh(term, fresh: set):
    """Rewrite one assigned term for the arrays in ``fresh``, which are
    empty: ``X ⊲ B → B``, and an outer lookup ``w <~ $X[k] ?? d`` binds
    ``w`` to ``d``, which the identity law then folds away."""
    if (isinstance(term, Merge) and isinstance(term.old, StateRef)
            and term.old.name in fresh):
        term = term.new
    if not isinstance(term, Comp):
        return term
    env = {q.var: q.default for q in term.quals
           if isinstance(q, OuterLookup) and q.array in fresh}
    if not env:
        return term
    quals = tuple(q for q in term.quals if not (
        isinstance(q, OuterLookup) and q.var in env))
    c = subst(Comp(term.head, quals), env)
    return norm_term(Comp(_fold_identities(c.head), c.quals))


def eliminate_fresh_targets(code):
    """Fresh-target elimination over target code. An array is fresh
    from its ``TInit`` up to its first assignment, which is rewritten by
    ``_drop_fresh``. A ``while`` body starts with no fresh array, since
    its later iterations see what the earlier ones assigned, and after
    the loop no array the body assigns is fresh."""
    fresh: set = set()
    out = []
    for st in code:
        if isinstance(st, TInit):
            fresh.add(st.name)
        elif isinstance(st, TAssign):
            st = TAssign(st.name, _drop_fresh(st.term, fresh))
            fresh.discard(st.name)
        elif isinstance(st, TWhile):
            st = TWhile(st.cond, eliminate_fresh_targets(st.body))
            fresh -= {s.name for s in _statements(st.body)
                      if isinstance(s, TAssign)}
        out.append(st)
    return out


# ------------------------------------------------------ materialization
def _nodes(x):
    """Every IR node reachable from ``x`` (terms, qualifiers, patterns)."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        yield x
        for f in dataclasses.fields(x):
            yield from _nodes(getattr(x, f.name))
    elif isinstance(x, tuple):
        for y in x:
            yield from _nodes(y)


def _reads(t, name: str) -> int:
    """Reads of state array ``name`` in a term: scans and outer lookups."""
    return sum(
        1
        for n in _nodes(t)
        if (isinstance(n, StateRef) and n.name == name)
        or (isinstance(n, OuterLookup) and n.array == name)
    )


def _scans_state(t) -> bool:
    """Does the term read program state in bulk (an array generator or
    an outer lookup)? A term over ``range`` generators only is cheaper
    to recompute than to materialize."""
    return any(
        (isinstance(n, Generator) and isinstance(n.source, StateRef))
        or isinstance(n, OuterLookup)
        for n in _nodes(t)
    )


def _later_reads(code, name: str):
    """Reads of the current value of ``name`` in ``code``, up to its
    redefinition. A read inside a ``while`` counts twice, unless the
    loop redefines ``name`` (then only its first iteration reads this
    value). Returns ``(reads, redefined)``."""
    n = 0
    for st in code:
        if isinstance(st, TWhile):
            body, redefined = _later_reads(st.body, name)
            n += (1 if redefined else 2) * (_reads(st.cond, name) + body)
            if redefined:
                return n, True
            continue
        if isinstance(st, TAssign):  # its term reads the old value
            n += _reads(st.term, name)
        if st.name == name:  # assigned or re-initialized
            return n, True
    return n, False


def mark_materialized(code):
    """Set ``materialize`` on the array assignments ``X := t`` whose
    value should be computed once, where it is assigned:

    1. the last assignment to ``X`` in a ``while`` body: its value is
       loop-carried, so materializing it truncates the lineage each
       iteration and later statements of the iteration read it for free;
    2. ``t`` reads state in bulk (``_scans_state``) and the code after
       it reads this value of ``X`` at least twice (``_later_reads``).

    Arrays are found by name: those with a ``TInit``, and the targets
    of merges ``X := X ⊲ …`` (rule 14c), since fresh-target
    elimination leaves a plain term in an array's first assignment.
    """
    arrays = {
        st.name for st in _statements(code)
        if isinstance(st, TInit)
        or (isinstance(st, TAssign) and isinstance(st.term, Merge))
    }
    return _mark(code, arrays, in_loop=False)


def _mark(code, arrays: set, in_loop: bool):
    last = {}
    if in_loop:
        for i, st in enumerate(code):
            if isinstance(st, TAssign):
                last[st.name] = i
    out = []
    for i, st in enumerate(code):
        if isinstance(st, TWhile):
            st = TWhile(st.cond, _mark(st.body, arrays, in_loop=True))
        elif isinstance(st, TAssign) and st.name in arrays:
            mark = last.get(st.name) == i or (
                _scans_state(st.term)
                and _later_reads(code[i + 1:], st.name)[0] >= 2
            )
            st = dataclasses.replace(st, materialize=mark)
        out.append(st)
    return out
