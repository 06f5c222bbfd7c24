"""Optimizer: range elimination (Sec. 3.6), Rules 16/17 (Sec. 4),
tuple-monoid expansion, key self-join and fresh-target elimination."""
import pytest

from repro.core.comprehension import (
    Agg,
    BinOp,
    Call,
    Comp,
    Cond,
    Const,
    Generator,
    GroupByQ,
    InRange,
    Merge,
    OuterLookup,
    PTuple,
    PVar,
    RangeT,
    StateRef,
    TupleT,
    Var,
)
from repro.core.normalize import normalize_code
from repro.core.optimize import _eliminate_self_joins, _statements, optimize_code
from repro.core.parser import parse
from repro.core.pipeline import compile_program
from repro.core.translate import TAssign, TWhile, translate_program
from repro.programs.suite import BY_NAME, build_envs


def compile_to(src):
    code, types = translate_program(parse(src))
    return optimize_code(normalize_code(code)), types


def _comp(term):
    return term.new if isinstance(term, Merge) else term


def _range_gens(comp):
    return [
        q for q in comp.quals
        if isinstance(q, Generator) and isinstance(q.source, RangeT)
    ]


def _has_inrange(comp):
    def walk(t):
        if isinstance(t, InRange):
            return True
        if isinstance(t, BinOp):
            return walk(t.left) or walk(t.right)
        return False

    return any(isinstance(q, Cond) and walk(q.expr) for q in comp.quals) or any(
        isinstance(q, Cond) and isinstance(q.expr, InRange) for q in comp.quals
    )


def test_range_eliminated_for_copy_loop():
    # for i = 1,10 do V[i] := W[i]  ⇒  traversal of W with inRange
    code, _ = compile_to("for i = 1, 10 do V[i] := W[i];")
    comp = _comp(code[0].term)
    assert not _range_gens(comp)
    assert _has_inrange(comp)


def test_range_kept_for_initialization():
    # for i = 1,10 do V[i] := 0 has no array to traverse
    code, _ = compile_to("for i = 1, 10 do V[i] := 0;")
    comp = _comp(code[0].term)
    assert len(_range_gens(comp)) == 1


def test_affine_inverse_plus():
    # V[i] := W[i + 1]: the inverse i = I - 1 is applied
    code, _ = compile_to("for i = 0, 8 do V[i] := W[i + 1];")
    comp = _comp(code[0].term)
    assert not _range_gens(comp)
    assert _has_inrange(comp)


def test_affine_inverse_minus():
    code, _ = compile_to("for i = 1, 9 do V[i] := W[i - 1];")
    comp = _comp(code[0].term)
    assert not _range_gens(comp)


def test_matmul_all_ranges_eliminated():
    src = """
    for i = 0, 9 do
      for j = 0, 9 do
        for k = 0, 9 do
          R[i, j] += M[i, k] * N[k, j];
    """
    code, _ = compile_to(src)
    comp = _comp(code[0].term)
    assert not _range_gens(comp)
    # one equality condition left: the join M.k = N.k
    eqs = [
        q for q in comp.quals
        if isinstance(q, Cond) and isinstance(q.expr, BinOp) and q.expr.op == "=="
    ]
    assert len(eqs) == 1


def test_rule16_scalar_increment_drops_groupby():
    code, _ = compile_to("var s: double = 0.0; for v in V do s += v;")
    comp = code[1].term
    assert not any(isinstance(q, GroupByQ) for q in comp.quals)
    # the total aggregation remains in the head
    assert isinstance(comp.head, BinOp) and isinstance(comp.head.right, Agg)


def test_rule16_pure_scalar_increment():
    # k += 1 with no generators reduces to a closed form
    code, _ = compile_to("var k: long = 0; k += 1;")
    comp = code[1].term
    assert not comp.quals


def test_rule17_unique_key_drops_groupby():
    # V[i] += W[i]: group-by key is W's index — unique
    code, _ = compile_to("for i = 1, 10 do V[i] += W[i];")
    comp = _comp(code[0].term)
    assert not any(isinstance(q, GroupByQ) for q in comp.quals)

    # and the aggregation is gone too (groups are singletons)
    def has_agg(t):
        if isinstance(t, Agg):
            return True
        if isinstance(t, BinOp):
            return has_agg(t.left) or has_agg(t.right)
        if isinstance(t, TupleT):
            return any(has_agg(x) for x in t.items)
        return False

    assert not has_agg(comp.head)


def test_rule17_not_applied_on_join():
    # R[i,j] += M[i,k]*N[k,j] joins two arrays; key is not provably
    # unique, the group-by must stay
    src = """
    for i = 0, 9 do
      for j = 0, 9 do
        for k = 0, 9 do
          R[i, j] += M[i, k] * N[k, j];
    """
    code, _ = compile_to(src)
    comp = _comp(code[0].term)
    assert any(isinstance(q, GroupByQ) for q in comp.quals)


def test_group_by_with_indirect_key_stays():
    code, _ = compile_to("for i = 0, 9 do C[K[i]] += V[i];")
    comp = _comp(code[0].term)
    assert any(isinstance(q, GroupByQ) for q in comp.quals)


def test_tuple_monoid_expanded():
    code, _ = compile_to("for i = 0, 9 do A[K[i]] += (V[i], 1);")
    comp = _comp(code[0].term)
    val = comp.head.items[-1]
    assert isinstance(val, TupleT) and len(val.items) == 2
    # each component is coalesce(w._i, 0) + ⊕/e_i
    first = val.items[0]
    assert isinstance(first, BinOp) and isinstance(first.left, Call)
    assert first.left.fn == "coalesce"
    # the lookup default switched to NULL
    lookups = [q for q in comp.quals if isinstance(q, OuterLookup)]
    assert lookups[0].default == Const(None)


def test_argmin_not_expanded():
    code, _ = compile_to("for i = 0, 9 do c[i] argmin= (i, V[i]);")
    comp = _comp(code[0].term)
    val = comp.head.items[-1]
    assert isinstance(val, BinOp) and val.op == "argmin"


def _assigns(name):
    """Every ``TAssign`` of a suite program, loop bodies included."""
    prog = BY_NAME[name]
    _, _, types = build_envs(prog, "tiny")
    code = compile_program(prog.source, types).code
    return [st for st in _statements(code) if isinstance(st, TAssign)]


def _assign(name, array):
    return next(st for st in _assigns(name) if st.name == array)


def _gens_over(comp, array):
    return [
        q for q in comp.quals
        if isinstance(q, Generator) and q.source == StateRef(array)
    ]


def test_kmeans_self_joins_eliminated():
    assert len(_gens_over(_comp(_assign("KMeans", "avg").term), "P")) == 1
    assert len(_gens_over(_comp(_assign("KMeans", "C").term), "avg")) == 1


@pytest.mark.parametrize(
    "name,array",
    [("Word Count", "C"), ("Group-By", "C"), ("Matrix Addition", "R"),
     ("KMeans", "closest")],
)
def test_fresh_target_has_no_merge_or_lookup(name, array):
    term = _assign(name, array).term
    assert isinstance(term, Comp)
    assert not any(isinstance(q, OuterLookup) for q in term.quals)


def test_pagerank_loop_assignments_keep_merge():
    # P is assigned before the loop, so it is not fresh inside it
    ps = [st for st in _assigns("PageRank") if st.name == "P"]
    assert len(ps) == 3 and not isinstance(ps[0].term, Merge)
    assert all(isinstance(st.term, Merge) for st in ps[1:])


def test_array_declared_before_loop_not_fresh_inside():
    code, _ = compile_to(
        "var R: vector[double] = vector(); var k: long = 0;"
        "while (k < 2) { k += 1; for i = 0, 2 do R[i] += V[i]; };"
    )
    loop = next(st for st in code if isinstance(st, TWhile))
    r = next(st for st in loop.body if st.name == "R")
    assert isinstance(r.term, Merge)
    assert any(isinstance(q, OuterLookup) for q in r.term.new.quals)


def test_identity_folded_from_fresh_increments():
    # d ⊕ e → e: the scalar 0, argmin's None and the tuple-expanded
    # coalesce(NULL._i, 0) of the dropped lookups all fold away
    code, _ = compile_to(
        "var A: vector[(double, long)] = vector();"
        "var B: vector[double] = vector();"
        "var C: vector[(long, double)] = vector();"
        "for i = 0, 9 do { A[K[i]] += (V[i], 1); B[K[i]] += V[i];"
        " C[K[i]] argmin= (i, V[i]); };"
    )
    a, b, c = (st.term for st in code if isinstance(st, TAssign))
    assert all(isinstance(x, Agg) for x in a.head.items[-1].items)
    assert isinstance(b.head.items[-1], Agg)
    assert isinstance(c.head.items[-1], Agg)


def test_partial_key_self_join_kept():
    code, _ = compile_to(
        "for i = 0, 9 do for j = 0, 9 do for k = 0, 9 do"
        " R[i, k] += M[i, j] * M[i, k];"
    )
    assert len(_gens_over(_comp(code[0].term), "M")) == 2


def test_join_of_different_arrays_kept():
    code, _ = compile_to("for i = 0, 9 do V[i] := A[i] * B[i];")
    comp = _comp(code[0].term)
    assert len(_gens_over(comp, "A")) == len(_gens_over(comp, "B")) == 1


def test_self_join_after_group_by_kept():
    # after the group-by, v is a bag of values, not the row's value
    comp = Comp(
        TupleT((Var("i"), Var("u"))),
        (
            Generator(PTuple((PVar("i"), PVar("v"))), StateRef("A")),
            GroupByQ(PVar("i"), Var("i")),
            Generator(PTuple((PVar("j"), PVar("u"))), StateRef("A")),
            Cond(BinOp("==", Var("j"), Var("i"))),
        ),
    )
    assert _eliminate_self_joins(comp) == comp


def test_full_key_self_join_substitutes_value():
    comp = Comp(
        TupleT((Var("i"), BinOp("*", Var("v"), Var("u")))),
        (
            Generator(PTuple((PVar("i"), PVar("v"))), StateRef("A")),
            Generator(PTuple((PVar("j"), PVar("u"))), StateRef("A")),
            Cond(BinOp("==", Var("j"), Var("i"))),
        ),
    )
    assert _eliminate_self_joins(comp) == Comp(
        TupleT((Var("i"), BinOp("*", Var("v"), Var("v")))),
        (Generator(PTuple((PVar("i"), PVar("v"))), StateRef("A")),),
    )
