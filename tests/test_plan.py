"""Comprehension planner: ``plan.lower`` on the IR, and the driver
prefix run without an executor."""
from repro.core.comprehension import (
    Agg,
    BinOp,
    Comp,
    Cond,
    Const,
    Generator,
    GroupByQ,
    InRange,
    OuterLookup,
    PTuple,
    PVar,
    StateRef,
    TupleT,
    Var,
)
from repro.core.plan import (
    Filter,
    GroupBy,
    Join,
    Let,
    Lookup,
    Scan,
    TotalAgg,
    lower,
    run_prefix,
)


def _gen(array, *names):
    return Generator(PTuple(tuple(PVar(n) for n in names)), StateRef(array))


def _eq(a, b):
    return Cond(BinOp("==", Var(a), Var(b)))


def test_matrix_multiplication():
    # { (p, q, +/(a * b)) | (i, k, a) <- M, (kk, j, b) <- N, k == kk,
    #   group by (p, q) : (i, j) }
    ab = Agg("+", BinOp("*", Var("a"), Var("b")))
    plan = lower(Comp(TupleT((Var("p"), Var("q"), ab)), (
        _gen("M", "i", "k", "a"),
        _gen("N", "kk", "j", "b"),
        _eq("k", "kk"),
        GroupByQ(PTuple((PVar("p"), PVar("q"))), TupleT((Var("i"), Var("j")))),
    )))
    assert plan.prefix == ()
    assert plan.source == Scan(("i", "k", "a"), StateRef("M"))
    assert plan.steps == (
        Join(Scan(("kk", "j", "b"), StateRef("N")), ((Var("k"), Var("kk")),), ()),
        GroupBy(("p", "q"), (Var("i"), Var("j")), (("_agg0", ab),)),
    )
    assert plan.head == TupleT((Var("p"), Var("q"), Var("_agg0")))


def test_hoisted_in_range_filters_the_first_scan():
    # the inRange on V's index comes last but applies before the join;
    # the key pair is (old side, new side) whichever way it is written
    in_range = InRange(Var("i"), Const(0), Const(4))
    plan = lower(Comp(TupleT((Var("i"), Var("w"))), (
        _gen("V", "i", "v"), _gen("W", "j", "w"), _eq("j", "i"), Cond(in_range),
    )))
    assert plan.source == Scan(("i", "v"), StateRef("V"))
    assert plan.steps == (
        Filter(in_range),
        Join(Scan(("j", "w"), StateRef("W")), ((Var("i"), Var("j")),), ()),
    )


def test_non_equality_join_predicate_is_residual():
    less = BinOp("<", Var("v"), Var("w"))
    plan = lower(Comp(TupleT((Var("i"), Var("v"))), (
        _gen("V", "i", "v"), _gen("W", "j", "w"), _eq("i", "j"), Cond(less),
    )))
    (join,) = plan.steps
    assert join.keys == ((Var("i"), Var("j")),)
    assert join.conds == (less,)


def test_equal_reductions_share_one_slot():
    # two equal, distinct Agg objects: slots are keyed by value
    head = BinOp("/", Agg("+", Var("v")), Agg("+", Var("v")))
    plan = lower(Comp(head, (_gen("V", "i", "v"),)))
    assert plan.steps == (TotalAgg((("_agg0", Agg("+", Var("v"))),)),)
    assert plan.head == BinOp("/", Var("_agg0"), Var("_agg0"))


def test_generator_free_comprehension_is_only_prefix():
    guard = BinOp(">", StateRef("x"), Const(5))
    plan = lower(Comp(Const(0), (Cond(guard),)))
    assert plan.prefix == (Filter(guard),)
    assert plan.source is None and plan.steps == ()
    assert run_prefix(plan.prefix, {"x": 3}, None) is None
    assert run_prefix(plan.prefix, {"x": 7}, None) == {}


def test_constant_key_group_by_before_generators():
    # M[1, 2] += 1.0: the group-by binds its key, and +/1.0 over the
    # singleton bag is 1.0
    key = TupleT((Const(1), Const(2)))
    plan = lower(Comp(
        TupleT((Var("k1"), Var("k2"), BinOp("+", Var("w"), Agg("+", Const(1.0))))),
        (GroupByQ(PTuple((PVar("k1"), PVar("k2"))), key),
         OuterLookup("w", "M", TupleT((Var("k1"), Var("k2"))), Const(0))),
    ))
    assert plan.prefix == (
        Let(("k1", "k2"), key),
        Lookup("w", "M", (Var("k1"), Var("k2")), 0),
    )
    assert plan.source is None and plan.steps == ()
    assert plan.head == TupleT(
        (Var("k1"), Var("k2"), BinOp("+", Var("w"), Const(1.0)))
    )
    lookup = lambda arr, k, default: arr.get(k, default)  # noqa: E731
    assert run_prefix(plan.prefix, {"M": {(1, 2): 5.0}}, lookup) == {
        "k1": 1, "k2": 2, "w": 5.0
    }
    assert run_prefix(plan.prefix, {"M": {}}, lookup)["w"] == 0
