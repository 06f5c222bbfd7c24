"""The benchmark's three workloads and their seeded inputs.

Each input builder follows the matching ``bench`` builder of
``repro.programs.suite`` (same generators, same scalar parameters, same
array shapes) but takes its sizes from the workload and one seed per
array, derived from the run's ``--seed``. The suite's builders
hard-code their seeds, so the program only ever sees what is built here.

Sizes are a fraction of the suite's ``bench`` sizes so that one run,
including Spark start-up and the correctness check, takes about a
minute or less on a 4-core machine. ``bench`` size is noted per program.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro import synth_data as sd
from repro.programs.suite import BY_NAME, PROGRAMS


def array_seed(seed: int, program: str, array: str) -> int:
    """Seed of one input array, derived from the run seed."""
    h = hashlib.sha256(f"{seed}/{program}/{array}".encode()).digest()
    return int.from_bytes(h[:4], "little")


# ----------------------------------------------------- input builders
# Each takes (sizes, seed-of(array name)) and returns the program's
# input spec: name → ArrayData or scalar, as suite.make_inputs does.
def _cond_sum(z, s):  # bench: n=4_000_000
    return {"V": sd.doubles(z["n"], seed=s("V"))}


def _equal(z, s):  # bench: n=8_000_000 (all-equal data has no seed)
    return {"W": sd.equal_words(z["n"])}


def _words(z, s):  # bench: String Match 6_000_000, Word Count 8_000_000
    return {"W": sd.words(z["n"], seed=s("W"))}


def _histogram(z, s):  # bench: n=4_000_000
    return {"P": sd.pixels(z["n"], seed=s("P"))}


def _group_by(z, s):  # bench: n=2_000_000
    return {"V": sd.gb_pairs(z["n"], seed=s("V"))}


def _linreg(z, s):  # bench: n=5_000_000
    return {"P": sd.linreg_points(z["n"], seed=s("P")), "n": float(z["n"])}


def _square_pair(z, s):  # bench: MatAdd n=1000, MatMul n=150
    n = z["n"]
    return {
        "M": sd.dense_matrix(n, n, seed=s("M")),
        "N": sd.dense_matrix(n, n, seed=s("N")),
        "n": n,
    }


def _pagerank(z, s):  # bench: 150_000 vertices, 1_500_000 edges
    return {
        "E": sd.rmat_edges(z["nv"], z["ne"], seed=s("E")),
        "N": z["nv"],
        "b": 0.85,
        "num_steps": 1,
    }


def _kmeans(z, s):  # bench: n=40_000 points, the fixed 100 centroids
    return {
        "P": sd.kmeans_points(z["n"], seed=s("P")),
        "C": sd.kmeans_centroids(),
        "N": z["n"],
        "K": 100,
        "num_steps": 1,
    }


def _matfact(z, s):  # bench: n=1600, l=2
    n, l = z["n"], 2
    # P and Q start as copies of P' and Q', so they share their seeds
    return {
        "R": sd.ratings(n, n, seed=s("R")),
        "Pp": sd.factor_matrix(n, l, seed=s("P")),
        "Qp": sd.factor_matrix(l, n, seed=s("Q")),
        "P": sd.factor_matrix(n, l, seed=s("P")),
        "Q": sd.factor_matrix(l, n, seed=s("Q")),
        "n": n,
        "m": n,
        "l": l,
        "a": 0.002,
        "b": 0.02,
    }


BUILDERS = {
    "Conditional Sum": _cond_sum,
    "Equal": _equal,
    "String Match": _words,
    "Word Count": _words,
    "Histogram": _histogram,
    "Group-By": _group_by,
    "Linear Regression": _linreg,
    "Matrix Addition": _square_pair,
    "Matrix Multiplication": _square_pair,
    "PageRank": _pagerank,
    "KMeans": _kmeans,
    "Matrix Factorization": _matfact,
}


@dataclass(frozen=True)
class Workload:
    name: str
    executor: str  # "par": run_program on Spark; "seq": run_program_seq
    sizes: dict  # program name → builder sizes; the timed programs
    compiled: tuple  # programs whose compile time is measured


WORKLOADS = {
    # while loops, arrays read several times, generated self-joins and
    # merges: where the Figure-3 gap is largest
    "iterative": Workload(
        "iterative",
        "par",
        {
            "KMeans": {"n": 4_000},
            "PageRank": {"nv": 2_000, "ne": 20_000},
            "Matrix Factorization": {"n": 100},
        },
        ("KMeans", "PageRank", "Matrix Factorization"),
    ),
    # no loop, every array used once: scalar folds, group-bys into
    # fresh maps, 2-D joins
    "single_pass": Workload(
        "single_pass",
        "par",
        {
            "String Match": {"n": 75_000},
            "Word Count": {"n": 100_000},
            "Group-By": {"n": 25_000},
            "Linear Regression": {"n": 60_000},
            "Matrix Addition": {"n": 100},
            "Matrix Multiplication": {"n": 30},
        },
        ("String Match", "Word Count", "Group-By", "Linear Regression",
         "Matrix Addition", "Matrix Multiplication"),
    ),
    # Table 2's seq column: the second executor of the same IR, plus a
    # compile of the whole suite (the Table-1 set). PageRank is small
    # because the literal interpreter, the reference here, runs its
    # N x N loops.
    "sequential": Workload(
        "sequential",
        "seq",
        {
            "Conditional Sum": {"n": 100_000},
            "Equal": {"n": 200_000},
            "String Match": {"n": 150_000},
            "Word Count": {"n": 200_000},
            "Histogram": {"n": 50_000},
            "Group-By": {"n": 50_000},
            "Linear Regression": {"n": 60_000},
            "Matrix Addition": {"n": 150},
            "Matrix Multiplication": {"n": 40},
            "PageRank": {"nv": 400, "ne": 4_000},
            "KMeans": {"n": 1_000},
            "Matrix Factorization": {"n": 100},
        },
        tuple(p.name for p in PROGRAMS),
    ),
}


def build_inputs(workload: Workload, program: str, seed: int) -> tuple[dict, dict]:
    """The program's input spec at the workload's sizes for ``seed``,
    and the seed each array was generated with."""
    seeds = {}

    def seed_of(array: str) -> int:
        seeds[array] = array_seed(seed, program, array)
        return seeds[array]

    return BUILDERS[program](workload.sizes[program], seed_of), seeds


def extern_types(program: str) -> dict:
    """Extern array types of a program's inputs, for the compiler.

    Taken from the suite's ``tiny`` inputs: types do not depend on the
    size or the seed."""
    spec = BY_NAME[program].make_inputs("tiny")
    return {k: v.arr_type() for k, v in spec.items() if isinstance(v, sd.ArrayData)}
