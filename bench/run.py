"""DIABLO benchmark: run one workload with one seed, check every output
against a reference implementation, and print the metrics.

Run from the repository root:

    python3 bench/run.py --workload iterative --seed 1 --seconds 12 --trace 0

Workloads, metrics and what each per-layer metric should move are
described in ``bench/README.md``; metric names and units are read from
``BENCHMARK.json``. The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics of a traced
run with ``--trace 1``. Each run also writes its inputs' seeds and
sizes, raw samples and (traced) spans to ``bench/out/``.

One client runs the workload's programs one after another (a closed
loop); Spark runs ``local[n]`` on the usable cores.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

SETUP_REPEATS = 2  # input builds per program; set-up time is their median
COMPILE_REPEATS = 40  # staged compiles per program in a traced run
TOLERANCE = 1e-6  # relative, as in the test suite


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def slug(program: str) -> str:
    return program.lower().replace(" ", "_").replace("-", "_")


def force(env: dict, outputs: list) -> None:
    """Execute the array outputs; a noop write runs the whole plan."""
    for out in outputs:
        v = env.get(out)
        if hasattr(v, "write"):
            v.write.format("noop").mode("overwrite").save()


def release(spark_env: dict) -> None:
    for v in spark_env.values():
        if hasattr(v, "unpersist"):
            v.unpersist(blocking=True)


class Bench:
    """One run of one workload: set-up, compile, timed executions and
    the check, program by program. With a tracer, every call into a
    layer is wrapped in a span."""

    def __init__(self, workload, seed: int, seconds: float):
        from repro.programs.suite import BY_NAME
        from workloads import extern_types

        self.spark = None  # set once the session is up
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = None  # set for a traced run
        self.programs = list(dict.fromkeys([*workload.compiled, *workload.sizes]))
        self.suite = BY_NAME
        self.types = {n: extern_types(n) for n in self.programs}
        self.record = {n: {"errors": [], "mismatches": []} for n in self.programs}

    def span(self, name: str, layer: str, counted: bool = True):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, layer, counted)

    def fail(self, program: str, what: str, exc: Exception) -> None:
        traceback.print_exc(file=sys.stderr)
        self.record[program]["errors"].append(f"{what}: {type(exc).__name__}: {exc}")

    # ---------------------------------------------------------- compile
    def compile_all(self) -> dict:
        """Compile every program once (untraced runs)."""
        from repro.core.pipeline import compile_program

        out = {}
        for name in self.programs:
            try:
                out[name] = compile_program(self.suite[name].source, self.types[name])
            except Exception as e:
                self.fail(name, "compile", e)
        return out

    def compile_traced(self, name: str):
        """The five stages one by one, guarded against compile_program."""
        from repro.core.pipeline import compile_program
        from stages import STAGES, canonical, compile_staged, generators, show_code

        src, types = self.suite[name].source, self.types[name]
        samples = {stage: [] for stage in [*STAGES, "total"]}
        gc.collect()
        gc.freeze()  # the inputs are built: keep collections off them
        try:
            with self.span("compile", "core.pipeline", counted=False):
                for _ in range(COMPILE_REPEATS):
                    staged, ms, nodes = compile_staged(
                        src, types, lambda s, layer: self.span(s, layer, counted=False))
                    for stage, v in ms.items():
                        samples[stage].append(v)
                    samples["total"].append(sum(ms.values()))
        finally:
            gc.unfreeze()
        whole = compile_program(src, types)
        if canonical(show_code(staged.code)) != canonical(show_code(whole.code)):
            raise RuntimeError("staged compile differs from compile_program")
        rec = self.record[name]
        rec["stage_ms"] = {k: median(v) for k, v in samples.items()}
        rec["ir_nodes"] = nodes
        rec["generators"] = generators(staged.code)
        return staged

    # ------------------------------------------------------------ setup
    def build(self, name: str):
        """Generate, load, persist and count a program's inputs."""
        from repro import synth_data as sd
        from workloads import build_inputs

        t0 = time.perf_counter()
        with self.span("synth_data.gen", "synth_data", counted=False):
            spec, seeds = build_inputs(self.wl, name, self.seed)
        t1 = time.perf_counter()
        spark_env, dict_env = {}, {}
        with self.span("setup.load", "setup"):
            for k, v in spec.items():
                if not isinstance(v, sd.ArrayData):
                    spark_env[k] = dict_env[k] = v
                elif self.spark is None:
                    dict_env[k] = v.dict()
                else:
                    spark_env[k] = v.df(self.spark).persist()
                    spark_env[k].count()
        rec = self.record[name]
        rec["array_seeds"] = seeds
        rec["gen_s"].append(t1 - t0)
        rec["load_s"].append(time.perf_counter() - t1)
        return spark_env, dict_env

    def setup(self, name: str):
        """Build the inputs SETUP_REPEATS times; keep the last build."""
        rec = self.record[name]
        rec["gen_s"], rec["load_s"] = [], []
        with self.span("setup", "setup"):
            for i in range(SETUP_REPEATS):
                if i:
                    release(spark_env)
                spark_env, dict_env = self.build(name)
        return spark_env, dict_env

    # ------------------------------------------------------- executions
    def run_compiled(self, name, compiled, spark_env, dict_env, traced: bool):
        from repro.core import backend, seq_backend
        from repro.core.pipeline import run_program
        from repro.core.seq_backend import run_program_seq

        outputs = self.suite[name].outputs
        if self.wl.executor == "seq":
            if not traced:
                return run_program_seq(compiled, dict_env)
            # run_program_seq's input copy, then run_code_seq per statement
            env = {k: (dict(v) if isinstance(v, dict) else v) for k, v in dict_env.items()}
            with self.span("seq", "core.seq_backend", counted=False):
                for st in compiled.code:
                    with self.span(_stmt(st), "core.seq_backend", counted=False):
                        seq_backend.run_code_seq([st], env, compiled.types)
            return env
        if not traced:
            env = run_program(compiled, spark_env, self.spark)
            force(env, outputs)
            return env
        # run_program's input copy, then the statement loop of run_code
        env = dict(spark_env)
        with self.span("par", "core.backend"):
            for st in compiled.code:
                with self.span(_stmt(st), "core.backend.run_code"):
                    backend.run_code([st], env, self.spark, compiled.types)
            for out in outputs:
                with self.span(f"force {out}", "core.backend.force"):
                    force(env, [out])
        return env

    def run_reference(self, name, spark_env, dict_env):
        """The reference on the same inputs: hand-written Spark with its
        outputs forced, or, against the sequential executor, the literal
        loop interpreter."""
        from repro.core.interp import interpret
        from repro.programs.handwritten import HANDWRITTEN

        if self.spark is None:
            with self.span("interp", "core.interp", counted=False):
                return interpret(self.suite[name].source, dict_env)
        with self.span("handwritten", "programs.handwritten"):
            out = HANDWRITTEN[name](spark_env)
            force(out, self.suite[name].outputs)
        return out

    def measure(self, name, compiled, spark_env, dict_env, budget: float):
        """Alternate compiled and reference executions for ``budget``
        seconds, at least one of each. Returns the last outputs of both."""
        rec = self.record[name]
        traced = self.tracer is not None
        rec["exec_s"], rec["ref_s"], rec["trace_s"] = [], [], []
        start = time.perf_counter()
        while not rec["exec_s"] or time.perf_counter() - start < budget:
            o0 = self.tracer.overhead_s if traced else 0.0
            t0 = time.perf_counter()
            got = self.run_compiled(name, compiled, spark_env, dict_env, traced)
            t1 = time.perf_counter()
            o1 = self.tracer.overhead_s if traced else 0.0
            want = self.run_reference(name, spark_env, dict_env)
            rec["exec_s"].append(t1 - t0)
            rec["ref_s"].append(time.perf_counter() - t1)
            rec["trace_s"].append(o1 - o0)
        return got, want

    # ------------------------------------------------------------ check
    def check(self, name, compiled, got: dict, want: dict) -> None:
        """Compare each declared output with the reference's."""
        from pyspark.sql import DataFrame

        from repro.core import ast as A
        from repro.core.convert import approx_dict_equal, df_to_dict

        rec = self.record[name]
        rec["rows_out"] = 0
        t0 = time.perf_counter()
        with self.span("check", "check"):
            for out in self.suite[name].outputs:
                t = compiled.types.get(out)
                g, w = got.get(out), want.get(out)
                if isinstance(t, A.TArray):
                    g = df_to_dict(g, t.ndims) if isinstance(g, DataFrame) else g
                    w = df_to_dict(w, t.ndims) if isinstance(w, DataFrame) else w
                    ok = isinstance(g, dict) and approx_dict_equal(w, g, TOLERANCE)
                    rec["rows_out"] += len(g) if isinstance(g, dict) else 0
                elif isinstance(w, float) and isinstance(g, (int, float)):
                    ok = abs(g - w) <= TOLERANCE * max(1.0, abs(w))
                    rec["rows_out"] += 1
                else:
                    ok = g == w
                    rec["rows_out"] += 1
                if not ok:
                    rec["mismatches"].append(out)
                    print(f"MISMATCH {name}/{out}: differs from the reference",
                          file=sys.stderr)
        rec["check_s"] = time.perf_counter() - t0

    # -------------------------------------------------------------- run
    def run(self, compiled: dict) -> None:
        """Per program: set-up, (traced) compile, executions, check.
        An untraced run brings ``compiled`` from ``compile_all``."""
        timed = list(self.wl.sizes)
        for name in self.programs:
            spark_env = {}
            with self.span(name, "program"):
                try:
                    if name in timed:
                        spark_env, dict_env = self.setup(name)
                    if self.tracer is not None:
                        compiled[name] = self.compile_traced(name)
                    if name in timed and name in compiled:
                        got, want = self.measure(name, compiled[name], spark_env,
                                                 dict_env, self.seconds / len(timed))
                        self.check(name, compiled[name], got, want)
                except Exception as e:  # counted as a failed program
                    self.fail(name, "run", e)
                finally:
                    release(spark_env)

    def failed(self) -> list:
        return [n for n in self.programs
                if self.record[n]["errors"] or self.record[n]["mismatches"]]


def _stmt(st) -> str:
    return f"{type(st).__name__} {getattr(st, 'name', '')}".strip()


# ------------------------------------------------------------ metrics
def _timed(b: Bench) -> list:
    """Programs with timings for both sides."""
    return [n for n in b.wl.sizes if b.record[n].get("exec_s")]


def end_to_end(b: Bench, session_s: float) -> dict:
    rec = b.record
    timed = _timed(b)
    ratios = [median(rec[n]["exec_s"]) / median(rec[n]["ref_s"]) for n in timed]
    builds = [
        median([g + l for g, l in zip(rec[n]["gen_s"], rec[n]["load_s"])])
        for n in b.wl.sizes if rec[n].get("gen_s")
    ]
    return {
        "exec_s": sum(median(rec[n]["exec_s"]) for n in timed),
        "gap_x": math.exp(statistics.fmean(map(math.log, ratios))) if ratios else 0.0,
        "setup_s": session_s + sum(builds),
        "ok_ratio": 1.0 - len(b.failed()) / len(b.programs),
    }


def per_layer(b: Bench, session_s: float, tracer, cores: int) -> dict:
    from stages import STAGES
    from workloads import BUILDERS

    rec, spans = b.record, tracer.spans
    by_parent: dict = {}
    for s in spans:
        by_parent.setdefault(s.parent, []).append(s)
    m: dict = {}

    def add(key, v):
        m[key] = m.get(key, 0.0) + v

    for stage, key in (*((st, f"{st}.ms") for st in STAGES), ("total", "compile_ms")):
        m[key] = sum(rec[n].get("stage_ms", {}).get(stage, 0.0) for n in b.programs)
    for stage in ("translate", "normalize", "optimize"):
        m[f"{stage}.ir_nodes"] = sum(rec[n].get("ir_nodes", {}).get(stage, 0) for n in b.programs)
    m["optimize.generators"] = sum(rec[n].get("generators", 0) for n in b.programs)

    counters = ("joins", "exchanges", "broadcasts", "tasks", "task_s", "gc_s",
                "shuffle_read_mb", "shuffle_write_mb")
    for k in (*counters, "run_s", "force_s", "core_util"):
        m[f"backend.{k}"] = 0.0
    m["handwritten.exchanges"] = m["seq_backend.rows_out"] = m["interp.s"] = 0.0
    par_wall = 0.0
    for name in BUILDERS:
        p = slug(name)
        for key in (f"backend.{p}.s", f"backend.{p}.gap_x", f"handwritten.{p}.s",
                    f"seq_backend.{p}.s"):
            m.setdefault(key, 0.0)
    run_span = spans[0]
    prog_spans = {s.name: s for s in by_parent[run_span.id] if s.layer == "program"}
    for name in _timed(b):
        p, kids = slug(name), by_parent.get(prog_spans[name].id, [])
        if b.wl.executor == "seq":
            m[f"seq_backend.{p}.s"] = median([s.seconds for s in kids if s.name == "seq"])
            add("seq_backend.rows_out", rec[name].get("rows_out", 0))
            add("interp.s", median([s.seconds for s in kids if s.name == "interp"]))
            continue
        hw = [s for s in kids if s.name == "handwritten"]
        m[f"handwritten.{p}.s"] = median([s.seconds for s in hw])
        add("handwritten.exchanges", median([s.attrs["exchanges"] for s in hw]))
        par = [s for s in kids if s.name == "par"]
        m[f"backend.{p}.s"] = median([s.seconds for s in par])
        m[f"backend.{p}.gap_x"] = m[f"backend.{p}.s"] / m[f"handwritten.{p}.s"]
        par_wall += m[f"backend.{p}.s"]
        for k in counters:
            add(f"backend.{k}", median([s.attrs[k] for s in par]))
        for k, layer in (("run_s", "core.backend.run_code"), ("force_s", "core.backend.force")):
            add(f"backend.{k}", median([
                sum(c.seconds for c in by_parent.get(s.id, []) if c.layer == layer)
                for s in par]))
    if par_wall:
        m["backend.core_util"] = m["backend.task_s"] / (par_wall * cores)
    m["backend.cached_mb_peak"] = tracer.counters.cached_mb_peak if tracer.counters else 0.0
    m["handwritten.s"] = sum(m[f"handwritten.{slug(n)}.s"] for n in BUILDERS)

    m["synth_data.gen_s"] = sum(median(rec[n].get("gen_s", [])) for n in b.wl.sizes)
    m["setup.load_s"] = sum(median(rec[n].get("load_s", [])) for n in b.wl.sizes)
    m["setup.session_s"] = session_s
    m["check.s"] = sum(rec[n].get("check_s", 0.0) for n in b.wl.sizes)
    m["driver.rss_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    m["fail_ratio"] = len(b.failed()) / len(b.programs)
    m["trace.overhead_s"] = sum(median(rec[n]["trace_s"]) for n in _timed(b))
    return m


# --------------------------------------------------------------- main
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import session
    from spans import SparkCounters, Tracer
    from workloads import WORKLOADS

    if a.workload not in WORKLOADS:
        print(f"bench: unknown workload {a.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[a.workload]
    run_id = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    scratch = str(OUT / f"tmp-{os.getpid()}")

    b = Bench(wl, a.seed, a.seconds)
    compiled = {} if a.trace else b.compile_all()
    session_s = 0.0
    try:
        if wl.executor == "par":  # the sequential workload runs no Spark
            t0 = time.perf_counter()
            b.spark = session.start(scratch)
            session_s = time.perf_counter() - t0
        if a.trace:
            counters = SparkCounters(b.spark) if b.spark else None
            tracer = b.tracer = Tracer(run_id, counters)
            with tracer.span("run", "bench"):
                b.run(compiled)
            metrics = per_layer(b, session_s, tracer, session.cores())
        else:
            b.run(compiled)
            metrics = end_to_end(b, session_s)
    finally:
        session.stop(b.spark, scratch)

    units = {d["name"]: d["unit"] for d in declared["per_layer" if a.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{run_id}.json", "w") as f:
        json.dump({
            "workload": wl.name, "seed": a.seed, "seconds": a.seconds,
            "sizes": wl.sizes,
            "metrics": metrics, "programs": b.record,
        }, f, indent=1, default=str)
    if b.tracer is not None:
        b.tracer.dump(str(OUT / f"{run_id}.spans.json"))

    failed = b.failed()
    for n in failed:
        r = b.record[n]
        print(f"FAILED {n}: " + "; ".join(r["errors"] + [f"{n}/{o} mismatch" for o in r["mismatches"]]))
    for k in sorted(metrics):
        print(f"{k:40s} {metrics[k]:14.6g} {units[k]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(b.programs),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
