"""``render-c`` / ``render-numpy``: compile once, then repeated runs.

Set-up compiles the five programs, applies the workload's sizes and runs
each once (which builds the native artifacts from an empty cache on the
C backend, and reads the input images).  The timed loop then cycles
through the programs in a seeded order per pass, timing each
``Program.run`` on the sequential scheduler.

Per-layer numbers come from the counters every run already reports in
``RunResult.metrics``: ``op.<name>.seconds`` for the native kernel and the
NumPy runtime ops, ``strands.updated`` for the work done.  Each run's
wall time is split into those op seconds plus the remainder, which is the
executor's own time (C backend) or the generated NumPy code outside the
timed ops (NumPy backend).  In a traced run vr-lite is also run with
``metrics=False`` between the other runs, to price the metrics layer.
"""

from __future__ import annotations

import time

import numpy as np

from checks import check_output, digest
from common import median, self_maxrss_mb
from layers import Ledger, Recorder
from programs import CASES, NAMES

#: ``op.<name>.seconds`` counters reported as their own ledger parts
_NAMED_OPS = {
    "native_update": "native.kernel_s",
    "gather": "ops.gather_s",
    "contract_axis": "ops.contract_axis_s",
    "probe_parts": "ops.probe_parts_s",
}


def _op_seconds(counters: dict) -> dict[str, float]:
    """Ledger parts from one run's op counters (unnamed ops pooled)."""
    parts = {v: 0.0 for v in _NAMED_OPS.values()}
    parts["ops.other_s"] = 0.0
    for key, val in counters.items():
        if key.startswith("op.") and key.endswith(".seconds"):
            op = key[3:-len(".seconds")]
            parts[_NAMED_OPS.get(op, "ops.other_s")] += val
    return parts


def run(ctx) -> dict:
    workload = ctx.workload
    backend = "c" if workload == "render-c" else "numpy"
    cases = CASES[workload]
    rec = Recorder() if ctx.trace else None
    if rec is not None:
        from repro.core.codegen import cbuild, cgen

        rec.wrap(cgen, "generate_c_module", "cgen.emit",
                 note=lambda a, k, out: len(out[0]))
        rec.wrap(cbuild, "build", "cbuild.build")

    # -- set-up: compile, size, first run (cold native build) ----------------
    speed = ctx.speed
    t_setup = time.perf_counter()
    progs, compile_s = {}, []
    paused = 0.0
    for name in NAMES:
        t0 = time.perf_counter()
        progs[name] = cases[name].compile()
        compile_s.append(time.perf_counter() - t0)
    for name in NAMES:
        progs[name].run(backend=backend, scheduler="seq")
        paused += speed.tick("setup")
    setup_s = time.perf_counter() - t_setup - paused
    setup_spans = rec.take() if rec is not None else []
    if rec is not None:
        rec.uninstall()

    # -- timed loop -------------------------------------------------------------
    rng = np.random.default_rng(ctx.seed)
    times = {n: [] for n in NAMES}
    digests = {n: [] for n in NAMES}
    first = {}
    updates = steps = lanes = 0
    ledger = Ledger()
    nometrics = []
    outcome = ctx.outcome
    deadline = time.perf_counter() + ctx.seconds
    passes = 0
    while time.perf_counter() < deadline:
        passes += 1
        for name in rng.permutation(NAMES):
            if time.perf_counter() >= deadline:
                break
            prog = progs[name]
            if ctx.trace and name == "vr-lite":
                t0 = time.perf_counter()
                prog.run(backend=backend, scheduler="seq", metrics=False)
                nometrics.append(time.perf_counter() - t0)
            try:
                t0 = time.perf_counter()
                res = prog.run(backend=backend, scheduler="seq")
                dt = time.perf_counter() - t0
            except Exception as exc:  # a failed op is counted, not fatal
                outcome.op(False, f"{name}: {type(exc).__name__}: {exc}")
                continue
            out = res.outputs[cases[name].output]
            if name not in first:
                first[name] = np.array(out)
            digests[name].append(digest(out))
            outcome.op(True)
            times[name].append(dt)
            c = res.metrics.snapshot()["counters"]
            updates += c.get("strands.updated", 0)
            steps += res.steps
            lanes += c.get("op.native_update.lanes", 0)
            ledger.add(dt, _op_seconds(c), what=f"{name} run")
            speed.tick("run")
    # before the checks, whose references allocate memory of their own
    peak_rss_mb = self_maxrss_mb()

    # -- correctness, outside the timed loop ------------------------------------
    check_rng = np.random.default_rng([ctx.seed, 1])
    for name in NAMES:
        if name not in first:
            outcome.problem(f"{name}: never ran in the timed loop")
            continue
        for problem in check_output(cases[name], first[name], check_rng):
            outcome.problem(problem)
        ref = digest(first[name])
        for d in digests[name][1:]:
            if d != ref:
                outcome.fail_op(f"{name}: a repeated run differs bit-wise "
                                "from the first")
    for err in ledger.errors[:3]:
        outcome.problem(err)

    per_prog = {n: median(times[n]) for n in NAMES if times[n]}
    all_times = [t for n in NAMES for t in times[n]]
    total_time = sum(all_times)
    e2e = {"setup_s": setup_s, "class_p50": per_prog, "all": all_times,
           "peak_rss_mb": peak_rss_mb}
    layers = {f"run_s.{n}": v for n, v in per_prog.items()}
    n_ops = len(all_times)
    layers.update({
        "strand_updates_per_s": updates / total_time if total_time else 0.0,
        "program.steps": steps / n_ops if n_ops else 0.0,
        "program.strand_updates": updates / n_ops if n_ops else 0.0,
        "core.compile_s": median(compile_s),
        "core.low_instrs": median(
            [sum(p.stats.low_instrs.values()) for p in progs.values()]),
    })
    if ctx.trace:
        for part in list(_NAMED_OPS.values()) + ["ops.other_s"]:
            layers[part] = ledger.mean(part)
        rest = ledger.mean_unattributed()
        layers["unattributed_s"] = rest
        layers["ledger.unattributed_frac"] = ledger.unattributed_frac()
        if backend == "c":
            layers["executor.overhead_s"] = rest
            layers["native.lanes"] = lanes / n_ops if n_ops else 0.0
        else:
            layers["ops.unattributed_s"] = rest
        if nometrics and times["vr-lite"]:
            layers["obs.metrics_overhead_frac"] = (
                median(times["vr-lite"]) / median(nometrics) - 1.0)
        emits = [s for s in setup_spans if s.name == "cgen.emit"]
        builds = [s for s in setup_spans if s.name == "cbuild.build"]
        if emits:
            layers["cgen.emit_s"] = median([s.seconds for s in emits])
            layers["cgen.c_bytes"] = median([s.note for s in emits])
        if builds:
            layers["cbuild.build_miss_s"] = median([s.seconds for s in builds])
    info = {"passes": passes, "ops_per_program": {n: len(times[n])
                                                   for n in NAMES}}
    return {"e2e": e2e, "layers": layers, "info": info}
