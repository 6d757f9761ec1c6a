"""``cli-c``: one-shot ``python -m repro PROGRAM --backend c`` processes.

Each timed op is a whole process, from spawn until it has exited with its
output NRRD on disk: interpreter start-up, ``import repro``, the front-end
compile, the native artifact-cache hit, the run, and the NRRD write.
Set-up is the first pass over the five programs, which builds every native
artifact into an empty cache.

A traced run alternates plain CLI processes with ``cli_traced.py``
processes.  The traced ones report their layer spans; the plain ones keep
giving the end-to-end numbers, and the difference between the two is the
tracing overhead.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from checks import check_output, digest
from common import geomean, median, run_child
from layers import Ledger, Span, self_times
from programs import CASES, NAMES

_PARTS = {
    "core.compile": "core.compile_s",
    "cgen.emit": "cgen.emit_s",
    "cbuild.build": "cbuild.build_hit_s",
    "nrrd.read": "nrrd.read_s",
    "nrrd.write": "nrrd.write_s",
    "program.run": "program.run_self_s",
}


def _argv(case, prefix: str, spans: str | None) -> list[str]:
    tail = [case.path, "--backend", "c", "--out", prefix]
    if spans is None:
        return [sys.executable, "-m", "repro"] + tail
    here = os.path.dirname(os.path.abspath(__file__))
    return [sys.executable, os.path.join(here, "cli_traced.py"), spans] + tail


def _ledger_parts(doc: dict, t_spawn: float) -> dict[str, float]:
    parts = self_times(_spans(doc), _PARTS)
    parts["startup.interp_s"] = doc["t_start"] - t_spawn
    parts["startup.import_s"] = doc["t_import1"] - doc["t_import0"]
    return parts


def _spans(doc):
    return [Span(**s) for s in doc["spans"]]


def run(ctx) -> dict:
    cases = CASES["cli-c"]
    work = ctx.workdir
    scratch = work.sub("cli")
    outcome = ctx.outcome
    counter = [0]

    def one(name, traced):
        """Run one CLI process; returns (wall, rc, rss_kb, output, doc, t0)."""
        counter[0] += 1
        k = counter[0]
        prefix = os.path.join(work.out, f"{name}-{k}")
        spans = os.path.join(scratch, f"spans-{k}.json") if traced else None
        t0, t1, rc, rss = run_child(
            _argv(cases[name], prefix, spans),
            os.path.join(scratch, f"stdout-{k}"),
            os.path.join(scratch, f"stderr-{k}"))
        out_path = f"{prefix}-{cases[name].output}.nrrd"
        out = doc = None
        if rc == 0 and os.path.exists(out_path):
            from repro.nrrd import read_nrrd

            out = read_nrrd(out_path).data
            os.remove(out_path)
        if spans is not None and os.path.exists(spans):
            with open(spans, encoding="utf-8") as fp:
                doc = json.load(fp)
        return t1 - t0, rc, rss, out, doc, t0

    # -- set-up: the first pass builds every native artifact ------------------
    t_setup = time.perf_counter()
    setup_docs = []
    paused = 0.0
    for name in NAMES:
        _, rc, _, out, doc, _ = one(name, ctx.trace)
        if rc != 0 or out is None:
            outcome.problem(f"{name}: set-up CLI run failed (exit {rc})")
        if doc is not None:
            setup_docs.append(doc)
        paused += ctx.speed.tick("setup")
    setup_s = time.perf_counter() - t_setup - paused

    # -- timed loop -------------------------------------------------------------
    rng = np.random.default_rng(ctx.seed)
    times = {n: [] for n in NAMES}
    traced_times = {n: [] for n in NAMES}
    first, digests = {}, {n: [] for n in NAMES}
    rss_kb = []
    ledger = Ledger()
    counts = {"core.low_instrs": [], "cgen.c_bytes": []}
    deadline = time.perf_counter() + ctx.seconds
    while time.perf_counter() < deadline:
        for name in rng.permutation(NAMES):
            if time.perf_counter() >= deadline:
                break
            # per program, plain and traced processes take turns
            traced = ctx.trace and len(times[name]) > len(traced_times[name])
            wall, rc, rss, out, doc, t_spawn = one(name, traced)
            ctx.speed.tick("run")
            if rc != 0 or out is None:
                outcome.op(False, f"{name}: CLI exited {rc} without output")
                continue
            outcome.op(True)
            first.setdefault(name, out)
            digests[name].append(digest(out))
            if traced:
                traced_times[name].append(wall)
                if doc is None:
                    outcome.problem(f"{name}: traced CLI wrote no spans")
                    continue
                ledger.add(wall, _ledger_parts(doc, t_spawn),
                           what=f"{name} CLI process")
                for sp in doc["spans"]:
                    if sp["name"] == "core.compile":
                        counts["core.low_instrs"].append(sp["note"])
                    elif sp["name"] == "cgen.emit":
                        counts["cgen.c_bytes"].append(sp["note"])
            else:
                times[name].append(wall)
                rss_kb.append(rss)

    # -- correctness, outside the timed loop ------------------------------------
    check_rng = np.random.default_rng([ctx.seed, 1])
    for name in NAMES:
        if name not in first:
            outcome.problem(f"{name}: no CLI run finished in the timed loop")
            continue
        for problem in check_output(cases[name], first[name], check_rng):
            outcome.problem(problem)
        for d in digests[name][1:]:
            if d != digests[name][0]:
                outcome.fail_op(f"{name}: a CLI output differs bit-wise "
                                "from the first")
    for err in ledger.errors[:3]:
        outcome.problem(err)

    per_prog = {n: median(times[n]) for n in NAMES if times[n]}
    all_times = [t for n in NAMES for t in times[n]]
    layers = {"cli_p50_s": median(all_times) if all_times else 0.0}
    if ctx.trace:
        for part in list(_PARTS.values()) + ["startup.interp_s",
                                             "startup.import_s"]:
            layers[part] = ledger.mean(part)
        layers["unattributed_s"] = ledger.mean_unattributed()
        layers["ledger.unattributed_frac"] = ledger.unattributed_frac()
        for key, vals in counts.items():
            if vals:
                layers[key] = median(vals)
        builds = [s.seconds for d in setup_docs for s in _spans(d)
                  if s.name == "cbuild.build"]
        if builds:
            layers["cbuild.build_miss_s"] = median(builds)
        both = [n for n in NAMES if times[n] and traced_times[n]]
        if both:
            layers["trace.overhead_frac"] = (
                geomean(median(traced_times[n]) for n in both)
                / geomean(median(times[n]) for n in both) - 1.0)
    e2e = {"setup_s": setup_s, "class_p50": per_prog, "all": all_times,
           "peak_rss_mb": max(rss_kb) / 1024.0 if rss_kb else 0.0}
    info = {"ops_per_program": {n: len(times[n]) for n in NAMES}}
    return {"e2e": e2e, "layers": layers, "info": info}
