"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload render-c --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with the layer spans recorded and
prints every per-layer metric instead (zero for a layer the workload does
not exercise).  The last line of standard output is the JSON result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--repeat N`` is the steadiness aid: it runs the workload N times with
seeds ``seed .. seed+N-1`` (each in its own process) and prints, for every
metric, the median over the runs and the interquartile range relative to
the median.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

WORKLOADS = ("cli-c", "render-c", "render-numpy", "serve-mix")


def _module(workload: str):
    if workload == "cli-c":
        import wl_cli as mod
    elif workload in ("render-c", "render-numpy"):
        import wl_render as mod
    else:
        import wl_serve as mod
    return mod


class Context:
    """What a workload gets: its name, seed, duration and shared state."""

    def __init__(self, workload, seed, seconds, trace, workdir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.outcome = common.Outcome()
        self.speed = common.MachineSpeed()


def _end_to_end(e2e: dict, speed) -> dict:
    """The end-to-end metrics from a workload's raw samples.

    ``op_p50_ms`` is the geometric mean over the workload's op classes
    (programs, or request types) of each class's median latency, so every
    class weighs the same however many ops of it fit in the run.  Times are
    scaled to the reference machine speed (:class:`common.MachineSpeed`).
    """
    return {
        "setup_s": e2e["setup_s"] * speed.scale("setup"),
        "op_p50_ms": 1000.0 * common.geomean(e2e["class_p50"].values())
        * speed.scale("run"),
        "peak_rss_mb": e2e["peak_rss_mb"],
    }


def run_once(args) -> int:
    common.pin_environment()
    common.precompile_sources()
    spec = common.load_spec()
    workdir = common.WorkDir(args.workload)
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace),
                  workdir)
    try:
        raw = _module(args.workload).run(ctx)
    finally:
        ctx.speed.close()
        workdir.close()
    e2e = raw["e2e"]
    outcome = ctx.outcome
    if not e2e["all"]:
        print("error: no timed op finished", file=sys.stderr)
        return 1
    tail, pct = common.tail(e2e["all"])
    info = {
        "workload": args.workload,
        "provenance": common.provenance(args.seed),
        "op_tail_percentile": pct,
        "timed_ops": len(e2e["all"]),
        "class_p50_ms": {k: 1000.0 * v for k, v in e2e["class_p50"].items()},
        "raw_setup_s": e2e["setup_s"],
        "raw_op_p50_ms": 1000.0 * common.geomean(e2e["class_p50"].values()),
        "speed_scale": {p: ctx.speed.scale(p) for p in ("setup", "run")},
        "speed_samples": {p: len(v) for p, v in ctx.speed.samples.items()},
        **raw["info"],
    }
    if args.trace:
        chosen = spec["per_layer"]
        layers = dict(raw["layers"], op_tail_ms=1000.0 * tail, op_tail_pct=pct,
                      failed_frac=outcome.failed / max(outcome.attempted, 1))
        layers["machine.ref_ms"] = 1000.0 * common.median(
            ctx.speed.samples["run"])
        values = {m["name"]: layers.get(m["name"], 0.0) for m in chosen}
    else:
        chosen = spec["end_to_end"]
        values = _end_to_end(e2e, ctx.speed)
        values = {m["name"]: values[m["name"]] for m in chosen}
    units = {m["name"]: m["unit"] for m in chosen}
    common.emit(outcome, values, units, info)
    return 0


def repeat(args) -> int:
    """Run ``args.repeat`` seeds; print median and IQR/median per metric."""
    rows = []
    for i in range(args.repeat):
        seed = args.seed + i
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=common.ROOT)
        last = proc.stdout.strip().splitlines()[-1:] if proc.stdout else []
        if proc.returncode != 0 or not last:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        doc = json.loads(last[0])
        rows.append(doc)
        print(f"seed {seed}: correct={doc['correct']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in doc["metrics"].items()), flush=True)
    names = list(rows[0]["metrics"])
    print(f"{'metric':<28} {'median':>12} {'IQR/median':>11}  unit")
    for name in names:
        vals = [r["metrics"][name]["value"] for r in rows]
        med = common.median(vals)
        spr = (common.spread(vals) if len(vals) >= 2 and med != 0
               else float("nan"))
        print(f"{name:<28} {med:>12.6g} {spr:>11.4f}  "
              f"{rows[0]['metrics'][name]['unit']}")
    print(f"all correct: {all(r['correct'] for r in rows)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run this many seeds and print each metric's "
                         "median and IQR/median")
    args = ap.parse_args(argv)
    problem = common.check_checkout()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.repeat:
        return repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
