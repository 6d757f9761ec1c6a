"""Native C backend vs NumPy: SIMD batching, precision, thread scaling.

The headline workload is the probe benchmark's hardest row — the 3-D
Hessian probe through ``bspln3`` (value + gradient + Hessian per strand
per super-step).  Four legs run it through the sequential scheduler:

* **numpy** — the vectorized NumPy interpreter baseline;
* **scalar C** — the native kernel forced to batch width 1
  (``REPRO_CGEN_BATCH=1``), i.e. the pre-SIMD one-strand-at-a-time loop;
* **batched C** — the default strand-batched SoA kernel (``DD_VB``
  lanes per statement, ``#pragma omp simd``);
* **single C** — the batched kernel emitted in float32.

Each native leg records both wall-clock and pure kernel seconds (the
``op.native_update.seconds`` metric); the batched-vs-scalar gate uses the
kernel ratio because at this workload size a fixed ~0.4ms of per-run
Python setup dilutes the wall ratio identically across legs.  The
batched leg's wall minus kernel seconds is recorded as
``c_seq_overhead_s`` (strand creation, the super-step loop and run
set-up), and the single leg's kernel is also timed built with FMA
contraction allowed (``kernel_single_fma_s``).  Targets at
full scale: batched kernel ≥2x over the scalar C kernel, and ≥3x
wall-clock over NumPy (measured ~13x).

The run also records the cold build of the headline kernel: its emitted
C size (``c_bytes``) and the seconds one compile into an empty artifact
cache takes (``cold_build_s``).  Neither is gated.

A further leg checks the GIL-release contract: with ≥2 cores, the thread
scheduler over the native kernel must beat sequential native execution
(cffi calls drop the GIL, so worker threads genuinely overlap).  Its
block size gives each worker at least two blocks.  On
single-core machines that leg records ``thread2_speedup: null`` together
with the machine's ``cpu_count`` so the regression gate can tell
"skipped for lack of cores" from "silently lost".

Results go to ``benchmarks/results/native.json``, the repo root
``BENCH_native.json``, and a row in ``results/history.jsonl`` for the
cross-commit tracker; ``regress.py`` gates ``native.min_speedup`` and
``native.min_batch_speedup``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from unittest import mock

import pytest
from bench_probe import N_STRANDS, probe_source, smooth_image
from conftest import SCALE, append_history, measure, record

from repro.core.codegen import cbuild
from repro.core.codegen.cgen import generate_c_module
from repro.core.driver import compile_program
from repro.obs import metrics as _mx

pytestmark = pytest.mark.skipif(
    not cbuild.compiler_available(),
    reason="native backend needs cffi plus a C compiler on PATH",
)

REPEATS = 3
#: more super-steps than bench_probe's 3 — the kernel is fast enough now
#: that per-run setup would otherwise dominate the wall numbers
STEPS = 10
HEADLINE = (3, 2, "bspln3")


def _headline_prog(precision="double"):
    dim, deriv, kname = HEADLINE
    prog = compile_program(probe_source(dim, deriv, kname),
                           precision=precision)
    prog.bind_image("img", smooth_image(dim))
    return prog


def _scalar_prog():
    """The headline program compiled with the batch width forced to 1."""
    os.environ["REPRO_CGEN_BATCH"] = "1"
    try:
        prog = _headline_prog()
        # compile + cache the native artifacts while the override is live
        prog.run(max_steps=1, backend="c")
    finally:
        del os.environ["REPRO_CGEN_BATCH"]
    return prog


def _time_backend(prog, backend, scheduler="seq", workers=1,
                  block_size=4096) -> float:
    kw = dict(backend=backend, scheduler=scheduler, workers=workers,
              block_size=block_size)
    prog.run(max_steps=1, **kw)  # warm caches / compile the kernel
    return measure(lambda: prog.run(max_steps=STEPS, **kw), repeats=REPEATS)


def _kernel_seconds(prog) -> float:
    """Best-of-REPEATS pure in-kernel time for a sequential native run."""
    prog.run(max_steps=1, backend="c")
    best = float("inf")
    for _ in range(REPEATS):
        with _mx.collect() as reg:
            prog.run(max_steps=STEPS, backend="c")
        best = min(best, reg.counters.get("op.native_update.seconds", 0.0))
    return best


def _single_fma_kernel_seconds() -> float:
    """Kernel seconds of the float32 headline built with FMA contraction
    allowed — the flag set before single builds forbade it — so the
    payload shows what ``-ffp-contract=off`` costs the float kernel."""
    real_flags_for = cbuild.flags_for

    def fma_flags(single=False):
        flags = real_flags_for(single)
        return [f for f in flags if f != "-ffp-contract=off"] if single \
            else flags

    with mock.patch.object(cbuild, "flags_for", fma_flags):
        prog = _headline_prog(precision="single")
        prog.run(max_steps=1, backend="c")  # builds with the patched flags
    return _kernel_seconds(prog)


def _cold_build() -> tuple[int, float]:
    """(emitted C bytes, seconds of one cold build) for the headline
    kernel, compiled into a fresh artifact cache so the compiler runs."""
    c_source, _ = generate_c_module(_headline_prog().high)
    with tempfile.TemporaryDirectory() as cache, \
            mock.patch.dict(os.environ, {"REPRO_CGEN_CACHE": cache}):
        t0 = time.perf_counter()
        cbuild.build(c_source, flags=cbuild.flags_for(False))
        return len(c_source), time.perf_counter() - t0


def test_native_single_core_speedup(benchmark):
    prog = _headline_prog()
    prog_scalar = _scalar_prog()
    prog_single = _headline_prog(precision="single")

    t_numpy = _time_backend(prog, "numpy")
    t_scalar = _time_backend(prog_scalar, "c")
    t_c = _time_backend(prog, "c")
    t_single = _time_backend(prog_single, "c")
    k_scalar = _kernel_seconds(prog_scalar)
    k_c = _kernel_seconds(prog)
    k_single = _kernel_seconds(prog_single)
    k_single_fma = _single_fma_kernel_seconds()
    c_bytes, cold_build_s = _cold_build()

    speedup = t_numpy / t_c
    batch_wall = t_scalar / t_c
    batch_kernel = k_scalar / k_c
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    dim, deriv, kname = HEADLINE
    print(f"\n\nNative backend — 3-D Hessian probe ({kname}), "
          f"{N_STRANDS} strands × {STEPS} super-steps, best of {REPEATS}")
    print(f"  numpy    seq: {t_numpy * 1e3:8.2f}ms")
    print(f"  c scalar seq: {t_scalar * 1e3:8.2f}ms  "
          f"(kernel {k_scalar * 1e3:.2f}ms)")
    print(f"  c batch  seq: {t_c * 1e3:8.2f}ms  (kernel {k_c * 1e3:.2f}ms)  "
          f"{speedup:.2f}x over numpy")
    print(f"  c single seq: {t_single * 1e3:8.2f}ms  "
          f"(kernel {k_single * 1e3:.2f}ms; "
          f"{k_single_fma * 1e3:.2f}ms with FMA contraction)")
    print(f"  c seq overhead outside the kernel: "
          f"{(t_c - k_c) * 1e3:.2f}ms")
    print(f"  batched vs scalar: {batch_kernel:.2f}x kernel, "
          f"{batch_wall:.2f}x wall")
    print(f"  cold build: {c_bytes} bytes of C, {cold_build_s:.2f}s")

    # Full-scale targets: ≥3x over NumPy (ISSUE 7) and a ≥2x kernel-time
    # win for the batched SIMD kernel over the scalar C kernel (ISSUE 8).
    # At CI smoke scale fixed costs dominate, so only soft floors gate.
    if SCALE >= 0.9:
        assert speedup >= 3.0
        assert batch_kernel >= 2.0
    assert speedup >= 1.3
    assert batch_kernel >= 1.1

    payload = {
        "scale": SCALE,
        "steps": STEPS,
        "workload": {"dim": dim, "deriv": deriv, "kernel": kname},
        "cpu_count": len(os.sched_getaffinity(0)),
        "numpy_seq_s": t_numpy,
        "c_scalar_seq_s": t_scalar,
        "c_seq_s": t_c,
        "c_single_seq_s": t_single,
        "kernel_scalar_s": k_scalar,
        "kernel_batch_s": k_c,
        "kernel_single_s": k_single,
        "kernel_single_fma_s": k_single_fma,
        "c_seq_overhead_s": t_c - k_c,
        "native_speedup": speedup,
        "batch_speedup": batch_wall,
        "batch_kernel_speedup": batch_kernel,
        "single_kernel_speedup": k_scalar / k_single,
        "c_bytes": c_bytes,
        "cold_build_s": cold_build_s,
    }

    # thread scaling leg: seq+C vs thread+C, only meaningful with >1 core
    cores = payload["cpu_count"]
    if cores >= 2:
        # at least two blocks per worker, so the threads really overlap
        # (the default 4096-strand block would be one block in total)
        t_c_thread = _time_backend(prog, "c", scheduler="thread", workers=2,
                                   block_size=-(-N_STRANDS // (2 * 2)))
        payload["c_thread2_s"] = t_c_thread
        payload["thread2_speedup"] = t_c / t_c_thread
        print(f"  c  thread2: {t_c_thread * 1e3:8.2f}ms   "
              f"({t_c / t_c_thread:.2f}x over seq+C)")
        assert t_c_thread < t_c  # GIL release must buy real overlap
    else:
        payload["thread2_speedup"] = None
        print(f"  (thread-scaling leg skipped: {cores} core(s))")

    record("native", payload)
    append_history("native", {
        "native_speedup": speedup,
        "batch_kernel_speedup": batch_kernel,
        "numpy_seq_s": t_numpy,
        "c_seq_s": t_c,
        "kernel_batch_s": k_c,
        "thread2_speedup": payload["thread2_speedup"],
    })
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCH_native.json"), "w") as fp:
        json.dump(payload, fp, indent=2, default=float)


def test_native_matches_numpy_on_headline(benchmark):
    """The timed workload itself is oracle-checked at 1e-12."""
    import numpy as np

    prog = _headline_prog()
    a = prog.run(max_steps=STEPS, backend="numpy")
    b = prog.run(max_steps=STEPS, backend="c")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for name in a.outputs:
        assert np.allclose(a.outputs[name], b.outputs[name],
                           rtol=1e-12, atol=1e-12, equal_nan=True), name


def test_native_single_matches_oracle_on_headline(benchmark):
    """The float32 leg stays within its documented 1e-5 tolerance."""
    import numpy as np

    prog = _headline_prog()
    prog_single = _headline_prog(precision="single")
    a = prog.run(max_steps=STEPS, backend="numpy")
    b = prog_single.run(max_steps=STEPS, backend="c")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for name in a.outputs:
        assert np.allclose(a.outputs[name], b.outputs[name],
                           rtol=1e-5, atol=1e-5, equal_nan=True), name
