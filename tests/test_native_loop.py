"""The C-resident strand lifecycle: native strand creation and ``dd_run``.

On the C backend every run creates its strands with the emitted
``dd_init`` (seed + init) and, under the sequential scheduler, runs the
whole bulk-synchronous super-step loop in C (``dd_run``).  The per-step
Python loop over ``dd_update`` remains for the thread/process schedulers,
``on_step`` streaming, enabled tracers and programs with a ``stabilize``
method; ``scheduler="thread", workers=1`` reaches it with the same block
partition as the sequential scheduler.  Both loops must agree bit for bit,
report the same integer metrics, and keep the NumPy backend's 1e-12 oracle
contract for strand creation.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.codegen import cbuild
from repro.core.driver import compile_file, compile_program
from repro.errors import RuntimeErrorD
from repro.image import Image
from repro.obs import Tracer
from repro.programs import ALL

pytestmark = pytest.mark.skipif(
    not cbuild.compiler_available(),
    reason="native backend needs cffi plus a C compiler on PATH",
)

PROGRAM_KW = {
    "vr-lite": dict(scale=0.1, volume_size=24),
    "illust-vr": dict(scale=0.1, volume_size=24),
    "ridge3d": dict(scale=0.4, volume_size=24),
    "lic2d": dict(scale=0.08),
    "isocontour": dict(scale=0.08),
}
NAMES = list(PROGRAM_KW) + ["probe_serve"]
PROBE_SERVE = os.path.join(os.path.dirname(__file__), os.pardir,
                           "examples", "programs", "probe_serve.diderot")

_PROGRAMS: dict = {}


def _program(name, precision="double"):
    """One compiled program per (name, precision); runs never share state."""
    key = (name, precision)
    if key not in _PROGRAMS:
        if name == "probe_serve":
            prog = compile_file(PROBE_SERVE, precision=precision, cache=False)
            pts = np.random.default_rng(5).random((41, 3)) * 30.0
            prog.bind_image("pts", Image(pts, dim=1, tensor_shape=(3,)))
            prog.set_input("N", 40)
        else:
            prog = ALL[name].make_program(precision=precision,
                                          **PROGRAM_KW[name])
        _PROGRAMS[key] = prog
    return _PROGRAMS[key]


def _loop_and_stepwise(prog, **kw):
    """(dd_run result, per-step result) for one configuration."""
    a = prog.run(backend="c", scheduler="seq", **kw)
    b = prog.run(backend="c", scheduler="thread", workers=1, **kw)
    return a, b


def _assert_bit_identical(a, b):
    assert set(a.outputs) == set(b.outputs)
    for k in a.outputs:
        assert a.outputs[k].dtype == b.outputs[k].dtype, k
        assert np.array_equal(a.outputs[k], b.outputs[k], equal_nan=True), k
    assert (a.steps, a.num_stable, a.num_died) == \
        (b.steps, b.num_stable, b.num_died)


@pytest.mark.parametrize("max_steps", [None, 3])
@pytest.mark.parametrize("block_size", [7, 4096])
@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("name", NAMES)
def test_dd_run_matches_per_step_loop(name, precision, block_size, max_steps):
    prog = _program(name, precision)
    a, b = _loop_and_stepwise(prog, block_size=block_size,
                              max_steps=max_steps)
    _assert_bit_identical(a, b)
    ca = a.metrics.snapshot()["counters"]
    assert ca["native.loop.runs"] == 1
    assert b.metrics.snapshot()["counters"][
        "native.loop.fallback.scheduler"] == 1


@pytest.mark.parametrize("block_size", [7, 4096])
@pytest.mark.parametrize("name", NAMES)
def test_integer_metrics_agree(name, block_size):
    a, b = _loop_and_stepwise(_program(name), block_size=block_size)
    sa, sb = a.metrics.snapshot(), b.metrics.snapshot()
    keys = {k for k in sb["counters"]
            if k.startswith(("strands.", "sched.supersteps",
                             "sched.worker.worker-0.blocks"))}
    keys |= {"op.native_update.calls", "op.native_update.lanes"}
    for k in sorted(keys):
        assert sa["counters"].get(k) == sb["counters"].get(k), k
    assert sa["gauges"]["strands.active"] == sb["gauges"]["strands.active"]

    def rows(snap):
        return [{f: v for f, v in r.items() if f != "seconds"}
                for r in snap["series"]["steps"]]

    assert rows(sa) == rows(sb)
    for h in ("sched.step_seconds", "sched.block_seconds"):
        assert sa["histograms"][h]["count"] == sb["histograms"][h]["count"]


def test_long_run_folds_several_chunks():
    # vr-lite runs 241 steps: dd_run hands control back every LOOP_CAP
    # steps, and the folded series must still be one row per step
    from repro.runtime.native import LOOP_CAP

    res = _program("vr-lite").run(backend="c")
    counters = res.metrics.snapshot()["counters"]
    assert res.steps > LOOP_CAP
    assert counters["native.loop.chunks"] == -(-res.steps // LOOP_CAP)
    steps = res.metrics.snapshot()["series"]["steps"]
    assert [r["step"] for r in steps] == list(range(res.steps))


def _init_state(prog, backend):
    """Every state slot right after strand creation (no update runs)."""
    prog.run(backend=backend, max_steps=0, checkpoint=True)
    state = [np.array(s) for s in prog._inc.snapshot.state]
    prog.invalidate_checkpoint()
    return state


@pytest.mark.parametrize("name", NAMES)
def test_dd_init_matches_numpy_init(name):
    prog = _program(name)
    want = _init_state(prog, "numpy")
    got = _init_state(prog, "c")
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.allclose(g, w, rtol=1e-12, atol=1e-12, equal_nan=True)


def test_native_init_counted():
    res = _program("lic2d").run(backend="c", max_steps=1)
    counters = res.metrics.snapshot()["counters"]
    assert counters["op.native_init.lanes"] == res.num_strands
    # strand creation no longer runs the NumPy probe kernels
    assert "op.probe_parts.calls" not in counters
    assert "op.gather.calls" not in counters


# init probes the image, so re-created dirty strands must come from dd_init
INC_SOURCE = """
image(2)[] img = load("p.nrrd");
field#2(2)[] F = img ⊛ bspln3;

strand S (int i, int j) {
   vec2 p = [real(i) + 2.5, real(j) + 2.5];
   output real x = F([real(i) + 2.5, real(j) + 2.5]);
   int n = 0;
   update {
      if (inside(p, F)) { x += 0.5 * F(p) + 0.25 * (∇F(p))[1]; }
      n += 1;
      if (n >= 3) stabilize;
   }
}
initially [ S(i, j) | i in 0 .. 19, j in 0 .. 19 ];
"""


def _inc_prog(data):
    prog = compile_program(INC_SOURCE)
    prog.bind_image("img", Image(data.copy(), dim=2))
    return prog


def test_run_update_bit_identical_to_cold_c_run():
    base = np.random.default_rng(0).random((26, 26))
    patched = base.copy()
    patched[3:6, 3:6] += 1.0
    prog = _inc_prog(base)
    prog.run(backend="c", checkpoint=True)
    info = prog.update_input("img", patched[3:6, 3:6],
                             region=[[3, 5], [3, 5]])
    assert 0 < info["dirty_strands"] < info["total_strands"]
    res = prog.run_update()
    assert res.incremental
    counters = res.metrics.snapshot()["counters"]
    assert counters["op.native_init.lanes"] == info["dirty_strands"]
    assert counters["native.loop.runs"] == 1
    want = _inc_prog(patched).run(backend="c")
    assert np.array_equal(res.outputs["x"], want.outputs["x"])


DIV_SOURCE = """
strand S (int i) {
    output int x = 1;
    int n = 0;
    update { n += 1; x = 12 / (3 - n + i); if (n > 5) stabilize; }
}
initially [ S(i) | i in 0 .. 5 ];
"""


def test_mid_run_division_by_zero_raises():
    from repro.obs import metrics as _mx

    prog = compile_program(DIV_SOURCE)
    # strand 0 divides by zero on its third update (n = 3)
    with _mx.collect() as reg, \
            pytest.raises(RuntimeErrorD, match="division by zero"):
        prog.run(backend="c")
    # the two completed steps were folded before the error surfaced
    assert reg.snapshot()["counters"]["sched.supersteps"] == 2


def test_init_division_by_zero_raises():
    prog = compile_program("""
        strand S (int i) {
            output int x = 6 / (i - 4);
            update { stabilize; }
        }
        initially [ S(i) | i in 0 .. 5 ];
    """)
    with pytest.raises(RuntimeErrorD, match="division by zero"):
        prog.run(backend="c")


STABILIZE_SOURCE = """
strand S (int i) {
    output real x = real(i);
    update { x += 1.0; if (x > 4.0) stabilize; }
    stabilize { x = -x; }
}
initially [ S(i) | i in 0 .. 9 ];
"""


@pytest.mark.parametrize("reason", ["scheduler", "on_step", "tracer",
                                    "stabilize"])
def test_fallback_reason_counted(reason):
    if reason == "stabilize":
        prog, kw = compile_program(STABILIZE_SOURCE), {}
    else:
        prog = _program("isocontour")
        kw = {"scheduler": dict(scheduler="thread", workers=2),
              "on_step": dict(on_step=lambda ev: None),
              "tracer": dict(tracer=Tracer())}[reason]
    res = prog.run(backend="c", **kw)
    counters = res.metrics.snapshot()["counters"]
    assert counters[f"native.loop.fallback.{reason}"] == 1
    assert "native.loop.runs" not in counters
    # the per-step path still runs the native update and creation
    assert counters["op.native_update.calls"] > 0
    assert counters["op.native_init.calls"] == 1
    if reason == "stabilize":
        assert np.array_equal(res.outputs["x"],
                              prog.run(backend="numpy").outputs["x"])


def test_process_scheduler_counts_fallback():
    prog = _program("ridge3d")
    a = prog.run(backend="c")
    b = prog.run(backend="c", scheduler="process", workers=2, block_size=37)
    _assert_bit_identical(a, b)
    counters = b.metrics.snapshot()["counters"]
    assert counters["native.loop.fallback.scheduler"] == 1


def test_non_positive_block_size_rejected():
    # dd_run divides by the block size: reject it before entering C
    with pytest.raises(ValueError, match="block size must be positive"):
        _program("isocontour").run(backend="c", block_size=0)
