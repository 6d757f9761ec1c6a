"""Self-tests of the benchmark: its checks catch wrong outputs, its ledger
catches double counting, and it refuses to run outside a checkout.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import common  # noqa: E402
from layers import Ledger, Recorder  # noqa: E402
from programs import Case  # noqa: E402


def _run(case):
    prog = case.compile()
    return prog.run(scheduler="seq").outputs[case.output]


@pytest.mark.parametrize("case", [
    Case("vr-lite", {"imgResU": 6, "imgResV": 6, "cVec": [5.0, 0.0, 0.0],
                     "rVec": [0.0, 5.0, 0.0]}),
    Case("lic2d", {"imgResU": 9, "imgResV": 9}),
    Case("ridge3d", {"gridRes": 7}),
    Case("isocontour", phantom=24),
], ids=lambda c: c.name)
def test_check_passes_and_catches_a_perturbed_output(case):
    out = _run(case)
    assert checks.check_output(case, out, np.random.default_rng(0)) == []
    bad = np.array(out, dtype=np.float64)
    bad *= 1.0 + 1e-7
    assert checks.check_output(case, bad, np.random.default_rng(0))


def test_check_rejects_a_wrong_shape():
    case = Case("lic2d", {"imgResU": 9, "imgResV": 9})
    out = _run(case)
    assert checks.check_output(case, out[:-1], np.random.default_rng(0))


def test_probe_oracle_catches_a_perturbed_row():
    from repro.nrrd import read_nrrd

    oracle = checks.ProbeOracle(read_nrrd(os.path.join(common.PROGRAMS_DIR,
                                                       "hand.nrrd")))
    rng = np.random.default_rng(3)
    pts = rng.uniform(-15, 15, size=(16, 3))
    rows = np.array([oracle(p) for p in pts])
    assert oracle.check(pts, rows, rng, samples=16) == []
    rows[5, 2] += 1e-6
    assert oracle.check(pts, rows, rng, samples=16)


def test_update_check_catches_a_wrong_row():
    """Replies built like the server's, from an in-process update."""
    import wl_serve
    from repro.core.driver import compile_file
    from repro.nrrd import read_nrrd

    vol = read_nrrd(os.path.join(common.PROGRAMS_DIR, "hand.nrrd"))
    prog = compile_file(os.path.join(common.PROGRAMS_DIR, "vr_lite.diderot"))
    prog.run(scheduler="seq", checkpoint=True)
    rng = np.random.default_rng(5)
    req = wl_serve._update(rng, 0.0, vol.data, set(), 36)
    doc = json.loads(req.body)
    prog.update_input("img", np.asarray(doc["data"]), region=doc["region"])
    res = prog.run_update(scheduler="seq")
    idx = np.asarray(res.updated_indices)
    rows = res.outputs["gray"].reshape(-1)[idx]
    req.reply = json.dumps({"outputs": {"gray": rows.tolist()},
                            "updated_indices": idx.tolist(), "partial": True})

    ok = common.Outcome()
    wl_serve._check_updates([req], vol, np.random.default_rng(0), ok)
    assert ok.correct
    rows[len(rows) // 2] += 1e-9
    req.reply = json.dumps({"outputs": {"gray": rows.tolist()},
                            "updated_indices": idx.tolist(), "partial": True})
    bad = common.Outcome()
    wl_serve._check_updates([req], vol, np.random.default_rng(0), bad)
    assert not bad.correct


def test_ledger_flags_parts_that_overlap():
    led = Ledger()
    assert led.add(1.0, {"a": 0.25, "b": 0.5}) == pytest.approx(0.25)
    assert not led.errors
    led.add(1.0, {"a": 0.75, "b": 0.5})
    assert led.errors
    assert led.mean("a") == pytest.approx(0.5)


def test_recorder_self_time_excludes_nested_spans():
    import time
    import types

    mod = types.SimpleNamespace()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        mod.inner()

    mod.inner, mod.outer = inner, outer
    rec = Recorder()
    rec.wrap(mod, "inner", "inner")
    rec.wrap(mod, "outer", "outer")
    mod.outer()
    rec.uninstall()
    spans = {s.name: s for s in rec.take()}
    assert mod.inner is inner and mod.outer is outer
    total = spans["outer"].seconds
    assert spans["outer"].self_s == pytest.approx(total - spans["inner"].seconds)
    assert spans["outer"].self_s < spans["inner"].self_s


def test_tail_is_the_percentile_with_ten_samples_beyond():
    xs = list(range(1, 41))  # 40 samples
    value, pct = common.tail(xs)
    assert value == 30 and pct == 75.0
    assert common.tail([3.0, 1.0])[0] == 3.0


def test_machine_speed_scales_by_the_reference_kernel_median():
    speed = common.MachineSpeed()
    try:
        assert speed.tick("run", n=3) > 0 and len(speed.samples["run"]) == 3
    finally:
        speed.close()
    assert speed._proc.returncode == 0
    speed.samples["run"] = [0.002, 0.008, 0.004]
    assert speed.scale("run") == pytest.approx(common.REFERENCE_S / 0.004)


def test_runner_fails_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "render-c",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
