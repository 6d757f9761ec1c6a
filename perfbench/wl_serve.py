"""``serve-mix``: an open-loop probe/update mix against the serving layer.

Set-up starts ``serve_launcher.py`` (the front door on the default NumPy
backend), waits until both programs are registered and the port is open,
and sends one priming ``/update``, which takes vr-lite's checkpoint with a
cold run.  It does so ``SETUPS`` times, each with a fresh server process
(the compile cache is off, so every one starts cold), reports the median
and keeps the last server.  The timed part is a seeded open-loop schedule:

* reads — ``POST /probe/probe`` with 256 seeded points inside the hand
  volume, ``PROBE_RATE`` per second;
* writes — ``POST /update/vr`` patching a seeded 4^3-voxel region of
  vr-lite's ``img`` (about 3-5% of the rays re-run), ``UPDATE_RATE`` per
  second.

Probe arrival times are seeded and independent, as from users who do not
wait for one another (see ``_arrivals``).  Updates arrive at a fixed
cadence with a seeded phase, as from a simulation or scanner that delivers
a new slab every ``1 / UPDATE_RATE`` seconds (see ``_cadence``).

Together they keep the server a little under half busy: a probe costs it
about 5 ms (HTTP, JSON and the batch run) and an update about 110 ms
(``run_update`` re-running 3-5% of the rays), measured on a 2-vCPU shared
machine.  The headroom matters because the latency of an
open loop grows steeply as the server nears saturation, and the machine's
speed drifts.

Every request is timed from when it was due, so a stall also charges the
requests queued behind it.  At most ``nproc`` requests are in flight.
Updates are sent one at a time (the next waits for the previous reply,
still timed from its due time), so the server applies the patches in the
order the client generated them and the results can be checked against
cold runs.

A traced run sends the first half of the schedule to the plain server,
then installs the layer wrappers (``serve_launcher.install``) and sends
the second half; the traced half gives the per-layer ledger, and the
difference between the halves is the tracing overhead.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import subprocess
import sys
import time

import numpy as np

from checks import ProbeOracle
from common import PROGRAMS_DIR, geomean, median, tail
from layers import Ledger, Span

PROBE_RATE = 40.0    # requests/s
UPDATE_RATE = 2.0    # requests/s
PROBE_POINTS = 256
PATCH = 4            # voxels per axis of an update region
#: hand-volume world box the probe points are drawn from (the volume spans
#: [-20, 20]^3; the margin keeps bspln3's support inside)
PROBE_BOX = 15.0
#: probe rows checked against gage per response
PROBE_CHECKS = 8
#: pause between the plain and the traced halves of a traced run
TRACE_GAP = 0.5
#: cold server set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: machine-speed kernel runs before each set-up and after the last
SPEED_TICKS = 20
#: the client times the machine-speed kernel (~4 ms) only when no request
#: is in flight and none is due within this many seconds
IDLE_MARGIN = 0.016


class Request:
    __slots__ = ("kind", "due", "body", "key", "points", "patch",
                 "woke", "sent", "recv", "status", "reply", "traced",
                 "latency")

    def __init__(self, kind, due, body, key, points=None, patch=None):
        self.kind, self.due, self.body, self.key = kind, due, body, key
        self.points, self.patch = points, patch
        self.woke = self.sent = self.recv = None
        self.status, self.reply, self.traced = None, None, False
        #: seconds from when the request was due until its reply was read
        self.latency = None


def _arrivals(rng, rate: float, seconds: float) -> list[float]:
    """``rate * seconds`` arrival times, independent and uniform in the run.

    This is a Poisson process conditioned on its count: a fixed number of
    requests of each kind per run keeps the pooled tail percentile from
    shifting with how many slow updates happened to be drawn.
    """
    return sorted(rng.uniform(0.0, seconds, size=round(rate * seconds)))


def _cadence(rng, rate: float, seconds: float) -> list[float]:
    """``rate * seconds`` arrival times ``1 / rate`` apart, seeded phase."""
    phase = rng.uniform(0.0, 1.0 / rate)
    return [phase + k / rate for k in range(round(rate * seconds))]


def make_schedule(seed: int, seconds: float, volume: np.ndarray) -> list:
    """The seeded request list, sorted by due time (offsets in seconds)."""
    rng = np.random.default_rng(seed)
    reqs = []
    for t in _arrivals(rng, PROBE_RATE, seconds):
        pts = rng.uniform(-PROBE_BOX, PROBE_BOX, size=(PROBE_POINTS, 3))
        reqs.append(Request("probe", t, json.dumps({"points": pts.tolist()}),
                            float(pts[0, 0]), points=pts))
    used = set()
    hi = volume.shape[0] - 8 - PATCH
    for t in _cadence(rng, UPDATE_RATE, seconds):
        reqs.append(_update(rng, t, volume, used, hi))
    reqs.sort(key=lambda r: r.due)
    return reqs


def _update(rng, due, volume, used, hi) -> Request:
    while True:
        lo = tuple(int(v) for v in rng.integers(8, hi, size=3))
        if lo not in used:
            used.add(lo)
            break
    region = [[v, v + PATCH - 1] for v in lo]
    sl = tuple(slice(v, v + PATCH) for v in lo)
    data = volume[sl] * rng.uniform(0.5, 1.5) + rng.uniform(-50.0, 50.0)
    body = json.dumps({"image": "img", "data": data.tolist(),
                       "region": region})
    return Request("update", due, body, json.dumps(region),
                   patch=(sl, data))


async def _http(port: int, path: str, body: str):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        data = body.encode()
        writer.write((f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
                      f"Content-Length: {len(data)}\r\n\r\n").encode() + data)
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            k, _, v = line.decode("latin-1").partition(":")
            if k.strip().lower() == "content-length":
                length = int(v.strip())
        payload = await reader.readexactly(length) if length else b""
        return status, payload
    finally:
        writer.close()


async def _drive(port, reqs, t0, switch=None, speed=None):
    """Send ``reqs`` on schedule (``due`` offsets from ``t0``).

    With ``speed``, the machine-speed kernel also runs in the client's idle
    moments: no request in flight and none due within ``IDLE_MARGIN``, so
    it neither delays a send nor the reading of a reply.
    """
    slots = asyncio.Semaphore(len(os.sched_getaffinity(0)))
    one_update = asyncio.Lock()
    busy = [0]  # requests woken and not yet answered
    dues = [t0 + r.due for r in reqs]

    async def fire(r):
        await asyncio.sleep(max(0.0, t0 + r.due - time.perf_counter()))
        r.woke = time.perf_counter()
        busy[0] += 1
        path = "/probe/probe" if r.kind == "probe" else "/update/vr"
        try:
            if r.kind == "update":
                async with one_update, slots:
                    r.sent = time.perf_counter()
                    r.status, raw = await _http(port, path, r.body)
            else:
                async with slots:
                    r.sent = time.perf_counter()
                    r.status, raw = await _http(port, path, r.body)
            r.reply = raw
        except (OSError, ValueError, IndexError, asyncio.IncompleteReadError) as exc:
            r.status, r.reply = -1, repr(exc).encode()
        r.recv = time.perf_counter()
        r.latency = r.recv - (t0 + r.due)
        busy[0] -= 1

    async def calibrate(done):
        while not done.done():
            await asyncio.sleep(IDLE_MARGIN / 4)
            now = time.perf_counter()
            nxt = bisect.bisect_right(dues, now)
            if busy[0] == 0 and (nxt == len(dues)
                                 or dues[nxt] - now > IDLE_MARGIN):
                speed.tick("run", 1)

    done = asyncio.ensure_future(asyncio.gather(
        *[fire(r) for r in reqs], *([switch()] if switch else [])))
    if speed is not None:
        await asyncio.gather(done, calibrate(done))
    else:
        await done


class Server:
    """The launcher process and its command pipe."""

    def __init__(self, workdir):
        here = os.path.dirname(os.path.abspath(__file__))
        self.spans_path = os.path.join(workdir.path, "serve-spans.json")
        self.stderr = open(os.path.join(workdir.path, "serve-stderr"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(here, "serve_launcher.py"),
             self.spans_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.stderr, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("the serve launcher exited before serving")
        self.port = json.loads(line)["port"]

    def trace(self) -> None:
        self.proc.stdin.write("trace\n")
        self.proc.stdin.flush()
        if self.proc.stdout.readline().strip() != "traced":
            raise RuntimeError("the serve launcher did not confirm tracing")

    def stop(self) -> tuple[list, float]:
        """Shut down; returns (spans, peak RSS in MB)."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.stderr.close()
        if not os.path.exists(self.spans_path):
            return [], 0.0
        with open(self.spans_path, encoding="utf-8") as fp:
            doc = json.load(fp)
        return [Span(**s) for s in doc["spans"]], doc["maxrss_kb"] / 1024.0


def _assemble(base: np.ndarray, reply: dict) -> None:
    """Apply one update reply's rows to the running output image."""
    rows = np.asarray(reply["outputs"]["gray"], dtype=np.float64)
    if reply.get("partial"):
        flat = base.reshape(-1)
        flat[np.asarray(reply["updated_indices"], dtype=np.int64)] = rows
    else:
        base[...] = rows.reshape(base.shape)


def _cold_gray(prog, volume_img, patches) -> np.ndarray:
    """vr-lite's output from a cold run on the volume with ``patches``."""
    from repro.image import Image

    data = volume_img.data.copy()
    for sl, vals in patches:
        data[sl] = vals
    prog.bind_image("img", Image(data, volume_img.dim, volume_img.tensor_shape,
                                 volume_img.orientation))
    return prog.run(scheduler="seq").outputs["gray"]


def _check_updates(updates, volume_img, rng, outcome) -> None:
    """Update replies, applied in order, must equal cold runs bit for bit.

    The replies are checked after a seeded one of them and after the last.
    """
    from repro.core.driver import compile_file

    prog = compile_file(os.path.join(PROGRAMS_DIR, "vr_lite.diderot"))
    image = _cold_gray(prog, volume_img, [])
    at = {int(rng.integers(len(updates))), len(updates) - 1}
    for k, r in enumerate(updates):
        _assemble(image, json.loads(r.reply))
        if k in at:
            want = _cold_gray(prog, volume_img, [u.patch for u in updates[:k + 1]])
            if not np.array_equal(image, want):
                outcome.fail_op(f"update {k}: incremental result differs "
                                "from a cold run on the same patched image")


def run(ctx) -> dict:
    from repro.nrrd import read_nrrd

    outcome = ctx.outcome
    volume_img = read_nrrd(os.path.join(PROGRAMS_DIR, "hand.nrrd"))
    volume = volume_img.data
    reqs = make_schedule(ctx.seed, ctx.seconds, volume)
    prime = _update(np.random.default_rng([ctx.seed, 2]), 0.0, volume,
                    {tuple(int(s.start) for s in r.patch[0])
                     for r in reqs if r.kind == "update"},
                    volume.shape[0] - 8 - PATCH)

    # -- set-up: spawn, register, prime the checkpoint ----------------------
    # set up SETUPS times, each a fresh cold server, and keep the last one;
    # the machine-speed kernel brackets each set-up; during the schedule it
    # runs in the client's idle moments (see _drive)
    speed = ctx.speed
    setup_times = []
    server = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
                server = None
            speed.tick("setup", SPEED_TICKS)
            t_setup = time.perf_counter()
            server = Server(ctx.workdir)
            asyncio.run(_drive(server.port, [prime], time.perf_counter()))
            setup_times.append(time.perf_counter() - t_setup)
            if prime.status != 200:
                outcome.problem(f"priming update failed: HTTP {prime.status}")
        speed.tick("setup", SPEED_TICKS)
        setup_s = median(setup_times)

        # -- timed schedule ------------------------------------------------------
        half = ctx.seconds / 2.0 if ctx.trace else None
        switch = None
        if half is not None:
            for r in reqs:
                if r.due >= half:
                    r.due += TRACE_GAP
                    r.traced = True

            async def switch():
                await asyncio.sleep(max(0.0, t_run + half - time.perf_counter()))
                await asyncio.to_thread(server.trace)
                if time.perf_counter() > t_run + half + TRACE_GAP:
                    outcome.problem("tracing was switched on too late")
        t_run = time.perf_counter()
        asyncio.run(_drive(server.port, reqs, t_run, switch, speed))
    finally:
        if server is not None:
            spans, rss_mb = server.stop()

    # -- correctness, outside the timed part ---------------------------------
    check_rng = np.random.default_rng([ctx.seed, 1])
    oracle = ProbeOracle(volume_img)
    updates = [prime]
    for r in reqs:
        ok = r.status == 200
        if ok and r.kind == "probe":
            rows = json.loads(r.reply)["outputs"]["out"]
            problems = oracle.check(r.points, rows, check_rng, PROBE_CHECKS)
            if problems:
                outcome.problem(problems[0])
                ok = False
        elif r.kind == "update" and ok:
            updates.append(r)
        outcome.op(ok, "" if ok else f"{r.kind} due at {r.due:.3f}s: HTTP "
                   f"{r.status} {r.reply[:200]!r}")
    if prime.status == 200 and all(u.status == 200 for u in updates):
        _check_updates(updates, volume_img, check_rng, outcome)

    # -- metrics ---------------------------------------------------------------
    plain = [r for r in reqs if r.status == 200 and not r.traced]
    probes = [r.latency for r in plain if r.kind == "probe"]
    upds = [r.latency for r in plain if r.kind == "update"]
    class_p50 = {}
    for kind, lat in (("probe", probes), ("update", upds)):
        if lat:
            class_p50[kind] = median(lat)
        else:
            outcome.problem(f"no {kind} request succeeded untraced")
    e2e = {"setup_s": setup_s, "class_p50": class_p50,
           "all": probes + upds, "peak_rss_mb": rss_mb}
    p_tail, p_pct = tail(probes) if probes else (0.0, 0.0)
    dirty = [json.loads(r.reply)["dirty_fraction"] for r in updates[1:]
             if r.status == 200]
    layers = {
        "probe_p50_ms": 1000.0 * class_p50.get("probe", 0.0),
        "probe_tail_ms": 1000.0 * p_tail,
        "probe_tail_pct": p_pct,
        "update_p50_ms": 1000.0 * class_p50.get("update", 0.0),
        "incremental.dirty_fraction": median(dirty) if dirty else 0.0,
        "serve.generator_late_ms": 1000.0 * median(
            [r.woke - (t_run + r.due) for r in plain]) if plain else 0.0,
    }
    if ctx.trace:
        traced = [r for r in reqs if r.status == 200 and r.traced]
        layers.update(_ledger(traced, spans, t_run, outcome))
        tp = [r.latency for r in traced if r.kind == "probe"]
        tu = [r.latency for r in traced if r.kind == "update"]
        if tp and tu and len(class_p50) == 2:
            layers["trace.overhead_frac"] = (
                geomean([median(tp), median(tu)])
                / geomean(class_p50.values()) - 1.0)
    info = {"requests": {"probe": sum(r.kind == "probe" for r in reqs),
                         "update": sum(r.kind == "update" for r in reqs)},
            "probe_tail": {"percentile": p_pct, "samples": len(probes)},
            "offered_rates_per_s": {"probe": PROBE_RATE,
                                    "update": UPDATE_RATE}}
    return {"e2e": e2e, "layers": layers, "info": info}


def _ledger(traced, spans, t_run, outcome) -> dict:
    """Split each traced request's latency into the serving layers."""
    submits = {s.note: s for s in spans if s.name == "serve.submit"}
    batches = [s for s in spans if s.name == "serve.run_batch"]
    batch_of = {}
    for b in batches:
        for x in b.note:
            batch_of[x] = b
    upd_spans = {s.note: s for s in spans if s.name == "serve.update"}
    inner = [s for s in spans if s.name.startswith("incremental.")]
    ledger = Ledger()
    per_batch, queue, execute, http = [], [], [], []
    for r in traced:
        late = r.woke - (t_run + r.due)
        admit = r.sent - r.woke
        total = r.recv - r.sent
        if r.kind == "probe":
            sub, b = submits.get(r.key), batch_of.get(r.key)
            if sub is None or b is None:
                outcome.problem("a traced probe has no server spans")
                continue
            parts = {"serve.generator_late": late, "serve.admit_wait": admit,
                     "serve.http": total - sub.seconds,
                     "serve.queue": sub.seconds - b.seconds,
                     "serve.execute": b.seconds}
            per_batch.append(len(b.note) / PROBE_POINTS)
            queue.append(parts["serve.queue"])
            execute.append(b.seconds)
        else:
            up = upd_spans.get(r.key)
            if up is None:
                outcome.problem("a traced update has no server spans")
                continue
            parts = {"serve.generator_late": late, "serve.admit_wait": admit,
                     "serve.http": total - up.seconds}
            for s in inner:
                if s.t0 >= up.t0 and s.t1 <= up.t1:
                    key = s.name + "_s"
                    parts[key] = parts.get(key, 0.0) + s.seconds
        http.append(parts["serve.http"])
        ledger.add(r.latency, parts, what=f"{r.kind} request")
    for err in ledger.errors[:3]:
        outcome.problem(err)
    upd_rows = [p for _, p in ledger.rows if "incremental.run_update_s" in p]
    out = {
        "serve.queue_ms": 1000.0 * median(queue) if queue else 0.0,
        "serve.execute_ms": 1000.0 * median(execute) if execute else 0.0,
        "serve.requests_per_batch": (sum(per_batch) / len(per_batch)
                                     if per_batch else 0.0),
        "serve.http_ms": 1000.0 * median(http) if http else 0.0,
        "serve.admit_wait_ms": 1000.0 * ledger.mean("serve.admit_wait"),
        "unattributed_s": ledger.mean_unattributed(),
        "ledger.unattributed_frac": ledger.unattributed_frac(),
    }
    for key in ("incremental.update_input_s", "incremental.run_update_s"):
        vals = [p.get(key, 0.0) for p in upd_rows]
        out[key] = median(vals) if vals else 0.0
    return out
