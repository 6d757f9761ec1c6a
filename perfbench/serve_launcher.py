"""Start the serving front door for the ``serve-mix`` workload.

Usage: ``python3 perfbench/serve_launcher.py SPANS.json``

Does what ``python -m repro.serve --register ... --probe ...`` does,
through the same public pieces (``ProgramRegistry.register``,
``ServeApp.start``), on an ephemeral port with the default NumPy backend
and sequential scheduler:

* ``probe`` — ``examples/programs/probe_serve.diderot``, with ``pts`` bound
  to each coalesced batch of request points and ``N`` to its size;
* ``vr`` — ``examples/programs/vr_lite.diderot`` at its default inputs,
  the target of ``/update`` requests on its ``img``.

Protocol over the pipes: prints ``{"port": N}`` once serving; then each
line read from stdin is a command — ``trace`` installs the layer
wrappers and answers ``traced`` — and end of input shuts the server down,
writes the recorded spans and this process's peak RSS to ``SPANS.json``
and exits.
"""

import asyncio
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

from layers import Recorder  # noqa: E402
from repro.runtime.program import Program  # noqa: E402
from repro.serve.batch import ProbeBatcher  # noqa: E402
from repro.serve.registry import ProbeSpec, ProgramEntry, ProgramRegistry  # noqa: E402
from repro.serve.server import ServeApp  # noqa: E402

PROGRAMS = os.path.join(ROOT, "examples", "programs")


def install(rec: Recorder) -> None:
    """Wrap the serving layers' public calls; notes key spans to requests."""
    rec.wrap(ProbeBatcher, "submit", "serve.submit",
             note=lambda a, k, out: float(a[1][0, 0]))
    rec.wrap(ProgramEntry, "run_batch", "serve.run_batch",
             note=lambda a, k, out: [float(x) for x in a[1][:, 0]])
    rec.wrap(ProgramEntry, "update", "serve.update",
             note=lambda a, k, out: json.dumps(a[3]))
    rec.wrap(Program, "update_input", "incremental.update_input")
    rec.wrap(Program, "run_update", "incremental.run_update")


async def serve(spans_path: str) -> None:
    app = ServeApp(ProgramRegistry())
    await asyncio.to_thread(
        app.registry.register, "probe",
        path=os.path.join(PROGRAMS, "probe_serve.diderot"),
        probe=ProbeSpec(points_image="pts", count_input="N", pad=1),
        cache=app.compile_cache)
    await asyncio.to_thread(
        app.registry.register, "vr",
        path=os.path.join(PROGRAMS, "vr_lite.diderot"),
        cache=app.compile_cache)
    await app.start("127.0.0.1", 0)
    print(json.dumps({"port": app.port}), flush=True)
    rec = Recorder()
    while True:
        line = await asyncio.to_thread(sys.stdin.readline)
        if not line:
            break
        if line.strip() == "trace":
            install(rec)
            print("traced", flush=True)
    await app.close()
    rec.uninstall()
    doc = {"spans": [s.to_json() for s in rec.take()],
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    with open(spans_path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)


if __name__ == "__main__":
    asyncio.run(serve(sys.argv[1]))
