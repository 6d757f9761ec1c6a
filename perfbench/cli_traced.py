"""``python -m repro`` with the layer spans recorded (the traced CLI op).

Usage: ``python3 perfbench/cli_traced.py SPANS.json PROGRAM [CLI ARGS...]``

Times the ``import repro.__main__`` start-up, wraps the public functions
a CLI run goes through (compile, C emission, native build, NRRD read and
write, ``Program.run``), then calls the same ``main`` that
``python -m repro`` calls.  The spans and the process's clock readings go
to ``SPANS.json``; ``time.perf_counter`` is the system-wide monotonic
clock, so the parent can line them up with its own spawn and exit times.
"""

import json
import os
import sys
import time

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import repro.__main__ as cli
    t1 = time.perf_counter()

    from layers import Recorder

    import repro.core.driver as driver
    import repro.nrrd as nrrd
    from repro.core.codegen import cbuild, cgen
    from repro.runtime.program import Program

    rec = Recorder()
    rec.wrap(driver, "compile_file", "core.compile",
             note=lambda a, k, prog: sum(prog.stats.low_instrs.values()))
    rec.wrap(cgen, "generate_c_module", "cgen.emit",
             note=lambda a, k, out: len(out[0]))
    rec.wrap(cbuild, "build", "cbuild.build")
    rec.wrap(nrrd, "read_nrrd", "nrrd.read")
    rec.wrap(nrrd, "write_nrrd", "nrrd.write")
    rec.wrap(Program, "run", "program.run")
    rc = cli.main(argv)
    t_end = time.perf_counter()
    doc = {"t_start": T_START, "t_import0": t0, "t_import1": t1,
           "t_end": t_end, "rc": rc,
           "spans": [s.to_json() for s in rec.take()]}
    with open(spans_path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)
    return rc


if __name__ == "__main__":
    sys.exit(main())
