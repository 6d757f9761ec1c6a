"""Shared plumbing for the benchmark: environment, statistics, results.

Everything here is independent of the program under test: it locates the
checkout, pins the environment every workload runs in, summarizes samples
and prints the one-line JSON result the runner ends with.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

#: the checkout root: perfbench/ sits directly under it
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PROGRAMS_DIR = os.path.join(ROOT, "examples", "programs")

#: Every variable the program reads that could change what is measured.
#: They are cleared so a stray value in the caller's shell has no effect;
#: the cache locations are then pointed at benchmark-owned directories.
_CLEARED = (
    "REPRO_TRACE", "REPRO_CHECK", "REPRO_CGEN_BATCH", "REPRO_COMPILE_CACHE",
    "REPRO_BENCH_SCALE", "REPRO_CGEN_CACHE", "REPRO_COMPILE_CACHE_DIR",
    "REPRO_CGEN_CACHE_MAX", "REPRO_COMPILE_CACHE_MAX",
    "REPRO_CGEN_LOCK_TIMEOUT",
)


def check_checkout() -> str | None:
    """Why this directory cannot be benchmarked, or None if it can."""
    for need in (os.path.join(SRC, "repro", "__init__.py"),
                 os.path.join(PROGRAMS_DIR, "vr_lite.diderot")):
        if not os.path.isfile(need):
            return f"missing {os.path.relpath(need, ROOT)}: not a repro checkout"
    return None


class WorkDir:
    """A freshly emptied benchmark-owned directory under the checkout.

    Holds the native artifact cache, the compile cache and every output
    file, so a run never touches the user's ``~/.cache`` and set-up always
    starts cold.
    """

    def __init__(self, workload: str):
        base = os.path.join(ROOT, ".perfbench")
        self.path = os.path.join(base, f"{workload}-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        self.out = self.sub("out")
        os.environ["REPRO_CGEN_CACHE"] = self.sub("cgen")
        os.environ["REPRO_COMPILE_CACHE_DIR"] = self.sub("compile")
        # the C compiler's and Python's temporary files stay in the checkout
        os.environ["TMPDIR"] = self.sub("tmp")

    def sub(self, name: str) -> str:
        p = os.path.join(self.path, name)
        os.makedirs(p, exist_ok=True)
        return p

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass


def pin_environment() -> None:
    """Clear the program's tuning variables and pin library threading.

    All workloads run on the sequential scheduler; single-threaded BLAS
    keeps NumPy from spreading work over the machine's other cores.
    """
    for name in _CLEARED:
        os.environ.pop(name, None)
    os.environ["REPRO_COMPILE_CACHE"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["PYTHONPATH"] = SRC
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def precompile_sources() -> None:
    """Byte-compile the program's sources before anything is timed.

    A fresh checkout has no ``__pycache__``; without this the first CLI
    process of the first run would pay for compiling the whole package.
    """
    import compileall

    compileall.compile_dir(SRC, quiet=1)


# -- statistics ----------------------------------------------------------------


def median(xs) -> float:
    return float(statistics.median(xs))


def tail(xs) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  With ``n`` samples that is the
    ``n - 10``-th smallest (1-based), i.e. percentile ``100 (n - 10) / n``.
    With ten samples or fewer there is no such percentile; the maximum is
    returned with percentile 100.
    """
    s = sorted(xs)
    n = len(s)
    if n <= 10:
        return float(s[-1]), 100.0
    return float(s[n - 11]), 100.0 * (n - 10) / n


def geomean(xs) -> float:
    xs = list(xs)
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def spread(xs) -> float:
    """The interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


# -- machine speed -------------------------------------------------------------

#: the reference kernel's time at the machine speed end-to-end times are
#: scaled to: a round figure inside the 3-5 ms its median takes on a 2-vCPU
#: shared cloud machine
REFERENCE_S = 0.004


class MachineSpeed:
    """The machine's current speed, from a reference kernel timed between ops.

    The shared machines this runs on drift in speed by 15-40% over seconds
    to minutes, moving every timing of a run together; repeating ops inside
    a 10-second run does not average that out.  The kernel
    (``speedref.kernel``) is timed between timed ops (never inside one), per
    phase of the run (``"setup"``, ``"run"``); :meth:`scale` is
    ``REFERENCE_S`` over the kernel's median in that phase, and rescales the
    phase's times to one fixed machine speed.  Measured over 10-second
    windows, this cut the spread (IQR/median) of the median op latency from
    0.24 to 0.05 on render-c and from 0.21 to 0.07 on cli-c.  Raw times are
    reported next to the scaled ones.

    The kernel runs in a child process that never imports the program under
    test (see ``speedref.py``); :meth:`close` ends it.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "speedref.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def tick(self, phase: str, n: int = 3) -> float:
        """Time the kernel ``n`` times; returns the seconds this took."""
        t_start = time.perf_counter()
        self._proc.stdin.write(f"{n}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the machine-speed process exited")
        self.samples.setdefault(phase, []).extend(json.loads(line))
        return time.perf_counter() - t_start

    def scale(self, phase: str) -> float:
        return REFERENCE_S / median(self.samples[phase])

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


# -- processes -----------------------------------------------------------------


def run_child(argv, stdout_path: str, stderr_path: str, cwd: str = ROOT):
    """Run ``argv`` to completion; return ``(t_spawn, t_exit, rc, maxrss_kb)``.

    The wall time is from just before the spawn to just after the reap.
    ``os.wait4`` gives this child's own peak resident set size.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd,
                                stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, t1, proc.returncode, usage.ru_maxrss


def self_maxrss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- provenance ----------------------------------------------------------------


def provenance(seed: int) -> dict:
    """Where and with what the numbers were measured."""
    def first_line(argv):
        try:
            out = subprocess.run(argv, capture_output=True, text=True,
                                 timeout=20, cwd=ROOT)
        except (OSError, subprocess.TimeoutExpired):
            return None
        text = (out.stdout or out.stderr).strip()
        return text.splitlines()[0] if out.returncode == 0 and text else None

    # only the checkout's own repository: git would otherwise report the
    # HEAD of any repository the checkout happens to sit inside
    sha = (first_line(["git", "rev-parse", "HEAD"])
           if os.path.exists(os.path.join(ROOT, ".git")) else None)
    versions = {}
    for mod in ("numpy", "cffi"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = None
    return {
        "seed": seed,
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cc": first_line(["cc", "--version"]),
        "python": platform.python_version(),
        **versions,
    }


# -- results -------------------------------------------------------------------


class Outcome:
    """Counts of timed operations and the correctness verdict."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what and len(self.problems) < 20:
                self.problems.append(what)

    def fail_op(self, what: str) -> None:
        """Mark an already-counted op as wrong (found by a later check)."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def problem(self, what: str) -> None:
        """A failed check that is not tied to a single op."""
        self.problems.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def emit(outcome: Outcome, metrics: dict, units: dict, info: dict) -> None:
    """Print the human-readable report, then the one-line JSON result."""
    for key, val in info.items():
        print(f"# {key}: {json.dumps(val, sort_keys=True)}")
    for problem in outcome.problems:
        print(f"# FAILED CHECK: {problem}")
    width = max(len(k) for k in metrics)
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {units[name]}")
    print(f"correct={outcome.correct} attempted={outcome.attempted} "
          f"failed={outcome.failed}")
    doc = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }
    sys.stdout.flush()
    print(json.dumps(doc), flush=True)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)
