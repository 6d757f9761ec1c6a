"""Runtime binder for the native C backend.

:class:`NativeUpdate` takes the ``(lib, ffi)`` pair from
:mod:`repro.core.codegen.cbuild` plus the emitter's buffer *plan*
(:mod:`repro.core.codegen.cgen`) and binds the live run arrays — strand
state, status, image voxel blocks, global values — into the fixed
``dd_update`` ABI.  The cffi pointer tables are built once; per block only
the active-index pointer and the ``[start, end)`` range change, so the
per-call Python overhead is a handful of casts.  When the index window is a
contiguous ascending run, ``run_range`` passes a NULL index pointer and the
batched kernel maps lanes directly (``lane == k``) — the common dense case
skips the per-lane gather entirely.  The same tables serve the other two
entry points: ``init`` creates strands in place (``dd_init``) and
``run_loop`` runs whole super-steps in C (``dd_run``), folding the per-step
tallies it returns into the caller's metrics.

The cffi call releases the GIL for its whole duration.  Disjoint lane
ranges touch disjoint state elements, so concurrent ``run_range`` calls
from the thread scheduler's workers are safe — this is what turns the
persistent thread pool into real multicore scaling.

Binding validates the contract the generated code assumes: state arrays
must be C-contiguous with the exact dtypes and must not alias one another
(the native kernel updates them in place).  Real-valued buffers follow the
plan's ``real_dtype`` — float64 for default-precision kernels, float32 for
``--single`` ones; the SC table stays float64 either way (the kernel casts
once at entry).  Violations raise :class:`~repro.errors.CodegenError`,
which ``Program`` treats as "fall back to NumPy".
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import CodegenError, RuntimeErrorD
from repro.obs import metrics as _mx

__all__ = ["BACKEND_NAMES", "LOOP_CAP", "NativeUpdate"]

#: Valid values for ``Program.run(backend=...)`` / ``--backend``.
BACKEND_NAMES = ("numpy", "c")

#: super-steps per ``dd_run`` call before control returns to Python
LOOP_CAP = 64


def _check_state_array(arr: np.ndarray, want_dtype, what: str) -> np.ndarray:
    if not isinstance(arr, np.ndarray):
        raise CodegenError(f"native backend: {what} is not an ndarray")
    if arr.dtype != np.dtype(want_dtype):
        raise CodegenError(
            f"native backend: {what} has dtype {arr.dtype}, expected {np.dtype(want_dtype)}"
        )
    if not arr.flags["C_CONTIGUOUS"]:
        raise CodegenError(f"native backend: {what} is not C-contiguous")
    if not arr.flags["WRITEABLE"]:
        raise CodegenError(f"native backend: {what} is not writeable")
    return arr


class NativeUpdate:
    """The native kernels of one program bound to a fixed set of run
    arrays: strand creation, the strand update, and the super-step loop."""

    def __init__(self, lib, ffi, plan, images, global_values, state, status,
                 grid=None):
        self._lib = lib
        self._ffi = ffi
        self._plan = plan
        #: objects that must outlive the pointer tables (cffi buffers,
        #: flattened global copies, contiguous image casts)
        self._keep: list = []

        real_dtype = np.dtype(plan.get("real_dtype", "float64"))
        real_ctype = "float[]" if real_dtype == np.float32 else "double[]"

        # (name, array) pairs that the kernels mutate: every state slot —
        # dd_init writes the immutable extras too — and the status
        writable = []

        def state_array(si, want_dtype):
            arr = _check_state_array(state[si], want_dtype, f"state slot {si}")
            writable.append((f"state{si}", arr))
            return arr

        def image_array(name):
            img = images.get(name)
            if img is None:
                raise CodegenError(f"native backend: image {name!r} is not bound")
            data = np.asarray(img.data)
            if data.dtype != real_dtype:
                raise CodegenError(
                    f"native backend: image {name!r} has dtype {data.dtype}, "
                    f"expected {real_dtype}"
                )
            data = np.ascontiguousarray(data)
            self._keep.append(data)
            return data

        rp_bufs = []
        for entry in plan["real_ptrs"]:
            kind = entry[0]
            if kind == "image":
                arr = image_array(entry[1])
            elif kind == "global":
                arr = np.ascontiguousarray(
                    np.asarray(global_values[entry[1]], dtype=real_dtype)
                ).reshape(-1)
                self._keep.append(arr)
            else:  # ("state", si)
                arr = state_array(entry[1], real_dtype)
            rp_bufs.append(self._buf(real_ctype, arr, writable=kind == "state"))

        ip_bufs = []
        for entry in plan["int_ptrs"]:
            if entry[0] == "status":
                arr = _check_state_array(status, np.int64, "status")
                writable.append(("status", arr))
            else:
                arr = state_array(entry[1], np.int64)
            ip_bufs.append(self._buf("int64_t[]", arr, writable=True))

        bp_bufs = [
            self._buf("unsigned char[]", state_array(entry[1], np.bool_),
                      writable=True)
            for entry in plan["bool_ptrs"]
        ]

        # The kernel writes every state array in place; aliased arrays would
        # double-apply updates, so refuse them (Program then uses NumPy).
        for i in range(len(writable)):
            for j in range(i + 1, len(writable)):
                if np.may_share_memory(writable[i][1], writable[j][1]):
                    raise CodegenError(
                        f"native backend: arrays {writable[i][0]} and "
                        f"{writable[j][0]} share memory"
                    )

        sc = np.zeros(max(len(plan["sc"]), 1), dtype=np.float64)
        entries = plan["sc"]
        i = 0
        while i < len(entries):
            entry = entries[i]
            if entry[0] == "global":
                sc[i] = float(global_values[entry[1]])
                i += 1
                continue
            kind, name = entry
            orient = images[name].orientation
            if kind == "origin":
                vals = np.asarray(orient.origin, dtype=np.float64).reshape(-1)
            elif kind == "minv":
                vals = np.asarray(orient._m_inv, dtype=np.float64).reshape(-1)
            elif kind == "gxf":
                vals = np.asarray(orient._m_inv_t, dtype=np.float64).reshape(-1)
            else:
                raise CodegenError(f"native backend: unknown sc entry {entry!r}")
            sc[i : i + vals.size] = vals
            i += vals.size

        ic = np.zeros(max(len(plan["ic"]), 1), dtype=np.int64)
        entries = plan["ic"]
        i = 0
        while i < len(entries):
            entry = entries[i]
            if entry[0] == "global":
                ic[i] = int(global_values[entry[1]])
                i += 1
                continue
            if entry[0] in ("iter_size", "iter_lo"):
                # the comprehension grid; only dd_init reads it
                if grid is not None:
                    sizes, los = grid
                    vals = los if entry[0] == "iter_lo" else sizes
                    ic[i] = vals[entry[1]]
                i += 1
                continue
            kind, name = entry
            if kind != "sizes":
                raise CodegenError(f"native backend: unknown ic entry {entry!r}")
            dim = plan["image_meta"][name]["dim"]
            sizes = np.asarray(images[name].data.shape[:dim], dtype=np.int64)
            ic[i : i + dim] = sizes
            i += dim

        self._keep.extend((sc, ic))
        ffi = self._ffi
        self._rp = (
            ffi.new("void *[]", [ffi.cast("void *", b) for b in rp_bufs])
            if rp_bufs
            else ffi.NULL
        )
        self._ip = ffi.new("int64_t *[]", ip_bufs) if ip_bufs else ffi.NULL
        self._bp = ffi.new("unsigned char *[]", bp_bufs) if bp_bufs else ffi.NULL
        self._keep.extend((rp_bufs, ip_bufs, bp_bufs))
        self._sc = self._buf("double[]", sc)
        self._ic = self._buf("int64_t[]", ic)

    def _buf(self, ctype, arr, writable=False):
        buf = self._ffi.from_buffer(ctype, arr, require_writable=writable)
        self._keep.append(buf)
        return buf

    def run_range(self, idx: np.ndarray, start: int = 0, end: int | None = None) -> None:
        """Run the native update over lanes ``idx[start:end]``.

        ``idx`` holds strand indices into the flat state buffers.  Raises
        :class:`RuntimeErrorD` on an integer division by zero, mirroring
        the NumPy backend's live-lane contract.
        """
        idx = np.ascontiguousarray(idx, dtype=np.int64)
        if end is None:
            end = idx.shape[0]
        n = int(end) - int(start)
        if n <= 0:
            return
        # Dense fast path: a contiguous ascending index run maps lanes
        # directly (lane == k), so pass NULL and let the kernel skip the
        # per-lane gather.  The span check is O(1); the full stride-1
        # confirmation only runs when the span already matches.
        seg = idx[int(start) : int(end)]
        first = int(seg[0])
        if int(seg[-1]) - first == n - 1 and (
            n <= 2 or bool(np.all(np.diff(seg) == 1))
        ):
            idx_buf = self._ffi.NULL
            start, end = first, first + n
        else:
            idx_buf = self._ffi.from_buffer("int64_t[]", idx)
        m = _mx.ACTIVE
        if m.enabled:
            t0 = time.perf_counter()
            rc = self._lib.dd_update(
                self._rp, self._ip, self._bp, self._sc, self._ic,
                idx_buf, int(start), int(end),
            )
            m.op("native_update", n, time.perf_counter() - t0)
        else:
            rc = self._lib.dd_update(
                self._rp, self._ip, self._bp, self._sc, self._ic,
                idx_buf, int(start), int(end),
            )
        # 0: every strand still running, 2: some stabilized or died
        if rc == 1:
            raise RuntimeErrorD("integer division by zero")
        if rc not in (0, 2):
            raise RuntimeErrorD(f"native update failed with code {rc}")

    def init(self, idx: np.ndarray | None, n: int) -> None:
        """Create strands natively: run seed + init for strand ids
        ``idx`` (all ``n`` strands ``0 .. n - 1`` when ``idx`` is None)
        and write every state slot in place.  Needs the ``grid`` the
        binder was given.  Raises :class:`RuntimeErrorD` on an integer
        division by zero."""
        if idx is None:
            idx_buf = self._ffi.NULL
        else:
            idx = np.ascontiguousarray(idx, dtype=np.int64)
            n = idx.shape[0]
            idx_buf = self._ffi.from_buffer("int64_t[]", idx)
        if n <= 0:
            return
        t0 = time.perf_counter()
        rc = self._lib.dd_init(self._rp, self._ip, self._bp, self._sc,
                               self._ic, idx_buf, int(n))
        _mx.ACTIVE.op("native_init", int(n), time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeErrorD("integer division by zero")

    def run_loop(self, active: np.ndarray, block_size: int,
                 max_steps: int | None, fold=None) -> tuple[int, np.ndarray]:
        """Run whole super-steps in C (``dd_run``) until every strand in
        ``active`` (ascending strand ids) has left, or ``max_steps``
        steps have run.  Returns ``(steps, still_active_ids)``.

        ``dd_run`` returns to Python every :data:`LOOP_CAP` steps (or
        sooner when its per-block buffer fills), so memory stays bounded
        and a long run stays interruptible.  After each such chunk
        ``fold(first_step, tally, step_seconds, block_seconds)`` receives
        the chunk's per-step ``(active, stable, died, blocks)`` rows and
        timings.  A division by zero raises :class:`RuntimeErrorD` after
        the completed steps were folded.
        """
        if block_size <= 0:
            raise ValueError("block size must be positive")
        active = np.array(active, dtype=np.int64)  # compacted in place
        n = int(active.shape[0])
        ffi = self._ffi
        cap = LOOP_CAP
        blocks0 = -(-n // block_size)
        block_cap = max(blocks0, min(cap * blocks0, 1 << 16))
        tally = np.empty((cap, 4), dtype=np.int64)
        step_s = np.empty(cap)
        block_s = np.empty(block_cap)
        active_buf = ffi.from_buffer("int64_t[]", active)
        tally_buf = ffi.from_buffer("int64_t[]", tally)
        step_buf = ffi.from_buffer("double[]", step_s)
        block_buf = ffi.from_buffer("double[]", block_s)
        steps = 0
        while n and (max_steps is None or steps < max_steps):
            limit = -1 if max_steps is None else max_steps - steps
            k = self._lib.dd_run(
                self._rp, self._ip, self._bp, self._sc, self._ic,
                active_buf, n, int(block_size), limit, tally_buf, step_buf,
                block_buf, block_cap, cap,
            )
            failed = k < 0
            if failed:
                k = -k - 1
            if k:
                last = tally[k - 1]
                n = int(last[0] - last[1] - last[2])
                if fold is not None:
                    nb = int(tally[:k, 3].sum())
                    fold(steps, tally[:k], step_s[:k], block_s[:nb])
                steps += k
            if failed:
                raise RuntimeErrorD("integer division by zero")
            if not k:  # unreachable: the first step always fits the buffers
                raise RuntimeErrorD("native super-step loop made no progress")
        return steps, active[:n]
