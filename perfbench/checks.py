"""Output checks against references that do not share the compiler.

Every check runs outside the timed intervals and returns a list of
problems (empty when the output is right).

* vr-lite, illust-vr, lic2d, ridge3d: the hand-written gage programs of
  :mod:`repro.baselines`, on a seeded sample of strands, at the
  tolerances of the differential tests (1e-12, or 1e-10 where the
  program takes eigenvectors or a Hessian); particle positions are
  compared relative to ``max(1, |position|)``.
* isocontour: the HighIR reference interpreter, stepped over a seeded
  sample of strands.
* ``/probe`` rows: direct :class:`repro.gage.Context` probes of F and ∇F.
* ``/update`` results: bit-identical to a cold run on the patched image
  (see :mod:`wl_serve`).
"""

from __future__ import annotations

import hashlib

import numpy as np

TOL = {"vr-lite": 1e-12, "illust-vr": 1e-10, "lic2d": 1e-12,
       "ridge3d": 1e-10, "isocontour": 1e-10}

#: strands sampled per checked output
RAY_SAMPLES = 12
ISO_SAMPLES = 64


def _lattices(full: int, smallest: int, largest: int) -> list[int]:
    """Sub-lattice sizes ``n`` with ``(full-1) % (n-1) == 0``."""
    return [n for n in range(smallest, largest + 1) if (full - 1) % (n - 1) == 0]


def _camera_kwargs(inputs: dict) -> dict:
    kw = {}
    for src, dst in (("cVec", "c_vec"), ("rVec", "r_vec"),
                     ("imgResU", "res_u"), ("imgResV", "res_v")):
        if src in inputs:
            kw[dst] = inputs[src]
    return kw


def _check_rays(case, out, rng, images) -> list[str]:
    from repro.baselines import illust_vr, vr_lite

    kw = _camera_kwargs(case.inputs)
    res_u, res_v = kw.pop("res_u", 100), kw.pop("res_v", 100)
    c_vec = np.asarray(kw.pop("c_vec", (0.3, 0.0, 0.0)), dtype=np.float64)
    r_vec = np.asarray(kw.pop("r_vec", (0.0, 0.3, 0.0)), dtype=np.float64)
    orig = np.array([-15.0, -15.0, 45.0])
    if out.shape[:2] != (res_v, res_u):
        return [f"{case.name}: output shape {out.shape}, expected "
                f"({res_v}, {res_u}, ...)"]
    problems = []
    for _ in range(RAY_SAMPLES):
        vi, ui = int(rng.integers(res_v)), int(rng.integers(res_u))
        # a 1x1 render whose pixel (0, 0) is the sampled ray; the origin
        # is accumulated in the program's own order, orig + vi*r + ui*c
        o = orig + float(vi) * r_vec + float(ui) * c_vec
        one = dict(res_u=1, res_v=1, orig=o, c_vec=c_vec, r_vec=r_vec)
        if case.name == "vr-lite":
            ref = vr_lite.run(images["img"], **one)[0, 0]
        else:
            ref = illust_vr.run(images["img"], images["xfer"], **one)[0, 0]
        err = float(np.max(np.abs(np.asarray(out[vi, ui]) - ref)))
        if not err <= TOL[case.name]:
            problems.append(f"{case.name}: pixel ({vi},{ui}) off by {err:.3g}")
    return problems


def _check_lic(case, out, rng, images) -> list[str]:
    from repro.baselines import lic2d

    full_u = case.inputs.get("imgResU", 250)
    full_v = case.inputs.get("imgResV", 250)
    if out.shape != (full_v, full_u):
        return [f"lic2d: output shape {out.shape}, expected ({full_v}, {full_u})"]
    choices = _lattices(full_u, 3, 7)
    if full_u != full_v or not choices:
        return ["lic2d: the sub-lattice check needs a square seed grid "
                "whose size less one has a divisor up to 6"]
    n = int(rng.choice(choices))
    step = (full_u - 1) // (n - 1)
    ref = lic2d.run(images["vectors"], images["rand"], res_u=n, res_v=n)
    err = float(np.max(np.abs(out[::step, ::step] - ref)))
    if not err <= TOL["lic2d"]:
        return [f"lic2d: {n}x{n} sub-lattice off by {err:.3g}"]
    return []


def _check_ridge(case, out, rng, images) -> list[str]:
    """A seeded sub-lattice of the particle grid, run through the baseline.

    Lattices below 4^3 hold no stable particle on the lung volume.  When
    ``gridRes - 1`` has no usable divisor (the default 12), the baseline
    instead runs the 2^3 cube of particles at ``±x_i`` for a seeded grid
    coordinate ``x_i``, which are also particles of the full grid; the
    first cube in seeded order that holds a stable particle is compared.
    """
    from repro.baselines import ridge3d

    full = case.inputs.get("gridRes", 12)
    ext = 12.0
    choices = _lattices(full, 4, 7)
    if choices:
        n = int(rng.choice(choices))
        ref = ridge3d.run(images["img"], grid_res=n, grid_ext=ext)
        return _match_points("ridge3d", out, ref, f"{n}^3 sub-lattice")
    for i in rng.permutation(full // 2):
        corner = abs(ext * (2.0 * float(i) / (full - 1) - 1.0))
        ref = ridge3d.run(images["img"], grid_res=2, grid_ext=corner)
        if len(ref):
            return _match_points("ridge3d", out, ref, f"±{corner:g} cube")
    return ["ridge3d: no reference cube holds a stable particle"]


def _match_points(name, out, ref, what) -> list[str]:
    """Every reference particle must appear among the program's outputs.

    Collection outputs hold only the stable strands, so a sampled strand
    is found by position rather than by index.
    """
    out, ref = np.asarray(out), np.asarray(ref)
    if not len(ref):
        return [f"{name}: the {what} has no stable strand to compare"]
    if out.ndim != 2 or out.shape[1] != ref.shape[1]:
        return [f"{name}: output has shape {out.shape}"]
    problems = []
    for p in np.asarray(ref):
        # relative to the coordinates' size, like the repo's 1e-12 relative
        # backend contract: isocontour positions reach a few hundred, and
        # Newton steps carry rounding differences of the optimized code
        # forward (measured up to 1.3e-10 absolute at |p| ~ 72)
        tol = TOL[name] * max(1.0, float(np.max(np.abs(p))))
        err = float(np.min(np.max(np.abs(out - p), axis=1))) if len(out) else np.inf
        if not err <= tol:
            problems.append(f"{name}: reference particle {p.tolist()} from the "
                            f"{what} has no output within {tol:.3g} "
                            f"(nearest {err:.3g})")
            break
    return problems


def interpret_strands(hp, images: dict, inputs: dict, iters, max_steps=1000):
    """Step the HighIR interpreter over the strands at ``iters``.

    ``iters`` holds one array per comprehension iterator.  Returns the
    final state (by name) and the status codes (1 stable, 2 died).
    """
    from repro.core.codegen.interp import HighInterpreter

    interp = HighInterpreter(hp, images)
    defaults = dict(zip(hp.defaults_func.result_names,
                        interp.call(hp.defaults_func, [])))
    env = {n: inputs.get(n, defaults.get(n)) for n in hp.input_names}
    derived = interp.call(hp.globals_func, [env[n] for n in hp.input_names])
    env.update(zip(hp.globals_func.result_names, derived))
    g = [env[n] for n in hp.concrete_globals]
    lanes = len(iters[0])
    params = interp.call(hp.seed_func, g + list(iters))
    state = []
    for arr in interp.call(hp.init_func, g + list(params)):
        arr = np.asarray(arr)
        if arr.shape[:1] != (lanes,):
            arr = np.broadcast_to(arr, (lanes,) + arr.shape)
        state.append(np.array(arr))
    status = np.zeros(lanes, dtype=np.int64)
    active = np.arange(lanes)
    for _ in range(max_steps):
        if not active.size:
            break
        res = interp.call(hp.update_func, g + [s[active] for s in state])
        for s, new in zip(state, res[:-1]):
            s[active] = new
        st = np.broadcast_to(np.asarray(res[-1]), active.shape)
        status[active] = st
        active = active[st == 0]
    names = hp.update_func.result_names[:-1]
    return dict(zip(names, state)), status


def _check_iso(case, out, rng, images) -> list[str]:
    from repro.core.codegen.interp import compile_high

    with open(case.path, encoding="utf-8") as fp:
        hp = compile_high(fp.read())
    if hp.stabilize_func is not None:
        return ["isocontour: the interpreter check assumes no stabilize method"]
    inputs = dict(case.inputs)
    res = case.phantom or 100
    inputs.setdefault("resU", res)
    inputs.setdefault("resV", res)
    vi = rng.integers(inputs["resV"], size=ISO_SAMPLES)
    ui = rng.integers(inputs["resU"], size=ISO_SAMPLES)
    by_iter = {"vi": vi, "ui": ui}
    state, status = interpret_strands(
        hp, images, inputs, [by_iter[n] for n in hp.iter_names])
    ref = state["pos"][status == 1]
    return _match_points("isocontour", out, ref, "interpreted sample")


_CHECKS = {
    "vr-lite": _check_rays,
    "illust-vr": _check_rays,
    "lic2d": _check_lic,
    "ridge3d": _check_ridge,
    "isocontour": _check_iso,
}


def digest(arr) -> bytes:
    """A fingerprint of an output array's bytes, for bit-identity checks."""
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(),
                           digest_size=16).digest()


def check_output(case, out, rng, images=None) -> list[str]:
    """Problems with ``out`` (the program's only output) for ``case``."""
    out = np.asarray(out)
    if not np.all(np.isfinite(out)):
        return [f"{case.name}: output holds non-finite values"]
    return _CHECKS[case.name](case, out, rng, images or case.images())


class ProbeOracle:
    """F and ∇F at arbitrary points of the hand volume, probed via gage."""

    def __init__(self, image):
        from repro.gage import Context
        from repro.kernels import bspln3

        ctx = Context(image)
        ctx.kernel_set(0, bspln3)
        ctx.kernel_set(1, bspln3.derivative())
        ctx.query_on("value")
        ctx.query_on("gradient")
        ctx.update()
        self._ctx = ctx
        self._val = ctx.answer("value")
        self._grad = ctx.answer("gradient")

    def __call__(self, point) -> np.ndarray:
        """``[F, ∂F/∂x, ∂F/∂y, ∂F/∂z]``; zeros outside the domain."""
        if not self._ctx.probe(np.asarray(point, dtype=np.float64)):
            return np.zeros(4)
        return np.concatenate([[float(self._val)], self._grad])

    def check(self, points, rows, rng, samples: int, tol: float = 1e-10):
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape != (len(points), 4):
            return [f"probe: response rows have shape {rows.shape}, "
                    f"expected ({len(points)}, 4)"]
        for i in rng.choice(len(points), size=min(samples, len(points)),
                            replace=False):
            ref = self(points[i])
            err = float(np.max(np.abs(rows[i] - ref)))
            if not err <= tol * max(1.0, float(np.max(np.abs(ref)))):
                return [f"probe: row {i} at {list(points[i])} off by {err:.3g}"]
        return []
