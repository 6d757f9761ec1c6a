"""The paper's Table-2 programs, as each workload runs them.

``cli-c`` runs every program at its default inputs, exactly as the
example files declare them.  ``render-c`` sizes each program so one run
takes at least about 50 ms of native work (ridge3d and isocontour are
only a few ms at their defaults).  ``render-numpy`` scales the programs
down so one pass over all five takes about two seconds.

Sizes that the correctness checks sample on a sub-lattice (lic2d's seed
grid, ridge3d's particle grid) are chosen so ``N - 1`` has small
divisors: a baseline run at resolution ``n`` with ``(N-1) % (n-1) == 0``
visits exactly every ``(N-1)/(n-1)``-th seed of the full grid.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from common import PROGRAMS_DIR

#: the five programs, in the paper's Table-2 order (plus isocontour)
NAMES = ("vr-lite", "illust-vr", "lic2d", "ridge3d", "isocontour")

FILES = {
    "vr-lite": "vr_lite.diderot",
    "illust-vr": "illust_vr.diderot",
    "lic2d": "lic2d.diderot",
    "ridge3d": "ridge3d.diderot",
    "isocontour": "isocontour.diderot",
}

#: the output each program writes (one per program)
OUTPUT = {
    "vr-lite": "gray",
    "illust-vr": "rgb",
    "lic2d": "sum",
    "ridge3d": "pos",
    "isocontour": "pos",
}


def _camera(res: int) -> dict:
    # keep the viewport covering the volume at a lower resolution
    return {"imgResU": res, "imgResV": res,
            "cVec": [30.0 / res, 0.0, 0.0], "rVec": [0.0, 30.0 / res, 0.0]}


@dataclass
class Case:
    """One program at one size: its input overrides and image overrides.

    ``phantom`` replaces isocontour's ``ddro`` image with a synthetic
    portrait of that size (the strand grid scales with the image, so the
    added strands do real work instead of dying outside the domain).
    """

    name: str
    inputs: dict = field(default_factory=dict)
    phantom: int | None = None

    @property
    def path(self) -> str:
        return os.path.join(PROGRAMS_DIR, FILES[self.name])

    @property
    def output(self) -> str:
        return OUTPUT[self.name]

    def compile(self):
        """Compile the example file and apply this case's inputs."""
        from repro.core.driver import compile_file

        prog = compile_file(self.path)
        self.bind(prog)
        return prog

    def bind(self, prog) -> None:
        for k, v in self.inputs.items():
            prog.set_input(k, v)
        if self.phantom is not None:
            from repro.data.synth import portrait_phantom

            prog.bind_image("ddro", portrait_phantom(self.phantom))
            prog.set_input("resU", self.phantom)
            prog.set_input("resV", self.phantom)

    def images(self) -> dict:
        """The images the program reads, loaded independently of it."""
        from repro.nrrd import read_nrrd

        def load(fname):
            return read_nrrd(os.path.join(PROGRAMS_DIR, fname))

        if self.name == "vr-lite":
            return {"img": load("hand.nrrd")}
        if self.name == "illust-vr":
            return {"img": load("hand.nrrd"), "xfer": load("xfer.nrrd")}
        if self.name == "lic2d":
            return {"vectors": load("vectors.nrrd"), "rand": load("rand.nrrd")}
        if self.name == "ridge3d":
            return {"img": load("lung.nrrd")}
        if self.phantom is not None:
            from repro.data.synth import portrait_phantom

            return {"ddro": portrait_phantom(self.phantom)}
        return {"ddro": load("ddro.nrrd")}


CASES = {
    "cli-c": {n: Case(n) for n in NAMES},
    "render-c": {
        "vr-lite": Case("vr-lite"),
        "illust-vr": Case("illust-vr"),
        "lic2d": Case("lic2d", {"imgResU": 241, "imgResV": 241}),
        "ridge3d": Case("ridge3d", {"gridRes": 37}),
        "isocontour": Case("isocontour", phantom=250),
    },
    "render-numpy": {
        "vr-lite": Case("vr-lite", _camera(50)),
        "illust-vr": Case("illust-vr", _camera(50)),
        "lic2d": Case("lic2d", {"imgResU": 101, "imgResV": 101}),
        "ridge3d": Case("ridge3d", {"gridRes": 25}),
        "isocontour": Case("isocontour", phantom=150),
    },
}
