"""Per-layer tracing of the pipeline, recorded from outside the package.

The tracer replaces, for each traced operation only, the names the
pipeline looks up at call time (module globals such as
``curldiv.cli.solve_spd``) with wrappers that open a span around the call,
and puts the originals back when the operation ends, so that untraced
operations can alternate with traced ones in one run.  Nothing under
``src/`` is edited.  Spans are kept in memory; ``dump``
writes them out when the run ends.

A span's self time is its duration less the durations of the spans it
caused.  Each operation is the root span ``op.other``, whose self time is
the part of the operation that no layer span covers, so the self times of
one operation add up to its wall time exactly.  A span's memory figure is
the rise of the ``tracemalloc`` peak over the traced memory at span entry.
``tracemalloc`` slows allocation-heavy Python code several times over, so
it runs only in operations traced for memory, and times come from
operations traced for time alone.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict

import numpy as np
import scipy.sparse as sp

MB = float(1 << 20)

# Layer spans in report order; "op.other" is the operation itself.
SPANS = (
    "msh.read", "mesh.build", "mesh.incidence", "mesh.boundary",
    "topology.tree", "topology.surface_cycles", "topology.homology",
    "topology.betti", "mms.data", "solver.validate", "lifts.rt",
    "lifts.clean_curl", "lifts.nedelec", "gauge.basis",
    "solver.assemble.tangential", "solver.assemble.normal",
    "solver.cg.tangential", "solver.cg.normal", "solver.recover",
    "cli.checks", "vtk.write", "op.other",
)

COUNTERS = (
    "solver.cg_iterations.tangential", "solver.cg_iterations.normal",
    "solver.K_dim.tangential", "solver.K_dim.normal",
    "solver.K_nnz.tangential", "solver.K_nnz.normal",
    "lifts.lstsq_unknowns", "lifts.lstsq_rows",
)


def metric_units() -> dict:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for span in SPANS:
        units[f"{span}.s"] = "s"
        if span != "op.other":
            units[f"{span}.peak_mb"] = "MB"
    units.update({"op.s": "s", "op.peak_mb": "MB", "trace.overhead_s": "s"})
    units.update({c: "count" for c in COUNTERS})
    return units


class CountingMatrix:
    """Stand-in for ``AssembledSystem.K`` that counts products with K.

    ``solve_spd`` uses only ``.shape``, ``.diagonal()`` and ``@``, and
    performs one product per CG iteration.
    """

    def __init__(self, K, formulation: str):
        self.K = K
        self.shape = K.shape
        self.formulation = formulation
        self.products = 0

    def diagonal(self):
        return self.K.diagonal()

    def __matmul__(self, x):
        self.products += 1
        return self.K @ x


class _Module:
    """A module seen through a few replaced attributes."""

    def __init__(self, base, **replaced):
        self._base = base
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._base, name)


class _Frame:
    __slots__ = ("name", "id", "parent", "start", "child", "mem0", "peak")

    def __init__(self, name, span_id, parent, memory):
        self.name = name
        self.id = span_id
        self.parent = parent
        self.child = 0.0
        self.mem0, self.peak = (tracemalloc.get_traced_memory() if memory
                                else (0, 0))
        self.start = time.perf_counter()


class Tracer:
    def __init__(self, workloads):
        self.spans = []         # every span of every traced operation
        self.ops = []           # per operation: self times, peaks, counters
        self._stack = []
        self._memory = False
        self._replace = self._wrappers(workloads)

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        if self._memory:
            if parent is not None:
                parent.peak = max(parent.peak,
                                  tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        self._stack.append(_Frame(name, len(self.spans),
                                  parent.id if parent else None, self._memory))
        self.spans.append(None)             # filled in at exit

    def _exit(self) -> None:
        end = time.perf_counter()
        f = self._stack.pop()
        peak = (max(f.peak, tracemalloc.get_traced_memory()[1])
                if self._memory else 0)
        duration = end - f.start
        if self._stack:
            parent = self._stack[-1]
            parent.child += duration
            parent.peak = max(parent.peak, peak)
        op = self.ops[-1]
        self_s = duration - f.child
        rise = (peak - f.mem0) / MB
        op["self_s"][f.name] += self_s
        op["peak_mb"][f.name] = max(op["peak_mb"][f.name], rise)
        self.spans[f.id] = {"op": len(self.ops) - 1, "id": f.id,
                            "parent": f.parent, "name": f.name,
                            "start": f.start, "end": end,
                            "self_s": self_s, "peak_mb": rise}

    def operation(self, fn, *args, memory: bool = False):
        """Run one operation as the root span and return its result.

        With ``memory`` the operation is traced for memory, not for time.
        """
        self.ops.append({"memory": memory, "self_s": defaultdict(float),
                         "peak_mb": defaultdict(float),
                         "counters": defaultdict(int)})
        root = len(self.spans)
        self._memory = memory
        for module, name, _, wrapper in self._replace:
            setattr(module, name, wrapper)
        if memory:
            tracemalloc.start()
        self._enter("op.other")
        try:
            return fn(*args)
        finally:
            self._exit()
            if memory:
                tracemalloc.stop()
            self._memory = False
            for module, name, original, _ in reversed(self._replace):
                setattr(module, name, original)
            self.ops[-1]["total_s"] = (self.spans[root]["end"]
                                       - self.spans[root]["start"])

    def _count(self, name: str, value: int) -> None:
        self.ops[-1]["counters"][name] += int(value)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    def _assemble(self, formulation, fn):
        traced = self._span(f"solver.assemble.{formulation}", fn)

        @functools.wraps(fn)
        def assemble(*args, **kwargs):
            system = traced(*args, **kwargs)
            self._count(f"solver.K_dim.{formulation}", system.K.shape[0])
            self._count(f"solver.K_nnz.{formulation}", system.K.nnz)
            system.K = CountingMatrix(system.K, formulation)
            return system
        return assemble

    def _solve(self, fn):
        @functools.wraps(fn)
        def solve(system, *args, **kwargs):
            form = system.K.formulation
            self._enter(f"solver.cg.{form}")
            try:
                return fn(system, *args, **kwargs)
            finally:
                self._exit()
                self._count(f"solver.cg_iterations.{form}",
                            system.K.products)
        return solve

    def _least_squares(self, fn):
        @functools.wraps(fn)
        def solve(A, *args, **kwargs):
            self._count("lifts.lstsq_rows", A.shape[0])
            self._count("lifts.lstsq_unknowns", A.shape[1])
            return fn(A, *args, **kwargs)
        return solve

    def _wrappers(self, workloads) -> list:
        """(module, name, original, wrapper) for each layer entry point,
        named where the pipeline looks it up."""
        import curldiv.cli as cli
        import curldiv.lifts as lifts
        import curldiv.mesh as mesh
        import curldiv.msh as msh
        s = self._span
        replace = [
            (msh, "read_gmsh", s("msh.read", msh.read_gmsh)),
            (msh, "build_mesh", s("mesh.build", msh.build_mesh)),
            (mesh, "derive_incidence",
             s("mesh.incidence", mesh.derive_incidence)),
            (mesh, "extract_boundary",
             s("mesh.boundary", mesh.extract_boundary)),
            (cli, "build_boundary_first_tree",
             s("topology.tree", cli.build_boundary_first_tree)),
            (cli, "surface_cycle_basis",
             s("topology.surface_cycles", cli.surface_cycle_basis)),
            (cli, "domain_homology_basis",
             s("topology.homology", cli.domain_homology_basis)),
            (cli, "betti", s("topology.betti", cli.betti)),
            (cli, "discrete_alpha", s("mms.data", cli.discrete_alpha)),
            (cli, "discrete_beta", s("mms.data", cli.discrete_beta)),
            (cli, "interpolate", s("mms.data", cli.interpolate)),
            (cli, "validate_tangential",
             s("solver.validate", cli.validate_tangential)),
            (cli, "rt_potential", s("lifts.rt", cli.rt_potential)),
            (cli, "clean_curl_data",
             s("lifts.clean_curl", cli.clean_curl_data)),
            (cli, "nedelec_potential",
             s("lifts.nedelec", cli.nedelec_potential)),
            (cli, "build_N_star", s("gauge.basis", cli.build_N_star)),
            (cli, "build_L_star", s("gauge.basis", cli.build_L_star)),
            (cli, "assemble_tangential",
             self._assemble("tangential", cli.assemble_tangential)),
            (cli, "assemble_normal",
             self._assemble("normal", cli.assemble_normal)),
            (cli, "solve_spd", self._solve(cli.solve_spd)),
            (cli, "recover_solution",
             s("solver.recover", cli.recover_solution)),
            (cli, "solve_on_mesh", s("cli.checks", cli.solve_on_mesh)),
            (workloads, "export", s("vtk.write", workloads.export)),
            (lifts, "np", _Module(np, linalg=_Module(
                np.linalg,
                lstsq=self._least_squares(np.linalg.lstsq)))),
            (lifts, "sp", _Module(sp, linalg=_Module(
                sp.linalg, lsqr=self._least_squares(sp.linalg.lsqr)))),
        ]
        return [(module, name, getattr(module, name), wrapper)
                for module, name, wrapper in replace]

    # -- results ----------------------------------------------------------

    def metrics(self, untraced_op_s: float) -> dict:
        """Per-layer figures of the median operation traced for time.

        The median operation is the one whose traced wall time is the
        (lower) median, so its span self times add up to ``op.s``.  The
        memory figures are the largest over the operations traced for
        memory.  ``trace.overhead_s`` is ``op.s`` less ``untraced_op_s``,
        the median of the untraced operations that alternated with the
        traced ones.
        """
        timed = sorted((o for o in self.ops if not o["memory"]),
                       key=lambda o: o["total_s"])
        op = timed[(len(timed) - 1) // 2]
        peaks = defaultdict(float)
        for o in self.ops:
            if o["memory"]:
                for span, mb in o["peak_mb"].items():
                    peaks[span] = max(peaks[span], mb)
        units = metric_units()
        values = {}
        for span in SPANS:
            values[f"{span}.s"] = op["self_s"].get(span, 0.0)
            if span != "op.other":
                values[f"{span}.peak_mb"] = peaks[span]
        values["op.s"] = op["total_s"]
        values["op.peak_mb"] = peaks["op.other"]
        values["trace.overhead_s"] = op["total_s"] - untraced_op_s
        for c in COUNTERS:
            values[c] = op["counters"].get(c, 0)
        return {k: {"value": values[k], "unit": units[k]} for k in units}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "ops": [{"memory": o["memory"],
                                "total_s": o["total_s"],
                                "self_s": dict(o["self_s"]),
                                "peak_mb": dict(o["peak_mb"]),
                                "counters": dict(o["counters"])}
                               for o in self.ops]}, fh, indent=1)
