"""Spans around formdec's public functions, recorded from outside the package.

``Tracer.install()`` rebinds every public module-level function of every
loaded ``formdec`` module in every ``formdec`` namespace that holds it (a
function imported by name, such as ``integrate_cycle_mean`` in ``em``,
``cohomology`` and ``decompose``, is rebound in each).  It also wraps the
``DiscreteForm`` arithmetic and ``PeriodicGrid.zeros`` as ``mesh.form_ops``,
``numpy.fft.fftn/ifftn`` as ``numpy.fft`` and ``scipy.sparse.linalg.minres``
as ``scipy.minres``.  ``uninstall()`` puts every original binding back; no
file of the package is touched.

Each call is a span with a name, start, end and parent.  Per span name the
tracer keeps the call count, total time (outermost calls of that name only),
self time (duration minus the time covered by child spans) and, for
``calculus.partial`` and ``numpy.fft``, the number of grid points handled.
Spans themselves are kept only while ``record_spans`` is set, so that a long
traced phase does not grow memory.
"""

from __future__ import annotations

import functools
import sys
import time
import types

FORM_OPS = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "copy")


class Stat:
    __slots__ = ("calls", "total", "self", "points", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.points = 0
        self.depth = 0


class SolveHook:
    """Reads each green_solve's SolveReport and the minres calls it made."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.minres_iters = 0
        self.restarts = 0
        self.deflated_dims = 0

    def enter(self):
        return self.tracer.stat("scipy.minres").calls

    def exit(self, before, result):
        minres_calls = self.tracer.stat("scipy.minres").calls - before
        report = result[1]
        self.deflated_dims += report.deflated_dims
        if minres_calls:
            self.minres_iters += report.iterations
            self.restarts += minres_calls - 1


def _points(arr, *_args, **_kwargs):
    return getattr(arr, "size", 0)


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []
        self.record_spans = False
        self.solve = SolveHook(self)
        self._stack = []
        self._patches = []

    def stat(self, name):
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = Stat()
        return s

    def reset(self):
        self.stats = {}
        self.spans = []
        self.solve = SolveHook(self)
        # wrappers look their Stat up by name on each call, so a reset is seen

    def _wrap(self, name, fn, points=None, hook=None):
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat = self.stat(name)
            h = self.solve if hook else None
            token = h.enter() if h else None
            frame = [0.0, len(self.spans) if self.record_spans else -1]
            parent = stack[-1][1] if stack else -1
            if frame[1] >= 0:
                self.spans.append(None)
            stack.append(frame)
            stat.depth += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                stat.depth -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                stat.calls += 1
                stat.self += dur - frame[0]
                if stat.depth == 0:
                    stat.total += dur
                if points is not None:
                    stat.points += points(*args, **kwargs)
                if frame[1] >= 0:
                    self.spans[frame[1]] = (name, t0, t1, parent)
            if h:
                h.exit(token, result)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Rebind every traced function; call uninstall() to undo."""
        import numpy.fft
        import scipy.sparse.linalg

        from formdec import mesh

        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items()) if k == "formdec" or k.startswith("formdec.")]
        wrapped = {}
        for module in modules:
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if not fn.__module__.startswith("formdec.") or fn.__name__.startswith("_"):
                    continue
                if id(fn) not in wrapped:
                    name = fn.__module__.split(".", 1)[1] + "." + fn.__name__
                    wrapped[id(fn)] = self._wrap(
                        name,
                        fn,
                        points=_points if name == "calculus.partial" else None,
                        hook=name == "calculus.green_solve",
                    )
                self._set(module, attr, wrapped[id(fn)])
        for attr in FORM_OPS:
            self._set(mesh.DiscreteForm, attr, self._wrap("mesh.form_ops", vars(mesh.DiscreteForm)[attr]))
        self._set(mesh.PeriodicGrid, "zeros", self._wrap("mesh.form_ops", mesh.PeriodicGrid.zeros))
        for attr in ("fftn", "ifftn"):
            self._set(numpy.fft, attr, self._wrap("numpy.fft", getattr(numpy.fft, attr), points=_points))
        self._set(scipy.sparse.linalg, "minres", self._wrap("scipy.minres", scipy.sparse.linalg.minres))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# Groups of span names reported as one layer metric.
GROUPS = {
    "mesh.integrate": ("mesh.integrate_manifold", "mesh.integrate_cycle", "mesh.integrate_cycle_mean"),
    "cohomology.matrices": ("cohomology.matrix_E", "cohomology.matrix_T", "cohomology.matrix_Lambda"),
    "decompose.residuals": ("decompose.decomposition_residuals",),
}


# Reported for one traced state build plus one op, so that they read the
# set-up cost on warm workloads and the per-op cost on cli-readme.
SETUP_LAYERS = ("cohomology.build_basis.total_s", "cohomology.matrices.total_s")


def layer_metrics(tracer, ops):
    """Per-op layer numbers from a tracer that saw ``ops`` ops."""

    def agg(name, field):
        names = GROUPS.get(name, (name,))
        return sum(getattr(tracer.stats[n], field) for n in names if n in tracer.stats)

    cli_self = sum(s.self for n, s in tracer.stats.items() if n.startswith("cli."))
    out = {
        "calculus.partial.calls": agg("calculus.partial", "calls"),
        "calculus.partial.points": agg("calculus.partial", "points"),
        "calculus.partial.self_s": agg("calculus.partial", "self"),
        "numpy.fft.calls": agg("numpy.fft", "calls"),
        "numpy.fft.points": agg("numpy.fft", "points"),
        "numpy.fft.self_s": agg("numpy.fft", "self"),
        "calculus.green_solve.calls": agg("calculus.green_solve", "calls"),
        "calculus.green_solve.total_s": agg("calculus.green_solve", "total"),
        "calculus.green_solve.self_s": agg("calculus.green_solve", "self"),
        "calculus.green_solve.minres_iters": tracer.solve.minres_iters,
        "calculus.green_solve.restarts": tracer.solve.restarts,
        "calculus.green_solve.deflated_dims": tracer.solve.deflated_dims,
        "calculus.d.calls": agg("calculus.d", "calls"),
        "calculus.d.self_s": agg("calculus.d", "self"),
        "calculus.star.calls": agg("calculus.star", "calls"),
        "calculus.star.self_s": agg("calculus.star", "self"),
        "calculus.delta.calls": agg("calculus.delta", "calls"),
        "calculus.laplacian.calls": agg("calculus.laplacian", "calls"),
        "calculus.laplacian.total_s": agg("calculus.laplacian", "total"),
        "mesh.form_ops.calls": agg("mesh.form_ops", "calls"),
        "mesh.form_ops.self_s": agg("mesh.form_ops", "self"),
        "mesh.integrate.self_s": agg("mesh.integrate", "self"),
        "mesh.wedge.self_s": agg("mesh.wedge", "self"),
        "cohomology.build_basis.total_s": agg("cohomology.build_basis", "total"),
        "cohomology.matrices.total_s": agg("cohomology.matrices", "total"),
        "decompose.hodge_decompose.total_s": agg("decompose.hodge_decompose", "total"),
        "decompose.hodge_decompose.self_s": agg("decompose.hodge_decompose", "self"),
        "decompose.norm_decompose.total_s": agg("decompose.norm_decompose", "total"),
        "decompose.residuals.total_s": agg("decompose.residuals", "total"),
        "em.potentials.total_s": agg("em.potentials", "total"),
        "em.potentials.self_s": agg("em.potentials", "self"),
        "em.currents.total_s": agg("em.currents", "total"),
        "em.action.total_s": agg("em.action", "total"),
        "em.maxwell_residuals.total_s": agg("em.maxwell_residuals", "total"),
        "taxonomy.solve_group.calls": agg("taxonomy.solve_group", "calls"),
        "taxonomy.solve_group.self_s": agg("taxonomy.solve_group", "self"),
        "cli.main.calls": agg("cli.main", "calls"),
        "cli.self_s": cli_self,
    }
    return {k: v / ops for k, v in out.items()}
