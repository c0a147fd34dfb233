"""Spans around the calls into each capns layer, recorded from outside the
program.

A wrapper is installed by rebinding every module attribute that holds the
original function (``capns.solver.rhs_primitive``, ``numpy.fft.fftn``, ...)
so the caller's own name lookup reaches it; no file of the program changes.
Calls into ``numpy.fft`` and ``numpy.interp`` are leaves: they are counted,
timed and (for transforms) given a computed flop count on the innermost
open span instead of getting spans of their own, which keeps a run with
half a million transforms small in memory.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

import numpy as np

FFT_COMPLEX = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
FFT_REAL = ("rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")

# span name -> (module, attribute) of the function it wraps
SPAN_TARGETS = {
    "solver.run": ("capns.solver", "run"),
    "solver.step_imex": ("capns.solver", "step_imex"),
    "solver.picard_solve": ("capns.solver", "picard_solve"),
    "model.rhs_primitive": ("capns.model", "rhs_primitive"),
    "model.rhs_effective": ("capns.model", "rhs_effective"),
    "model.to_effective": ("capns.model", "to_effective"),
    "diagnostics.record": ("capns.diagnostics", "DiagnosticsAccumulator.__call__"),
    "diagnostics.write_csv": ("capns.diagnostics", "write_csv"),
    "lp_besov.block_norms": ("capns.lp_besov", "block_norms"),
    "lp_besov.tilde_norm": ("capns.lp_besov", "tilde_norm"),
    "lp_besov.besov_norm": ("capns.lp_besov", "besov_norm"),
    "lp_besov.decompose": ("capns.lp_besov", "decompose"),
    "lp_besov.block_report": ("capns.lp_besov", "block_report"),
    "lifespan.norms_for_data": ("capns.lifespan", "norms_for_data"),
    "lifespan.calibrate_c1": ("capns.lifespan", "calibrate_c1"),
    "presets.build": ("capns.presets", "build"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "index", "attrs",
                 "fft_n", "fft_t", "fft_flops", "interp_n", "interp_t")

    def __init__(self, name, start, parent, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.index = None
        self.attrs = attrs
        self.fft_n = 0
        self.fft_t = 0.0
        self.fft_flops = 0.0
        self.interp_n = 0
        self.interp_t = 0.0

    def to_dict(self):
        return {"i": self.index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "attrs": self.attrs,
                "fft_calls": self.fft_n, "fft_s": self.fft_t,
                "fft_flops": self.fft_flops, "interp_calls": self.interp_n,
                "interp_s": self.interp_t}


class Tracer:
    """Spans of one repetition, in opening order, kept in memory."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []
        self.stack = []             # open spans, innermost last
        self.loose = Span("unattributed", 0.0, None, None)

    def open(self, name, attrs=None) -> Span:
        parent = self.stack[-1].index if self.stack else None
        span = Span(name, time.perf_counter(), parent, attrs)
        span.index = len(self.spans)
        self.stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()

    def innermost(self) -> Span:
        return self.stack[-1] if self.stack else self.loose


def _axes(name, args, kwargs, ndim):
    """The axes a numpy.fft call transforms, from its arguments."""
    if name in ("fft", "ifft", "rfft", "irfft"):
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        return [axis % ndim]
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    if axes is None:
        if name.endswith("2"):
            axes = (-2, -1)
        else:
            s = kwargs.get("s", args[1] if len(args) > 1 else None)
            axes = range(-len(s), 0) if s is not None else range(ndim)
    return [a % ndim for a in axes]


def fft_flops(name, args, kwargs, out) -> float:
    """Computed (not measured) flops: 5 N log2 N per complex transform of N
    points, half that for a real one, times the number of transforms."""
    real = name in FFT_REAL
    full = out if name.startswith("irfft") or not real else np.asarray(args[0])
    axes = _axes(name, args, kwargs, full.ndim)
    points = math.prod(full.shape[a] for a in axes)
    if points < 2:
        return 0.0
    flops = 5.0 * full.size * math.log2(points)
    return 0.5 * flops if real else flops


def _fft_wrapper(tracer, name, fn):
    flops_by_call = {}              # the flop count depends only on these

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        span = tracer.innermost()
        span.fft_n += 1
        span.fft_t += dt
        try:
            key = (np.shape(args[0]), args[1:], tuple(kwargs.items()))
            flops = flops_by_call.get(key)
            if flops is None:
                flops = flops_by_call[key] = fft_flops(name, args, kwargs, out)
        except TypeError:           # an unhashable argument
            flops = fft_flops(name, args, kwargs, out)
        span.fft_flops += flops
        return out
    return wrapper


def _interp_wrapper(tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        span = tracer.innermost()
        span.interp_n += 1
        span.interp_t += time.perf_counter() - t0
        return out
    return wrapper


def _span_attrs(name, args, kwargs):
    if name == "solver.step_imex":
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        return {"formulation": cfg.formulation, "dim": args[0].grid.dim}
    if name == "lp_besov.block_norms":
        return {"p": args[2] if len(args) > 2 else kwargs["p"]}
    if name == "solver.picard_solve":
        return {"dim": args[0].grid.dim}
    return None


def _span_wrapper(tracer, name, fn):
    from capns.errors import NonContraction

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name, _span_attrs(name, args, kwargs))
        try:
            out = fn(*args, **kwargs)
        except NonContraction as ex:
            span.attrs.update(iterations=len(ex.diff_norms), non_contraction=True)
            raise
        finally:
            tracer.close(span)
        if name == "solver.picard_solve":
            span.attrs["iterations"] = out.iterations
        return out
    return wrapper


def _target(name):
    """The function that span ``name`` wraps, as its module now binds it."""
    module, attr = SPAN_TARGETS[name]
    owner = sys.modules[module]
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


class SetupDone(BaseException):
    """Raised by a stop wrapper at the time ``at``: the job reached its
    first timed call. A BaseException, so no handler of the program's own
    catches it."""

    def __init__(self, at):
        super().__init__(at)
        self.at = at


def install_stops(names):
    """Make each of the span targets ``names`` end the job at its call,
    before doing any work, by raising SetupDone."""
    def stopper(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            raise SetupDone(time.perf_counter())
        return wrapper

    Installation._rebind({fn: stopper(fn) for fn in map(_target, names)})


class Installation:
    """The wrappers of one tracer, and where they are bound.

    ``install_leaves`` must run before ``import capns`` so that no module
    can keep a reference to an unwrapped ``numpy.fft`` function.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.wrappers = {}          # original function -> wrapper

    def install_leaves(self):
        for name in FFT_COMPLEX + FFT_REAL:
            fn = getattr(np.fft, name)
            self.wrappers[fn] = _fft_wrapper(self.tracer, name, fn)
        self.wrappers[np.interp] = _interp_wrapper(self.tracer, np.interp)
        self._rebind(self.wrappers)

    def install_spans(self):
        for name in SPAN_TARGETS:
            fn = _target(name)
            self.wrappers[fn] = _span_wrapper(self.tracer, name, fn)
        self._rebind(self.wrappers)

    def enable(self):
        self._rebind(self.wrappers)

    def disable(self):
        self._rebind({w: fn for fn, w in self.wrappers.items()})

    @staticmethod
    def _rebind(mapping):
        """Replace every binding of a key of ``mapping`` by its value, in
        numpy, numpy.fft and every loaded capns module (and its classes)."""
        owners = [np, np.fft] + [m for n, m in list(sys.modules.items())
                                 if n == "capns" or n.startswith("capns.")]
        classes = [v for m in owners[2:] for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("capns")]
        for owner in owners + classes:
            for attr, value in list(vars(owner).items()):
                try:
                    target = mapping.get(value)
                except TypeError:       # unhashable attribute value
                    continue
                if target is not None:
                    setattr(owner, attr, target)


def write_spans(path, reps):
    """All spans of all traced repetitions as JSON lines."""
    with open(path, "w") as fh:
        for r, spans in enumerate(reps):
            for span in spans:
                fh.write(json.dumps({"rep": r, **span.to_dict()}) + "\n")
