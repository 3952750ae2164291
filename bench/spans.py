"""Span tracing installed from outside the program, around irae's public calls.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` replaces
each traced function in *every* irae module namespace that binds it (the
package imports most functions by name, so patching only the defining
module would miss most calls), replaces traced methods on their classes, and
wraps the backward rule of every tape node a traced op returns.
``Tracer.uninstall`` puts every original back; callers do so in ``finally``.

Spans record name, start, end, parent span and the run id, and stay in
memory until ``write`` dumps them.  Wrappers cost one attribute test when the
tracer is installed but inactive, so the benchmark switches recording on only
around the program calls it measures.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from collections import defaultdict
from contextlib import contextmanager

import irae.autodiff as autodiff
import irae.cli as cli
import irae.degrade as degrade
import irae.layers as layers
import irae.metrics as metrics
import irae.model as model
import irae.pnm as pnm
import irae.train as train

@contextmanager
def installed(tracer):
    """Install ``tracer``'s wrappers for the block (nothing when it is None)."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


_MODULES = (autodiff, layers, model, train, degrade, metrics, pnm, cli)

# (module, function names, forward span name, backward-rule span name)
_OPS = [
    (autodiff, ["conv2d_same"], "autodiff.conv2d_same.fwd", "autodiff.conv2d_same.bwd"),
    (
        autodiff,
        ["add", "sub", "mul", "sigmoid", "tanh", "exp", "log", "absolute"],
        "autodiff.elementwise.fwd",
        "autodiff.elementwise.bwd",
    ),
    (
        autodiff,
        ["sum_all", "mean_all", "channel_mean", "channel_std", "reshape",
         "narrow_channels", "concat_channels"],
        "autodiff.other.fwd",
        "autodiff.other.bwd",
    ),
    (layers, ["squeeze", "unsqueeze"], "layers.squeeze", "layers.squeeze.bwd"),
]

_FUNCTIONS = [
    (autodiff, ["backward"], "autodiff.backward"),
    (layers, ["squeeze_array", "unsqueeze_array"], "layers.squeeze"),
    (layers, ["lu_factor", "lu_det", "lu_inverse"], "layers.lu"),
    (model, ["build"], "model.build"),
    (model, ["save_checkpoint"], "model.save_checkpoint"),
    (model, ["load_checkpoint"], "model.load_checkpoint"),
    (model, ["randomize_parameters"], "model.randomize_parameters"),
    (train, ["train"], "train.train"),
    (train, ["adam_step"], "train.adam"),
    (train, ["l1_loss"], "train.l1_loss"),
    (
        degrade,
        ["degrade", "apply_awgn", "apply_blind_awgn", "apply_jpeg_sim",
         "make_inpaint_mask", "apply_inpaint"],
        "degrade",
    ),
    (metrics, ["psnr"], "metrics.psnr"),
    (pnm, ["load_pnm"], "pnm.load"),
    (pnm, ["save_pnm"], "pnm.save"),
    (cli, ["main"], "cli.command"),
]

_METHODS = [
    (layers.ActNorm, "forward", "layers.actnorm.fwd"),
    (layers.ActNorm, "inverse", "layers.actnorm.inv"),
    (layers.ActNorm, "initialize", "layers.actnorm.init"),
    (layers.InvertibleConv1x1, "forward", "layers.conv1x1.fwd"),
    (layers.InvertibleConv1x1, "inverse", "layers.conv1x1.inv"),
    (layers.AffineCoupling, "forward", "layers.coupling.fwd"),
    (layers.AffineCoupling, "inverse", "layers.coupling.inv"),
    (model.IraeModel, "forward", "model.forward"),
    (model.IraeModel, "inverse", "model.inverse"),
    (model.IraeModel, "snapshot", "train.snapshot"),
    (model.IraeModel, "restore", "train.snapshot"),
]


def conv_cost(x, w, out):
    """Computed (forward flop, forward bytes, backward flop, backward bytes).

    2*N*Cout*Cin*k*k*H*W flop per forward call and per gradient the backward
    rule computes (input and/or weight); bytes are the compulsory traffic of
    the operand and result arrays, ignoring caches and im2col copies.
    """
    n, c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    flop = 2.0 * n * c_out * c_in * k * k * h * wd
    item = x.data.itemsize
    fwd_bytes = (x.size + w.size + out.size) * item
    grads = int(x.requires_grad) + int(w.requires_grad)
    bwd_bytes = (out.size + x.size + w.size) * item + (
        x.size * x.requires_grad + w.size * w.requires_grad
    ) * item
    return flop, fwd_bytes, grads * flop, bwd_bytes


class Span:
    __slots__ = ("sid", "name", "parent", "phase", "start", "end")

    def __init__(self, sid, name, parent, phase, start):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.phase = phase
        self.start = start
        self.end = None


class Tracer:
    """In-memory span recorder plus the patching that feeds it."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex[:12]
        self.spans = []
        self.stack = []
        self.phase = None  # None: installed but not recording
        self.counters = defaultdict(float)  # (phase, name) -> value
        self.steps = []  # (phase, ms) per training step
        self._step_start = None
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), name, parent.sid if parent else None, self.phase,
                    time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()

    def count(self, name, value=1):
        self.counters[(self.phase, name)] += value

    def _call(self, name, fn, args, kwargs):
        if self.phase is None or (self.stack and self.stack[-1].name == name):
            return fn(*args, **kwargs)  # re-entry folds into the outer span
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def _wrap_op(self, name, bwd_name, fn):
        tracer = self
        is_conv = name == "autodiff.conv2d_same.fwd"

        def traced(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            out = tracer._call(name, fn, args, kwargs)
            bwd_cost = None
            if is_conv:
                flop, nbytes, bwd_flop, bwd_bytes = conv_cost(args[0], args[1], out)
                tracer.count("conv.fwd_flop", flop)
                tracer.count("conv.fwd_bytes", nbytes)
                bwd_cost = (bwd_flop, bwd_bytes)
            rule = out._backward
            # an op returning another traced op's result must not time it twice
            if rule is not None and not getattr(rule, "_traced", False):
                tracer.count("autodiff.tape_nodes")
                out._backward = tracer._wrap_rule(bwd_name, rule, bwd_cost)
            return out

        return traced

    def _wrap_rule(self, name, rule, cost):
        """Time one tape node's backward rule; cost is its computed conv work."""
        tracer = self

        def traced_rule():
            if tracer.phase is None:
                return rule()
            if cost is not None:
                tracer.count("conv.bwd_flop", cost[0])
                tracer.count("conv.bwd_bytes", cost[1])
            return tracer._call(name, rule, (), {})

        traced_rule._traced = True
        return traced_rule

    def _wrap_forward(self, fn):
        """model.forward also marks where a training step starts."""
        tracer = self

        def traced(self_, *args, **kwargs):
            if (
                tracer.phase is not None
                and autodiff._grad_enabled
                and any(s.name == "train.train" for s in tracer.stack)
            ):
                tracer._step_start = time.perf_counter()
            return tracer._call("model.forward", fn, (self_,) + args, kwargs)

        return traced

    def _wrap_adam(self, fn):
        """adam_step's return closes the training step model.forward opened."""
        tracer = self

        def traced(*args, **kwargs):
            out = tracer._call("train.adam", fn, args, kwargs)
            if tracer.phase is not None and tracer._step_start is not None:
                tracer.steps.append((tracer.phase, 1e3 * (time.perf_counter() - tracer._step_start)))
                tracer._step_start = None
            return out

        return traced

    def _wrap_pnm(self, name, fn):
        """PNM I/O also counts the bytes of the file it read or wrote."""
        tracer = self

        def traced(path, *args, **kwargs):
            out = tracer._call(name, fn, (path,) + args, kwargs)
            if tracer.phase is not None:
                tracer.count("pnm.bytes", os.path.getsize(path))
            return out

        return traced

    # -- patching ------------------------------------------------------------

    def _patch_function(self, module, fname, wrapper):
        orig = getattr(module, fname)
        for m in _MODULES:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, wrapper)
                    self._undo.append((m, attr, orig))

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        try:
            for module, names, span_name, bwd_name in _OPS:
                for fname in names:
                    fn = getattr(module, fname)
                    self._patch_function(module, fname, self._wrap_op(span_name, bwd_name, fn))
            for module, names, span_name in _FUNCTIONS:
                for fname in names:
                    fn = getattr(module, fname)
                    if fname == "adam_step":
                        wrapper = self._wrap_adam(fn)
                    elif module is pnm:
                        wrapper = self._wrap_pnm(span_name, fn)
                    else:
                        wrapper = self._wrap(span_name, fn)
                    self._patch_function(module, fname, wrapper)
            for cls, meth, span_name in _METHODS:
                fn = cls.__dict__[meth]
                if cls is model.IraeModel and meth == "forward":
                    wrapper = self._wrap_forward(fn)
                else:
                    wrapper = self._wrap(span_name, fn)
                setattr(cls, meth, wrapper)
                self._undo.append((cls, meth, fn))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._undo:
            target, attr, orig = self._undo.pop()
            setattr(target, attr, orig)

    # -- summaries -------------------------------------------------------------

    def durations(self, phase):
        """name -> (list of durations in s, total self time in s) for one phase."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None and s.phase == phase:
                child_time[s.parent] += s.end - s.start
        out = defaultdict(lambda: ([], 0.0))
        for s in self.spans:
            if s.phase != phase:
                continue
            durs, self_t = out[s.name]
            d = s.end - s.start
            durs.append(d)
            out[s.name] = (durs, self_t + d - child_time[s.sid])
        return out

    def write(self, path, header):
        with open(path, "w") as f:
            f.write(json.dumps(dict(header, run_id=self.run_id)) + "\n")
            for s in self.spans:
                f.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": s.sid,
                            "parent": s.parent,
                            "name": s.name,
                            "phase": s.phase,
                            "start": round(s.start, 9),
                            "end": round(s.end, 9),
                        }
                    )
                    + "\n"
                )
