"""Outside-in tracing of gdcn for the benchmark's traced run.

Nothing in ``src/`` is edited. While a ``Tracer`` is installed, the names
that gdcn's own modules call through are replaced, in the namespace of the
calling module, by thin wrappers that record spans; ``restore`` puts every
original back.

- ``gdcn.training``: ``sample_step_masks``, ``forward``, ``backward``,
  ``adam_step``, ``arm_gradient``, ``record_kl_terms``, ``training_loss``
  and ``_det_eval``.
- ``gdcn.model``: the ``record_*`` ops, ``forward``, ``sample_step_masks``,
  ``predict_mc`` and the mask samplers (counted, not timed).
- ``gdcn.tape``: ``spmm`` and ``spmm_t``.
- ``Tape.record``, so that each recorded backward closure is timed when
  ``backward`` runs it.

A span is ``[name, phase, start, end, parent]`` with ``parent`` the index of
the enclosing span (-1 at the top). The parent also tells the forward mode:
a forward under ``estimators.arm`` is an ARM pass, one under
``training.det_eval`` the deterministic pass, one under ``model.predict_mc``
an MC pass, and any other training forward the taped pass. Op spans carry
the layer index, which advances at each layer's activation.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import gdcn.model as gmodel
import gdcn.tape as gtape
import gdcn.training as gtraining

# record_* op -> name used in span names; other recorded ops are "other".
OPS = {
    "record_matmul": "matmul", "record_masked_spmm": "masked_spmm",
    "record_slice_cols": "slice", "record_slice_rows": "slice",
    "record_add": "add", "record_add_rowvec": "add", "record_mul": "mul",
    "record_relu": "relu", "record_log_softmax_rows": "log_softmax",
}
LAYER_END = ("record_relu", "record_log_softmax_rows")
SAMPLERS = ("sample_dropout_mask", "sample_node_mask", "sample_dropedge_mask",
            "sample_gdc_masks", "sample_concrete_mask",
            "sample_randomwalk_mask")
SPAN_NAMES = {"backward": "tape.backward", "record_kl_terms": "variational.kl",
              "training_loss": "model.loss", "_det_eval": "training.det_eval",
              "predict_mc": "model.predict_mc"}
FORWARD_MODE = {"estimators.arm": "model.forward_arm",
                "training.det_eval": "model.forward_det",
                "model.predict_mc": "model.forward_mc"}


def wrapped_names() -> list:
    """(owner, attribute) of every name a Tracer replaces while installed."""
    names = [(gtraining, a) for a in (
        "sample_step_masks", "forward", "backward", "adam_step",
        "arm_gradient", "record_kl_terms", "training_loss", "_det_eval")]
    names += [(gmodel, a) for a in sorted(vars(gmodel))
              if a.startswith("record_") and a != "record_kl_terms"]
    names += [(gmodel, a) for a in ("forward", "sample_step_masks",
                                    "predict_mc") + SAMPLERS]
    names += [(gtape, "spmm"), (gtape, "spmm_t"), (gtape.Tape, "record")]
    return names


def _values_in(mask) -> int:
    blocks = getattr(mask, "blocks", None)
    if blocks is None:
        return int(mask.size)
    return sum(int(b.data.size) for b in blocks)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()   # (phase, name) -> count
        self.phase = "setup"
        self._stack = []
        self._layer = None        # layer index inside a forward, else None
        self._bwd_name = None     # span name for closures the op records
        self._saved = []

    # -- spans -----------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.phase, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.phase, name)] += n

    def _parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- wrappers --------------------------------------------------------
    def _timed(self, fn, name, counter=None):
        """Span around ``fn``; ``name`` may be a function of the kwargs."""
        def wrapper(*args, **kwargs):
            if counter is not None:
                self.count(counter)
            idx = self.open(name(kwargs) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def _forward(self, fn, default_mode):
        def wrapper(*args, **kwargs):
            idx = self.open(FORWARD_MODE.get(self._parent_name(), default_mode))
            self.count("model.forwards")
            outer, self._layer = self._layer, 0
            try:
                return fn(*args, **kwargs)
            finally:
                self._layer = outer
                self.close(idx)
        return wrapper

    def _op(self, fn, attr):
        op = OPS.get(attr)
        ends_layer = attr in LAYER_END

        def wrapper(*args, **kwargs):
            layer = self._layer
            suffix = "other" if op is None or layer is None else f"{op}.l{layer}"
            if attr == "record_matmul" and layer == 0:
                tape, x, w = args[:3]
                flop = 2 * x.shape[0] * x.shape[1] * w.shape[1]
                grads = int(x.requires_grad) + int(w.requires_grad)
                self.count("tape.matmul.l0_flop",
                           flop * (1 + (grads if tape is not None else 0)))
            outer, self._bwd_name = self._bwd_name, "tape.bwd." + suffix
            idx = self.open("tape.fwd." + suffix)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
                self._bwd_name = outer
            if ends_layer and layer is not None:
                self._layer = layer + 1
            return out
        return wrapper

    def _sampler(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.count("masks.values_drawn", _values_in(out))
            return out
        return wrapper

    def _adam_step(self, fn):
        def wrapper(*args, **kwargs):
            idx = self.open("training.adam")
            try:
                ok = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if not ok:
                self.count("training.adam_rejected")
            return ok
        return wrapper

    def _arm_gradient(self, fn):
        def wrapper(loss_eval, *args, **kwargs):
            def counted(z):
                self.count("estimators.arm_evals")
                return loss_eval(z)
            idx = self.open("estimators.arm")
            try:
                return fn(counted, *args, **kwargs)
            except Exception:
                self.count("estimators.arm_failures")
                raise
            finally:
                self.close(idx)
        return wrapper

    def _record(self, fn):
        def record(tape, out, backward):
            name = self._bwd_name or "tape.bwd.other"
            self.count("tape.records")

            def timed_backward(g, acc):
                idx = self.open(name)
                try:
                    return backward(g, acc)
                finally:
                    self.close(idx)
            return fn(tape, out, timed_backward)
        return record

    def _wrapper_for(self, owner, attr, fn):
        if owner is gtape.Tape:
            return self._record(fn)
        if owner is gtape:
            return self._timed(fn, "graph." + attr, counter="graph.spmm_calls")
        if attr == "sample_step_masks":
            return self._timed(
                fn, lambda kwargs: "masks.sample_" + kwargs.get("mode", "train"))
        if attr == "forward":
            return self._forward(fn, "model.forward_train" if owner is gtraining
                                 else "model.forward_det")
        if attr.startswith("record_") and owner is gmodel:
            return self._op(fn, attr)
        if attr in SAMPLERS:
            return self._sampler(fn)
        if attr == "adam_step":
            return self._adam_step(fn)
        if attr == "arm_gradient":
            return self._arm_gradient(fn)
        return self._timed(fn, SPAN_NAMES[attr])

    # -- install / restore -----------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr in wrapped_names():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper_for(owner, attr, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- results ---------------------------------------------------------
    def totals(self):
        """(inclusive, self) seconds per (phase, name), plus span counts."""
        child = [0.0] * len(self.spans)
        for name, phase, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive, own, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, phase, start, end, parent) in enumerate(self.spans):
            inclusive[(phase, name)] += end - start
            own[(phase, name)] += end - start - child[i]
            calls[(phase, name)] += 1
        return inclusive, own, calls

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines: name, phase, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
