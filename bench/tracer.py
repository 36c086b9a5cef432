"""Spans around each layer's public functions, recorded from outside the package.

``Tracer.install()`` rebinds every traced function in every turbfuse module
that holds it, including ``harness.COMMANDS``, so calls through a
``from x import f`` name are caught too. Tensor ops also wrap the backward
closure they leave on the tape. Spans stay in memory as (name, start, end,
parent, operation id) until ``dump``; ``metrics`` turns them into the
per-layer metrics listed in LAYER_METRICS.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, public function); "SGD.step" is a method
FUNCTIONS = (
    ("datagen", "render"),
    ("datagen", "load_images"),
    ("datagen", "make_pairs"),
    ("tensorio", "save_tensor"),
    ("tensorio", "load_tensor"),
    ("turbsim", "degrade"),
    ("turbsim", "tilt_field"),
    ("turbsim", "apply_tilt"),
    ("turbsim", "zernike_psf"),
    ("restore", "restore"),
    ("harness", "degrade_stack"),
    ("harness", "evaluate_strategy"),
    ("tensor", "backward"),
    ("backbone", "embed"),
    ("fusion", "fuse"),
    ("margin", "angular_margin_loss"),
    ("optim", "SGD.step"),
    ("optim", "finite_diff_check"),
    ("trainer", "train_adapter"),
    ("trainer", "probe_embeddings"),
    ("metrics", "verification_accuracy"),
    ("metrics", "tar_at_far"),
    ("metrics", "top_k_hits"),
)
COMMANDS = ("synth", "degrade", "restore", "pretrain", "train", "eval", "ablate")
# tensor ops timed forward; those in BACKWARD_OPS also on the tape
OPS = ("conv2d", "avg_pool2x2", "matmul", "relu", "layer_norm", "softmax")
BACKWARD_OPS = ("conv2d", "avg_pool2x2", "matmul", "relu")

_S, _N, _MB = "s", "count", "MB"
LAYER_METRICS = (
    ("datagen.render.calls", _N),
    ("datagen.render.self_s", _S),
    ("datagen.load_images.images", _N),
    ("datagen.load_images.self_s", _S),
    ("datagen.make_pairs.self_s", _S),
    ("tensorio.save_tensor.calls", _N),
    ("tensorio.save_tensor.mb", _MB),
    ("tensorio.save_tensor.self_s", _S),
    ("tensorio.load_tensor.calls", _N),
    ("tensorio.load_tensor.mb", _MB),
    ("tensorio.load_tensor.self_s", _S),
    ("turbsim.degrade.calls", _N),
    ("turbsim.degrade.self_s", _S),
    ("turbsim.tilt_field.self_s", _S),
    ("turbsim.apply_tilt.self_s", _S),
    ("turbsim.zernike_psf.calls", _N),
    ("turbsim.zernike_psf.self_s", _S),
    ("restore.restore.calls", _N),
    ("restore.restore.self_s", _S),
    ("harness.degrade_stack.calls", _N),
    ("harness.degrade_stack.distinct_inputs", _N),
    ("harness.degrade_stack.images", _N),
    ("harness.evaluate_strategy.calls", _N),
    *((f"harness.cmd_{c}.wall_s", _S) for c in COMMANDS),
    ("tensor.conv2d.calls", _N),
    ("tensor.conv2d.fwd_s", _S),
    ("tensor.conv2d.bwd_s", _S),
    ("tensor.conv2d.gflop", "GFLOP"),
    ("tensor.avg_pool2x2.calls", _N),
    ("tensor.avg_pool2x2.fwd_s", _S),
    ("tensor.avg_pool2x2.bwd_s", _S),
    ("tensor.matmul.calls", _N),
    ("tensor.matmul.fwd_s", _S),
    ("tensor.matmul.bwd_s", _S),
    ("tensor.relu.fwd_s", _S),
    ("tensor.relu.bwd_s", _S),
    ("tensor.layer_norm.fwd_s", _S),
    ("tensor.softmax.fwd_s", _S),
    ("tensor.backward.calls", _N),
    ("tensor.backward.self_s", _S),
    ("backbone.embed.calls", _N),
    ("backbone.embed.images", _N),
    ("backbone.embed.distinct_inputs", _N),
    ("backbone.embed.self_s", _S),
    ("fusion.fuse.calls", _N),
    ("fusion.fuse.self_s", _S),
    ("margin.angular_margin_loss.self_s", _S),
    ("optim.SGD.step.calls", _N),
    ("optim.SGD.step.self_s", _S),
    ("optim.finite_diff_check.calls", _N),
    ("optim.finite_diff_check.self_s", _S),
    ("trainer.train_adapter.calls", _N),
    ("trainer.train_adapter.steps", _N),
    ("trainer.train_adapter.self_s", _S),
    ("trainer.probe_embeddings.self_s", _S),
    ("metrics.verification_accuracy.pairs", _N),
    ("metrics.verification_accuracy.self_s", _S),
    ("metrics.tar_at_far.self_s", _S),
    ("metrics.top_k_hits.self_s", _S),
    ("trace.overhead_pct", "%"),
)


def _digest(*arrays, extra=b""):
    h = hashlib.blake2b(extra, digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).view(np.uint8))
    return h.digest()


def _data(x):
    return getattr(x, "data", x)


# span name -> (args, result) -> {quantity: amount}; a "distinct_inputs" value is a key counted once
def _conv_gflop(a, out):
    cin, kh, kw = _data(a[1]).shape[1:]
    return {"gflop": 2.0 * out.data.size * cin * kh * kw / 1e9}


def _embed(a, out):
    images = _data(a[0])
    return {"images": len(images), "distinct_inputs": _digest(images, *(t.data for t in a[1].tensors().values()))}


def _degrade_stack(a, out):
    return {"images": len(a[0]), "distinct_inputs": _digest(a[0], extra=repr((a[1], a[2])).encode())}


QUANTITIES = {
    "datagen.load_images": lambda a, out: {"images": len(a[1])},
    "tensorio.save_tensor": lambda a, out: {"mb": np.asarray(_data(a[1])).nbytes / 1e6},
    "tensorio.load_tensor": lambda a, out: {"mb": out.nbytes / 1e6},
    "harness.degrade_stack": _degrade_stack,
    "backbone.embed": _embed,
    "tensor.conv2d": _conv_gflop,
    "trainer.train_adapter": lambda a, out: {"steps": out.optimizer_steps},
    "metrics.verification_accuracy": lambda a, out: {"pairs": len(a[0].scores)},
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation id]
        self.stack = []
        self.op_id = 0
        self.amounts = defaultdict(lambda: defaultdict(float))
        self.distinct = defaultdict(set)
        self._undo = []

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn, backward_name=None):
        quantity = QUANTITIES.get(name)

        def traced(*args, **kw):
            self._open(name)
            try:
                out = fn(*args, **kw)
            finally:
                self._close()
            if quantity is not None:
                for q, v in quantity(args, out).items():
                    if q == "distinct_inputs":
                        self.distinct[name].add(v)
                    else:
                        self.amounts[name][q] += v
            if backward_name is not None and out._backward is not None:
                out._backward = self._wrap_backward(backward_name, out._backward)
            return out

        return traced

    def _wrap_backward(self, name, closure):
        def traced_backward(g, out=None):
            self._open(name)
            try:
                return closure(g)
            finally:
                self._close()

        return traced_backward

    def _rebind(self, orig, wrapper):
        """Replace orig by wrapper wherever a turbfuse module holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("turbfuse"):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((setattr, mod, key, orig))
                elif isinstance(value, dict):
                    for dk, dv in list(value.items()):
                        if dv is orig:
                            value[dk] = wrapper
                            self._undo.append((dict.__setitem__, value, dk, orig))

    def install(self):
        import turbfuse.cli  # noqa: F401  (loads every module that can hold a traced name)

        targets = [(f"{m}.{f}", m, f) for m, f in FUNCTIONS]
        targets += [(f"harness.cmd_{c}", "harness", f"cmd_{c}") for c in COMMANDS]
        targets += [(f"tensor.{op}", "tensor", op) for op in OPS]
        for name, mod, attr in targets:
            if attr == "SGD.step":
                sgd = sys.modules["turbfuse.optim"].SGD
                orig = sgd.step
                sgd.step = self._wrap(name, orig)
                self._undo.append((setattr, sgd, "step", orig))
                continue
            orig = getattr(sys.modules[f"turbfuse.{mod}"], attr)
            bwd = f"{name}.bwd" if mod == "tensor" and attr in BACKWARD_OPS else None
            self._rebind(orig, self._wrap(name, orig, bwd))

    def uninstall(self):
        while self._undo:
            setter, target, key, orig = self._undo.pop()
            setter(target, key, orig)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def totals(self):
        """Per span name: calls, total time and self time (time minus direct children)."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child[i]
        return calls, total, self_time

    def metrics(self):
        calls, total, self_time = self.totals()
        out = {}
        for metric, _ in LAYER_METRICS:
            span, _, q = metric.rpartition(".")
            if q == "calls":
                out[metric] = calls[span]
            elif q == "self_s":
                out[metric] = self_time[span]
            elif q in ("fwd_s", "wall_s"):
                out[metric] = total[span]
            elif q == "bwd_s":
                out[metric] = total[f"{span}.bwd"]
            elif q == "distinct_inputs":
                out[metric] = len(self.distinct[span])
            elif span != "trace":
                out[metric] = self.amounts[span][q]
        return out
