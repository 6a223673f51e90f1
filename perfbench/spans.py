"""Span tracer for the traced run.

Spans are recorded by wrapping the program's public callables on the
model instance and in module globals; nothing in the program changes.
Each span has a name, a start, an end, a parent span and the index of
the operation (frame or optimizer step) it belongs to. Spans stay in
memory and are written out when the run ends. Autograd op counts are
taken by wrapping ``Tensor._from_op``, the one constructor every op
output passes through.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

import efh.decoder
import efh.model
import efh.trainer
import efh.training
from efh.autograd import Tensor

_MISSING = object()


class _CallProxy:
    """Stands in for a module object that its owner calls, and times the calls.

    Python looks ``__call__`` up on the type, so a callable object cannot be
    traced by setting an instance attribute on it.
    """

    def __init__(self, traced):
        self._traced = traced

    def __call__(self, *args, **kwargs):
        return self._traced(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start_ns, end_ns, parent id, op index)
        self._stack = []
        self.op = -1
        self.op_counts = []      # per op: [ops, tape ops, op bytes]
        self._counts = [0, 0, 0]
        self._undo = []

    # ---- spans -----------------------------------------------------------

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)

        return traced

    def run_op(self, index, fn):
        """Run one operation as the root span of its own trace."""
        self.op = index
        self._counts = [0, 0, 0]
        try:
            return self.wrap("op", fn)()
        finally:
            self.op_counts.append(self._counts)
            self.op = -1

    # ---- installing wrappers ---------------------------------------------

    def _set(self, owner, attr, value):
        if isinstance(owner, list):
            old = owner[attr]
            owner[attr] = value
        else:
            old = vars(owner).get(attr, _MISSING)
            setattr(owner, attr, value)
        self._undo.append((owner, attr, old))

    def method(self, owner, attr, name):
        self._set(owner, attr, self.wrap(name, getattr(owner, attr)))

    def module_call(self, owner, attr, name):
        target = getattr(owner, attr)
        self._set(owner, attr, _CallProxy(self.wrap(name, target)))

    def install_detector(self, model):
        """Spans around every layer a detect or a training forward passes through."""
        self.method(model.textenc, "encode_prompt", "text.prompt")
        self.method(model.textenc, "encode_labels", "text.labels")
        self.method(model.textenc, "encode_text", "text.tower")
        self.module_call(model, "backbone", "backbone")
        self.module_call(model.encoder, "aifi", "encoder.aifi")
        self.module_call(model.encoder, "ccfm", "encoder.ccfm")
        self.method(model.encoder, "propose", "encoder.propose")
        self.method(model.encoder, "project_labels", "encoder.project_labels")
        self.method(model.decoder, "initial_state", "decoder.init")
        layers = model.decoder.layers
        for i, layer in enumerate(list(layers)):
            self.module_call(layer, "self_attn", f"decoder.layer{i}.self_attn")
            self.module_call(layer, "cross_attn", f"decoder.layer{i}.cross_attn")
            self._set(layers, i, _CallProxy(self.wrap(f"decoder.layer{i}", layer)))
        self.method(efh.decoder, "classify", "decoder.classify")
        self.method(efh.model, "decode_detections", "decoder.decode")
        self._count_ops()

    def install_training(self, model, opt):
        """Spans around the stages of ``trainer.train_step``."""
        self.method(model, "encode_text", "train.text")
        self.method(model, "encode_image", "train.image")
        self.method(model, "head", "train.head")
        self.method(efh.model, "make_dn_queries", "train.dn")
        self.method(efh.training, "hungarian_match", "train.match")
        self.method(efh.trainer, "detection_loss", "train.loss")
        self.method(efh.trainer, "dn_loss", "train.loss")
        self.method(efh.trainer, "backward", "train.backward")
        self.method(opt, "step", "train.adamw")

    def _count_ops(self):
        original = Tensor.__dict__["_from_op"].__func__
        tracer = self

        def counted(cls, data, children, backward, op):
            t = original(cls, data, children, backward, op)
            c = tracer._counts
            c[0] += 1
            c[1] += t._backward is not None
            c[2] += t.data.nbytes
            return t

        self._set(Tensor, "_from_op", classmethod(counted))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, list):
                owner[attr] = old
            elif old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    # ---- results ---------------------------------------------------------

    def per_op(self):
        """Per operation: inclusive ms by span name, self ms by name, span counts."""
        spans = self.spans
        child_ns = defaultdict(int)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        ops = defaultdict(lambda: (defaultdict(float), defaultdict(float), defaultdict(int)))
        for sid, (name, start, end, parent, op) in enumerate(spans):
            total, self_ms, count = ops[op]
            total[name] += (end - start) / 1e6
            self_ms[name] += (end - start - child_ns[sid]) / 1e6
            count[name] += 1
        return [ops[i] for i in sorted(ops) if i >= 0]

    def dump(self, path):
        doc = [{"id": i, "name": n, "start_ns": s, "end_ns": e, "parent": p, "op": o}
               for i, (n, s, e, p, o) in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def layer_metrics(tracer: Tracer, layers: int, cache_delta: dict) -> dict:
    """The per-layer metrics: per-operation medians of times, per-operation
    means of counts, and the cache hit ratio over the whole timed region."""
    per_op = tracer.per_op()
    n = max(len(per_op), 1)

    def median_ms(pick):
        return float(np.median([pick(t, s, c) for t, s, c in per_op])) if per_op else 0.0

    def incl(name):
        return median_ms(lambda t, s, c: t.get(name, 0.0))

    def self_time(name):
        return median_ms(lambda t, s, c: s.get(name, 0.0))

    def mean_count(name):
        return sum(c.get(name, 0) for _, _, c in per_op) / n

    hits, misses = cache_delta["hits"], cache_delta["misses"]
    counts = np.asarray(tracer.op_counts or [[0, 0, 0]], dtype=np.float64)
    m = {
        "text.prompt_ms": incl("text.prompt"),
        "text.labels_ms": incl("text.labels"),
        "text.tower_passes": mean_count("text.tower"),
        "cache.hits": hits / n,
        "cache.misses": misses / n,
        "cache.evictions": cache_delta["evictions"] / n,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "backbone.ms": incl("backbone"),
        "encoder.aifi_ms": incl("encoder.aifi"),
        "encoder.ccfm_ms": incl("encoder.ccfm"),
        "encoder.propose_ms": incl("encoder.propose"),
        "encoder.project_labels_ms": incl("encoder.project_labels"),
        "decoder.init_ms": incl("decoder.init"),
    }
    for i in range(layers):
        m[f"decoder.layer{i}.self_attn_ms"] = incl(f"decoder.layer{i}.self_attn")
        m[f"decoder.layer{i}.cross_attn_ms"] = incl(f"decoder.layer{i}.cross_attn")
        m[f"decoder.layer{i}.self_ms"] = self_time(f"decoder.layer{i}")
    m.update({
        "decoder.classify_ms": incl("decoder.classify"),
        "decoder.decode_ms": incl("decoder.decode"),
        "autograd.ops": float(counts[:, 0].mean()),
        "autograd.tape_ops": float(counts[:, 1].mean()),
        "autograd.op_bytes": float(counts[:, 2].mean()),
        "train.text_ms": incl("train.text"),
        "train.image_ms": incl("train.image"),
        "train.head_ms": incl("train.head"),
        "train.dn_ms": incl("train.dn"),
        "train.match_ms": incl("train.match"),
        "train.loss_ms": self_time("train.loss"),
        "train.backward_ms": incl("train.backward"),
        "train.adamw_ms": incl("train.adamw"),
    })
    return m
