"""The benchmark's workloads.

Each workload builds the default detector, makes its inputs from the
seed (``inputs``), and does its untimed warm-up in ``__init__``. The
runner then asks for whole rounds of operations: ``round()`` returns
``(callable, context)`` pairs, each callable being one frame or one
optimizer step on the public path (``Detector.detect`` or
``trainer.train_step``). ``check(context, output)`` checks one
operation's output, and ``final_check()`` runs the costlier checks on
sampled operations after the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import efh.training
from efh import Detector, LanguageCache, ModelConfig
from efh.trainer import train_step
from efh.training import AdamW, GroundTruth

import checks
import inputs

WARMUP_OPS = 2


@dataclass
class Frame:
    image: np.ndarray
    prompt: str
    labels: list


@dataclass
class Sample:
    """What ``Detector.train_forward`` reads from a training sample."""
    image: np.ndarray
    prompt: str
    labels: list
    gt: GroundTruth


class DetectWorkload:
    """Closed loop of single-frame detects through a shared language cache."""

    name = ""
    image_size = 64
    round_len = 16

    def __init__(self, seed: int):
        self.seed = seed
        self.model = Detector(ModelConfig())
        rng = inputs.rng_for(seed, "images")
        self.images = [inputs.scene(rng, self.image_size)[0] for _ in range(self.round_len)]
        self.cache = LanguageCache()   # the program's default capacity
        self.lru = checks.LruModel(self.cache.capacity)
        self.first = self.last = None   # (frame, cached JSON), re-checked after the run
        self.prewarm()
        for frame in self.frames()[:WARMUP_OPS]:
            self.lru.encode(frame.prompt, frame.labels)
            self.model.detect(frame.image, frame.prompt, frame.labels, self.cache)

    def prewarm(self):
        self.encode(inputs.STEADY_PROMPT, inputs.VOCAB8)

    def encode(self, prompt, labels):
        self.lru.encode(prompt, labels)
        self.model.encode_text(prompt, labels, self.cache)

    def frames(self) -> list:
        return [Frame(img, inputs.STEADY_PROMPT, inputs.VOCAB8) for img in self.images]

    def round(self) -> list:
        ops = []
        for frame in self.frames():
            self.lru.encode(frame.prompt, frame.labels)
            ops.append((self._detect_op(frame), frame))
        return ops

    def _detect_op(self, frame):
        model, cache = self.model, self.cache
        return lambda: model.detect(frame.image, frame.prompt, frame.labels, cache).to_json()

    def check(self, frame, output) -> list:
        self.first = self.first or (frame, output)
        self.last = (frame, output)
        cfg = self.model.config
        return checks.check_detection_json(output, frame.labels, cfg.k_q, cfg.score_threshold)

    def final_check(self) -> list:
        problems = checks.check_counters(self.lru.stats(), self.cache.stats())
        for frame, cached_json in (self.first, self.last):
            problems += self.check_sampled(frame, cached_json)
        return problems

    def check_sampled(self, frame, cached_json) -> list:
        """Cache-off equality and an independent top-K recomputation."""
        model = self.model
        uncached = model.detect(frame.image, frame.prompt, frame.labels).to_json()
        problems = checks.check_same_json(cached_json, uncached)
        _, le = model.encode_text(frame.prompt, frame.labels)
        encoded = model.encode_image(frame.image)
        candidates, proposals = model.encoder.propose(encoded, le, model.config.k_q)
        projected = model.encoder.project_labels(le).data
        problems += checks.check_topk(candidates.relevance.data, proposals.indices,
                                      encoded.o.data, projected, model.config.k_q)
        return problems

    def cache_stats(self) -> dict:
        return self.cache.stats()


class DetectSteady(DetectWorkload):
    name = "detect_steady"


class DetectHires(DetectWorkload):
    name = "detect_hires"
    image_size = 512
    round_len = 4


class DetectOpenVocab(DetectWorkload):
    """Per-frame label lists of 2 to ~220 labels drawn with Zipf reuse from a
    1203-label pool through a default-capacity cache, under four prompts."""

    name = "detect_open_vocab"
    prewarm_lists = 256

    def __init__(self, seed: int):
        self.label_rng = inputs.rng_for(seed, "labels")
        self.weights = inputs.label_weights()
        self.lengths = inputs.label_list_lengths(self.round_len)
        super().__init__(seed)

    def prewarm(self):
        # Label lists from the workload's own distribution bring the cache to
        # its steady state. They come from a stream that does not depend on
        # the seed, so every run does the same set-up work.
        rng = inputs.rng_for(0, "prewarm")
        for _ in range(self.prewarm_lists // self.round_len):
            for frame in self.frames(rng):
                self.encode(frame.prompt, frame.labels)

    def frames(self, rng=None) -> list:
        rng = rng or self.label_rng
        lengths = rng.permutation(self.lengths)
        frames = []
        for img, n in zip(self.images, lengths):
            picks = rng.choice(len(inputs.LABEL_POOL), size=int(n), replace=False,
                               p=self.weights)
            prompt = inputs.OPEN_PROMPTS[int(rng.integers(len(inputs.OPEN_PROMPTS)))]
            frames.append(Frame(img, prompt, [inputs.LABEL_POOL[i] for i in picks]))
        return frames

    def check_sampled(self, frame, cached_json) -> list:
        problems = super().check_sampled(frame, cached_json)
        forward = self.model.detect(frame.image, frame.prompt, frame.labels).to_json()
        backward = self.model.detect(frame.image, frame.prompt, frame.labels[::-1]).to_json()
        return problems + checks.check_reversal(forward, backward)


class TrainStep:
    """Closed loop of ``trainer.train_step`` calls, batch 1, with denoising queries."""

    name = "train_step"
    image_size = 64
    round_len = 8
    train_prompts = ("Detect all objects in the image", "Find every listed object")

    def __init__(self, seed: int):
        self.seed = seed
        self.model = Detector(ModelConfig())
        cfg = self.model.config
        rng = inputs.rng_for(seed, "images")
        self.samples = []
        for i in range(self.round_len):
            img, boxes, ids = inputs.scene(rng, self.image_size)
            gt = GroundTruth(boxes, ids, image_id=f"scene-{i}")
            self.samples.append(Sample(img, self.train_prompts[i % 2], list(inputs.VOCAB8), gt))
        self.opt = AdamW(self.model.trainable_parameters(), lr=cfg.lr,
                         weight_decay=cfg.weight_decay)
        self.rng = inputs.rng_for(seed, "train")
        self.last = None
        for i in range(WARMUP_OPS):
            self._step(self.samples[i])()

    def _step(self, sample):
        model, opt, cfg, rng = self.model, self.opt, self.model.config, self.rng
        return lambda: train_step(model, [sample], opt, cfg.dn, cfg.loss_weights, rng)

    def round(self) -> list:
        return [(self._step(s), s) for s in self.samples]

    def check(self, sample, output) -> list:
        self.last = sample
        return checks.check_losses(output)

    def final_check(self) -> list:
        ad, fd = directional_derivatives(self.model, self.last, self.seed)
        return checks.check_directional(ad, fd)

    def cache_stats(self) -> dict:
        return {"hits": 0, "misses": 0, "entries": 0, "evictions": 0}


class _HeldFixed:
    """Records the matching, the IoU-aware targets and the detached decoder
    references on the first loss evaluation and replays them afterwards, so
    the finite difference differentiates the same function autograd does."""

    def __init__(self, model):
        self.model = model
        self.recorded = {"match": [], "targets": [], "refs": []}
        self.replaying = False
        self.cursor = {}

    def _fixed(self, kind, fn, *args):
        if not self.replaying:
            value = fn(*args)
            self.recorded[kind].append(value)
            return value
        i = self.cursor.get(kind, 0)
        self.cursor[kind] = i + 1
        return self.recorded[kind][i]

    def start_replay(self):
        self.replaying = True
        self.cursor = {}

    def __enter__(self):
        match, targets = efh.training.hungarian_match, efh.training.iou_aware_cls_targets
        self.saved = (match, targets)
        efh.training.hungarian_match = lambda *a: self._fixed("match", match, *a)
        efh.training.iou_aware_cls_targets = lambda *a: self._fixed("targets", targets, *a)
        for layer in self.model.decoder.layers:
            attn = layer.cross_attn
            layer.cross_attn = (lambda q, refs, enc, attn=attn:
                                attn(q, self._fixed("refs", lambda r: r, refs), enc))
        return self

    def __exit__(self, *exc):
        efh.training.hungarian_match, efh.training.iou_aware_cls_targets = self.saved
        return False


def directional_derivatives(model, sample, seed, eps=1e-6):
    """(autograd, central finite difference) derivative of one training step's
    loss along a random unit direction over the trainable weights, in f64."""
    cfg = model.config
    m64 = Detector(cfg, dtype=np.float64)
    weights32 = model.parameters()
    for name, p in m64.parameters().items():
        p.data = weights32[name].data.astype(np.float64)
    params = m64.trainable_parameters()
    base = {k: p.data.copy() for k, p in params.items()}
    rng = inputs.rng_for(seed, "direction")
    direction = {k: rng.standard_normal(p.shape) for k, p in params.items()}
    norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    sample64 = Sample(sample.image.astype(np.float64), sample.prompt, sample.labels, sample.gt)
    opt = AdamW(params, lr=0.0)   # lr 0: the step leaves the weights unchanged

    def loss_at(t):
        for k, p in params.items():
            p.data = base[k] + (t / norm) * direction[k]
        noise = inputs.rng_for(seed, "dn-noise")
        return train_step(m64, [sample64], opt, cfg.dn, cfg.loss_weights, noise)["total"]

    with _HeldFixed(m64) as fixed:
        loss_at(0.0)
        autograd_dd = sum(float((p.grad * direction[k]).sum()) / norm
                          for k, p in params.items() if p.grad is not None)
        fixed.start_replay()
        plus = loss_at(eps)
        fixed.start_replay()
        minus = loss_at(-eps)
    return autograd_dd, (plus - minus) / (2 * eps)


WORKLOADS = {w.name: w for w in (DetectSteady, DetectOpenVocab, DetectHires, TrainStep)}
