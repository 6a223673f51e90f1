"""Module-wise latency harness.

Times the four pipeline components separately — text backbone, image
backbone, encoder/FPN, decoder/head — on a monotonic high-resolution
clock, batch size 1, warm-up passes excluded. With the cache on, text
encodings are pre-warmed before the timed region so steady-state
inference never touches the text backbone.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .autograd import no_grad
from .decoder import decode_detections
from .textenc import LanguageCache

COMPONENTS = ("text_backbone", "image_backbone", "encoder_fpn", "decoder_head")


def _now_ms():
    return time.perf_counter_ns() / 1e6


def _stats(samples):
    arr = np.asarray(samples, dtype=np.float64)
    return {
        "mean_ms": float(arr.mean()),
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
    }


@dataclass
class ModuleTimings:
    components: dict                 # name -> {mean_ms, p50_ms, p95_ms}
    total: dict
    fps: float
    cache_enabled: bool
    warmup: int
    iterations: int
    raw_totals_ms: list = field(default_factory=list)

    def to_dict(self):
        return {
            "components": self.components,
            "total": self.total,
            "fps": self.fps,
            "cache_enabled": self.cache_enabled,
            "warmup": self.warmup,
            "iterations": self.iterations,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["components"], d["total"], d["fps"], d["cache_enabled"],
                   d["warmup"], d["iterations"])


@no_grad()   # the same tape-free path as Detector.detect
def timed_detect(model, image, prompt, labels, cache=None, image_id="",
                 score_threshold=None):
    """One full pass with per-component wall times; returns (times, detections)."""
    times = {}
    t_start = _now_ms()

    t0 = _now_ms()
    pe, le = model.encode_text(prompt, labels, cache)
    times["text_backbone"] = _now_ms() - t0

    t0 = _now_ms()
    pyramid = model.backbone(image)
    times["image_backbone"] = _now_ms() - t0

    t0 = _now_ms()
    encoded = model.encoder.encode(pyramid)
    _, proposals = model.encoder.propose(encoded, le, model.config.k_q)
    times["encoder_fpn"] = _now_ms() - t0

    t0 = _now_ms()
    projected = model.encoder.project_labels(le)
    state = model.decoder.initial_state(proposals.b0, pe)
    records, _ = model.decoder.run_layers(state, encoded, None, projected)
    boxes, logits = records[-1]
    threshold = model.config.score_threshold if score_threshold is None else score_threshold
    det = decode_detections(boxes, logits, le.names, image_id, prompt, threshold)
    times["decoder_head"] = _now_ms() - t0

    times["total"] = _now_ms() - t_start
    return times, det


def run_benchmark(model, images, prompt, labels, iterations=100, warmup=10,
                  cache_enabled=True) -> ModuleTimings:
    """Batch-size-1 timing over a list of images, round-robin."""
    if not images:
        raise ValueError("benchmark needs at least one image")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    cache = LanguageCache() if cache_enabled else None
    if cache is not None:
        # pre-warm: steady-state deployments extract text embeddings in advance
        model.encode_text(prompt, labels, cache)
    for i in range(warmup):
        timed_detect(model, images[i % len(images)], prompt, labels, cache)
    samples = {name: [] for name in COMPONENTS}
    totals = []
    for i in range(iterations):
        times, _ = timed_detect(model, images[i % len(images)], prompt, labels, cache)
        for name in COMPONENTS:
            samples[name].append(times[name])
        totals.append(times["total"])
    mean_total = float(np.mean(totals))
    return ModuleTimings(
        components={name: _stats(vals) for name, vals in samples.items()},
        total=_stats(totals),
        fps=1000.0 / mean_total,
        cache_enabled=cache_enabled,
        warmup=warmup,
        iterations=iterations,
        raw_totals_ms=totals,
    )


def emit_report(timings: ModuleTimings, fmt="json", path=None):
    """Serialize a timing report as JSON or CSV (fixed column order)."""
    if fmt == "json":
        text = json.dumps(timings.to_dict(), indent=2)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["component", "mean_ms", "p50_ms", "p95_ms"])
        for name in COMPONENTS:
            st = timings.components[name]
            writer.writerow([name, f"{st['mean_ms']:.4f}", f"{st['p50_ms']:.4f}",
                             f"{st['p95_ms']:.4f}"])
        st = timings.total
        writer.writerow(["total", f"{st['mean_ms']:.4f}", f"{st['p50_ms']:.4f}",
                         f"{st['p95_ms']:.4f}"])
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def render_component_table(rows):
    """Fixed-width table of (model, text, image, encoder, decoder, total) rows."""
    header = ["Model", "Text Backbone", "Image Backbone", "Encoder/FPN",
              "Decoder/Head", "Total (ms)"]
    lines = ["  ".join(f"{h:>14}" for h in header)]
    for row in rows:
        lines.append("  ".join(f"{str(v):>14}" for v in row))
    return "\n".join(lines)
