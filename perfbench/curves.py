"""Redraw the paper's speed claim as two curves on the default detector.

    python3 perfbench/curves.py

1. Label count (1, 8, 64, 256 labels, 64 px scene): the fusion head
   (proposal selection + decoder), the cache-hit text path and the cold
   (uncached) text path.
2. Image size (64, 128, 256, 512 px, 8 labels, warm cache): the backbone,
   the encoder (AIFI + CCFM) and the head.

Each figure is the median wall time in ms over ``REPS`` calls, timed
round-robin across the points of a curve, with BLAS pinned to one thread. The
table goes to standard output and a JSON copy to perfbench/out/curves.json.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from efh import Detector, LanguageCache, ModelConfig  # noqa: E402

REPS = 11


def interleaved_medians(calls):
    """Median ms of each named call, timed round-robin so drift hits all alike."""
    for fn in calls.values():
        fn()   # warm-up
    times = {key: [] for key in calls}
    for _ in range(REPS):
        for key, fn in calls.items():
            t0 = time.perf_counter()
            fn()
            times[key].append(time.perf_counter() - t0)
    return {key: float(np.median(v)) * 1e3 for key, v in times.items()}


def label_curve(model):
    image = inputs.scene(inputs.rng_for(0, "images"), 64)[0]
    prompt = inputs.STEADY_PROMPT
    encoded = model.encode_image(image)
    calls = {}
    for n in (1, 8, 64, 256):
        labels = inputs.LABEL_POOL[:n]
        cache = LanguageCache()
        pe, le = model.encode_text(prompt, labels, cache)
        calls[(n, "head_ms")] = lambda pe=pe, le=le: model.head(encoded, pe, le)
        calls[(n, "text_cache_hit_ms")] = \
            lambda labels=labels, cache=cache: model.encode_text(prompt, labels, cache)
        calls[(n, "text_cold_ms")] = lambda labels=labels: model.encode_text(prompt, labels)
    return rows_of("labels", interleaved_medians(calls))


def size_curve(model):
    prompt, labels = inputs.STEADY_PROMPT, inputs.VOCAB8
    pe, le = model.encode_text(prompt, labels, LanguageCache())
    calls = {}
    for px in (64, 128, 256, 512):
        image = inputs.scene(inputs.rng_for(0, "images"), px)[0]
        pyramid = model.backbone(image)
        encoded = model.encoder.encode(pyramid)
        calls[(px, "backbone_ms")] = lambda image=image: model.backbone(image)
        calls[(px, "encoder_ms")] = lambda pyramid=pyramid: model.encoder.encode(pyramid)
        calls[(px, "head_ms")] = lambda encoded=encoded: model.head(encoded, pe, le)
    return rows_of("px", interleaved_medians(calls))


def rows_of(axis, medians):
    rows = {}
    for (x, column), ms in medians.items():
        rows.setdefault(x, {axis: x})[column] = ms
    return list(rows.values())


def table(rows):
    keys = list(rows[0])
    lines = ["  ".join(f"{k:>18}" for k in keys)]
    for row in rows:
        lines.append("  ".join(f"{row[k]:>18.3f}" if isinstance(row[k], float)
                               else f"{row[k]:>18}" for k in keys))
    return "\n".join(lines)


def main():
    model = Detector(ModelConfig())
    labels, sizes = label_curve(model), size_curve(model)
    print("label count, 64 px scene (median ms)")
    print(table(labels))
    print("\nimage size, 8 labels, warm cache (median ms)")
    print(table(sizes))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / "curves.json", "w", encoding="utf-8") as fh:
        json.dump({"label_count": labels, "image_size": sizes, "reps": REPS}, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
