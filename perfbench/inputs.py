"""Seeded inputs for the benchmark workloads.

Everything here is made by the benchmark's own generator from the
workload seed, so a change to the program's data module cannot change
what is measured. The same seed always gives the same inputs.
"""

from __future__ import annotations

import numpy as np

# The detector's default 8-label vocabulary, kept here as data so the
# workloads do not depend on the program's data module.
VOCAB8 = [
    "red circle", "green square", "blue triangle", "yellow circle",
    "purple square", "orange triangle", "cyan circle", "white square",
]
COLORS = {
    "red": (0.85, 0.1, 0.1), "green": (0.1, 0.8, 0.15),
    "blue": (0.15, 0.2, 0.9), "yellow": (0.9, 0.85, 0.1),
    "purple": (0.55, 0.1, 0.75), "orange": (0.95, 0.5, 0.05),
    "cyan": (0.05, 0.8, 0.85), "white": (0.95, 0.95, 0.95),
}
STEADY_PROMPT = "Detect all objects in the image"
OPEN_PROMPTS = (
    "Detect all objects in the image",
    "Find every listed object",
    "Where are the things named below",
    "Locate each object in this picture",
)

# Open-vocabulary label pool: 1203 distinct strings, the category count of
# LVIS v1 (one of the paper's zero-shot evaluation sets), which is more than
# the language cache's default capacity of 1024. The strings are synthetic:
# the first 1203 of 8 x 14 x 12 prefix, colour and shape combinations.
LVIS_CATEGORIES = 1203
_POOL_PREFIXES = ("", "small ", "large ", "tiny ", "bright ", "dark ", "striped ", "dotted ")
_POOL_COLORS = ("red", "green", "blue", "yellow", "purple", "orange", "cyan",
                "white", "black", "grey", "pink", "brown", "teal", "gold")
_POOL_SHAPES = ("circle", "square", "triangle", "star", "ring", "cross",
                "diamond", "hexagon", "arrow", "crescent", "heart", "oval")
LABEL_POOL = [f"{p}{c} {s}" for p in _POOL_PREFIXES for c in _POOL_COLORS
              for s in _POOL_SHAPES][:LVIS_CATEGORIES]
# Assumed, not measured: no traffic trace lies behind this reuse exponent
# or the list lengths of ``label_list_lengths``.
ZIPF_EXPONENT = 1.0


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent counter-based stream per (seed, purpose)."""
    key = [seed] + list(stream.encode("utf-8"))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def scene(rng: np.random.Generator, size: int):
    """One synthetic scene: (image [size, size, 3] f32, boxes [G, 4] cxcywh, label ids).

    1 to 6 shapes of the 8-label vocabulary on a dark, lightly noised
    canvas; every box lies inside (0, 1).
    """
    img = 0.06 + rng.uniform(0.0, 0.02, size=(size, size, 3))
    yy, xx = (np.mgrid[0:size, 0:size] + 0.5) / size
    boxes, ids = [], []
    for _ in range(int(rng.integers(1, 7))):
        lid = int(rng.integers(0, len(VOCAB8)))
        color, shape = VOCAB8[lid].split()
        half = rng.uniform(0.07, 0.16)
        cx, cy = rng.uniform(half + 0.02, 1.0 - half - 0.02, size=2)
        if shape == "circle":
            mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= half * half
        elif shape == "square":
            mask = (np.abs(xx - cx) <= half) & (np.abs(yy - cy) <= half)
        else:  # triangle, apex up
            mask = ((yy >= cy - half) & (yy <= cy + half)
                    & (np.abs(xx - cx) <= (yy - (cy - half)) / 2))
        img[mask] = COLORS[color]
        boxes.append([cx, cy, 2 * half, 2 * half])
        ids.append(lid)
    return img.astype(np.float32), np.asarray(boxes, dtype=np.float64), ids


def label_weights(n: int = len(LABEL_POOL), exponent: float = ZIPF_EXPONENT):
    """Zipf reuse weights over pool ranks (rank 0 is the most reused label)."""
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return w / w.sum()


def label_list_lengths(frames: int) -> list:
    """Log-uniformly stratified list lengths, from 2 labels to about 220."""
    return [int(round(2 ** (1 + 7 * (j + 0.5) / frames))) for j in range(frames)]
