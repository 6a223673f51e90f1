"""Synthetic scenes and multi-task sample conversion.

Scenes are colored shapes (circle / square / triangle) rasterized onto a
dark canvas with exact bounding boxes, giving a deterministic desk-scale
data source. Task conversion turns raw annotations from detection,
grounding, HOI, and phrase-grounding tasks into a unified
(prompt, labels, boxes) sample, with a short fallback prompt whenever
the concatenated labels would blow the text encoder's context length.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .nn import make_rng
from .training import GroundTruth

OD_TEMPLATES = [
    "Detect objects in {}",
    "Where is the location of {}",
]
FALLBACK_PROMPT = "Detect all objects in the image"

COLORS = {
    "red": (0.85, 0.1, 0.1),
    "green": (0.1, 0.8, 0.15),
    "blue": (0.15, 0.2, 0.9),
    "yellow": (0.9, 0.85, 0.1),
    "purple": (0.55, 0.1, 0.75),
    "orange": (0.95, 0.5, 0.05),
    "cyan": (0.05, 0.8, 0.85),
    "white": (0.95, 0.95, 0.95),
}
SHAPES = ("circle", "square", "triangle")

# Eight chromatically distinct classes. Each label has a unique color so
# the classes are separable at the 64-px desk scale; the shape word still
# varies, keeping the text side genuinely multi-token.
DEFAULT_VOCAB = [
    "red circle", "green square", "blue triangle", "yellow circle",
    "purple square", "orange triangle", "cyan circle", "white square",
]

TASK_KINDS = ("OD", "grounding", "HOI", "phrase-grounding")


@dataclass
class TaskSample:
    image: str | np.ndarray
    prompt: str
    labels: list
    gt: GroundTruth
    task: str = "OD"

    def to_record(self) -> dict:
        return {
            "image": self.image if isinstance(self.image, str) else self.gt.image_id,
            "prompt": self.prompt,
            "labels": list(self.labels),
            "boxes": [[float(v) for v in b] for b in self.gt.boxes],
            "label_ids": [int(i) for i in self.gt.label_ids],
            "task": self.task,
        }


def write_samples_jsonl(path, samples):
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(json.dumps(s.to_record()) + "\n")


def read_samples_jsonl(path):
    samples = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            gt = GroundTruth(np.asarray(rec["boxes"], dtype=np.float64).reshape(-1, 4),
                             rec["label_ids"], image_id=rec["image"])
            samples.append(TaskSample(rec["image"], rec["prompt"], rec["labels"],
                                      gt, rec["task"]))
    return samples


# ---- task conversion ---------------------------------------------------


def _gerund(verb):
    if verb.endswith("e") and not verb.endswith("ee"):
        verb = verb[:-1]
    return verb + "ing"


def _past(verb):
    if verb.endswith("e"):
        return verb + "d"
    return verb + "ed"


def convert_task(raw, kind, rng=None, templates=None, max_prompt_len=64) -> TaskSample:
    """Convert a raw annotation of the given kind into a TaskSample.

    The prompt never exceeds ``max_prompt_len`` characters: label
    concatenations that would overflow fall back to a generic directive.
    """
    rng = rng or make_rng(0)
    templates = templates or OD_TEMPLATES
    if kind not in TASK_KINDS:
        raise ValueError(f"unknown task kind {kind!r}")

    boxes = np.asarray(raw.get("boxes", []), dtype=np.float64).reshape(-1, 4)
    image = raw.get("image", "")

    if kind in ("OD", "phrase-grounding"):
        labels = list(raw["labels"])
        template = templates[int(rng.integers(0, len(templates)))]
        prompt = template.format(", ".join(labels))
        if len(prompt) > max_prompt_len:
            prompt = FALLBACK_PROMPT
        label_ids = list(raw.get("label_ids", range(len(boxes))))
    elif kind == "grounding":
        prompt = raw["caption"]
        if len(prompt) > max_prompt_len:
            prompt = FALLBACK_PROMPT
        labels = list(raw["phrases"])
        label_ids = list(raw.get("label_ids", range(len(boxes))))
    else:  # HOI: (subject, verb, object) becomes two object phrases
        subject, verb, obj = raw["subject"], raw["verb"], raw["object"]
        labels = [f"{_gerund(verb)} {subject}", f"{obj} being {_past(verb)}"]
        prompt = f"{subject} {_gerund(verb)} {obj}"
        if len(prompt) > max_prompt_len:
            prompt = FALLBACK_PROMPT
        label_ids = list(raw.get("label_ids", range(len(boxes))))

    gt = GroundTruth(boxes, label_ids, image_id=str(image))
    return TaskSample(image, prompt, labels, gt, kind)


# ---- synthetic scenes --------------------------------------------------


def _rasterize(canvas, shape, color, cx, cy, half):
    h, w, _ = canvas.shape
    yy, xx = np.mgrid[0:h, 0:w]
    px, py = cx * w, cy * h
    r = half * min(h, w)
    if shape == "circle":
        mask = (xx - px) ** 2 + (yy - py) ** 2 <= r * r
    elif shape == "square":
        mask = (np.abs(xx - px) <= r) & (np.abs(yy - py) <= r)
    else:  # triangle: apex up, inscribed in the box
        mask = ((yy >= py - r) & (yy <= py + r)
                & (np.abs(xx - px) <= (yy - (py - r)) / 2))
    canvas[mask] = color
    return mask


def generate_synthetic_scene(seed, canvas_size=64, vocab=None):
    """One deterministic scene: (image [H,W,3] in [0,1], GroundTruth, vocab).

    1 to 6 shapes from the vocabulary, sized and placed so every box lies
    strictly inside (0, 1), with limited mutual overlap.
    """
    if canvas_size % 32:
        raise ValueError("canvas size must be divisible by 32")
    vocab = list(vocab) if vocab is not None else list(DEFAULT_VOCAB)
    rng = make_rng(seed)
    img = np.full((canvas_size, canvas_size, 3), 0.06, dtype=np.float32)
    img += rng.uniform(0, 0.02, size=img.shape).astype(np.float32)

    n = int(rng.integers(1, 7))
    boxes, label_ids, placed = [], [], []
    for _ in range(n):
        lid = int(rng.integers(0, len(vocab)))
        color_name, shape = vocab[lid].split()
        for _attempt in range(20):
            half = rng.uniform(0.07, 0.16)
            cx = rng.uniform(half + 0.02, 1 - half - 0.02)
            cy = rng.uniform(half + 0.02, 1 - half - 0.02)
            ok = all((abs(cx - ox) > half + oh) or (abs(cy - oy) > half + oh)
                     for ox, oy, oh in placed)
            if ok:
                break
        else:
            continue
        _rasterize(img, shape, COLORS[color_name], cx, cy, half)
        placed.append((cx, cy, half))
        boxes.append([cx, cy, 2 * half, 2 * half])
        label_ids.append(lid)
    if not boxes:  # pathological seed; place one shape dead center
        lid = int(rng.integers(0, len(vocab)))
        color_name, shape = vocab[lid].split()
        _rasterize(img, shape, COLORS[color_name], 0.5, 0.5, 0.12)
        boxes.append([0.5, 0.5, 0.24, 0.24])
        label_ids.append(lid)
    img = np.clip(img, 0.0, 1.0)
    gt = GroundTruth(np.asarray(boxes, dtype=np.float64), label_ids,
                     image_id=f"scene-{seed}")
    return img, gt, vocab


def _worker_count():
    env = os.environ.get("EFH_THREADS")
    if env:
        return max(1, int(env))
    return 1


def generate_dataset(seeds, canvas_size=64, vocab=None, template_rng_seed=0):
    """TaskSamples for a list of scene seeds (parallelism capped by EFH_THREADS)."""
    vocab = list(vocab) if vocab is not None else list(DEFAULT_VOCAB)

    def build(seed):
        img, gt, v = generate_synthetic_scene(seed, canvas_size, vocab)
        raw = {"image": gt.image_id, "labels": v, "boxes": gt.boxes,
               "label_ids": gt.label_ids}
        sample = convert_task(raw, "OD", rng=make_rng(template_rng_seed + seed))
        sample.image = img
        return sample

    workers = _worker_count()
    if workers == 1:
        return [build(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(build, seeds))
