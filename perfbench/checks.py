"""Output checks of the benchmark.

Each check returns a list of problems (empty when the output is right).
Every check compares against a property the method must have or against
a computation made apart from the program; none compares with a stored
copy of earlier output.
"""

from __future__ import annotations

import json
from collections import OrderedDict

import numpy as np

RELEVANCE_TOL = 1e-4      # f32 program vs f64 recomputation, cosine in [-1, 1]
REVERSAL_TOL = 1e-5       # boxes and scores after reversing the label list
DIRECTIONAL_RTOL = 1e-4   # autograd vs central difference, in f64


def check_detection_json(text: str, labels, k_q: int, threshold: float) -> list:
    """Per-frame contract of the detection JSON."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"detection JSON does not parse: {exc}"]
    dets = doc.get("detections")
    if not isinstance(dets, list):
        return ["detection JSON has no detection list"]
    problems = []
    if len(dets) > k_q:
        problems.append(f"{len(dets)} detections exceed k_q={k_q}")
    allowed = set(labels)
    prev = float("inf")
    for i, det in enumerate(dets):
        box = det.get("bbox", [])
        if len(box) != 4 or not all(0.0 < v < 1.0 for v in box):
            problems.append(f"detection {i}: bbox {box} not cxcywh inside (0, 1)")
        score = det.get("score", -1.0)
        if not threshold <= score <= 1.0:
            problems.append(f"detection {i}: score {score} outside [{threshold}, 1]")
        if score > prev:
            problems.append(f"detection {i}: score {score} above the previous {prev}")
        prev = score
        if det.get("label") not in allowed:
            problems.append(f"detection {i}: label {det.get('label')!r} not in the frame's list")
    return problems


def check_same_json(cached: str, uncached: str) -> list:
    if cached != uncached:
        return ["cache-on detect JSON differs from cache-off detect JSON"]
    return []


def cosine_relevance(o: np.ndarray, projected: np.ndarray) -> np.ndarray:
    """Max over labels of the cosine between each position and each label, in f64."""
    o = o.astype(np.float64)
    p = projected.astype(np.float64)
    on = o / (np.linalg.norm(o, axis=1, keepdims=True) + 1e-8)
    pn = p / (np.linalg.norm(p, axis=1, keepdims=True) + 1e-8)
    return (on @ pn.T).max(axis=1)


def check_topk(relevance: np.ndarray, indices, o: np.ndarray,
               projected: np.ndarray, k: int) -> list:
    """Program's relevance and top-K selection against a plain numpy recomputation.

    Positions whose recomputed relevance ties the K-th value within
    RELEVANCE_TOL may be swapped across the boundary.
    """
    ref = cosine_relevance(o, projected)
    problems = []
    err = float(np.max(np.abs(ref - np.asarray(relevance, dtype=np.float64))))
    if err > RELEVANCE_TOL:
        problems.append(f"relevance differs from the recomputation by {err:.3g}")
    idx = [int(i) for i in indices]
    if len(idx) != k or len(set(idx)) != k:
        return problems + [f"top-K returned {len(idx)} indices ({len(set(idx))} distinct), want {k}"]
    kth = np.sort(ref)[::-1][k - 1]
    expected = set(np.flatnonzero(ref > kth + RELEVANCE_TOL).tolist())
    allowed = set(np.flatnonzero(ref >= kth - RELEVANCE_TOL).tolist())
    chosen = set(idx)
    if not expected <= chosen or not chosen <= allowed:
        problems.append(f"top-K indices differ from the recomputation: "
                        f"{len(expected - chosen)} missing, {len(chosen - allowed)} extra")
    if np.any(np.diff(ref[idx]) > RELEVANCE_TOL):
        problems.append("top-K indices are not in descending relevance order")
    return problems


def check_reversal(forward_json: str, reversed_json: str) -> list:
    """Reversing the label list must leave the detections unchanged (within tolerance)."""
    def key(det):
        return (det["label"], det["bbox"], det["score"])

    a = sorted((key(d) for d in json.loads(forward_json)["detections"]))
    b = sorted((key(d) for d in json.loads(reversed_json)["detections"]))
    if len(a) != len(b):
        return [f"reversed label list gives {len(b)} detections, not {len(a)}"]
    for (la, ba, sa), (lb, bb, sb) in zip(a, b):
        if la != lb or abs(sa - sb) > REVERSAL_TOL or \
                max(abs(x - y) for x, y in zip(ba, bb)) > REVERSAL_TOL:
            return [f"reversed label list changes a detection: {la} {ba} {sa} vs {lb} {bb} {sb}"]
    return []


class LruModel:
    """The benchmark's own model of the language cache's (role, text) LRU."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def request(self, role: str, text: str) -> None:
        key = (role, text)
        if key in self.entries:
            self.entries.move_to_end(key)
            self.hits += 1
            return
        self.misses += 1
        self.entries[key] = None
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1

    def encode(self, prompt: str, labels) -> None:
        """The lookups one cached encode makes: the prompt, then each label in order."""
        self.request("prompt", prompt)
        for label in labels:
            self.request("label", label)

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self.entries), "evictions": self.evictions}


def check_counters(predicted: dict, stats: dict) -> list:
    return [f"cache {name}: program reports {stats.get(name)}, LRU model predicts {value}"
            for name, value in predicted.items() if stats.get(name) != value]


def check_losses(breakdown: dict) -> list:
    bad = {k: v for k, v in breakdown.items() if not np.isfinite(v)}
    return [f"non-finite loss terms {bad}"] if bad else []


def check_directional(autograd_dd: float, fd_dd: float) -> list:
    """Autograd directional derivative against a central finite difference."""
    scale = max(abs(autograd_dd), abs(fd_dd), 1e-12)
    if abs(autograd_dd - fd_dd) > DIRECTIONAL_RTOL * scale:
        return [f"directional derivative {autograd_dd:.9g} (autograd) vs "
                f"{fd_dd:.9g} (finite difference)"]
    return []
