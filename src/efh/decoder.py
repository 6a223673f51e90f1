"""Language-aware decoder.

Each layer runs one self-attention pass over the concatenated
[queries; prompt tokens] (optionally masked to isolate denoising
queries), lets queries attend to the encoded image via deformable
attention guided by their reference boxes, and refines the boxes
through inverse-sigmoid space. Classification is a scaled dot product
against projected label embeddings, squashed by a sigmoid so labels
stay independent (open-vocabulary, multi-label).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autograd import AttentionMask, Tensor, concat, matmul, ms_deform_attn, softmax
from .encoder import EncodedFeatures
from .nn import LayerNorm, Linear, MLP, MultiHeadSelfAttention, inverse_sigmoid, uniform_init

N_SCALES = 3


@dataclass
class QueryState:
    q: Tensor          # [N_q, d] content queries
    p: Tensor          # [T, d] prompt features
    b: Tensor          # [N_q, 4] reference boxes, cxcywh in (0,1)
    layer: int = 0


@dataclass
class Detection:
    bbox: list
    score: float
    label: str


@dataclass
class DetectionSet:
    image: str
    prompt: str
    detections: list = field(default_factory=list)

    def to_json(self) -> str:
        doc = {
            "image": self.image,
            "prompt": self.prompt,
            "detections": [
                {"bbox": [round(float(v), 6) for v in d.bbox],
                 "score": round(float(d.score), 6),
                 "label": d.label}
                for d in self.detections
            ],
        }
        return json.dumps(doc, indent=2)


class DeformableAttention:
    """Multi-scale deformable attention over the flattened encoder output."""

    def __init__(self, rng, d, heads, points, dtype=np.float32):
        if d % heads != 0:
            raise ValueError(f"width {d} not divisible by {heads} heads")
        self.heads = heads
        self.points = points
        self.value_proj = Linear(rng, d, d, dtype)
        self.offset_proj = Linear(rng, d, heads * N_SCALES * points * 2, dtype)
        self.weight_proj = Linear(rng, d, heads * N_SCALES * points, dtype)
        self.out_proj = Linear(rng, d, d, dtype)

    def __call__(self, queries, refs, encoded: EncodedFeatures):
        nq = queries.shape[0]
        values = self.value_proj(encoded.o)                      # [M, d]
        offsets = self.offset_proj(queries)                      # [nq, h*3*s*2]
        raw_w = self.weight_proj(queries).reshape(nq, self.heads, N_SCALES * self.points)
        weights = softmax(raw_w, axis=-1)
        sampled = ms_deform_attn(values, encoded.scale_shapes, encoded.scale_offsets,
                                 refs, offsets, weights, self.heads, self.points)
        return self.out_proj(sampled)

    def parameters(self, prefix):
        out = {}
        for name in ("value_proj", "offset_proj", "weight_proj", "out_proj"):
            out.update(getattr(self, name).parameters(f"{prefix}.{name}"))
        return out


class DecoderLayer:
    """Self-attention -> deformable cross-attention -> feed-forward (post-norm).

    The prompt rows participate only in the self-attention sublayer; the
    cross-attention, feed-forward, and box refinement apply to queries.
    """

    def __init__(self, rng, d, heads, points, dtype=np.float32):
        self.self_attn = MultiHeadSelfAttention(rng, d, heads, dtype)
        self.norm1 = LayerNorm(d, dtype)
        self.cross_attn = DeformableAttention(rng, d, heads, points, dtype)
        self.norm2 = LayerNorm(d, dtype)
        self.ff1 = Linear(rng, d, 4 * d, dtype)
        self.ff2 = Linear(rng, 4 * d, d, dtype)
        self.norm3 = LayerNorm(d, dtype)
        self.refine_mlp = MLP(rng, [d, d, d, 4], dtype, zero_last=True)

    def __call__(self, state: QueryState, encoded: EncodedFeatures,
                 mask: AttentionMask | None = None) -> QueryState:
        nq = state.q.shape[0]
        t = state.p.shape[0]
        if mask is not None and mask.shape != (nq + t, nq + t):
            raise ValueError(f"mask shape {mask.shape} != {(nq + t, nq + t)}")
        x = concat([state.q, state.p], axis=0)
        x = self.norm1(x + self.self_attn(x, mask=mask))
        q, p_next = x[:nq], x[nq:]
        q = self.norm2(q + self.cross_attn(q, state.b.detach(), encoded))
        q = self.norm3(q + self.ff2(self.ff1(q).relu()))
        b_next = (self.refine_mlp(q) + inverse_sigmoid(state.b)).sigmoid()
        return QueryState(q, p_next, b_next, state.layer + 1)

    def parameters(self, prefix):
        out = {}
        out.update(self.self_attn.parameters(f"{prefix}.self_attn"))
        out.update(self.norm1.parameters(f"{prefix}.norm1"))
        out.update(self.cross_attn.parameters(f"{prefix}.cross_attn"))
        out.update(self.norm2.parameters(f"{prefix}.norm2"))
        out.update(self.ff1.parameters(f"{prefix}.ff1"))
        out.update(self.ff2.parameters(f"{prefix}.ff2"))
        out.update(self.norm3.parameters(f"{prefix}.norm3"))
        out.update(self.refine_mlp.parameters(f"{prefix}.refine"))
        return out


def classify(q_final, projected_labels):
    """Per-query logits against projected label embeddings, scaled by 1/sqrt(d)."""
    d = q_final.shape[1]
    return matmul(q_final, projected_labels.T) * (1.0 / np.sqrt(d))


def build_dn_mask(k_q, groups, per_group, t) -> AttentionMask:
    """Self-attention mask with layout [dn (g*m) | matching (K_q) | prompt (T)].

    Denoising queries see only their own group; matching queries and
    prompt tokens see each other but never the denoising queries, and
    denoising queries never see the prompt.
    """
    n_dn = groups * per_group
    n = n_dn + k_q + t
    allow = np.zeros((n, n), dtype=bool)
    for g in range(groups):
        lo, hi = g * per_group, (g + 1) * per_group
        allow[lo:hi, lo:hi] = True
    allow[n_dn:, n_dn:] = True
    return AttentionMask(allow)


class ElaDecoder:
    def __init__(self, rng, d=64, d_text=64, heads=8, layers=4, points=4,
                 k_q=64, dtype=np.float32):
        self.d = d
        self.k_q = k_q
        # learned content-query table: random at init, fixed thereafter
        self.query_emb = uniform_init(rng, (k_q, d), d, dtype)
        self.prompt_proj = Linear(rng, d_text, d, dtype)
        self.layers = [DecoderLayer(rng, d, heads, points, dtype)
                       for _ in range(layers)]

    def initial_state(self, b0, prompt_encoding, dn_queries=None, dn_boxes=None):
        q = self.query_emb
        b = b0 if isinstance(b0, Tensor) else Tensor(b0)
        if dn_queries is not None:
            q = concat([dn_queries, q], axis=0)
            b = concat([dn_boxes if isinstance(dn_boxes, Tensor) else Tensor(dn_boxes), b],
                       axis=0)
        p = self.prompt_proj(prompt_encoding.embeddings)
        return QueryState(q, p, b)

    def run_layers(self, state: QueryState, encoded: EncodedFeatures,
                   mask: AttentionMask | None, projected_labels):
        """Run all layers; returns per-layer (boxes, logits) plus the final state."""
        records = []
        for layer in self.layers:
            state = layer(state, encoded, mask=mask)
            records.append((state.b, classify(state.q, projected_labels)))
        return records, state

    def parameters(self, prefix="decoder"):
        out = {f"{prefix}.query_emb": self.query_emb}
        out.update(self.prompt_proj.parameters(f"{prefix}.prompt_proj"))
        for i, layer in enumerate(self.layers):
            out.update(layer.parameters(f"{prefix}.layer{i}"))
        return out


def decode_detections(boxes, logits, label_names, image_id, prompt,
                      score_threshold=0.05) -> DetectionSet:
    """Argmax label + sigmoid score per query, thresholded."""
    b = boxes.data if isinstance(boxes, Tensor) else np.asarray(boxes)
    z = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    scores = 1.0 / (1.0 + np.exp(-z))
    det = DetectionSet(image=image_id, prompt=prompt)
    for i in range(b.shape[0]):
        j = int(np.argmax(scores[i]))
        s = float(scores[i, j])
        if s >= score_threshold:
            det.detections.append(Detection(bbox=[float(v) for v in b[i]],
                                            score=s, label=label_names[j]))
    det.detections.sort(key=lambda d: -d.score)
    return det
