"""Full detector: text pathway + image pathway + fusion head.

Wires the text encoder, image backbone, language-aware encoder, and
decoder together behind a single config, and owns checkpoint and
detection-output serialization.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .autograd import no_grad
from .backbone import ImageBackbone
from .decoder import DetectionSet, ElaDecoder, build_dn_mask, decode_detections
from .encoder import ElaEncoder
from .nn import Linear, make_rng
from .textenc import LanguageCache, TextEncoder
from .tensor_io import load_checkpoint, save_checkpoint
from .training import DnConfig, LossWeights, make_dn_queries


@dataclass
class ModelConfig:
    d: int = 64
    d_text: int = 64
    heads: int = 8
    text_heads: int = 4
    layers: int = 4
    text_layers: int = 2
    frozen_text_layers: int = 0
    k_q: int = 64
    points: int = 4
    max_text_len: int = 64
    score_threshold: float = 0.05
    seed: int = 0
    lr: float = 1e-4
    weight_decay: float = 1e-4
    loss_weights: LossWeights = field(default_factory=LossWeights)
    dn: DnConfig = field(default_factory=DnConfig)

    def __post_init__(self):
        if self.d % self.heads:
            raise ValueError(f"d={self.d} not divisible by heads={self.heads}")
        if self.d_text % self.text_heads:
            raise ValueError(
                f"d_text={self.d_text} not divisible by text_heads={self.text_heads}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        raw = json.loads(text)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        if "loss_weights" in raw:
            raw["loss_weights"] = LossWeights(**raw["loss_weights"])
        if "dn" in raw:
            raw["dn"] = DnConfig(**raw["dn"])
        return cls(**raw)

    @classmethod
    def load(cls, path) -> "ModelConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())


class Detector:
    def __init__(self, config: ModelConfig, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        rng = make_rng(config.seed)
        self.textenc = TextEncoder(rng, d_text=config.d_text, layers=config.text_layers,
                                   heads=config.text_heads, max_len=config.max_text_len,
                                   frozen_layers=config.frozen_text_layers, dtype=dtype)
        self.backbone = ImageBackbone(rng, d=config.d, dtype=dtype)
        self.encoder = ElaEncoder(rng, d=config.d, d_text=config.d_text,
                                  heads=config.heads, dtype=dtype)
        self.decoder = ElaDecoder(rng, d=config.d, d_text=config.d_text,
                                  heads=config.heads, layers=config.layers,
                                  points=config.points, k_q=config.k_q, dtype=dtype)
        # content queries for denoising, built from noised label embeddings
        self.dn_proj = Linear(rng, config.d_text, config.d, dtype)

    # ---- parameters ----------------------------------------------------

    def parameters(self) -> dict:
        out = {}
        out.update(self.textenc.parameters("textenc"))
        out.update(self.backbone.parameters("backbone"))
        out.update(self.encoder.parameters("encoder"))
        out.update(self.decoder.parameters("decoder"))
        out.update(self.dn_proj.parameters("dn_proj"))
        return out

    def trainable_parameters(self) -> dict:
        out = dict(self.parameters())
        frozen = set(self.textenc.parameters("textenc")) - set(
            self.textenc.trainable_parameters("textenc"))
        return {k: v for k, v in out.items() if k not in frozen}

    def save(self, path):
        save_checkpoint(path, {k: v.data for k, v in sorted(self.parameters().items())})

    def load(self, path):
        stored = load_checkpoint(path)
        params = self.parameters()
        missing = set(params) - set(stored)
        if missing:
            raise ValueError(f"checkpoint missing tensors: {sorted(missing)[:5]}...")
        # Before any weight changes, so a load that fails part-way through
        # still keeps the language cache from serving the old embeddings.
        self.textenc.renew_weights_token()
        for name, p in params.items():
            arr = stored[name]
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{arr.shape} vs {p.data.shape}")
            p.data = arr.astype(p.data.dtype)

    # ---- inference -----------------------------------------------------

    def encode_text(self, prompt, labels, cache: LanguageCache | None = None,
                    training=False):
        pe = self.textenc.encode_prompt(prompt, cache, training)
        le = self.textenc.encode_labels(labels, cache, training)
        return pe, le

    def encode_image(self, image):
        pyramid = self.backbone(image)
        return self.encoder.encode(pyramid)

    def head(self, encoded, prompt_encoding, label_embeddings,
             dn_queries=None, dn_boxes=None, mask=None):
        """Proposal selection + decoder; returns per-layer records and state."""
        _, proposals = self.encoder.propose(encoded, label_embeddings,
                                            self.config.k_q)
        projected = self.encoder.project_labels(label_embeddings)
        state = self.decoder.initial_state(proposals.b0, prompt_encoding,
                                           dn_queries, dn_boxes)
        records, final = self.decoder.run_layers(state, encoded, mask, projected)
        return records, final, proposals

    @no_grad()   # inference records no autograd tape
    def detect(self, image, prompt, labels, cache: LanguageCache | None = None,
               image_id="", score_threshold=None) -> DetectionSet:
        threshold = (self.config.score_threshold
                     if score_threshold is None else score_threshold)
        pe, le = self.encode_text(prompt, labels, cache)
        encoded = self.encode_image(image)
        records, final, _ = self.head(encoded, pe, le)
        boxes, logits = records[-1]
        return decode_detections(boxes, logits, le.names, image_id, prompt,
                                 threshold)

    # ---- training forward ----------------------------------------------

    def train_forward(self, sample, dn: DnConfig, rng):
        """Forward pass with denoising queries; per-layer od and dn records."""
        pe, le = self.encode_text(sample.prompt, sample.labels, training=True)
        encoded = self.encode_image(sample.image)
        dn_boxes, dn_labels, layout = make_dn_queries(sample.gt, dn, rng,
                                                      len(sample.labels))
        n_dn = layout["groups"] * layout["per_group"]
        if n_dn:
            dn_q = self.dn_proj(le.embeddings[np.asarray(dn_labels)])
            mask = build_dn_mask(self.config.k_q, layout["groups"],
                                 layout["per_group"], pe.length)
            records, final, proposals = self.head(
                encoded, pe, le, dn_queries=dn_q,
                dn_boxes=dn_boxes.astype(self.dtype), mask=mask)
            od_records = [(b[n_dn:], z[n_dn:]) for b, z in records]
            dn_records = [(b[:n_dn], z[:n_dn]) for b, z in records]
        else:
            records, final, proposals = self.head(encoded, pe, le)
            od_records, dn_records = records, []
        return od_records, dn_records, layout
