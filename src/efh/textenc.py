"""Decoupled text pathway.

A byte-level tokenizer feeds a tiny transformer encoder. Labels are
encoded one at a time and represented by the [cls] position (sentence
level); prompts keep their full token-level outputs. A LanguageCache
memoizes both, keyed by the exact string plus its role, so repeated
text never re-enters the encoder. No normalization is applied to keys;
callers that want case folding must do it themselves. A cache holds the
embeddings of one set of weights: it empties itself when an encoder
whose weights token differs from the one it was filled under uses it.
Cached encoding runs without recording the autograd tape, so a miss
returns the same kind of gradient-free tensor as a hit.
"""

from __future__ import annotations

import io
import itertools
import struct
import threading
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, no_grad, stack
from .nn import LayerNorm, TransformerLayer, make_rng, uniform_init
from .tensor_io import read_tensor, write_tensor

CLS_ID = 256
PAD_ID = 257
VOCAB_SIZE = 258

ROLE_LABEL = "label"
ROLE_PROMPT = "prompt"
_ROLE_BYTES = {ROLE_LABEL: b"l", ROLE_PROMPT: b"p"}
_ROLE_FROM_BYTE = {v: k for k, v in _ROLE_BYTES.items()}

# Every set of text-encoder weights gets a process-unique token.
_WEIGHTS_TOKENS = itertools.count(1)


@dataclass
class Vocabulary:
    max_len: int = 64
    vocab_size: int = VOCAB_SIZE
    cls_id: int = CLS_ID
    pad_id: int = PAD_ID


def tokenize(text: str, max_len: int = 64):
    """[cls] + raw UTF-8 bytes, truncated to max_len."""
    if not text.strip():
        raise ValueError("cannot tokenize empty text")
    ids = [CLS_ID] + list(text.encode("utf-8"))
    return ids[:max_len]


@dataclass
class PromptEncoding:
    embeddings: Tensor        # [T, d_text]
    valid: np.ndarray         # [T] bool

    @property
    def length(self):
        return self.embeddings.shape[0]


@dataclass
class LabelEmbeddings:
    embeddings: Tensor        # [K_lbl, d_text]
    names: list

    @property
    def count(self):
        return self.embeddings.shape[0]


class LanguageCache:
    """LRU map from (text, role) to a stored embedding array.

    Thread-safe: lookups and inserts are serialized by a lock, so a hit
    concurrent with an insert of a different key never observes torn
    state. Hits return the exact stored array (read-only view).

    ``lookup`` and ``insert`` take the weights token of the encoder that
    calls them. The cache remembers the token its entries were computed
    under and empties itself, without counting evictions, when a caller
    brings another one. Entries read by ``load`` carry no token: the first
    caller with a token claims them.
    """

    def __init__(self, capacity: int = 1024):
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self._token = None
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _claim(self, token):
        """With the lock held: drop entries computed under other weights."""
        if token is None or token == self._token:
            return
        if self._token is not None:
            self._entries.clear()
        self._token = token

    def lookup(self, role, text, token=None):
        key = (role, text)
        with self._lock:
            self._claim(token)
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            return None

    def insert(self, role, text, value: np.ndarray, token=None):
        value = np.ascontiguousarray(value)
        value.setflags(write=False)
        key = (role, text)
        with self._lock:
            self._claim(token)
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self):
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._entries), "evictions": self.evictions}

    def dump(self, path):
        """Pre-warm file: (role byte, u32 key length, key, TNSR record)."""
        with self._lock:
            items = list(self._entries.items())
        with open(path, "wb") as fh:
            for (role, text), value in items:
                fh.write(_ROLE_BYTES[role])
                encoded = text.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                write_tensor(fh, value)

    def load(self, path):
        with open(path, "rb") as fh:
            data = fh.read()
        buf = io.BytesIO(data)
        while True:
            role_byte = buf.read(1)
            if not role_byte:
                break
            role = _ROLE_FROM_BYTE[role_byte]
            (nlen,) = struct.unpack("<I", buf.read(4))
            text = buf.read(nlen).decode("utf-8")
            self.insert(role, text, read_tensor(buf))


class TextEncoder:
    """Tiny byte-level transformer standing in for a CLIP-style text tower."""

    def __init__(self, rng, d_text=64, layers=2, heads=4, max_len=64,
                 frozen_layers=0, dtype=np.float32):
        self.d_text = d_text
        self.max_len = max_len
        self.frozen_layers = frozen_layers
        self.vocab = Vocabulary(max_len=max_len)
        self.tok_emb = uniform_init(rng, (VOCAB_SIZE, d_text), d_text, dtype)
        self.pos_emb = uniform_init(rng, (max_len, d_text), d_text, dtype)
        self.layers = [TransformerLayer(rng, d_text, heads, dtype=dtype)
                       for _ in range(layers)]
        self.final_norm = LayerNorm(d_text, dtype)
        self.renew_weights_token()

    def renew_weights_token(self):
        """Mark the weights as new, so language caches drop older embeddings."""
        self.weights_token = next(_WEIGHTS_TOKENS)

    def _encode_tokens(self, ids):
        idx = np.asarray(ids, dtype=np.int64)
        x = self.tok_emb[idx] + self.pos_emb[np.arange(len(ids))]
        # The [cls] slot carries no embedding of its own: its residual
        # stream is built entirely by attention over the content tokens.
        # A learned [cls]/position-0 vector is shared by every sequence,
        # so it would dominate all sentence embeddings and make distinct
        # labels nearly collinear (and stay that way under training).
        mask = np.ones((len(ids), 1), dtype=x.dtype)
        mask[0, 0] = 0.0
        x = x * mask
        for layer in self.layers:
            x = layer(x)
        return self.final_norm(x)

    def encode_text(self, text):
        """Token-level encoding [T, d_text] of a single string."""
        return self._encode_tokens(tokenize(text, self.max_len))

    def encode_prompt(self, prompt, cache: LanguageCache | None = None,
                      training: bool = False) -> PromptEncoding:
        if not prompt.strip():
            raise ValueError("empty prompt")
        if training:
            cache = None
        n_tokens = len(tokenize(prompt, self.max_len))
        with no_grad() if cache is not None else nullcontext():
            if cache is not None:
                hit = cache.lookup(ROLE_PROMPT, prompt, self.weights_token)
                if hit is not None:
                    return PromptEncoding(Tensor(hit), np.ones(n_tokens, dtype=bool))
            enc = self.encode_text(prompt)
        if cache is not None:
            cache.insert(ROLE_PROMPT, prompt, enc.data, self.weights_token)
        return PromptEncoding(enc, np.ones(n_tokens, dtype=bool))

    def encode_labels(self, labels, cache: LanguageCache | None = None,
                      training: bool = False) -> LabelEmbeddings:
        if not labels:
            raise ValueError("empty label list")
        if training:
            cache = None
        with no_grad() if cache is not None else nullcontext():
            rows = []
            for label in labels:
                if not label.strip():
                    raise ValueError("empty label string")
                if cache is not None:
                    hit = cache.lookup(ROLE_LABEL, label, self.weights_token)
                    if hit is not None:
                        rows.append(Tensor(hit))
                        continue
                cls_row = self.encode_text(label)[0]
                if cache is not None:
                    cache.insert(ROLE_LABEL, label, cls_row.data, self.weights_token)
                rows.append(cls_row)
            return LabelEmbeddings(stack(rows, axis=0), list(labels))

    def parameters(self, prefix="textenc"):
        out = {f"{prefix}.tok_emb": self.tok_emb, f"{prefix}.pos_emb": self.pos_emb}
        for i, layer in enumerate(self.layers):
            out.update(layer.parameters(f"{prefix}.layer{i}"))
        out.update(self.final_norm.parameters(f"{prefix}.final_norm"))
        return out

    def trainable_parameters(self, prefix="textenc"):
        """All parameters minus the first ``frozen_layers`` transformer blocks."""
        params = self.parameters(prefix)
        frozen = {name for i in range(self.frozen_layers)
                  for name in self.layers[i].parameters(f"{prefix}.layer{i}")}
        return {k: v for k, v in params.items() if k not in frozen}


def cache_stats(cache: LanguageCache):
    return cache.stats()


def build_text_encoder(seed=0, **kwargs):
    return TextEncoder(make_rng(seed), **kwargs)
