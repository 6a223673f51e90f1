"""Training loop and evaluation driver."""

from __future__ import annotations

import numpy as np

from .autograd import backward
from .nn import make_rng
from .training import (AdamW, DnConfig, LossWeights, detection_loss, dn_loss,
                       evaluate_ap, total_loss)


class NonFiniteLossError(RuntimeError):
    def __init__(self, step, breakdown):
        super().__init__(f"non-finite loss at step {step}: {breakdown}")
        self.step = step
        self.breakdown = breakdown


def train_step(model, batch, opt: AdamW, dn_cfg: DnConfig,
               weights: LossWeights, rng):
    """One optimizer update over a batch of task samples.

    Returns a loss breakdown whose od/dn parts sum to the total. Raises
    ``NonFiniteLossError``, with the weights left as they were, when the
    forward pass, the loss or any gradient is not finite.
    """
    if not batch:
        raise ValueError("empty batch")
    opt.zero_grad()
    total = None
    od_val = dn_val = 0.0
    try:
        for sample in batch:
            od_rec, dn_rec, layout = model.train_forward(sample, dn_cfg, rng)
            od_term, od_br = detection_loss(od_rec, sample.gt, weights)
            dn_term, dn_br = dn_loss(dn_rec, sample.gt, layout, weights)
            loss = total_loss(od_term, dn_term)
            total = loss if total is None else total + loss
            od_val += od_br["total"]
            dn_val += dn_br["total"]
    except FloatingPointError as exc:
        raise NonFiniteLossError(opt.t, {"forward": str(exc)}) from exc
    n = len(batch)
    total = total * (1.0 / n)
    breakdown = {"od": od_val / n, "dn": dn_val / n,
                 "total": od_val / n + dn_val / n}
    if not np.isfinite(breakdown["total"]):
        raise NonFiniteLossError(opt.t, breakdown)
    backward(total)
    bad = [name for name, p in opt.params.items()
           if p.grad is not None and not np.isfinite(p.grad).all()]
    if bad:
        raise NonFiniteLossError(opt.t, {**breakdown, "non_finite_grads": bad})
    opt.step()
    # the text weights changed in place: language caches must not serve
    # embeddings of the old ones
    model.textenc.renew_weights_token()
    breakdown["lr"] = opt.current_lr()
    return breakdown


def evaluate_model(model, samples, iou_threshold=0.5, score_threshold=0.3):
    """AP over a list of TaskSamples (per-label dict plus the mean)."""
    detections, gts = {}, {}
    for sample in samples:
        image_id = sample.gt.image_id or str(id(sample))
        det = model.detect(sample.image, sample.prompt, sample.labels,
                           image_id=image_id, score_threshold=score_threshold)
        detections[image_id] = det
        gts[image_id] = {"gt": sample.gt, "label_names": sample.labels}
    return evaluate_ap(detections, gts, iou_threshold)


def run_training(model, samples, steps, seed=0, batch_size=1, log_every=50,
                 eval_samples=None, on_metrics=None, early_stop_ap=None,
                 eval_every=None, lr_total_steps=None):
    """Train for up to ``steps`` updates; returns the list of metric records.

    Deterministic given (model init, samples, steps, seed). If
    ``early_stop_ap`` is set, training halts once the periodic AP over
    ``eval_samples`` reaches it. ``lr_total_steps`` sets the horizon of
    the staged lr decay independently of ``steps`` (useful when this run
    is one leg of a longer schedule); it defaults to ``steps``.
    """
    weights = model.config.loss_weights
    dn_cfg = model.config.dn
    opt = AdamW(model.trainable_parameters(), lr=model.config.lr,
                weight_decay=model.config.weight_decay,
                total_steps=lr_total_steps or steps)
    rng = make_rng(seed)
    metrics = []

    def emit(record):
        metrics.append(record)
        if on_metrics:
            on_metrics(record)

    for step in range(steps):
        idx = rng.integers(0, len(samples), size=batch_size)
        batch = [samples[int(i)] for i in idx]
        breakdown = train_step(model, batch, opt, dn_cfg, weights, rng)
        if (step + 1) % log_every == 0 or step == steps - 1:
            emit({"step": step + 1, **{k: round(float(v), 6)
                                       for k, v in breakdown.items()}})
        if (eval_every and early_stop_ap is not None and eval_samples
                and (step + 1) % eval_every == 0):
            _, mean_ap = evaluate_model(model, eval_samples)
            emit({"step": step + 1, "ap@0.5": round(mean_ap, 6)})
            if mean_ap >= early_stop_ap:
                break
    return metrics
