"""Training machinery: matching, losses, denoising groups, optimizer, AP.

Box regression uses L1 plus generalized IoU; classification is binary
cross-entropy against IoU-aware soft targets (the matched query's target
at its ground-truth label equals the IoU of its predicted box, keeping
classification consistent with localization). An auxiliary loss is taken
after every decoder layer, each with its own bipartite matching. The
denoising branch reconstructs jittered ground truth with known
correspondence, so it skips matching entirely. Total = detection loss +
denoising loss, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, absolute, bce_with_logits, maximum, minimum


@dataclass
class GroundTruth:
    boxes: np.ndarray       # [G, 4] normalized cxcywh
    label_ids: list
    image_id: str = ""

    @property
    def count(self):
        return len(self.label_ids)


@dataclass
class LossWeights:
    cls: float = 1.0
    l1: float = 5.0
    giou: float = 2.0
    dn_cls: float = 1.0
    dn_l1: float = 5.0
    dn_giou: float = 2.0


@dataclass
class DnConfig:
    groups: int = 3
    box_noise: float = 0.4
    label_flip: float = 0.25


# ---- boxes -------------------------------------------------------------


def _to_xyxy(b):
    cx, cy, w, h = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=-1)


def iou(a, b) -> float:
    """Plain IoU of two cxcywh boxes."""
    ax0, ay0, ax1, ay1 = _to_xyxy(np.asarray(a, dtype=np.float64))
    bx0, by0, bx1, by1 = _to_xyxy(np.asarray(b, dtype=np.float64))
    iw = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    ih = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union if union > 0 else 0.0


def giou(a, b) -> float:
    """Generalized IoU of two cxcywh boxes; in (-1, 1], symmetric."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a[2] <= 0 or a[3] <= 0 or b[2] <= 0 or b[3] <= 0:
        raise ValueError("giou requires positive box width/height")
    ax0, ay0, ax1, ay1 = _to_xyxy(a)
    bx0, by0, bx1, by1 = _to_xyxy(b)
    iw = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    ih = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    ew = max(ax1, bx1) - min(ax0, bx0)
    eh = max(ay1, by1) - min(ay0, by0)
    enclose = ew * eh
    return inter / union - (enclose - union) / enclose


def iou_matrix(pred, gt) -> np.ndarray:
    """Pairwise IoU between [N,4] and [G,4] cxcywh arrays."""
    p = _to_xyxy(np.asarray(pred, dtype=np.float64))[:, None, :]
    g = _to_xyxy(np.asarray(gt, dtype=np.float64))[None, :, :]
    iw = np.maximum(0.0, np.minimum(p[..., 2], g[..., 2]) - np.maximum(p[..., 0], g[..., 0]))
    ih = np.maximum(0.0, np.minimum(p[..., 3], g[..., 3]) - np.maximum(p[..., 1], g[..., 1]))
    inter = iw * ih
    area_p = (p[..., 2] - p[..., 0]) * (p[..., 3] - p[..., 1])
    area_g = (g[..., 2] - g[..., 0]) * (g[..., 3] - g[..., 1])
    union = area_p + area_g - inter
    return np.where(union > 0, inter / union, 0.0)


def giou_matrix(pred, gt) -> np.ndarray:
    p = _to_xyxy(np.asarray(pred, dtype=np.float64))[:, None, :]
    g = _to_xyxy(np.asarray(gt, dtype=np.float64))[None, :, :]
    iw = np.maximum(0.0, np.minimum(p[..., 2], g[..., 2]) - np.maximum(p[..., 0], g[..., 0]))
    ih = np.maximum(0.0, np.minimum(p[..., 3], g[..., 3]) - np.maximum(p[..., 1], g[..., 1]))
    inter = iw * ih
    area_p = (p[..., 2] - p[..., 0]) * (p[..., 3] - p[..., 1])
    area_g = (g[..., 2] - g[..., 0]) * (g[..., 3] - g[..., 1])
    union = area_p + area_g - inter
    ew = np.maximum(p[..., 2], g[..., 2]) - np.minimum(p[..., 0], g[..., 0])
    eh = np.maximum(p[..., 3], g[..., 3]) - np.minimum(p[..., 1], g[..., 1])
    enclose = ew * eh
    return np.where(union > 0, inter / union, 0.0) - (enclose - union) / enclose


def giou_pairs(pred: Tensor, gt: np.ndarray) -> Tensor:
    """Differentiable elementwise GIoU between matched [P,4] boxes."""
    g = np.asarray(gt, dtype=pred.dtype)
    px0 = pred[:, 0] - pred[:, 2] * 0.5
    py0 = pred[:, 1] - pred[:, 3] * 0.5
    px1 = pred[:, 0] + pred[:, 2] * 0.5
    py1 = pred[:, 1] + pred[:, 3] * 0.5
    gx0, gy0, gx1, gy1 = (Tensor(v) for v in _to_xyxy(g).T)
    zero = Tensor(np.zeros(pred.shape[0], dtype=pred.dtype))
    iw = maximum(minimum(px1, gx1) - maximum(px0, gx0), zero)
    ih = maximum(minimum(py1, gy1) - maximum(py0, gy0), zero)
    inter = iw * ih
    union = (px1 - px0) * (py1 - py0) + (gx1 - gx0) * (gy1 - gy0) - inter
    ew = maximum(px1, gx1) - minimum(px0, gx0)
    eh = maximum(py1, gy1) - minimum(py0, gy0)
    enclose = ew * eh
    return inter / union - (enclose - union) / enclose


# ---- matching ----------------------------------------------------------


def match_cost_matrix(pred_boxes, pred_logits, gt: GroundTruth,
                      weights: LossWeights) -> np.ndarray:
    """[N_q, G] assignment cost mirroring the loss terms."""
    pb = pred_boxes.data if isinstance(pred_boxes, Tensor) else np.asarray(pred_boxes)
    pl = pred_logits.data if isinstance(pred_logits, Tensor) else np.asarray(pred_logits)
    probs = 1.0 / (1.0 + np.exp(-pl.astype(np.float64)))
    cls_cost = 1.0 - probs[:, gt.label_ids]                       # [N_q, G]
    l1_cost = np.abs(pb[:, None, :] - gt.boxes[None, :, :]).sum(axis=2)
    giou_cost = 1.0 - giou_matrix(pb, gt.boxes)
    return weights.cls * cls_cost + weights.l1 * l1_cost + weights.giou * giou_cost


def hungarian_match(pred_boxes, pred_logits, gt: GroundTruth,
                    weights: LossWeights):
    """Optimal one-to-one (query, gt) assignment; list of (query, gt) pairs."""
    if gt.count == 0:
        return []
    n_q = (pred_boxes.data if isinstance(pred_boxes, Tensor) else pred_boxes).shape[0]
    if gt.count > n_q:
        raise ValueError(f"{gt.count} targets exceed {n_q} queries")
    from scipy.optimize import linear_sum_assignment   # deferred: slow import, training only

    cost = match_cost_matrix(pred_boxes, pred_logits, gt, weights)
    rows, cols = linear_sum_assignment(cost)
    return sorted(zip(rows.tolist(), cols.tolist()), key=lambda rc: rc[1])


def solve_assignment(cost: np.ndarray):
    """Minimum-cost one-to-one assignment on a raw cost matrix."""
    from scipy.optimize import linear_sum_assignment   # deferred: slow import, training only

    rows, cols = linear_sum_assignment(np.asarray(cost, dtype=np.float64))
    total = float(np.asarray(cost)[rows, cols].sum())
    return dict(zip(rows.tolist(), cols.tolist())), total


def iou_aware_cls_targets(assignment, pred_boxes, gt: GroundTruth,
                          n_labels) -> np.ndarray:
    """Soft target matrix: matched (query, gt-label) entries hold the IoU."""
    pb = pred_boxes.data if isinstance(pred_boxes, Tensor) else np.asarray(pred_boxes)
    targets = np.zeros((pb.shape[0], n_labels), dtype=np.float64)
    for q, g in assignment:
        targets[q, gt.label_ids[g]] = np.clip(iou(pb[q], gt.boxes[g]), 0.0, 1.0)
    return targets


# ---- losses ------------------------------------------------------------


def _layer_loss(boxes, logits, assignment, gt: GroundTruth, n_labels,
                w_cls, w_l1, w_giou):
    """One decoder layer's three-term loss, normalized by max(G, 1)."""
    norm = max(gt.count, 1)
    targets = iou_aware_cls_targets(assignment, boxes, gt, n_labels)
    cls_term = bce_with_logits(logits, targets.astype(logits.dtype)).sum() * (1.0 / norm)
    if assignment:
        q_idx = np.array([q for q, _ in assignment])
        g_idx = np.array([g for _, g in assignment])
        matched = boxes[q_idx]
        tgt = gt.boxes[g_idx]
        l1_term = absolute(matched - Tensor(tgt.astype(boxes.dtype))).sum() * (1.0 / norm)
        giou_term = (1.0 - giou_pairs(matched, tgt)).sum() * (1.0 / norm)
    else:
        zero = Tensor(np.zeros((), dtype=logits.dtype))
        l1_term, giou_term = zero, zero
    total = w_cls * cls_term + w_l1 * l1_term + w_giou * giou_term
    return total, float(cls_term.data), float(l1_term.data), float(giou_term.data)


def detection_loss(layer_records, gt: GroundTruth, weights: LossWeights):
    """Matching-based loss summed over decoder layers (auxiliary supervision).

    ``layer_records`` is a list of (boxes [N_q,4], logits [N_q,K_lbl])
    per decoder layer; each layer is matched independently.
    """
    total = None
    breakdown = {"cls": 0.0, "l1": 0.0, "giou": 0.0, "layers": []}
    for boxes, logits in layer_records:
        assignment = hungarian_match(boxes, logits, gt, weights)
        n_labels = logits.shape[1]
        layer_total, c, l, g = _layer_loss(boxes, logits, assignment, gt, n_labels,
                                           weights.cls, weights.l1, weights.giou)
        total = layer_total if total is None else total + layer_total
        breakdown["cls"] += c
        breakdown["l1"] += l
        breakdown["giou"] += g
        breakdown["layers"].append(float(layer_total.data))
    breakdown["total"] = float(total.data)
    return total, breakdown


def make_dn_queries(gt: GroundTruth, dn: DnConfig, rng, n_labels):
    """Noised copies of the ground truth for reconstruction training.

    Returns (boxes [g*G, 4], label ids [g*G], layout) where group g's
    query i corresponds to gt i. Boxes are jittered in center and size
    and clamped into (0, 1); labels flip to a random other label with
    the configured probability.
    """
    g, scale, flip = dn.groups, dn.box_noise, dn.label_flip
    if g == 0 or gt.count == 0:
        return np.zeros((0, 4)), [], {"groups": 0, "per_group": gt.count}
    boxes = []
    labels = []
    for _ in range(g):
        for i in range(gt.count):
            cx, cy, w, h = gt.boxes[i]
            cx = cx + (rng.uniform(-1, 1) * scale * w / 2)
            cy = cy + (rng.uniform(-1, 1) * scale * h / 2)
            w = w * (1 + rng.uniform(-scale, scale))
            h = h * (1 + rng.uniform(-scale, scale))
            eps = 1e-4
            boxes.append([np.clip(cx, eps, 1 - eps), np.clip(cy, eps, 1 - eps),
                          np.clip(w, eps, 1 - eps), np.clip(h, eps, 1 - eps)])
            lab = gt.label_ids[i]
            if n_labels > 1 and rng.uniform() < flip:
                lab = (lab + int(rng.integers(1, n_labels))) % n_labels
            labels.append(lab)
    return (np.asarray(boxes, dtype=np.float64), labels,
            {"groups": g, "per_group": gt.count})


def dn_loss(dn_layer_records, gt: GroundTruth, layout, weights: LossWeights):
    """Reconstruction loss with known correspondence, averaged over groups."""
    groups = layout["groups"]
    per_group = layout["per_group"]
    if groups == 0 or per_group == 0:
        return Tensor(np.zeros(())), {"cls": 0.0, "l1": 0.0, "giou": 0.0, "total": 0.0}
    total = None
    breakdown = {"cls": 0.0, "l1": 0.0, "giou": 0.0}
    for boxes, logits in dn_layer_records:
        n_labels = logits.shape[1]
        group_sum = None
        for g in range(groups):
            lo = g * per_group
            assignment = [(i, i) for i in range(per_group)]
            layer_total, c, l, gi = _layer_loss(
                boxes[lo:lo + per_group], logits[lo:lo + per_group],
                assignment, gt, n_labels,
                weights.dn_cls, weights.dn_l1, weights.dn_giou)
            group_sum = layer_total if group_sum is None else group_sum + layer_total
            breakdown["cls"] += c / groups
            breakdown["l1"] += l / groups
            breakdown["giou"] += gi / groups
        layer_mean = group_sum * (1.0 / groups)
        total = layer_mean if total is None else total + layer_mean
    breakdown["total"] = float(total.data)
    return total, breakdown


def total_loss(od_term, dn_term):
    """Exact sum of the detection and denoising losses."""
    return od_term + dn_term


# ---- optimizer ---------------------------------------------------------


class AdamW:
    """Adam with decoupled weight decay and a two-step lr decay schedule."""

    def __init__(self, params: dict, lr=1e-4, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=1e-4, total_steps=None, decay_points=(0.7, 0.9),
                 decay_factor=0.1):
        self.params = dict(params)
        self.base_lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.total_steps = total_steps
        self.decay_points = decay_points
        self.decay_factor = decay_factor
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def current_lr(self):
        lr = self.base_lr
        if self.total_steps:
            frac = self.t / self.total_steps
            for point in self.decay_points:
                if frac >= point:
                    lr *= self.decay_factor
        return lr

    def step(self):
        self.t += 1
        lr = self.current_lr()
        b1, b2 = self.betas
        bc1 = 1 - b1 ** self.t
        bc2 = 1 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name] = b1 * self.m[name] + (1 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if lr != 0.0:
                p.data -= lr * (update + self.weight_decay * p.data).astype(p.data.dtype)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


# ---- evaluation --------------------------------------------------------


def evaluate_ap(detections_by_image: dict, gt_by_image: dict, iou_threshold=0.5):
    """Single-threshold average precision per label plus the mean.

    Detections are greedily matched in descending score order to the
    best still-unmatched ground truth of the same label with IoU at or
    above the threshold; the PR curve is integrated with every-point
    (continuous) precision interpolation.
    """
    labels = sorted({name for gt in gt_by_image.values()
                     for name in gt["label_names"]})
    per_label = {}
    for label in labels:
        records = []  # (score, image, box)
        n_gt = 0
        for image_id, gt in gt_by_image.items():
            ids = [i for i, lid in enumerate(gt["gt"].label_ids)
                   if gt["label_names"][lid] == label]
            n_gt += len(ids)
        if n_gt == 0:
            continue
        for image_id, dets in detections_by_image.items():
            for det in dets.detections:
                if det.label == label:
                    records.append((det.score, image_id, det.bbox))
        records.sort(key=lambda r: -r[0])
        matched = {img: set() for img in gt_by_image}
        tp = np.zeros(len(records))
        fp = np.zeros(len(records))
        for k, (_, image_id, box) in enumerate(records):
            gt = gt_by_image.get(image_id)
            best_iou, best_i = 0.0, -1
            if gt is not None:
                for i, lid in enumerate(gt["gt"].label_ids):
                    if gt["label_names"][lid] != label or i in matched[image_id]:
                        continue
                    v = iou(box, gt["gt"].boxes[i])
                    if v > best_iou:
                        best_iou, best_i = v, i
            if best_i >= 0 and best_iou >= iou_threshold:
                tp[k] = 1
                matched[image_id].add(best_i)
            else:
                fp[k] = 1
        if len(records) == 0:
            per_label[label] = 0.0
            continue
        ctp = np.cumsum(tp)
        cfp = np.cumsum(fp)
        recall = ctp / n_gt
        precision = ctp / (ctp + cfp)
        # every-point interpolation: running max of precision from the right
        p_interp = np.maximum.accumulate(precision[::-1])[::-1]
        ap = 0.0
        prev_r = 0.0
        for r, p in zip(recall, p_interp):
            ap += (r - prev_r) * p
            prev_r = r
        per_label[label] = float(ap)
    mean = float(np.mean(list(per_label.values()))) if per_label else 0.0
    return per_label, mean
