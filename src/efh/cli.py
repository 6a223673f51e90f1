"""Command-line surface: ``efh detect | train | bench``."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import emit_report, run_benchmark
from .data import DEFAULT_VOCAB, generate_dataset, read_samples_jsonl
from .model import Detector, ModelConfig
from .tensor_io import FormatError, load_image
from .textenc import LanguageCache
from .trainer import NonFiniteLossError, evaluate_model, run_training

EXIT_USAGE = 2
EXIT_TRAINING = 3


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _load_config(path) -> ModelConfig:
    if path is None:
        return ModelConfig()
    if not os.path.exists(path):
        raise CliError(f"config file not found: {path}")
    try:
        return ModelConfig.load(path)
    except (ValueError, TypeError, json.JSONDecodeError) as exc:
        raise CliError(f"malformed config {path}: {exc}")


def _build_model(config, checkpoint_path, require_checkpoint=True):
    model = Detector(config)
    if checkpoint_path:
        if not os.path.exists(checkpoint_path):
            raise CliError(f"checkpoint not found: {checkpoint_path}")
        try:
            model.load(checkpoint_path)
        except (FormatError, ValueError, OSError) as exc:
            raise CliError(f"cannot load checkpoint {checkpoint_path}: {exc}")
    elif require_checkpoint:
        raise CliError("a --checkpoint is required")
    return model


def _read_image(path):
    try:
        return load_image(path)
    except (FormatError, OSError) as exc:
        raise CliError(f"cannot read image {path}: {exc}")


def _collect_images(args):
    paths = []
    if args.image:
        paths.extend(args.image)
    if args.images:
        if not os.path.isdir(args.images):
            raise CliError(f"image directory not found: {args.images}")
        paths.extend(sorted(
            os.path.join(args.images, name) for name in os.listdir(args.images)
            if name.endswith((".tnsr", ".ppm"))))
    if not paths:
        raise CliError("no input images (use --image or --images)")
    for p in paths:
        if not os.path.exists(p):
            raise CliError(f"image not found: {p}")
    return paths


def _parse_labels(text):
    labels = [part.strip() for part in (text or "").split(",") if part.strip()]
    if not labels:
        raise CliError("--labels must name at least one label")
    return labels


def cmd_detect(args):
    labels = _parse_labels(args.labels)
    if not (args.prompt or "").strip():
        raise CliError("--prompt must be non-empty")
    model = _build_model(_load_config(args.config), args.checkpoint)
    paths = _collect_images(args)
    cache = LanguageCache() if args.cache == "on" else None
    multi = len(paths) > 1 or (args.out and not args.out.endswith(".json"))
    if multi and args.out:
        os.makedirs(args.out, exist_ok=True)
    for path in paths:
        image = _read_image(path)
        image_id = os.path.splitext(os.path.basename(path))[0]
        try:
            det = model.detect(image, args.prompt, labels, cache, image_id=image_id)
        except (ValueError, FloatingPointError) as exc:
            raise CliError(f"cannot detect on {path}: {exc}")
        doc = det.to_json()
        if args.out:
            out_path = (os.path.join(args.out, image_id + ".json")
                        if multi else args.out)
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(doc + "\n")
        else:
            print(doc)
    return 0


def cmd_train(args):
    config = _load_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    model = _build_model(config, args.checkpoint, require_checkpoint=False)

    if args.dataset == "synthetic":
        samples = generate_dataset(range(args.scenes), vocab=DEFAULT_VOCAB)
    else:
        if not os.path.exists(args.dataset):
            raise CliError(f"dataset file not found: {args.dataset}")
        samples = read_samples_jsonl(args.dataset)
        for s in samples:
            if isinstance(s.image, str):
                s.image = _read_image(s.image)

    out = args.out or "model.otck"
    metrics_path = out + ".metrics.json"
    metrics = []
    try:
        metrics = run_training(model, samples, args.steps, seed=config.seed,
                               on_metrics=lambda rec: print(json.dumps(rec)))
    except NonFiniteLossError as exc:
        # keep the last good parameters on disk for post-mortem
        model.save(out)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    if args.eval:
        _, mean_ap = evaluate_model(model, samples)
        metrics.append({"step": args.steps, "ap@0.5": round(mean_ap, 6)})
        print(json.dumps(metrics[-1]))
    model.save(out)
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=2)
    return 0


def cmd_bench(args):
    labels = _parse_labels(args.labels)
    if not (args.prompt or "").strip():
        raise CliError("--prompt must be non-empty")
    if args.iters < 1:
        raise CliError("--iters must be >= 1")
    model = _build_model(_load_config(args.config), args.checkpoint, require_checkpoint=False)
    images = [_read_image(p) for p in _collect_images(args)]
    try:
        timings = run_benchmark(model, images, args.prompt, labels,
                                iterations=args.iters, warmup=args.warmup,
                                cache_enabled=(args.cache == "on"))
    except (ValueError, FloatingPointError) as exc:
        raise CliError(f"cannot benchmark: {exc}")
    text = emit_report(timings, fmt=args.format, path=args.out)
    if not args.out:
        print(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="efh", description="Open-vocabulary detector with an efficient "
        "fusion head and language cache")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=True):
        p.add_argument("--config", help="JSON model config")
        if checkpoint:
            p.add_argument("--checkpoint", help="OTCK checkpoint path")
        p.add_argument("--out", help="output path")

    p = sub.add_parser("detect", help="run detection on images")
    common(p)
    p.add_argument("--image", action="append", help="input image (TNSR or PPM)")
    p.add_argument("--images", help="directory of input images")
    p.add_argument("--labels", help='comma-separated label names, e.g. "a,b,c"')
    p.add_argument("--prompt", help="task prompt text")
    p.add_argument("--cache", choices=("on", "off"), default="on")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("train", help="train on synthetic or JSONL data")
    common(p)
    p.add_argument("--steps", type=int, default=0)
    p.add_argument("--seed", type=int)
    p.add_argument("--dataset", default="synthetic",
                   help='"synthetic" or a TaskSample JSONL file')
    p.add_argument("--scenes", type=int, default=100,
                   help="synthetic scene count")
    p.add_argument("--eval", action="store_true",
                   help="report AP@0.5 on the training data afterwards")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bench", help="module-wise latency benchmark")
    common(p)
    p.add_argument("--image", action="append")
    p.add_argument("--images", help="directory of benchmark images")
    p.add_argument("--labels", help="comma-separated label names")
    p.add_argument("--prompt", help="task prompt text")
    p.add_argument("--cache", choices=("on", "off"), default="on")
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--warmup", type=int, default=10)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
