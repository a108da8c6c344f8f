"""Command-line interface: synth, train, eval, quantize, analyze, export, infer.

Exit codes: 0 success, 1 usage error, 2 data/validation error or a file
that cannot be read or written (missing, a directory, ...), 3 internal
invariant violation. Diagnostics (including the resolved configuration each
run prints before doing work) go to stderr; results go to stdout or files.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from . import CONTAINER_VERSION, VARIANTS, __version__
from .errors import ConfigError, DataError, EfldError, UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _checked(kind, ok, rule: str):
    """An argparse type: a ``kind`` value for which ``ok`` holds."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value: 'x'", as with type=kind
    return parse


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""
    return _checked(int, lambda value: value >= minimum, f">= {minimum}")


def _resolved(name: str, **kwargs) -> None:
    pairs = " ".join(f"{k}={v}" for k, v in kwargs.items())
    print(f"efld {name}: {pairs}", file=sys.stderr)


def build_parser() -> _Parser:
    parser = _Parser(prog="efld", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action="version",
        version=f"efld {__version__} (container format {CONTAINER_VERSION})",
    )
    parser.add_argument("--seed", type=_at_least(0), default=None, dest="global_seed",
                        help="override the seed of seeded subcommands")
    parser.add_argument("--threads", type=_at_least(1), default=None,
                        help="cap intra-op threads (recorded; set before work begins)")
    parser.add_argument("--verbose", action="store_true", help="debug logging to stderr")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--count", type=_at_least(1), required=True, help="number of samples")
    p.add_argument("--size", type=_at_least(1), default=128, help="square image size in pixels")
    p.add_argument("--seed", type=_at_least(0), default=None, help="generator seed (default 0)")
    p.add_argument("--formats", default="p51", help="comma-separated formats to annotate")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--annotate", choices=("all", "round-robin", "none"), default="all",
                   help="annotate every format per sample, one per sample, or none")
    # -0.0 fails too: numpy's normal rejects a scale with the sign bit set
    sigma = _checked(float, lambda v: math.copysign(1, v) > 0 and v < math.inf, "finite and >= 0")
    p.add_argument("--noise", type=sigma, default=0.02, help="pixel noise sigma")

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", required=True, help="model+train config file")
    p.add_argument("--data", required=True, help="dataset directory (comma-separated for several)")
    p.add_argument("--out", required=True, help="output model container")
    p.add_argument("--log", default=None, help="CSV training log path")

    p = sub.add_parser("eval", help="evaluate a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", required=True, help="landmark format to evaluate")
    p.add_argument("--report", default=None, help="JSON report path")
    p.add_argument("--ced", default=None, help="CED curve CSV path (columns error,fraction)")
    threshold = _checked(float, lambda v: 0 < v < math.inf, "finite and > 0")
    p.add_argument("--threshold", type=threshold, default=0.10, help="FR/AUC threshold")

    p = sub.add_parser("quantize", help="int8 post-training quantization")
    p.add_argument("--model", required=True, help="float model container")
    p.add_argument("--calib", required=True, help="calibration dataset directory")
    p.add_argument("--out", required=True, help="output quantized container")

    p = sub.add_parser("analyze", help="static cost analysis")
    p.add_argument("--config", required=True, help="config file or the literal 'default'")
    p.add_argument("--variant", choices=VARIANTS, default="default")
    p.add_argument("--json", dest="json_out", default=None, help="write the report as JSON")

    p = sub.add_parser("export", help="export with head pruning")
    p.add_argument("--model", required=True)
    p.add_argument("--heads", required=True, help="comma-separated heads to keep")
    p.add_argument("--out", required=True)

    p = sub.add_parser("infer", help="predict landmarks for face crops")
    p.add_argument("--model", required=True)
    p.add_argument("--image", default=None, help="single PPM face crop")
    p.add_argument("--data", default=None, help="dataset directory of crops")
    p.add_argument("--format", required=True)
    p.add_argument("--out", default=None, help="JSONL output path (default stdout)")
    return parser


def cmd_synth(args) -> int:
    from .data import save_dataset
    from .synthetic import generate_synthetic

    seed = args.seed if args.seed is not None else (args.global_seed or 0)
    formats = [f for f in args.formats.split(",") if f]
    _resolved("synth", count=args.count, size=args.size, seed=seed,
              formats=",".join(formats), annotate=args.annotate, noise=args.noise,
              out=args.out)
    dataset = generate_synthetic(args.count, args.size, seed, formats, annotate=args.annotate,
                                 noise=args.noise)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} samples to {args.out}", file=sys.stderr)
    return 0


def _check_crop_size(dataset, path, model_config) -> None:
    """Raise DataError unless the crops of a nonempty dataset are square at
    the model's input size."""
    if not dataset.samples:
        return
    h, w = dataset.samples[0].pixels.shape[:2]
    size = model_config.input_size
    if (h, w) != (size, size):
        crop = f"{h}px" if h == w else f"{h}x{w}px (height x width)"
        raise DataError(f"{path}: dataset images are {crop} but the model expects {size}px")


def _nonempty_dataset(path):
    """The dataset at ``path``; raises DataError if it holds no sample."""
    from .data import load_dataset  # not loaded by infer --image

    dataset = load_dataset(path)
    if not dataset.samples:
        raise DataError(f"{path}: empty dataset")
    return dataset


def cmd_train(args) -> int:
    from .config import load_config_file
    from .container import save
    from .data import load_dataset
    from .model import build_model
    from .training import train

    model_config, train_config = load_config_file(args.config)
    if args.global_seed is not None:
        from dataclasses import replace

        train_config = replace(train_config, seed=args.global_seed)
    dirs = [d for d in args.data.split(",") if d]
    _resolved("train", config=args.config, data=",".join(dirs), out=args.out,
              log=args.log, epochs=train_config.epochs, batch_size=train_config.batch_size,
              lr_max=train_config.lr_max, seed=train_config.seed)
    datasets = [load_dataset(d) for d in dirs]
    for dataset, path in zip(datasets, dirs):
        _check_crop_size(dataset, path, model_config)
    model = build_model(model_config, seed=train_config.seed, dtype="float32")
    train_log = train(model, datasets, train_config)
    save(model, args.out)
    if args.log:
        train_log.save(args.log)
    last = train_log.rows[-1]
    print(f"trained {train_config.epochs} epochs; final loss {last.loss_total:.6f}",
          file=sys.stderr)
    return 0


def _predict(model, images, fmt: str):
    """Head ``fmt``'s (B, 2K) float64 predictions for a list of crops, each
    held as ``Sample.pixels`` holds them (uint8 codes or floats in [0, 1]).
    Either model kind runs every head it has: ``eval`` and ``infer`` hand
    it ``model.with_heads([fmt])``."""
    import numpy as np

    from .image import stack_images
    from .model import Model, model_forward
    from .quantize import quantized_forward
    from .tensor import Tensor

    if isinstance(model, Model):
        batch = Tensor(stack_images(images, model.dtype))
        return model_forward(model, batch)[fmt].data.astype(np.float64)
    return quantized_forward(model, stack_images(images, np.float64))[fmt]


# ``efld eval`` predicts this many samples per forward, so that its memory
# does not grow with the dataset. The forwards split their batch further
# themselves; the backbone treats each sample on its own, so only the head
# GEMMs see the chunk.
EVAL_SAMPLES = 32


def cmd_eval(args) -> int:
    import numpy as np

    from .container import load
    from .data import load_dataset
    from .formats import default_registry, eye_distances, usable_eyes
    from .metrics import ced_curve, evaluate

    _resolved("eval", model=args.model, data=args.data, format=args.format,
              threshold=args.threshold, report=args.report, ced=args.ced)
    model = load(args.model).with_heads([args.format])
    fmt = default_registry().get(args.format)
    dataset = load_dataset(args.data)
    annotated = [s for s in dataset if s.has(args.format)]
    if not annotated:
        raise DataError(f"{args.data}: no samples annotated with {args.format!r}")
    _check_crop_size(dataset, args.data, model.config)
    gt = np.stack([s.annotations[args.format] for s in annotated])
    usable = usable_eyes(eye_distances(gt, fmt))
    if not usable.all():
        raise DataError(f"{args.data}: {annotated[np.argmin(usable)].path}: degenerate "
                        f"inter-ocular distance in its {args.format!r} annotation")
    predictions = np.concatenate([
        _predict(model, [s.pixels for s in annotated[start : start + EVAL_SAMPLES]],
                 args.format)
        for start in range(0, len(annotated), EVAL_SAMPLES)
    ])
    report = evaluate(predictions, gt, fmt, threshold=args.threshold,
                      image_size=dataset.image_size)
    print(report.summary())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    if args.ced:
        rows = ced_curve(report.nmes, args.threshold)
        with open(args.ced, "w", encoding="utf-8", newline="") as fh:
            fh.write("error,fraction\n")
            for error, fraction in rows:
                fh.write(f"{error!r},{fraction!r}\n")
    return 0


def cmd_quantize(args) -> int:
    from .container import load, save
    from .model import Model
    from .quantize import calibrate, quantize_model

    _resolved("quantize", model=args.model, calib=args.calib, out=args.out)
    model = load(args.model)
    if not isinstance(model, Model):
        raise UsageError(f"{args.model} is already quantized")
    dataset = _nonempty_dataset(args.calib)
    _check_crop_size(dataset, args.calib, model.config)
    activations = calibrate(model, dataset)
    qmodel = quantize_model(model, activations)
    save(qmodel, args.out)
    print(f"quantized {qmodel.weight_byte_count():,} weight bytes to {args.out}",
          file=sys.stderr)
    return 0


def _load_analyze_config(spec: str):
    from .config import load_config_file
    from .model import default_config

    if spec == "default":
        return default_config()
    return load_config_file(spec)[0]


def cmd_analyze(args) -> int:
    from .metrics import count_cost
    from .model import apply_variant

    _resolved("analyze", config=args.config, variant=args.variant, json=args.json_out)
    config = apply_variant(_load_analyze_config(args.config), args.variant)
    report = count_cost(config)
    print(report.summary())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return 0


def cmd_export(args) -> int:
    from .container import load, save

    heads = [h for h in args.heads.split(",") if h]
    _resolved("export", model=args.model, heads=",".join(heads), out=args.out)
    model = load(args.model)
    save(model, args.out, keep_heads=heads)
    print(f"exported heads {', '.join(heads)} to {args.out}", file=sys.stderr)
    return 0


def cmd_infer(args) -> int:
    import numpy as np

    from .container import load
    from .image import bilinear_resize, read_ppm

    if (args.image is None) == (args.data is None):
        raise UsageError("infer needs exactly one of --image or --data")
    _resolved("infer", model=args.model, image=args.image, data=args.data,
              format=args.format, out=args.out)
    model = load(args.model).with_heads([args.format])
    size = model.config.input_size

    if args.image is not None:
        jobs = [(args.image, read_ppm(args.image))]
    else:
        # one crop converted to floats at a time
        jobs = ((sample.path, sample.image) for sample in _nonempty_dataset(args.data))

    lines = []
    for name, image in jobs:
        h, w, _ = image.shape
        resized = image if (h, w) == (size, size) else bilinear_resize(image, size, size)
        pred = _predict(model, [resized], args.format)[0]
        points = pred.reshape(-1, 2) * np.array([w, h], dtype=np.float64)
        lines.append(json.dumps({"image": name, "format": args.format,
                                 "points": points.tolist()}))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "quantize": cmd_quantize,
    "analyze": cmd_analyze,
    "export": cmd_export,
    "infer": cmd_infer,
}


def _set_thread_env(threads: int) -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def run(argv) -> int:
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help / --version
            return int(exc.code or 0)
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.DEBUG if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        if args.command is None:
            raise UsageError(f"missing subcommand\n{parser.format_usage().rstrip()}")
        if args.threads is not None:
            _set_thread_env(args.threads)  # before a command imports numpy
            print(f"efld: threads={args.threads}", file=sys.stderr)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a file that cannot be read or written: missing, a directory, ...
        if exc.filename is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EfldError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
