"""Seeded benchmark inputs, generated once and cached outside tracked files.

Every input is made from the workload seed with ``efld.synthetic`` and
written with ``efld.data.save_dataset`` (plus ``efld.container.save`` for the
models), so the program under test only ever sees files on disk. Synthesis
costs about 0.15 s per 128 px crop, so a generated set is kept under
``.bench_cache/<kind>-seed<seed>-px<size>-n<count>`` and reused when the same
seed comes back.

Generation runs in a child process (``python3 bench/inputs.py KIND SEED
ROOT``), which keeps its time and memory out of the measuring process.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

IMAGE_SIZE = 128
FORMATS = ("p51", "p68", "p98")
CACHE_DIR = ".bench_cache"
# Bump when generation changes, so stale caches are not reused.
GEN_VERSION = 1

# serve: 128 px crops need no resize; the larger non-square crops
# (height, width) are stretched back to 128 px by the client.
SERVE_SQUARE = 4
SERVE_LARGE_SOURCE = 192
SERVE_LARGE_SHAPES = ((160, 192), (192, 160), (176, 224), (224, 176))
CALIB_COUNT = 8
EVAL_COUNT = 32
TRAIN_COUNT = 32

COUNTS = {
    "serve": SERVE_SQUARE + len(SERVE_LARGE_SHAPES) + CALIB_COUNT,
    "eval": EVAL_COUNT + CALIB_COUNT,
    "train": TRAIN_COUNT,
}


def sub_seed(seed: int, role: int) -> int:
    """Independent generator seed for one role (weights, calibration, ...)."""
    import numpy as np

    return int(np.random.SeedSequence([seed, role]).generate_state(1)[0])


def cache_path(root: str, kind: str, seed: int) -> str:
    name = f"{kind}-seed{seed}-px{IMAGE_SIZE}-n{COUNTS[kind]}-v{GEN_VERSION}"
    return os.path.join(root, CACHE_DIR, name)


def ensure(root: str, kind: str, seed: int) -> str:
    """Directory holding the inputs of ``kind`` for ``seed``; generates them
    in a child process on a cache miss."""
    path = cache_path(root, kind, seed)
    if not os.path.isdir(path):
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), kind, str(seed), root],
            check=True, timeout=170,
        )
    return path


def _stock_model(seed: int):
    from efld.model import build_model, default_config

    return build_model(default_config(FORMATS), seed=sub_seed(seed, 0), dtype="float32")


def _calibration_set(seed: int):
    from efld.synthetic import generate_synthetic

    return generate_synthetic(CALIB_COUNT, IMAGE_SIZE, sub_seed(seed, 1), [], annotate="none")


def _generate_serve(seed: int, out: str) -> None:
    from efld.container import save
    from efld.data import save_dataset
    from efld.image import bilinear_resize, write_ppm
    from efld.quantize import calibrate, quantize_model
    from efld.synthetic import generate_synthetic

    square = generate_synthetic(SERVE_SQUARE, IMAGE_SIZE, sub_seed(seed, 2), ["p51"])
    save_dataset(square, os.path.join(out, "square"))
    large = generate_synthetic(len(SERVE_LARGE_SHAPES), SERVE_LARGE_SOURCE, sub_seed(seed, 3),
                               ["p51"])
    save_dataset(large, os.path.join(out, "large"))
    crops = []
    for i, (sample, (h, w)) in enumerate(zip(large.samples, SERVE_LARGE_SHAPES)):
        rel = f"large/crop{i}_{h}x{w}.ppm"
        write_ppm(os.path.join(out, rel), bilinear_resize(sample.image, h, w))
        crops += [f"square/images/{i:06d}.ppm", rel]
    with open(os.path.join(out, "crops.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(crops) + "\n")

    model = _stock_model(seed)
    save(model, os.path.join(out, "f32.efld"), keep_heads=["p51"])
    qmodel = quantize_model(model, calibrate(model, _calibration_set(seed)))
    save(qmodel, os.path.join(out, "int8.efld"), keep_heads=["p51"])


def _generate_eval(seed: int, out: str) -> None:
    from efld.container import save
    from efld.data import save_dataset
    from efld.synthetic import generate_synthetic

    save(_stock_model(seed), os.path.join(out, "model.efld"))
    evalset = generate_synthetic(EVAL_COUNT, IMAGE_SIZE, sub_seed(seed, 4), FORMATS)
    save_dataset(evalset, os.path.join(out, "eval"))
    save_dataset(_calibration_set(seed), os.path.join(out, "calib"))


def _generate_train(seed: int, out: str) -> None:
    from efld.data import save_dataset
    from efld.synthetic import generate_synthetic

    train = generate_synthetic(TRAIN_COUNT, IMAGE_SIZE, sub_seed(seed, 5), FORMATS,
                               annotate="round-robin")
    save_dataset(train, os.path.join(out, "train"))


GENERATORS = {"serve": _generate_serve, "eval": _generate_eval, "train": _generate_train}


def main(argv) -> int:
    kind, seed, root = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, os.path.join(root, "src"))
    final = cache_path(root, kind, seed)
    tmp = f"{final}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        GENERATORS[kind](seed, tmp)
        os.rename(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
