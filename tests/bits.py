"""Every output bit of the checkout against a git revision, artifact by artifact.

    python3 tests/bits.py REV        # e.g. HEAD~1; HEAD for an A/A run

``git archive REV src`` gives the other tree. Each tree then writes a
manifest in its own subprocess (PYTHONPATH set to that tree's ``src``, one
BLAS thread), REV's first. A manifest holds one SHA-256 per artifact:

- the container bytes of the 3 ``VARIANTS`` x {1, 3} heads x {float32,
  int8} at 128 px, with and without ``keep_heads=["p51"]``, and a check
  that ``save(load(f))`` gives ``f`` back;
- each int8 model's calibration: every site's scale and zero point;
- the int8 outputs of REV's int8 containers at batch 32, at batch 5 (two
  uneven chunks) and at batch 1, on 32 synthetic crops that REV's tree
  made, and checks that batches 32 and 5 give the bits of batch 1;
- the container bytes and the int8 outputs, at batch 32 and at batch 1,
  of REV's 1-head stock container with ``decoder.dw`` remade by
  ``conftest.halving_model``: a layer whose requantization keeps the
  contract's own chain, where every other layer takes the four passes;
- the CSV log of a short 3-head training run at 32 px;
- a 32 px CLI pipeline: ``synth``, ``train``, ``quantize``, ``eval`` and
  ``infer`` of each head with both models, an ``infer`` that resizes, and
  ``export``: each command's exit code (exact), and its stdout, stderr and
  files.

An artifact is one of three kinds. A *float* artifact (the calibration, the
training log, the trained model and what is read off it) may drift within
the float oracles' tolerances: one that differs is reported with its
maximum relative difference, and passes. An *exact* artifact (container
bytes, int8 outputs, synthetic data) must not move. It may differ only
after an artifact that it is made from differs, and is then reported as
following it. A *check* must hold in the checkout. The exit status is 0
when every exact artifact and check holds, 1 when one does not, and 2 when
a manifest could not be built. Needs numpy, git, and pytest (for the
``conftest`` that it imports); pytest does not collect this file, and it
is not part of tier-1.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT = 600  # seconds per manifest
FORMATS = ("p51", "p68", "p98")
_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


class Manifest:
    """Artifacts by name, in the order they were made; a float artifact keeps
    its values in a ``.npy`` file beside the manifest."""

    def __init__(self, out: str):
        self.out = out
        self.entries = {}
        os.makedirs(os.path.join(out, "values"), exist_ok=True)

    def put(self, name: str, data: bytes, kind: str = "exact", after=(), values=None) -> None:
        entry = {"kind": kind, "sha256": hashlib.sha256(data).hexdigest(), "after": list(after)}
        if kind == "float":
            entry["values"] = os.path.join(self.out, "values", f"{len(self.entries)}.npy")
            np.save(entry["values"], _numbers(data) if values is None
                    else np.asarray(values, dtype=np.float64).ravel())
        self.entries[name] = entry

    def check(self, name: str, holds: bool) -> None:
        self.entries[name] = {"kind": "check", "sha256": "holds" if holds else "fails",
                              "after": []}


def _numbers(text: bytes) -> np.ndarray:
    return np.array([float(m) for m in _NUMBER.findall(text)], dtype=np.float64)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _params(model) -> np.ndarray:
    return np.concatenate([t.data.ravel().astype(np.float64) for t in model.params.values()])


def build(out: str, fixed: str, write_fixed: bool) -> None:
    """Write ``out/manifest.json`` for the ``efld`` on ``sys.path``. With
    ``write_fixed``, first write the inputs that both trees share into
    ``fixed``: the crops and the int8 containers that the int8 outputs are
    measured on."""
    from dataclasses import replace

    import efld
    from efld.config import render_model_config, render_train_config
    from efld.container import load, save
    from efld.model import VARIANTS, apply_variant, build_model, default_config
    from efld.quantize import calibrate, quantize_model, quantized_forward
    from efld.synthetic import generate_synthetic
    from efld.training import TrainConfig, train

    from conftest import halving_model

    m = Manifest(out)
    if write_fixed:
        crops = generate_synthetic(32, 128, seed=12, formats=["p51"], annotate="none")
        np.save(os.path.join(fixed, "crops.npy"), np.stack([s.image for s in crops]))
    crops = np.load(os.path.join(fixed, "crops.npy"))
    calib = generate_synthetic(16, 128, seed=11, formats=["p51"], annotate="none")
    os.makedirs(os.path.join(out, "containers"))
    for variant in VARIANTS:
        for heads in (("p51",), FORMATS):
            tag = f"{variant}/{len(heads)}h"
            model = build_model(apply_variant(default_config(heads), variant), seed=0)
            acts = calibrate(model, calib)
            cal = f"calibration/{tag}"
            m.put(cal, json.dumps({s: [q.scale, q.zero_point] for s, q in acts.items()}).encode(),
                  "float", values=[v for q in acts.values() for v in (q.scale, q.zero_point)])
            for dtype, saved, after in (("float32", model, ()),
                                        ("int8", quantize_model(model, acts), (cal,))):
                for keep in (None, ["p51"]):
                    suffix = "" if keep is None else "-keep-p51"
                    path = os.path.join(out, "containers",
                                        f"{variant}-{len(heads)}h-{dtype}{suffix}.efld")
                    save(saved, path, keep_heads=keep)
                    name = f"container/{tag}/{dtype}{suffix}"
                    m.put(name, _read(path), after=after)
                    save(load(path), path + ".resaved")
                    m.check(f"{name}: save(load(f)) == f", _read(path + ".resaved") == _read(path))
                    if write_fixed and dtype == "int8" and keep is None:
                        shutil.copy(path, fixed)
            qmodel = load(os.path.join(fixed, f"{variant}-{len(heads)}h-int8.efld"))
            whole = quantized_forward(qmodel, crops)
            five = quantized_forward(qmodel, crops[:5])
            single = [quantized_forward(qmodel, crops[i : i + 1]) for i in range(len(crops))]
            for fmt in heads:
                one = np.concatenate([s[fmt] for s in single])
                m.put(f"int8-outputs/{tag}/{fmt}/batch32", whole[fmt].tobytes())
                m.put(f"int8-outputs/{tag}/{fmt}/batch5", five[fmt].tobytes())
                m.put(f"int8-outputs/{tag}/{fmt}/batch1", one.tobytes())
                m.check(f"int8-outputs/{tag}/{fmt}: batch 1 == batch 32",
                        one.tobytes() == whole[fmt].tobytes())
                m.check(f"int8-outputs/{tag}/{fmt}: batch 1 == batch 5",
                        one[:5].tobytes() == five[fmt].tobytes())

    halved = halving_model(load(os.path.join(fixed, "default-1h-int8.efld")))
    path = os.path.join(out, "containers", "default-1h-int8-halved.efld")
    save(halved, path)
    m.put("container/default/1h/int8-halved", _read(path))
    whole = quantized_forward(halved, crops)["p51"]
    one = np.concatenate([quantized_forward(halved, crops[i : i + 1])["p51"]
                          for i in range(len(crops))])
    m.put("int8-outputs/default/1h-halved/p51/batch32", whole.tobytes())
    m.put("int8-outputs/default/1h-halved/p51/batch1", one.tobytes())
    m.check("int8-outputs/default/1h-halved/p51: batch 1 == batch 32",
            one.tobytes() == whole.tobytes())

    small = replace(default_config(FORMATS), input_size=32)
    model = build_model(small, seed=0)
    data = generate_synthetic(24, 32, seed=5, formats=list(FORMATS), annotate="round-robin")
    log = train(model, [data], TrainConfig(epochs=3, batch_size=8, lr_max=0.002, seed=3))
    m.put("train/log.csv", log.to_csv().encode(), "float")

    cli = os.path.join(out, "cli")
    os.makedirs(cli)

    def efld_cli(step, *args, kind="exact", after=(), files=()):
        done = subprocess.run([sys.executable, "-m", "efld.cli", *args], cwd=cli,
                              capture_output=True, timeout=TIMEOUT)
        m.put(f"cli/{step}/exit", b"%d" % done.returncode)
        m.put(f"cli/{step}/stdout", done.stdout, kind, after)
        m.put(f"cli/{step}/stderr", done.stderr, kind, after)
        for name in files:
            path = os.path.join(cli, name)
            values = _params(load(path)) if kind == "float" and name.endswith(".efld") else None
            m.put(f"cli/{step}/{name}", _read(path), kind, after, values)

    efld_cli("synth", "synth", "--count", "24", "--size", "32", "--seed", "7",
             "--formats", ",".join(FORMATS), "--annotate", "round-robin", "--out", "data")
    for root, _, names in sorted(os.walk(os.path.join(cli, "data"))):
        for name in sorted(names):
            path = os.path.join(root, name)
            m.put(f"cli/synth/{os.path.relpath(path, cli)}", _read(path))
    with open(os.path.join(cli, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(render_model_config(small) + "\n" + render_train_config(
            TrainConfig(epochs=2, batch_size=8, lr_max=0.002, seed=4)))
    m.put("cli/config.txt", _read(os.path.join(cli, "config.txt")))
    efld_cli("train", "train", "--config", "config.txt", "--data", "data", "--out", "f.efld",
             "--log", "train.csv", kind="float", files=("f.efld", "train.csv"))
    trained = ("cli/train/f.efld",)
    efld_cli("quantize", "quantize", "--model", "f.efld", "--calib", "data", "--out", "q.efld",
             after=trained, files=("q.efld",))
    quantized = ("cli/quantize/q.efld",)
    codes = np.random.default_rng(0).integers(0, 256, size=(24, 40, 3), dtype=np.uint8)
    with open(os.path.join(cli, "wide.ppm"), "wb") as fh:
        fh.write(b"P6\n40 24\n255\n" + codes.tobytes())
    for model_file, kind, after in (("f.efld", "float", trained), ("q.efld", "exact", quantized)):
        for fmt in FORMATS:
            step = f"{model_file}/{fmt}"
            efld_cli(f"eval/{step}", "eval", "--model", model_file, "--data", "data",
                     "--format", fmt, "--report", "report.json", "--ced", "ced.csv",
                     kind=kind, after=after, files=("report.json", "ced.csv"))
            efld_cli(f"infer/{step}", "infer", "--model", model_file, "--data", "data",
                     "--format", fmt, kind=kind, after=after)
        efld_cli(f"infer/{model_file}/wide", "infer", "--model", model_file, "--image",
                 "wide.ppm", "--format", "p51", kind=kind, after=after)
    efld_cli("export/f.efld", "export", "--model", "f.efld", "--heads", "p51",
             "--out", "f-p51.efld", after=trained, files=("f-p51.efld",))
    efld_cli("export/q.efld", "export", "--model", "q.efld", "--heads", "p68,p98",
             "--out", "q-p68-p98.efld", after=quantized, files=("q-p68-p98.efld",))

    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"efld": efld.__file__, "artifacts": m.entries}, fh, indent=1)


def _manifest(src: str, out: str, fixed: str, write_fixed: bool) -> dict:
    """The manifest of the tree whose package directory is ``src``, built
    in a subprocess that imports ``efld`` from there."""
    os.makedirs(out)
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    command = [sys.executable, os.path.abspath(__file__), "--manifest", out, fixed]
    done = subprocess.run(command + ["--write-fixed"] * write_fixed, cwd=out, env=env,
                          capture_output=True, text=True, timeout=TIMEOUT)
    if done.returncode != 0:
        print(f"the manifest of {src} failed (exit {done.returncode}):\n{done.stderr}",
              file=sys.stderr)
        raise SystemExit(2)
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not manifest["efld"].startswith(src + os.sep):
        print(f"the manifest of {src} imported efld from {manifest['efld']}", file=sys.stderr)
        raise SystemExit(2)
    return manifest["artifacts"]


def _max_rel_diff(a_path: str, b_path: str) -> str:
    a, b = np.load(a_path), np.load(b_path)
    if a.shape != b.shape:
        return f"{a.size} values against {b.size}"
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), np.finfo(float).tiny)
    rel[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
    return f"max relative difference {np.nan_to_num(rel, nan=np.inf).max():.3g}"


def compare(base: dict, change: dict, rev: str) -> int:
    """Print what differs between the manifests and return the exit status."""
    names = list(base) + [n for n in change if n not in base]
    differ = {n for n in names if n in base and n in change
              and base[n]["sha256"] != change[n]["sha256"]}
    counts = dict.fromkeys(("identical", "drift", "follows", "mended", "FAILS"), 0)
    for name in names:
        if name not in base or name not in change:
            verdict, note = "FAILS", f"only in {'the checkout' if name in change else rev}"
        elif change[name]["kind"] == "check" and change[name]["sha256"] != "holds":
            verdict, note = "FAILS", "does not hold"
        elif change[name]["kind"] == "check" and name in differ:
            verdict, note = "mended", f"holds; it did not hold at {rev}"
        elif name not in differ:
            verdict, note = "identical", ""
        elif change[name]["kind"] == "float":
            verdict, note = "drift", _max_rel_diff(base[name]["values"], change[name]["values"])
        else:
            moved = [a for a in change[name]["after"] if a in differ]
            verdict = "follows" if moved else "FAILS"
            note = f"after {', '.join(moved)}" if moved else "differs"
        counts[verdict] += 1
        if verdict != "identical":
            print(f"{verdict:9} {name}: {note}")
    print(", ".join(f"{count} {verdict.lower()}" for verdict, count in counts.items() if count)
          + f" of {len(names)} artifacts against {rev}")
    return 1 if counts["FAILS"] else 0


def main(argv) -> int:
    if argv[:1] == ["--manifest"]:
        build(argv[1], argv[2], "--write-fixed" in argv)
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rev = argv[0]
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="efld-bits-") as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                                 capture_output=True)
        if archive.returncode != 0:
            print(archive.stderr.decode(errors="replace"), file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(os.path.join(tmp, "base"),
                           **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        fixed = os.path.join(tmp, "fixed")
        os.makedirs(fixed)
        base = _manifest(os.path.join(tmp, "base", "src"), os.path.join(tmp, "base-out"),
                         fixed, True)
        change = _manifest(os.path.join(ROOT, "src"), os.path.join(tmp, "change-out"),
                           fixed, False)
        status = compare(base, change, rev)
    print(f"{time.monotonic() - start:.0f} s")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
