"""CLI behavior: exit codes, help coverage, and an end-to-end pipeline."""

import json
import os
import re
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from efld.cli import run
from efld.config import TrainConfig, render_model_config, render_train_config

from conftest import patch_entry, reduced_config, ref_bilinear_resize


def write_config(path, formats=("p51",), epochs=80, batch_size=8, lr=0.003, seed=3):
    model_text = render_model_config(reduced_config(formats))
    train_text = render_train_config(
        TrainConfig(epochs=epochs, batch_size=batch_size, lr_max=lr, seed=seed)
    )
    path.write_text(model_text + "\n" + train_text)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train -> quantize artifacts shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    config = root / "model.ini"
    write_config(config)
    assert run(["synth", "--count", "16", "--size", "32", "--seed", "5",
                "--formats", "p51", "--out", str(data)]) == 0
    model = root / "model.efld"
    log = root / "train.csv"
    assert run(["train", "--config", str(config), "--data", str(data),
                "--out", str(model), "--log", str(log)]) == 0
    qmodel = root / "model.q8.efld"
    assert run(["quantize", "--model", str(model), "--calib", str(data),
                "--out", str(qmodel)]) == 0
    return {"root": root, "data": data, "config": config, "model": model,
            "qmodel": qmodel, "log": log}


def synth_with_coincident_eyes(root):
    """``efld synth`` of three 32 px crops, with the p51 eyes (points 0 and
    1) of the second record moved onto one point."""
    assert run(["synth", "--count", "3", "--size", "32", "--seed", "1", "--formats", "p51",
                "--out", str(root)]) == 0
    index = root / "annotations.jsonl"
    records = [json.loads(line) for line in index.read_text().splitlines()]
    points = records[1]["annotations"]["p51"]
    points[1] = points[0]
    index.write_text("".join(json.dumps(record) + "\n" for record in records))


class TestExitCodes:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_subcommand_exits_1(self, capsys):
        assert run([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_rejected(self, capsys):
        assert run(["analyze", "--config", "default", "--bogus"]) == 1

    def test_missing_required_flag(self, capsys):
        assert run(["synth", "--count", "3"]) == 1

    def test_eval_on_empty_dataset_exits_2(self, pipeline, tmp_path, capsys):
        empty = tmp_path / "empty"
        os.makedirs(empty / "images")
        (empty / "annotations.jsonl").write_text("")
        assert run(["eval", "--model", str(pipeline["model"]), "--data", str(empty),
                    "--format", "p51"]) == 2

    def test_eval_of_a_degenerate_annotation_exits_2_naming_it(self, pipeline, tmp_path,
                                                               capsys, caplog):
        data = tmp_path / "d32"
        synth_with_coincident_eyes(data)
        capsys.readouterr()
        assert run(["eval", "--model", str(pipeline["model"]), "--data", str(data),
                    "--format", "p51"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            f"error: {data}: images/000001.ppm: degenerate inter-ocular distance "
            "in its 'p51' annotation")
        assert "loss" not in err + caplog.text

    def test_quantize_on_empty_calibration_set_exits_2_naming_it(self, pipeline, tmp_path,
                                                                 capsys):
        empty = tmp_path / "empty"
        os.makedirs(empty / "images")
        (empty / "annotations.jsonl").write_text("")
        assert run(["quantize", "--model", str(pipeline["model"]), "--calib", str(empty),
                    "--out", str(tmp_path / "q.efld")]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {empty}: empty dataset"

    def test_eval_missing_dataset_exits_2(self, pipeline):
        assert run(["eval", "--model", str(pipeline["model"]), "--data", "/nonexistent",
                    "--format", "p51"]) == 2

    def test_corrupt_model_exits_2(self, tmp_path):
        bad = tmp_path / "bad.efld"
        bad.write_bytes(b"XXXX" + bytes(32))
        assert run(["analyze", "--config", "default"]) == 0
        assert run(["eval", "--model", str(bad), "--data", "/tmp", "--format", "p51"]) == 2

    @pytest.mark.parametrize("flag", ["--model", "--image"])
    def test_infer_directory_for_a_file_exits_2(self, pipeline, tmp_path, capsys, flag):
        from efld.image import write_ppm

        crop = tmp_path / "crop.ppm"
        write_ppm(crop, np.zeros((32, 32, 3), dtype=np.uint8))
        paths = {"--model": str(pipeline["model"]), "--image": str(crop), flag: str(tmp_path)}
        capsys.readouterr()
        assert run(["infer", *(part for item in paths.items() for part in item),
                    "--format", "p51"]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err.splitlines()[-1] == f"error: [Errno 21] Is a directory: '{tmp_path}'"

    def test_infer_missing_head_exits_1(self, pipeline, capsys):
        code = run(["infer", "--model", str(pipeline["model"]), "--data",
                    str(pipeline["data"]), "--format", "p98"])
        assert code == 1
        assert "p51" in capsys.readouterr().err  # lists available heads

    def test_infer_needs_exactly_one_input(self, pipeline):
        assert run(["infer", "--model", str(pipeline["model"]), "--format", "p51"]) == 1

    @pytest.mark.parametrize("model,name,fields", [
        ("model", "eosa1.extra.w", {"dims": (3, 3, 4, 3)}),
        ("qmodel", "eosa1.extra.w", {"dims": (3, 3, 4, 3)}),
        ("qmodel", "eosa1.extra.w", {"scale": float("nan")}),
        ("qmodel", "site:eosa1.concat", {"scale": float("nan")}),
    ], ids=["float-permuted-dims", "int8-permuted-dims", "int8-nan-weight-scale",
            "int8-nan-site-scale"])
    def test_infer_container_that_contradicts_the_plan_exits_2(self, pipeline, tmp_path, capsys,
                                                               model, name, fields):
        bad = tmp_path / "bad.efld"
        shutil.copy(pipeline[model], bad)
        patch_entry(bad, name, **fields)
        capsys.readouterr()
        assert run(["infer", "--model", str(bad), "--data", str(pipeline["data"]),
                    "--format", "p51"]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert f"{bad}: tensor '{name}'" in err and "internal error" not in err


class TestInvalidInput:
    """Invalid configs, flags and datasets exit 2 (1 for a flag) before any
    work starts, naming the file, the key or the flag; never a traceback or
    an internal error."""

    @pytest.fixture(scope="class")
    def crops(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("crops")
        for size in (32, 64):
            assert run(["synth", "--count", "4", "--size", str(size), "--seed", "1",
                        "--formats", "p51", "--out", str(root / f"d{size}")]) == 0
        return root

    def train(self, crops, tmp_path, capsys, text, data="d32"):
        config = tmp_path / "m.ini"
        config.write_bytes(text if isinstance(text, bytes) else text.encode())
        capsys.readouterr()
        code = run(["train", "--config", str(config), "--data", str(crops / data),
                    "--out", str(tmp_path / "m.efld")])
        err = capsys.readouterr().err
        assert "internal error" not in err and not (tmp_path / "m.efld").exists()
        return code, err

    @staticmethod
    def config_text(input_size=32, **train):
        train_text = render_train_config(TrainConfig(epochs=1, batch_size=2))
        for key, value in train.items():
            train_text = re.sub(rf"^{key} = .*$", f"{key} = {value}", train_text, flags=re.M)
        return render_model_config(reduced_config(input_size=input_size)) + "\n" + train_text

    @pytest.mark.parametrize("key,value,message", [
        ("seed", "-1", "seed must be >= 0, got -1"),
        ("beta1", "1.5", "beta1 must be in [0, 1), got 1.5"),
        ("beta2", "1.0", "beta2 must be in [0, 1), got 1.0"),
        ("eps", "0", "eps must be > 0, got 0.0"),
        ("lr_max", "inf", "lr_max must be finite, got inf"),
        ("weight_decay", "nan", "weight_decay must be finite, got nan"),
        ("weight_decay", "1e300", "need lr_max * weight_decay <= 1, got 0.001 * 1e+300"),
    ])
    def test_train_value_out_of_range_exits_2(self, crops, tmp_path, capsys, key, value,
                                              message):
        code, err = self.train(crops, tmp_path, capsys, self.config_text(**{key: value}))
        assert code == 2
        assert err.splitlines()[-1] == f"error: {tmp_path / 'm.ini'}: {message}"

    def test_train_eps_above_float32_exits_2(self, crops, tmp_path, capsys):
        """The AdamW update runs in float32, where a larger eps is inf."""
        code, err = self.train(crops, tmp_path, capsys, self.config_text(eps="1e300"))
        assert code == 2
        assert err.splitlines()[-1] == (
            f"error: {tmp_path / 'm.ini'}: eps must be <= 3.4028234663852886e+38 "
            "(the largest float32), got 1e+300")

    def test_config_not_utf8_exits_2(self, crops, tmp_path, capsys):
        text = self.config_text().encode().replace(b"head_kind = efld", b"head_kind = \xff\xfe")
        code, err = self.train(crops, tmp_path, capsys, text)
        assert code == 2
        assert err.splitlines()[-1] == (
            f"error: {tmp_path / 'm.ini'}: line 4: not UTF-8 text (invalid start byte)")

    @pytest.mark.parametrize("head,points,registered",
                             [("p51", 50, 51), ("p68", 51, 68), ("p51", 68, 51)])
    def test_head_points_not_its_formats_exits_2(self, crops, tmp_path, capsys, head, points,
                                                 registered):
        """The loss reads a head's output as its format's points."""
        config = reduced_config(("p51", "p68"))
        heads = tuple(replace(h, points=points) if h.format == head else h for h in config.heads)
        text = (render_model_config(replace(config, heads=heads)) + "\n"
                + render_train_config(TrainConfig(epochs=1, batch_size=2)))
        code, err = self.train(crops, tmp_path, capsys, text)
        assert code == 2
        assert err.splitlines()[-1] == (
            f"error: [head.{head}] points = {points}, but format {head!r} has {registered} points")

    def test_train_config_larger_than_crops_exits_2(self, crops, tmp_path, capsys):
        code, err = self.train(crops, tmp_path, capsys, self.config_text(input_size=64))
        assert code == 2
        assert err.splitlines()[-1] == (
            f"error: {crops / 'd32'}: dataset images are 32px but the model expects 64px")

    def test_quantize_calibration_larger_than_model_exits_2(self, pipeline, crops, tmp_path,
                                                            capsys):
        out = tmp_path / "q.efld"
        code = run(["quantize", "--model", str(pipeline["model"]), "--calib",
                    str(crops / "d64"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert err.splitlines()[-1] == (
            f"error: {crops / 'd64'}: dataset images are 64px but the model expects 32px")

    def test_eval_crops_larger_than_model_exits_2(self, pipeline, crops, capsys):
        code = run(["eval", "--model", str(pipeline["model"]), "--data", str(crops / "d64"),
                    "--format", "p51"])
        out, err = capsys.readouterr()
        assert code == 2 and not out
        assert err.splitlines()[-1] == (
            f"error: {crops / 'd64'}: dataset images are 64px but the model expects 32px")

    @pytest.mark.parametrize("command", ["train", "eval", "quantize"])
    def test_crops_narrower_than_model_exit_2(self, pipeline, tmp_path, capsys, command):
        """Crops as high as the model's input but narrower are rejected
        before any forward, naming the dataset and the crop's height x width."""
        from efld.data import Dataset, Sample, save_dataset
        from efld.synthetic import generate_synthetic

        data = tmp_path / "narrow"
        square = generate_synthetic(4, 32, seed=1, formats=["p51"])
        save_dataset(Dataset(Sample(s.pixels[:, :24], s.annotations) for s in square), data)
        out = tmp_path / "out.efld"
        argv = {"train": ["--config", str(pipeline["config"]), "--data", str(data)],
                "eval": ["--model", str(pipeline["model"]), "--data", str(data),
                         "--format", "p51"],
                "quantize": ["--model", str(pipeline["model"]), "--calib", str(data)]}[command]
        if command != "eval":
            argv += ["--out", str(out)]
        capsys.readouterr()
        code = run([command, *argv])
        stdout, err = capsys.readouterr()
        assert code == 2 and not stdout and not out.exists()
        assert "internal error" not in err
        assert err.splitlines()[-1] == (
            f"error: {data}: dataset images are 32x24px (height x width) but the model "
            f"expects 32px")

    @pytest.mark.parametrize("argv,message", [
        (["--threads", "0"], "argument --threads: must be >= 1, got 0"),
        (["--threads=-3"], "argument --threads: must be >= 1, got -3"),
        (["--seed", "-1"], "argument --seed: must be >= 0, got -1"),
        (["--threads", "x"], "argument --threads: invalid int value: 'x'"),
        (["--threads", "²"], "argument --threads: invalid int value: '²'"),
    ], ids=["threads-0", "threads-negative", "global-seed-negative", "threads-word",
            "threads-superscript"])
    def test_global_flag_out_of_range_exits_1(self, monkeypatch, capsys, argv, message):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert run([*argv, "analyze", "--config", "default"]) == 1
        out, err = capsys.readouterr()
        assert not out and err.startswith(f"error: {message}\nusage: efld ")
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    def test_synth_seed_negative_exits_1(self, tmp_path, capsys):
        assert run(["synth", "--count", "1", "--size", "32", "--seed", "-4",
                    "--out", str(tmp_path / "d")]) == 1
        assert capsys.readouterr().err.startswith("error: argument --seed: must be >= 0, got -4")
        assert not (tmp_path / "d").exists()


class TestHelp:
    SUBCOMMANDS = ("synth", "train", "eval", "quantize", "analyze", "export", "infer")

    def test_top_level_help_lists_subcommands(self, capsys):
        assert run(["--help"]) == 0
        text = capsys.readouterr().out
        for sub in self.SUBCOMMANDS:
            assert sub in text

    FLAGS = {
        "synth": ["--count", "--size", "--seed", "--formats", "--out", "--annotate", "--noise"],
        "train": ["--config", "--data", "--out", "--log"],
        "eval": ["--model", "--data", "--format", "--report", "--ced", "--threshold"],
        "quantize": ["--model", "--calib", "--out"],
        "analyze": ["--config", "--variant", "--json"],
        "export": ["--model", "--heads", "--out"],
        "infer": ["--model", "--image", "--data", "--format", "--out"],
    }

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_subcommand_help_documents_all_flags(self, sub, capsys):
        assert run([sub, "--help"]) == 0
        text = capsys.readouterr().out
        for flag in self.FLAGS[sub]:
            assert flag in text

    def test_version_mentions_container_format(self, capsys):
        assert run(["--version"]) == 0
        out = capsys.readouterr().out
        assert "efld" in out and "container format" in out


class TestAnalyze:
    def test_prints_default_mflops(self, capsys):
        assert run(["analyze", "--config", "default"]) == 0
        assert "19.12" in capsys.readouterr().out

    def test_variant_flag(self, capsys):
        assert run(["analyze", "--config", "default", "--variant", "conv-backbone"]) == 0
        assert "24.90" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        out = tmp_path / "cost.json"
        assert run(["analyze", "--config", "default", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["parameters"] == 130938
        assert payload["payload_bytes"]["int8"] == 130938
        assert sum(l["macs"] for l in payload["layers"]) == payload["macs"]

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "m.ini"
        write_config(cfg)
        assert run(["analyze", "--config", str(cfg)]) == 0
        assert "params" in capsys.readouterr().out

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[model]\ninput_size = banana\n")
        assert run(["analyze", "--config", str(cfg)]) == 2

    def test_unnumbered_eosa_section_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[model]\n[eosa.one]\nf_osa = 4\nn_osa = 2\nf_conv = 8\n")
        assert run(["analyze", "--config", str(cfg)]) == 2
        assert "numbered 1..1" in capsys.readouterr().err


class TestResolvedConfigBanner:
    def test_every_run_prints_resolved_config_first(self, tmp_path, capsys):
        assert run(["synth", "--count", "1", "--size", "32", "--formats", "p51",
                    "--out", str(tmp_path / "d")]) == 0
        err = capsys.readouterr().err
        assert err.startswith("efld synth:")
        assert "count=1" in err and "seed=0" in err


class TestEvalCommand:
    def test_writes_report_and_ced(self, pipeline, tmp_path, capsys):
        report = tmp_path / "report.json"
        ced = tmp_path / "ced.csv"
        code = run(["eval", "--model", str(pipeline["model"]), "--data", str(pipeline["data"]),
                    "--format", "p51", "--report", str(report), "--ced", str(ced)])
        assert code == 0
        out = capsys.readouterr().out
        assert "NME" in out and "FR@0.1" in out
        payload = json.loads(report.read_text())
        assert payload["count"] == 16
        lines = ced.read_text().splitlines()
        assert lines[0] == "error,fraction"
        assert len(lines) > 2

    def test_quantized_model_evaluates(self, pipeline, capsys):
        code = run(["eval", "--model", str(pipeline["qmodel"]), "--data",
                    str(pipeline["data"]), "--format", "p51"])
        assert code == 0

    @pytest.mark.parametrize("kind", ["model", "qmodel"])
    def test_chunks_score_like_one_forward(self, pipeline, tmp_path, monkeypatch, kind):
        """Blocks of 1 sample and chunks of 3 over the 16 crops: the int8
        report is the one-forward report exactly, the float one within
        float32 rounding."""
        import efld.cli
        import efld.model
        from efld.container import load
        from efld.data import load_dataset
        from efld.formats import default_registry
        from efld.metrics import evaluate

        samples = load_dataset(pipeline["data"]).samples
        model = load(pipeline[kind])
        whole = efld.cli._predict(model, [s.image for s in samples], "p51")
        gt = np.stack([s.annotations["p51"] for s in samples])
        expected = evaluate(whole, gt, default_registry().get("p51"), image_size=32)
        monkeypatch.setattr(efld.model, "_BLOCK_ELEMENTS", 1)
        monkeypatch.setattr(efld.cli, "EVAL_SAMPLES", 3)
        report = tmp_path / "report.json"
        assert run(["eval", "--model", str(pipeline[kind]), "--data", str(pipeline["data"]),
                    "--format", "p51", "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        if kind == "qmodel":
            assert payload == json.loads(expected.to_json())
        else:
            assert payload["nme_mean"] == pytest.approx(expected.nme_mean, rel=1e-5)


    @pytest.mark.parametrize("command", ["eval", "infer"])
    def test_float_model_runs_the_asked_head_alone(self, tmp_path, monkeypatch, command):
        import efld.model
        from efld.container import save
        from efld.model import build_model

        model = tmp_path / "m.efld"
        save(build_model(reduced_config(("p51", "p68", "p98")), seed=1), model)
        data = tmp_path / "d"
        assert run(["synth", "--count", "2", "--size", "32", "--seed", "1", "--formats", "p68",
                    "--out", str(data)]) == 0
        ran = []
        head_forward = efld.model.head_forward

        def recorded(model, fmt, *args, **kwargs):
            ran.append(fmt)
            return head_forward(model, fmt, *args, **kwargs)

        monkeypatch.setattr(efld.model, "head_forward", recorded)
        assert run([command, "--model", str(model), "--data", str(data), "--format", "p68"]) == 0
        assert ran and set(ran) == {"p68"}  # infer runs one forward per crop

    @pytest.mark.parametrize("command", ["eval", "infer"])
    def test_int8_model_runs_the_asked_head_alone(self, tmp_path, monkeypatch, command):
        import efld.quantize
        from efld.container import save
        from efld.model import build_model
        from efld.synthetic import generate_synthetic

        float_model = build_model(reduced_config(("p51", "p68", "p98")), seed=1)
        activations = efld.quantize.calibrate(float_model, generate_synthetic(2, 32, 1, []))
        model = tmp_path / "q.efld"
        save(efld.quantize.quantize_model(float_model, activations), model)
        data = tmp_path / "d"
        assert run(["synth", "--count", "2", "--size", "32", "--seed", "1", "--formats", "p68",
                    "--out", str(data)]) == 0
        ran = []
        layer_run = efld.quantize._Layer.run

        def recorded(layer, *args):
            ran.append(layer.step.stage)
            return layer_run(layer, *args)

        monkeypatch.setattr(efld.quantize._Layer, "run", recorded)
        assert run([command, "--model", str(model), "--data", str(data), "--format", "p68"]) == 0
        heads = {stage for stage in ran if stage.startswith("head.")}
        assert "eosa1" in ran and heads == {"head.p68"}


class TestExportInfer:
    def test_export_then_infer(self, pipeline, tmp_path, capsys):
        exported = tmp_path / "p51.efld"
        assert run(["export", "--model", str(pipeline["model"]), "--heads", "p51",
                    "--out", str(exported)]) == 0
        out_file = tmp_path / "pred.jsonl"
        assert run(["infer", "--model", str(exported), "--data", str(pipeline["data"]),
                    "--format", "p51", "--out", str(out_file)]) == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) == 16
        record = json.loads(lines[0])
        assert record["format"] == "p51"
        assert len(record["points"]) == 51

    def test_infer_names_each_prediction_by_its_record(self, pipeline, tmp_path, capsys):
        data = tmp_path / "named"
        shutil.copytree(pipeline["data"], data)
        os.makedirs(data / "crops")
        index = data / "annotations.jsonl"
        records = [json.loads(line) for line in index.read_text().splitlines()[:2]]
        for record, name in zip(records, ("crops/face_b.ppm", "crops/face_a.ppm")):
            os.rename(data / record["image"], data / name)
            record["image"] = name
        index.write_text("".join(json.dumps(record) + "\n" for record in records))
        capsys.readouterr()
        assert run(["infer", "--model", str(pipeline["model"]), "--data", str(data),
                    "--format", "p51"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line)["image"] for line in lines] == ["crops/face_b.ppm",
                                                                 "crops/face_a.ppm"]

    @pytest.mark.parametrize("target,message", [
        ("missing/m.efld", "[Errno 2] No such file or directory"),
        ("directory", "[Errno 21] Is a directory"),
    ], ids=["missing-directory", "a-directory"])
    def test_export_that_cannot_write_names_out(self, pipeline, tmp_path, capsys, target,
                                                message):
        (tmp_path / "directory").mkdir()
        out = tmp_path / target
        capsys.readouterr()
        assert run(["export", "--model", str(pipeline["model"]), "--heads", "p51",
                    "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert not stdout
        assert err.splitlines()[-1] == f"error: {message}: '{out}'"

    def test_export_that_cannot_write_leaves_no_temporary_file(self, pipeline, tmp_path):
        (tmp_path / "directory").mkdir()
        assert run(["export", "--model", str(pipeline["model"]), "--heads", "p51",
                    "--out", str(tmp_path / "directory")]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["directory"]

    def test_infer_quantized_points_within_bounds(self, pipeline, capsys):
        code = run(["infer", "--model", str(pipeline["qmodel"]), "--data",
                    str(pipeline["data"]), "--format", "p51"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 16
        for line in lines:
            pts = np.array(json.loads(line)["points"])
            assert pts.shape == (51, 2)
            assert pts.min() >= 0.0 and pts.max() <= 32.0  # within image bounds

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_infer_quantized_non_finite_pixel_exits_2(self, pipeline, monkeypatch, capsys, bad):
        import efld.image

        image = np.full((32, 32, 3), 0.5)
        image[5, 6, 2] = bad
        monkeypatch.setattr(efld.image, "read_ppm", lambda path: image)
        assert run(["infer", "--model", str(pipeline["qmodel"]), "--image", "face.ppm",
                    "--format", "p51"]) == 2
        err = capsys.readouterr().err
        assert "image 0 has a non-finite pixel" in err and "Traceback" not in err

    def test_infer_single_image_and_nonsquare_resize(self, pipeline, tmp_path, capsys):
        """A 24x40 crop's points are the model's output on the oracle's
        resize of the crop, scaled to the crop: the same bits, float32 and
        int8 (JSON keeps a float's bits)."""
        from efld.container import load
        from efld.image import read_ppm, write_ppm
        from efld.model import model_forward
        from efld.quantize import quantized_forward
        from efld.tensor import Tensor

        rng = np.random.default_rng(0)
        image = np.round(rng.uniform(size=(24, 40, 3)) * 255) / 255
        path = tmp_path / "face.ppm"
        write_ppm(path, image)
        resized = ref_bilinear_resize(read_ppm(path), 32, 32)[None]
        for model in ("model", "qmodel"):
            assert run(["infer", "--model", str(pipeline[model]), "--image", str(path),
                        "--format", "p51"]) == 0
            record = json.loads(capsys.readouterr().out.splitlines()[0])
            pts = np.array(record["points"])
            assert pts.shape == (51, 2)  # pixel coords scale to the 40x24 crop

            net = load(pipeline[model])
            if model == "model":
                pred = model_forward(net, Tensor(resized.astype(net.dtype)))["p51"].data
            else:
                pred = quantized_forward(net, resized)["p51"]
            want = pred.astype(np.float64)[0].reshape(-1, 2) * np.array([40, 24], np.float64)
            np.testing.assert_array_equal(pts.view(np.uint64), want.view(np.uint64))

    def test_float_vs_quantized_predictions_close(self, pipeline, tmp_path, capsys):
        out_f = tmp_path / "float.jsonl"
        out_q = tmp_path / "quant.jsonl"
        assert run(["infer", "--model", str(pipeline["model"]), "--data",
                    str(pipeline["data"]), "--format", "p51", "--out", str(out_f)]) == 0
        assert run(["infer", "--model", str(pipeline["qmodel"]), "--data",
                    str(pipeline["data"]), "--format", "p51", "--out", str(out_q)]) == 0
        for lf, lq in zip(out_f.read_text().splitlines(), out_q.read_text().splitlines()):
            pf = np.array(json.loads(lf)["points"])
            pq = np.array(json.loads(lq)["points"])
            dist = np.linalg.norm(pf - pq, axis=1).mean()
            assert dist < 1.0  # mean per-point pixel distance at 32px


class TestTrainCommand:
    def test_multiple_comma_separated_datasets(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run(["synth", "--count", "4", "--size", "32", "--seed", "1",
                    "--formats", "p51", "--out", str(d1)]) == 0
        assert run(["synth", "--count", "4", "--size", "32", "--seed", "2",
                    "--formats", "p68", "--out", str(d2)]) == 0
        config = tmp_path / "m.ini"
        write_config(config, formats=("p51", "p68"), epochs=2, batch_size=4)
        model = tmp_path / "m.efld"
        log = tmp_path / "t.csv"
        assert run(["train", "--config", str(config), "--data", f"{d1},{d2}",
                    "--out", str(model), "--log", str(log)]) == 0
        header = log.read_text().splitlines()[0]
        assert header == "epoch,lr,loss_total,loss_p51,loss_p68,n_p51,n_p68"


    def test_degenerate_sample_in_a_batch_of_its_own(self, tmp_path, caplog):
        """Batches of one: the step of the sample whose eyes coincide is
        skipped with a warning, and the run completes."""
        data, config, log = tmp_path / "d32", tmp_path / "m.ini", tmp_path / "t.csv"
        synth_with_coincident_eyes(data)
        write_config(config, epochs=2, batch_size=1)
        with caplog.at_level("WARNING"):
            assert run(["train", "--config", str(config), "--data", str(data),
                        "--out", str(tmp_path / "m.efld"), "--log", str(log)]) == 0
        assert "p51: excluding 1 sample(s) with degenerate inter-ocular distance" in caplog.text
        rows = [line.split(",") for line in log.read_text().splitlines()[1:]]
        assert [row[-1] for row in rows] == ["2", "2"]


class TestQuantizeCommand:
    def test_quantize_already_quantized_exits_1(self, pipeline, tmp_path, capsys):
        code = run(["quantize", "--model", str(pipeline["qmodel"]), "--calib",
                    str(pipeline["data"]), "--out", str(tmp_path / "x.efld")])
        assert code == 1
        assert "already quantized" in capsys.readouterr().err


def _declared_console_script(bin_dir):
    """Write the wrapper pip generates for the ``efld`` entry point in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["efld"]
    module, _, attr = target.partition(":")
    script = bin_dir / "efld"
    script.write_text(
        "import re\n"
        "import sys\n"
        f"from {module} import {attr.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({attr}())\n"
    )
    return script


def test_console_script_version(tmp_path):
    """The declared ``efld`` console script, run as its own process, prints the version.

    Runs the installed ``efld`` when there is one on PATH; otherwise runs the
    wrapper pip would generate for the ``[project.scripts]`` target, with the
    directory holding the imported ``efld`` package on the child's PYTHONPATH.
    """
    import subprocess

    import efld

    installed = shutil.which("efld")
    if installed:
        argv, cwd, env = [installed], None, None
    else:
        argv = [sys.executable, str(_declared_console_script(tmp_path))]
        package_root = str(Path(efld.__file__).resolve().parent.parent)
        cwd, env = tmp_path, dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(argv + ["--version"], capture_output=True, text=True,
                          cwd=cwd, env=env, timeout=120)
    assert proc.returncode == 0
    assert "efld 0.1.0" in proc.stdout


@pytest.mark.parametrize("flag", [["--threads", "1"], ["--threads=1"], ["--thread", "1"],
                                  ["--threads", "+1"]],
                         ids=["space", "equals", "abbreviated", "signed"])
def test_threads_set_before_numpy_import(flag):
    """``--threads`` after another global option still reaches BLAS: the
    environment is set before anything imports numpy."""
    import subprocess

    import efld

    script = (
        "import os, sys\n"
        "from efld import cli\n"
        "set_env = cli._set_thread_env\n"
        "def spy(n):\n"
        "    print('numpy' in sys.modules, n)\n"
        "    set_env(n)\n"
        "cli._set_thread_env = spy\n"
        f"code = cli.run(['--seed', '1', *{flag!r}, 'analyze', '--config', 'default'])\n"
        "print(code, os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(efld.__file__).resolve().parent.parent), env.get("PYTHONPATH")) if p)
    env.pop("OPENBLAS_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "False 1"
    assert lines[-1] == "0 1"


def fresh_python(script, *args):
    """``script`` run with ``args`` in a fresh interpreter that imports efld
    from this checkout."""
    import subprocess

    import efld

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(efld.__file__).resolve().parent.parent), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("argv, code", [(["--version"], 0), (["--help"], 0),
                                        (["--threads", "0", "analyze"], 1)],
                         ids=["version", "help", "usage-error"])
def test_parser_loads_no_numpy(argv, code):
    """Building the parser and parsing load no numpy, so ``--threads``,
    which argparse alone reads, is set before numpy reads its thread count."""
    script = ("import sys\nfrom efld.cli import run\ncode = run(sys.argv[1:])\n"
              "print(code, 'numpy' in sys.modules)\n")
    proc = fresh_python(script, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{code} False"


def test_inference_modules_load_no_trainer():
    """``efld infer`` and ``efld eval`` import the container, the int8 path
    and the metrics; none of them, imported alone in a fresh interpreter,
    loads the trainer, the dataset reader or the synthetic generator. The
    formats, which the metrics read, load no autodiff either."""
    script = "import sys, {}\nprint(*sorted(m for m in sys.modules if m.startswith('efld.')))"
    for module in ("efld.container", "efld.quantize", "efld.metrics", "efld.formats"):
        proc = fresh_python(script.format(module))
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert module in loaded
        assert not loaded & {"efld.training", "efld.data", "efld.synthetic"}, (module, loaded)
        if module == "efld.formats":
            assert "efld.tensor" not in loaded, loaded


_RUN_AND_LIST_MODULES = """
import sys
from efld.cli import run
code = run(sys.argv[1:])
print(*sorted(m for m in sys.modules if m.startswith("efld.")), file=sys.stderr)
sys.exit(code)
"""


def test_infer_image_loads_no_dataset_reader(pipeline, tmp_path, capsys):
    """``efld infer --image`` in a fresh interpreter prints what it prints
    in this one, with the same exit code, and never loads ``efld.data``:
    for a float and an int8 model, and for a missing image (exit 2)."""
    from efld.image import write_ppm

    face = tmp_path / "face.ppm"
    write_ppm(face, np.random.default_rng(1).uniform(size=(24, 40, 3)))
    for model, image in (("model", face), ("qmodel", face), ("model", tmp_path / "none.ppm")):
        argv = ["infer", "--model", str(pipeline[model]), "--image", str(image),
                "--format", "p51"]
        code = run(argv)
        out = capsys.readouterr().out
        proc = fresh_python(_RUN_AND_LIST_MODULES, *argv)
        assert (proc.returncode, proc.stdout) == (code, out)
        assert code == (2 if image.name == "none.ppm" else 0)
        assert "efld.data" not in proc.stderr.splitlines()[-1].split(), proc.stderr


class TestDeterminism:
    def test_synth_twice_identical_bytes(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run(["synth", "--count", "3", "--size", "32", "--seed", "8",
                        "--formats", "p51,p68", "--annotate", "round-robin",
                        "--out", str(d)]) == 0
        assert (d1 / "annotations.jsonl").read_bytes() == (d2 / "annotations.jsonl").read_bytes()
        for name in os.listdir(d1 / "images"):
            assert (d1 / "images" / name).read_bytes() == (d2 / "images" / name).read_bytes()

    def test_global_seed_overrides_synth_default(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run(["--seed", "9", "synth", "--count", "2", "--size", "32",
                    "--formats", "p51", "--out", str(d1)]) == 0
        assert run(["synth", "--count", "2", "--size", "32", "--seed", "9",
                    "--formats", "p51", "--out", str(d2)]) == 0
        assert (d1 / "annotations.jsonl").read_bytes() == (d2 / "annotations.jsonl").read_bytes()


def test_diverging_training_names_the_setting_to_lower(tmp_path, capsys):
    """A config inside every range can still diverge. Training stops at the
    first update that overflows, before any weight is infinite, with exit 3
    naming lr_max and no numpy warning."""
    data, config, out = tmp_path / "d32", tmp_path / "m.ini", tmp_path / "m.efld"
    assert run(["synth", "--count", "4", "--size", "32", "--seed", "1", "--formats", "p51",
                "--out", str(data)]) == 0
    config.write_text(TestInvalidInput.config_text(lr_max="1e300", weight_decay="0"))
    capsys.readouterr()
    code = run(["train", "--config", str(config), "--data", str(data), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3 and not out.exists()
    assert "Warning" not in err
    assert err.splitlines()[-1] == (
        "internal error: the AdamW update of parameter 'eosa1.extra.w' overflowed float32; "
        "training diverged: lower lr_max (now 1e+300)")


def test_quantize_of_an_overflowing_model_names_the_site(tmp_path, capsys):
    """Weights scaled by 1e6 overflow the float32 calibration forward. The
    quantize run stops with exit 3 naming the first site whose range is not
    finite, with no traceback and no numpy warning, and writes no model."""
    from efld.container import save
    from efld.model import Model, build_model
    from efld.tensor import Tensor

    config = reduced_config(("p51",))
    model = build_model(config, seed=1)
    path, data, out = tmp_path / "m.efld", tmp_path / "d32", tmp_path / "q.efld"
    save(Model(config, {name: Tensor(t.data * np.float32(1e6))
                        for name, t in model.params.items()}, model.dtype), path)
    assert run(["synth", "--count", "3", "--size", "32", "--seed", "1", "--formats", "p51",
                "--out", str(data)]) == 0
    capsys.readouterr()
    code = run(["quantize", "--model", str(path), "--calib", str(data), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3 and not out.exists()
    assert "Traceback" not in err and "Warning" not in err
    assert re.fullmatch(r"internal error: site '[\w.]+' has calibration range \[\S+, \S+\], "
                        r"which is not finite", err.splitlines()[-1])


@pytest.mark.parametrize("lr_max", ["1e5", "1e10", "1e30"])
def test_diverging_forward_prints_no_numpy_warning(tmp_path, capsys, lr_max):
    """An update that stays finite in float32 makes the next forward overflow.
    The loss check reports it, with exit 3 naming lr_max; no numpy
    RuntimeWarning is raised on the way (the suite turns warnings into
    errors)."""
    data, config, out = tmp_path / "d32", tmp_path / "m.ini", tmp_path / "m.efld"
    assert run(["synth", "--count", "4", "--size", "32", "--seed", "1", "--formats", "p51",
                "--out", str(data)]) == 0
    config.write_text(TestInvalidInput.config_text(lr_max=lr_max, weight_decay="0"))
    capsys.readouterr()
    code = run(["train", "--config", str(config), "--data", str(data), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3 and not out.exists()
    assert "Warning" not in err
    assert err.splitlines()[-1] == (
        "internal error: loss became non-finite at epoch 0, step 1; "
        f"training diverged: lower lr_max (now {float(lr_max):g})")
