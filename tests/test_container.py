"""Container serialization: roundtrips, pruning, corruption handling."""

import os
import re
import stat
import struct

import numpy as np
import pytest

from efld.cli import run
from efld.container import CONTAINER_VERSION, MAGIC, load, save
from efld.errors import ContainerError, CorruptionError, UsageError
from efld.image import write_ppm
from efld.model import (EosaConfig, HeadConfig, Model, ModelConfig, build_model, default_config,
                        model_forward)
from efld.quantize import (QuantizedModel, calibrate, plan_sites, quantize_model,
                           quantized_forward)
from efld.synthetic import generate_synthetic
from efld.tensor import Tensor

from conftest import patch_entry, reduced_config


@pytest.fixture(scope="module")
def three_head_model():
    return build_model(reduced_config(("p51", "p68", "p98")), seed=4)


@pytest.fixture(scope="module")
def quantized(three_head_model):
    dataset = generate_synthetic(8, 32, seed=40, formats=["p51"])
    activations = calibrate(three_head_model, dataset)
    return quantize_model(three_head_model, activations), dataset


class TestFloatRoundtrip:
    def test_save_load_forward_bit_exact(self, three_head_model, tmp_path):
        path = tmp_path / "m.efld"
        save(three_head_model, path)
        loaded = load(path)
        assert isinstance(loaded, Model)
        assert loaded.dtype == three_head_model.dtype
        x = Tensor(np.random.default_rng(0).uniform(size=(2, 32, 32, 3)).astype("float32"))
        a = model_forward(three_head_model, x)
        b = model_forward(loaded, x)
        for fmt in a:
            np.testing.assert_array_equal(a[fmt].data, b[fmt].data)

    def test_save_twice_byte_identical(self, three_head_model, tmp_path):
        p1, p2 = tmp_path / "a.efld", tmp_path / "b.efld"
        save(three_head_model, p1)
        save(three_head_model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_save_byte_idempotent(self, three_head_model, tmp_path):
        p1, p2 = tmp_path / "a.efld", tmp_path / "b.efld"
        save(three_head_model, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_saved_file_mode_follows_the_umask(self, three_head_model, tmp_path, umask):
        path = tmp_path / "m.efld"
        path.write_bytes(b"")
        os.chmod(path, 0o600 if umask == 0o022 else 0o644)
        old = os.umask(umask)
        try:
            save(three_head_model, path)
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
        assert [p.name for p in tmp_path.iterdir()] == ["m.efld"]

    def test_float64_roundtrip(self, tmp_path):
        model = build_model(reduced_config(("p51",)), seed=1, dtype="float64")
        path = tmp_path / "m64.efld"
        save(model, path)
        loaded = load(path)
        assert loaded.dtype == "float64"
        for name in model.params:
            np.testing.assert_array_equal(model.params[name].data, loaded.params[name].data)


class TestPruning:
    def test_default_model_prunes_to_exact_counts(self, tmp_path):
        model = build_model(default_config(("p51", "p68", "p98")), seed=5)
        assert model.parameter_count() == 303622
        path = tmp_path / "p51.efld"
        save(model, path, keep_heads=["p51"])
        pruned = load(path)
        assert pruned.parameter_count() == 130938
        assert pruned.head_formats() == ("p51",)

    def test_pruning_commutes_with_inference(self, three_head_model, tmp_path):
        path = tmp_path / "pruned.efld"
        save(three_head_model, path, keep_heads=["p51"])
        pruned = load(path)
        x = Tensor(np.random.default_rng(1).uniform(size=(2, 32, 32, 3)).astype("float32"))
        full = model_forward(three_head_model.with_heads({"p51"}), x)["p51"]
        after = model_forward(pruned, x)["p51"]
        np.testing.assert_array_equal(full.data, after.data)

    def test_keep_two_heads(self, three_head_model, tmp_path):
        path = tmp_path / "two.efld"
        save(three_head_model, path, keep_heads=["p51", "p98"])
        pruned = load(path)
        assert pruned.head_formats() == ("p51", "p98")

    def test_unknown_head_is_usage_error(self, three_head_model, tmp_path):
        with pytest.raises(UsageError, match="p40"):
            save(three_head_model, tmp_path / "x.efld", keep_heads=["p40"])

    def test_empty_heads_rejected(self, three_head_model, tmp_path):
        with pytest.raises(UsageError, match="nonempty"):
            save(three_head_model, tmp_path / "x.efld", keep_heads=[])


def _forward(model, images) -> dict:
    """Every head's predictions as arrays, for either model kind."""
    if isinstance(model, QuantizedModel):
        return quantized_forward(model, images)
    return {fmt: out.data for fmt, out in model_forward(model, Tensor(images)).items()}


def _tensors(model) -> list:
    """(name, object) of every tensor, scale and site parameter the model holds
    (an int8 model derives its bias scales from these)."""
    if isinstance(model, Model):
        return list(model.params.items())
    tables = {"w": model.weights, "w.scale": model.weight_scales, "b": model.biases}
    held = [(f"{layer}.{part}", value) for part, table in tables.items()
            for layer, value in table.items()]
    return held + [(f"site:{site}", qp) for site, qp in model.activations.items()]


class TestWithHeads:
    """``with_heads`` prunes either model kind to a head subset that runs,
    costs and saves as the pruned container does."""

    @pytest.fixture(params=["float32", "int8"])
    def full(self, request, three_head_model, quantized):
        return three_head_model if request.param == "float32" else quantized[0]

    @pytest.fixture
    def images(self, quantized):
        return np.stack([s.image for s in quantized[1].samples[:3]]).astype("float32")

    @pytest.mark.parametrize("heads", [["p51"], ["p98", "p51"]], ids=["p51", "p51-p98"])
    def test_outputs_are_the_full_models_rows(self, full, images, heads):
        pruned = full.with_heads(heads)
        assert type(pruned) is type(full)
        got, want = _forward(pruned, images), _forward(full, images)
        assert list(got) == [fmt for fmt in want if fmt in heads]
        for fmt, out in got.items():
            assert out.tobytes() == want[fmt].tobytes(), fmt

    def test_shares_only_its_own_tensors(self, full):
        pruned = full.with_heads(["p68"])
        held = dict(_tensors(full))
        kept = _tensors(pruned)
        assert all(value is held[name] for name, value in kept)
        names = [name for name, _ in kept]
        assert not [name for name in names if "p51" in name or "p98" in name]
        assert any("head.p68" in name for name in names)

    def test_parameter_count_is_the_pruned_containers(self, full, tmp_path):
        path = tmp_path / "m.efld"
        save(full, path, keep_heads=["p51"])
        pruned = full.with_heads(["p51"])
        assert pruned.parameter_count() == load(path).parameter_count() < full.parameter_count()

    def test_saves_the_bytes_of_keep_heads(self, full, tmp_path):
        for heads in (["p51"], ["p68", "p98"]):
            kept, pruned = tmp_path / "kept.efld", tmp_path / "pruned.efld"
            save(full, kept, keep_heads=heads)
            save(full.with_heads(heads), pruned)
            assert kept.read_bytes() == pruned.read_bytes()
            save(load(pruned), kept)
            assert kept.read_bytes() == pruned.read_bytes()


class TestQuantizedRoundtrip:
    def test_roundtrip_outputs_bit_exact(self, quantized, tmp_path):
        qmodel, dataset = quantized
        path = tmp_path / "q.efld"
        save(qmodel, path)
        loaded = load(path)
        assert isinstance(loaded, QuantizedModel)
        images = np.stack([s.image for s in dataset.samples[:2]])
        a = quantized_forward(qmodel, images)
        b = quantized_forward(loaded, images)
        for fmt in a:
            np.testing.assert_array_equal(a[fmt], b[fmt])

    def test_byte_idempotent(self, quantized, tmp_path):
        qmodel, _ = quantized
        p1, p2 = tmp_path / "a.efld", tmp_path / "b.efld"
        save(qmodel, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_quantized_pruning_preserves_predictions(self, quantized, tmp_path):
        qmodel, dataset = quantized
        path = tmp_path / "q51.efld"
        save(qmodel, path, keep_heads=["p51"])
        pruned = load(path)
        images = np.stack([s.image for s in dataset.samples[:2]])
        np.testing.assert_array_equal(
            quantized_forward(qmodel, images)["p51"], quantized_forward(pruned, images)["p51"]
        )


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.efld"
        path.write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(ContainerError, match="magic"):
            load(path)

    def test_bad_version(self, three_head_model, tmp_path):
        path = tmp_path / "v.efld"
        save(three_head_model, path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", CONTAINER_VERSION + 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(ContainerError, match="version"):
            load(path)

    def test_truncated_payload_names_tensor(self, three_head_model, tmp_path):
        path = tmp_path / "t.efld"
        save(three_head_model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-200])
        with pytest.raises(CorruptionError, match=r"head\.p98\.out"):
            load(path)

    def test_not_a_container_at_all(self, tmp_path):
        path = tmp_path / "tiny.efld"
        path.write_bytes(b"EF")
        with pytest.raises(CorruptionError):
            load(path)

    def test_magic_survives(self, three_head_model, tmp_path):
        path = tmp_path / "ok.efld"
        save(three_head_model, path)
        assert path.read_bytes()[:4] == MAGIC


def container_fields(raw: bytes) -> tuple:
    """A container's layout as docs/container.md gives it: (start, end,
    what) of each header and table field in file order, ``what`` as a load
    error names the field; where the payload section starts; and the
    (name, offset, length) of each table entry."""
    (blob_len,) = struct.unpack_from("<I", raw, 8)
    pos = 12 + blob_len
    fields = [(0, 4, "magic"), (4, 8, "header"), (8, 12, "config length"),
              (12, pos, "config blob"), (pos, pos + 4, "tensor count")]
    (count,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    entries = []
    for _ in range(count):
        (n,) = struct.unpack_from("<H", raw, pos)
        name = raw[pos + 2 : pos + 2 + n].decode("utf-8")
        tag, rank = raw[pos + 2 + n : pos + 4 + n]
        for size, what in [(2, "tensor name length"), (n, "tensor name"),
                           (2, f"tensor {name} header"), (4 * rank, f"tensor {name} dims"),
                           (12 * (tag in (2, 3)), f"tensor {name} quant params"),
                           (16, f"tensor {name} location")]:
            if size:
                fields.append((pos, pos + size, what))
                pos += size
        entries.append((name, *struct.unpack_from("<QQ", raw, pos - 16)))
    return fields, pos, entries


@pytest.fixture(scope="module")
def small_containers(tmp_path_factory):
    """The bytes of a float and an int8 container of a one-head 16 px model."""
    config = ModelConfig(16, (EosaConfig(2, 1, 2), EosaConfig(2, 2, 2, "depthwise-separable")),
                         4, (HeadConfig("p51", 51, 1, 4),))
    model = build_model(config, seed=2)
    qmodel = quantize_model(model, calibrate(model, generate_synthetic(2, 16, seed=3,
                                                                       formats=["p51"])))
    out = {}
    for kind, m in (("float32", model), ("int8", qmodel)):
        path = tmp_path_factory.mktemp("small") / f"{kind}.efld"
        save(m, path)
        out[kind] = path.read_bytes()
    return out


class TestLoadErrors:
    """The exact error of a truncated or overlapping container: each names
    the file and the field or the tensors."""

    @pytest.mark.parametrize("kind", ["float32", "int8"])
    def test_truncation_at_every_field_boundary(self, small_containers, kind, tmp_path):
        raw = small_containers[kind]
        fields, payload_start, entries = container_fields(raw)
        cases = [(cut, f"truncated while reading {what}")
                 for start, end, what in fields for cut in (start, end - 1)]
        for _, offset, length in entries:
            for cut in (offset, offset + length - 1) if length else ():
                first = next(name for name, o, n in entries if o + n > cut)
                cases.append((payload_start + cut, f"tensor {first!r} payload out of bounds"))
        path = tmp_path / "t.efld"
        for cut, message in cases:
            path.write_bytes(raw[:cut])
            with pytest.raises(CorruptionError) as caught:
                load(path)
            assert str(caught.value) == f"{path}: {message}", cut
        path.write_bytes(raw)
        load(path)

    @pytest.mark.parametrize("kind", ["float32", "int8"])
    def test_overlapping_payloads_name_the_later_entry_first(self, small_containers, kind,
                                                             tmp_path):
        path = tmp_path / "o.efld"
        path.write_bytes(small_containers[kind])
        _, _, entries = container_fields(small_containers[kind])
        (earlier, offset, _), (later, *_) = entries[1], entries[3]
        patch_entry(path, later, offset=offset)
        with pytest.raises(CorruptionError) as caught:
            load(path)
        assert str(caught.value) == f"{path}: tensors {later!r} and {earlier!r} overlap"

    @staticmethod
    def site_first(raw: bytes, site: str) -> bytes:
        """The container with ``site``'s entry moved to the front of the table."""
        [(lo, hi), _], count_at = TestTableOrder.site_entries(raw, site, site)
        table = count_at + 4
        return raw[:table] + raw[lo:hi] + raw[table:lo] + raw[hi:]

    def test_zero_length_entry_inside_a_later_payload_overlaps(self, small_containers,
                                                               tmp_path):
        path = tmp_path / "z.efld"
        path.write_bytes(self.site_first(small_containers["int8"], "site:input"))
        patch_entry(path, "site:input", offset=1)
        with pytest.raises(CorruptionError) as caught:
            load(path)
        assert str(caught.value) == f"{path}: tensors 'eosa1.extra.w' and 'site:input' overlap"

    def test_zero_length_entry_inside_an_earlier_payload_loads(self, small_containers,
                                                               tmp_path):
        path = tmp_path / "z.efld"
        path.write_bytes(small_containers["int8"])
        patch_entry(path, "site:input", offset=1)
        assert load(path).activations["input"].scale > 0
        patch_entry(path, "site:input", offset=0, length=1)
        with pytest.raises(CorruptionError, match="tensors 'site:input' and 'eosa1.extra.w'"):
            load(path)


class TestPlanChecks:
    """``load`` checks every tensor against the plan: its shape, and each
    quantized scale and zero point. A byte-patched entry that would load
    and then fail or mislead at inference is a ``ContainerError`` naming
    the file and the tensor."""

    @pytest.mark.parametrize("name,dims", [
        ("eosa1.extra.w", (3, 3, 4, 3)),  # (3, 3, 3, 4): the same bytes in another shape
        ("head.p51.block0.w", (16, 128)),  # (128, 16), transposed
        ("decoder.dw.b", (128,)),  # unchanged: a control
    ])
    @pytest.mark.parametrize("kind", ["float32", "int8"])
    def test_shape_must_match_the_plan(self, three_head_model, quantized, tmp_path, kind, name,
                                       dims):
        path = tmp_path / "m.efld"
        save(three_head_model if kind == "float32" else quantized[0], path)
        patch_entry(path, name, dims=dims)
        if name == "decoder.dw.b":
            load(path)
            return
        with pytest.raises(ContainerError,
                           match=re.escape(f"m.efld: tensor '{name}' has shape {dims}")):
            load(path)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, 0.0, -0.5])
    @pytest.mark.parametrize("name", ["eosa1.extra.w", "head.p51.out.b", "site:eosa1.concat"])
    def test_scale_must_be_finite_and_positive(self, quantized, tmp_path, name, scale):
        path = tmp_path / "q.efld"
        save(quantized[0], path)
        patch_entry(path, name, scale=scale)
        with pytest.raises(ContainerError, match=rf"q\.efld: tensor '{name}' has scale"):
            load(path)

    @pytest.mark.parametrize("name,zero_point,ok", [
        ("eosa1.extra.w", 1, False),
        ("head.p51.out.b", -1, False),
        ("site:eosa1.concat", 128, False),
        ("site:input", -129, False),
        ("site:eosa1.concat", -128, True),
        ("site:input", 127, True),
    ])
    def test_zero_point_range(self, quantized, tmp_path, name, zero_point, ok):
        path = tmp_path / "q.efld"
        save(quantized[0], path)
        patch_entry(path, name, zero_point=zero_point)
        if ok:
            assert load(path).activations[name[5:]].zero_point == zero_point
            return
        message = rf"q\.efld: tensor '{name}' has scale \S+ and zero point {zero_point};"
        with pytest.raises(ContainerError, match=message):
            load(path)


class TestInt8Rules:
    """Two rules of an int8 container that the inference path does not read,
    so that a file breaking them would run: each bias's scale is its input
    site's scale times its weight's scale, exactly as ``quantize_model``
    computes it, and each site entry is int8. ``efld infer`` exits 2 on
    either, naming the file and the tensor."""

    @staticmethod
    def infer(path, tmp_path, capsys):
        crop = tmp_path / "crop.ppm"
        write_ppm(crop, np.zeros((32, 32, 3), dtype=np.uint8))
        capsys.readouterr()
        code = run(["infer", "--model", str(path), "--image", str(crop), "--format", "p51"])
        return code, capsys.readouterr()

    def test_saved_bias_scales_are_the_exact_products(self, quantized, tmp_path):
        qmodel, _ = quantized
        path = tmp_path / "q.efld"
        save(qmodel, path)
        loaded = load(path)
        for step in loaded.plan:
            if step.layer:
                site = loaded.activations[step.inputs[0]]
                expected = site.scale * loaded.weight_scales[step.layer]
                assert loaded.bias_scales[step.layer] == expected

    def test_bias_scale_1000x_too_large_exits_2(self, quantized, tmp_path, capsys):
        qmodel, _ = quantized
        path = tmp_path / "q.efld"
        save(qmodel, path)
        scale = qmodel.bias_scales["eosa1.extra"]
        patch_entry(path, "eosa1.extra.b", scale=scale * 1000)
        code, out = self.infer(path, tmp_path, capsys)
        assert code == 2 and out.out == ""
        assert out.err.splitlines()[-1] == (
            f"error: {path}: tensor 'eosa1.extra.b' has scale {scale * 1000!r}; it needs the "
            f"scale of 'site:input' times that of 'eosa1.extra.w', {scale!r}")

    @pytest.mark.parametrize("name", ["eosa1.extra.b", "decoder.dw.b", "head.p68.out.b"])
    def test_bias_scale_one_ulp_off_is_rejected(self, quantized, tmp_path, name):
        qmodel, _ = quantized
        path = tmp_path / "q.efld"
        save(qmodel, path)
        scale = qmodel.bias_scales[name[:-2]]
        patch_entry(path, name, scale=float(np.nextafter(scale, np.inf)))
        with pytest.raises(ContainerError, match=rf"q\.efld: tensor '{re.escape(name)}' has scale"):
            load(path)

    def test_site_entry_tagged_int32_exits_2(self, quantized, tmp_path, capsys):
        path = tmp_path / "q.efld"
        save(quantized[0], path)
        patch_entry(path, "site:input", tag=3)
        code, out = self.infer(path, tmp_path, capsys)
        assert code == 2 and out.out == ""
        assert out.err.splitlines()[-1] == (
            f"error: {path}: tensor 'site:input' has dtype int32; a site entry needs int8")

    def test_dims_whose_product_wraps_int64_exit_2(self, quantized, tmp_path, capsys):
        path = tmp_path / "q.efld"
        save(quantized[0], path)
        patch_entry(path, "eosa1.extra.w", dims=(65536,) * 4, length=0)
        code, out = self.infer(path, tmp_path, capsys)
        assert code == 2 and out.out == ""
        assert out.err.splitlines()[-1] == (
            f"error: {path}: tensor 'eosa1.extra.w' payload is 0 bytes, expected {2**64}")

    @pytest.mark.parametrize("name", ["site:eosa2.concat", "site:decoder.out",
                                      "site:head.p98.out"])
    def test_site_entry_must_be_int8(self, quantized, tmp_path, name):
        path = tmp_path / "q.efld"
        save(quantized[0], path)
        raw = path.read_bytes()
        patch_entry(path, name, tag=3)
        with pytest.raises(ContainerError, match=rf"tensor '{re.escape(name)}' has dtype int32"):
            load(path)
        path.write_bytes(raw)
        load(path)


class TestTableOrder:
    """The table lists the architecture's tensors in file order, each once.
    A site entry holds no payload, so a repeated or moved one passes the
    bounds and overlap checks; the name check catches it."""

    @staticmethod
    def site_entries(raw, first, second):
        """The table's byte spans of two site entries (rank 0: name, tag and
        rank, scale and zero point, offset and length), and where the
        tensor count sits."""
        (blob_len,) = struct.unpack_from("<I", raw, 8)
        spans = []
        for name in (first, second):
            key = struct.pack("<H", len(name)) + name.encode("utf-8")
            start = raw.index(key)
            spans.append((start, start + len(key) + 2 + 12 + 16))
        return spans, 12 + blob_len

    def test_repeated_site_entry_exits_2(self, quantized, tmp_path, capsys):
        path = tmp_path / "q.efld"
        save(quantized[0], path)
        raw = bytearray(path.read_bytes())
        [(lo, hi), _], count_at = self.site_entries(raw, "site:input", "site:input")
        (count,) = struct.unpack_from("<I", raw, count_at)
        struct.pack_into("<I", raw, count_at, count + 1)
        raw[hi:hi] = raw[lo:hi]
        path.write_bytes(bytes(raw))
        code, out = TestInt8Rules.infer(path, tmp_path, capsys)
        assert code == 2 and out.out == ""
        assert out.err.splitlines()[-1] == (
            f"error: {path}: tensor names do not match the architecture")

    def test_swapped_site_entries_are_rejected(self, quantized, tmp_path):
        qmodel = quantized[0]
        path = tmp_path / "q.efld"
        save(qmodel, path)
        raw = bytearray(path.read_bytes())
        second = "site:" + plan_sites(qmodel.config)[1]
        [(lo, mid), (mid2, hi)], _ = self.site_entries(raw, "site:input", second)
        assert mid == mid2
        raw[lo:hi] = raw[mid:hi] + raw[lo:mid]
        path.write_bytes(bytes(raw))
        with pytest.raises(ContainerError, match="tensor names do not match the architecture"):
            load(path)
