"""Format registry, inter-ocular geometry, dataset I/O, and batch stream."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from efld.data import BatchStream, Dataset, Sample, load_dataset, save_dataset
from efld.errors import (
    ConfigError,
    DataError,
    ParseError,
    UsageError,
    ValidationError,
)
from efld.formats import (MIN_INTEROCULAR, FormatRegistry, LandmarkFormat, _nme_terms,
                          default_registry, eye_distances, nme_loss)
from efld.image import bilinear_resize, read_ppm, read_ppm_codes, stack_images, write_ppm
from efld.synthetic import generate_synthetic

from conftest import ref_bilinear_resize


class TestRegistry:
    def test_defaults(self):
        reg = default_registry()
        assert reg.get("p51").points == 51
        assert reg.get("p68").interocular == (36, 45)
        assert reg.get("p98").interocular == (60, 72)
        assert reg.get("p51").interocular == (0, 1)

    def test_override_interocular(self):
        reg = default_registry()
        reg.register(LandmarkFormat("p51", 51, (21, 26)), replace=True)
        assert reg.get("p51").interocular == (21, 26)

    def test_duplicate_rejected(self):
        reg = default_registry()
        with pytest.raises(ConfigError, match="already registered"):
            reg.register(LandmarkFormat("p51", 51, (0, 1)))

    def test_bad_indices(self):
        with pytest.raises(ConfigError, match="out of range"):
            FormatRegistry([LandmarkFormat("x", 5, (0, 7))])
        with pytest.raises(ConfigError, match="differ"):
            FormatRegistry([LandmarkFormat("x", 5, (2, 2))])

    def test_unknown_format(self):
        with pytest.raises(ConfigError, match="not registered"):
            default_registry().get("p199")


class TestInterocular:
    FMT = LandmarkFormat("t3", 3, (0, 1))

    def test_hand_case(self):
        pts = np.array([[0.3, 0.4, 0.7, 0.4, 0.5, 0.9]])
        assert eye_distances(pts, self.FMT) == pytest.approx([0.4])

    def test_coincident_eyes_degenerate(self, caplog):
        """A sample whose eyes coincide is left out of the NME: weight 0 and
        a zero gradient row, beside a valid sample, and a warning from the
        loss that leaves it out."""
        pts = np.array([[0.3, 0.4, 0.7, 0.4, 0.5, 0.9], [0.5, 0.5, 0.5, 0.5, 0.1, 0.1]])
        assert eye_distances(pts, self.FMT)[1] < MIN_INTEROCULAR
        nme, dnme, valid = _nme_terms(pts + 0.1, pts, self.FMT)
        assert valid.tolist() == [True, False]
        assert nme[1] == 0.0 and nme[0] > 0.0
        np.testing.assert_array_equal(dnme[1], np.zeros(6))
        with caplog.at_level("WARNING"):
            nme_loss(pts + 0.1, pts, self.FMT)
        assert "t3: excluding 1 sample(s) with degenerate inter-ocular distance" in caplog.text

    def test_translation_invariant(self, rng):
        pts = rng.uniform(size=(1, 6))
        shifted = pts + np.tile([0.07, -0.11], 3)
        assert eye_distances(pts, self.FMT) == pytest.approx(eye_distances(shifted, self.FMT))

    def test_length_validation(self):
        with pytest.raises(UsageError, match="do not match format 't3' with 3 points"):
            nme_loss(np.zeros(4), np.zeros(4), self.FMT)


class TestDatasetIO:
    def test_single_format_loads_with_one_annotation(self, tmp_path):
        ds = generate_synthetic(3, 32, seed=1, formats=["p51"])
        save_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        assert len(loaded) == 3
        assert all(set(s.annotations) == {"p51"} for s in loaded)

    def test_roundtrip_exact(self, tmp_path):
        ds = generate_synthetic(4, 32, seed=2, formats=["p51", "p68"])
        save_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        for a, b in zip(ds.samples, loaded.samples):
            np.testing.assert_array_equal(a.image, b.image)
            assert set(a.annotations) == set(b.annotations)
            for fmt in a.annotations:
                np.testing.assert_array_equal(a.annotations[fmt], b.annotations[fmt])

    def test_missing_points_is_parse_error_with_line(self, tmp_path):
        ds = generate_synthetic(2, 32, seed=3, formats=["p51"])
        save_dataset(ds, tmp_path)
        index = tmp_path / "annotations.jsonl"
        lines = index.read_text().splitlines()
        record = json.loads(lines[1])
        record["annotations"]["p51"] = None
        lines[1] = json.dumps(record)
        index.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(tmp_path)

    def test_line_numbers_count_crlf_and_bare_cr_as_one_line_end(self, tmp_path):
        """Lines are numbered as ``bytes.splitlines`` numbers the whole file:
        "\\r\\n" ends one line, and so does a bare "\\r"."""
        save_dataset(generate_synthetic(3, 8, seed=3, formats=["p51"]), tmp_path)
        index = tmp_path / "annotations.jsonl"
        good = index.read_bytes().splitlines()
        text = good[0] + b"\r\n" + good[1] + b"\r" + b"\r\n" + good[2] + b"\r" + b"[]\r\n"
        assert text.splitlines().index(b"[]") + 1 == 5
        index.write_bytes(text)
        with pytest.raises(ParseError, match="^line 5: record must be a JSON object$"):
            load_dataset(tmp_path)
        index.write_bytes(text[: -len(b"[]\r\n")])
        assert len(load_dataset(tmp_path)) == 3

    def test_missing_image_field(self, tmp_path):
        ds = generate_synthetic(1, 32, seed=3, formats=["p51"])
        save_dataset(ds, tmp_path)
        index = tmp_path / "annotations.jsonl"
        record = json.loads(index.read_text())
        del record["image"]
        index.write_text(json.dumps(record) + "\n")
        with pytest.raises(ParseError, match='line 1.*"image"'):
            load_dataset(tmp_path)

    def test_coordinate_out_of_range(self, tmp_path):
        ds = generate_synthetic(1, 32, seed=4, formats=["p51"])
        save_dataset(ds, tmp_path)
        index = tmp_path / "annotations.jsonl"
        record = json.loads(index.read_text())
        record["annotations"]["p51"][0][0] = 1.5
        index.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValidationError, match=r"out of \[0, 1\]"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("point,axis,value", [(0, 0, True), (50, 1, False)])
    def test_boolean_coordinate_among_numbers_is_parse_error(self, tmp_path, point, axis, value):
        ds = generate_synthetic(1, 32, seed=4, formats=["p51"])
        save_dataset(ds, tmp_path)
        index = tmp_path / "annotations.jsonl"
        record = json.loads(index.read_text())
        record["annotations"]["p51"][point][axis] = value
        index.write_text(json.dumps(record) + "\n")
        with pytest.raises(ParseError, match="line 1: .*true or false coordinate"):
            load_dataset(tmp_path)

    def test_wrong_point_count(self, tmp_path):
        ds = generate_synthetic(1, 32, seed=4, formats=["p51"])
        save_dataset(ds, tmp_path)
        index = tmp_path / "annotations.jsonl"
        record = json.loads(index.read_text())
        record["annotations"]["p51"] = record["annotations"]["p51"][:-1]
        index.write_text(json.dumps(record) + "\n")
        with pytest.raises(ParseError, match="50 points, expected 51"):
            load_dataset(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DataError, match="annotations"):
            load_dataset(tmp_path / "nope")

    def test_unannotated_formats_absent_never_zero_filled(self, tmp_path):
        ds = generate_synthetic(4, 32, seed=5, formats=["p51", "p68"], annotate="round-robin")
        save_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        for i, sample in enumerate(loaded):
            assert set(sample.annotations) == {["p51", "p68"][i % 2]}

    def test_calibration_only_samples(self, tmp_path):
        ds = generate_synthetic(2, 32, seed=6, formats=["p51"], annotate="none")
        save_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        assert all(s.annotations == {} for s in loaded)


class TestPpm:
    def test_roundtrip_is_identity_on_quantized_values(self, tmp_path, rng):
        image = np.round(rng.uniform(size=(9, 7, 3)) * 255.0) / 255.0
        path = tmp_path / "x.ppm"
        write_ppm(path, image)
        np.testing.assert_array_equal(read_ppm(path), image)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(DataError, match="magic"):
            read_ppm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(DataError, match="truncated"):
            read_ppm(path)

    def test_bilinear_resize_identity_and_shape(self, rng):
        image = rng.uniform(size=(8, 8, 3))
        np.testing.assert_array_equal(bilinear_resize(image, 8, 8), image)
        assert bilinear_resize(image, 16, 12).shape == (16, 12, 3)

    def test_bilinear_constant_image_stays_constant(self):
        image = np.full((5, 9, 3), 0.25)
        out = bilinear_resize(image, 32, 32)
        np.testing.assert_allclose(out, 0.25, atol=1e-12)


# (source shape, output height and width), each resized bit for bit as the
# whole-image oracle does. Output heights 1, 3 and 6 fill less than a band of
# rows, and 19, 23, 37 and 50 are no multiple of 8, 16 or 32.
RESIZE_CASES = {
    "upscale": ((5, 7, 3), (37, 29)),
    "downscale-by-3-rows-skipped": ((90, 100, 3), (30, 25)),
    "downscale-by-5.3": ((101, 67, 3), (19, 12)),
    "one-px-source": ((1, 1, 3), (9, 7)),
    "one-px-target": ((40, 30, 3), (1, 1)),
    "one-row-source": ((1, 13, 3), (6, 5)),
    "one-column-source": ((13, 1, 3), (6, 5)),
    "same-size": ((8, 8, 3), (8, 8)),
    "bench-160x192": ((160, 192, 3), (128, 128)),
    "bench-192x160": ((192, 160, 3), (128, 128)),
    "bench-176x224": ((176, 224, 3), (128, 128)),
    "bench-224x176": ((224, 176, 3), (128, 128)),
    "out-h-3": ((20, 20, 3), (3, 17)),
    "out-h-50": ((64, 48, 3), (50, 40)),
    "c1": ((33, 21, 1), (47, 19)),
    "c4": ((21, 33, 4), (19, 47)),
}


class TestResizeBits:
    """``bilinear_resize`` against the whole-image oracle of ``conftest``,
    compared as the bits of its float64 output."""

    @staticmethod
    def assert_same_bits(out, want):
        assert out.dtype == np.float64 and out.shape == want.shape
        np.testing.assert_array_equal(out.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("case", list(RESIZE_CASES))
    def test_bit_equal_to_the_oracle(self, case):
        shape, (out_h, out_w) = RESIZE_CASES[case]
        image = np.random.default_rng(list(RESIZE_CASES).index(case)).uniform(size=shape)
        self.assert_same_bits(bilinear_resize(image, out_h, out_w),
                              ref_bilinear_resize(image, out_h, out_w))

    @pytest.mark.parametrize("out_hw", [(23, 9), (5, 31), (40, 7)])
    def test_nan_and_inf_pixels_keep_their_bits(self, out_hw):
        """NaN, +inf and -inf pixels, the corners among them, make NaNs of
        either sign (inf * 0 is a negative NaN here). Where two NaNs meet in
        an add, numpy's loop picks the sign (see ``bilinear_resize``); at
        these shapes it is the oracle's."""
        rng = np.random.default_rng(7)
        image = rng.uniform(-1.0, 1.0, size=(16, 12, 3))
        for value in (np.nan, np.inf, -np.inf):
            image[rng.integers(0, 16, 6), rng.integers(0, 12, 6), rng.integers(0, 3, 6)] = value
        image[0, 0], image[-1, -1], image[0, -1] = np.nan, np.inf, -np.inf
        with np.errstate(invalid="ignore"):
            want = ref_bilinear_resize(image, *out_hw)
            out = bilinear_resize(image, *out_hw)
        assert np.isnan(want).any()
        self.assert_same_bits(out, want)

    def test_uint8_input_is_read_as_its_codes(self):
        codes = np.random.default_rng(3).integers(0, 256, size=(24, 40, 3), dtype=np.uint8)
        out = bilinear_resize(codes, 32, 32)
        self.assert_same_bits(out, ref_bilinear_resize(codes, 32, 32))
        assert out.max() > 1.0  # codes, not codes / 255


def _crops(kind, tmp_path):
    """Samples of one kind: crops loaded from PPMs, made by the synthetic
    generator, built by hand from floats, or a merge of all three."""
    if kind == "loaded":
        save_dataset(generate_synthetic(5, 16, seed=4, formats=["p51"]), tmp_path)
        return load_dataset(tmp_path).samples
    if kind == "synthetic":
        return generate_synthetic(5, 16, seed=4, formats=["p51"]).samples
    rng = np.random.default_rng(6)
    by_hand = [Sample(rng.uniform(size=(16, 16, 3)), {}),
               Sample(rng.uniform(size=(16, 16, 3)).astype(np.float32), {})]
    if kind == "by-hand":
        return by_hand
    return _crops("loaded", tmp_path)[:2] + by_hand + _crops("synthetic", tmp_path)[:2]


class TestEightBitCrops:
    @pytest.mark.parametrize("kind", ["loaded", "synthetic", "by-hand", "mixed"])
    @pytest.mark.parametrize("dtype", ["float32", "float64", np.float64],
                             ids=["float32", "float64", "int8-input"])
    def test_batch_has_the_bits_of_the_float_images(self, kind, dtype, tmp_path):
        samples = _crops(kind, tmp_path)
        batch = stack_images([s.pixels for s in samples], dtype)
        expected = np.stack([s.image for s in samples]).astype(dtype)
        assert batch.dtype == expected.dtype
        assert batch.tobytes() == expected.tobytes()

    def test_codes_are_kept_and_image_is_k_over_255(self, tmp_path):
        for sample in _crops("loaded", tmp_path) + _crops("synthetic", tmp_path):
            assert sample.pixels.dtype == np.uint8
            assert sample.image.dtype == np.float64
            assert sample.image.tobytes() == (sample.pixels.astype(np.float64) / 255.0).tobytes()

    def test_load_dataset_holds_one_byte_per_pixel_channel(self, tmp_path):
        """A 128 px crop takes its 49,152 bytes of codes, not the 393,216 of
        a float64 image. The allowance covers per sample the annotations,
        the objects and the JSONL text, and once the file being read."""
        n = 16
        save_dataset(generate_synthetic(n, 128, seed=1, formats=["p51"]), tmp_path)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            dataset = load_dataset(tmp_path)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(dataset) == n
        crop = 128 * 128 * 3
        assert peak < n * (crop + 8192) + 4 * crop

    def test_load_dataset_peak_is_what_it_keeps(self, tmp_path):
        """The JSONL is parsed one line at a time, so loading allocates little
        beyond the samples it keeps: 64 crops of 128 px annotated in p51, p68
        and p98 (about 9 KB of JSONL and 48 KiB of codes each)."""
        rng = np.random.default_rng(0)
        (tmp_path / "images").mkdir()
        with open(tmp_path / "annotations.jsonl", "w", encoding="utf-8") as fh:
            for i in range(64):
                rel = f"images/{i:06d}.ppm"
                write_ppm(tmp_path / rel, rng.integers(256, size=(128, 128, 3), dtype=np.uint8))
                annotations = {f: rng.uniform(size=(k, 2)).tolist()
                               for f, k in (("p51", 51), ("p68", 68), ("p98", 98))}
                fh.write(json.dumps({"image": rel, "annotations": annotations}) + "\n")
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            dataset = load_dataset(tmp_path)
            kept, peak = (m - start for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(dataset) == 64
        assert peak <= 1.05 * kept, (peak, kept)

    def test_save_of_a_loaded_dataset_writes_the_same_bytes(self, tmp_path):
        generated = generate_synthetic(4, 16, seed=7, formats=["p51", "p68"])
        save_dataset(generated, tmp_path / "a")
        loaded = load_dataset(tmp_path / "a")
        for a, b in zip(generated, loaded):
            np.testing.assert_array_equal(a.pixels, b.pixels)
        save_dataset(loaded, tmp_path / "b")
        names = sorted(os.listdir(tmp_path / "a" / "images"))
        assert names == sorted(os.listdir(tmp_path / "b" / "images")) and len(names) == 4
        for name in names:
            rel = os.path.join("images", name)
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_dataset_and_batch_stream_convert_no_image(self, tmp_path, monkeypatch):
        samples = _crops("loaded", tmp_path) + _crops("synthetic", tmp_path)

        def converted(sample):
            raise AssertionError("an image was converted")

        monkeypatch.setattr(Sample, "image", property(converted))
        dataset = Dataset(samples)
        assert dataset.image_size == 16
        stream = BatchStream([dataset, Dataset(samples[:3])], batch_size=4, seed=0)
        assert sum(len(batch) for batch in stream.batches(0)) == len(samples) + 3

    def test_read_ppm_codes_reads_what_write_ppm_wrote(self, tmp_path, rng):
        codes = rng.integers(256, size=(5, 7, 3), dtype=np.uint8)
        write_ppm(tmp_path / "x.ppm", codes)
        np.testing.assert_array_equal(read_ppm_codes(tmp_path / "x.ppm"), codes)
        np.testing.assert_array_equal(read_ppm(tmp_path / "x.ppm"), codes / 255.0)


def _tiny_dataset(n, size=8, seed=0):
    rng = np.random.default_rng(seed)
    samples = [
        Sample(image=np.round(rng.uniform(size=(size, size, 3)) * 255) / 255, annotations={})
        for _ in range(n)
    ]
    return Dataset(samples)


class TestBatchStream:
    def test_batch_sizes_16_over_4(self):
        stream = BatchStream([_tiny_dataset(10), _tiny_dataset(6, seed=1)], batch_size=4, seed=0)
        sizes = [len(b) for b in stream.batches(0)]
        assert sizes == [4, 4, 4, 4]

    def test_short_last_batch(self):
        stream = BatchStream([_tiny_dataset(10)], batch_size=4, seed=0)
        assert [len(b) for b in stream.batches(0)] == [4, 4, 2]

    def test_epochs_permute_differently(self):
        ds = _tiny_dataset(32)
        stream = BatchStream([ds], batch_size=32, seed=7)
        order0 = [id(s) for s in next(iter(stream.batches(0)))]
        order1 = [id(s) for s in next(iter(stream.batches(1)))]
        assert order0 != order1
        assert sorted(order0) == sorted(order1)

    def test_every_sample_exactly_once_per_epoch(self):
        a, b = _tiny_dataset(10), _tiny_dataset(6, seed=1)
        stream = BatchStream([a, b], batch_size=5, seed=3)
        for epoch in range(3):
            seen = [id(s) for batch in stream.batches(epoch) for s in batch]
            assert sorted(seen) == sorted(id(s) for s in a.samples + b.samples)

    def test_same_seed_same_order(self):
        ds = _tiny_dataset(20)
        s1 = BatchStream([ds], batch_size=6, seed=9)
        s2 = BatchStream([ds], batch_size=6, seed=9)
        for e in range(2):
            o1 = [id(s) for b in s1.batches(e) for s in b]
            o2 = [id(s) for b in s2.batches(e) for s in b]
            assert o1 == o2

    def test_sources_interleave(self):
        a, b = _tiny_dataset(10), _tiny_dataset(10, seed=1)
        stream = BatchStream([a, b], batch_size=10, seed=1)
        first = next(iter(stream.batches(0)))
        from_a = sum(1 for s in first if any(s is t for t in a.samples))
        assert 0 < from_a < 10

    def test_empty_merge_rejected(self):
        with pytest.raises(UsageError, match="empty"):
            BatchStream([], batch_size=4)

    def test_bad_batch_size(self):
        with pytest.raises(UsageError, match="batch_size"):
            BatchStream([_tiny_dataset(4)], batch_size=0)
