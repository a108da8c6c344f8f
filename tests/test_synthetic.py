"""Synthetic generator: determinism, template consistency, render fidelity."""

import numpy as np
import pytest

from efld.data import load_dataset, save_dataset
from efld.errors import ConfigError
from efld.formats import default_registry, eye_distances
from efld.synthetic import FORMAT_KEYS, dense_template, generate_synthetic, template_points


def test_same_seed_bit_identical():
    a = generate_synthetic(5, 32, seed=42, formats=["p51", "p68"])
    b = generate_synthetic(5, 32, seed=42, formats=["p51", "p68"])
    for sa, sb in zip(a.samples, b.samples):
        np.testing.assert_array_equal(sa.image, sb.image)
        for fmt in sa.annotations:
            np.testing.assert_array_equal(sa.annotations[fmt], sb.annotations[fmt])


def test_different_seeds_differ():
    a = generate_synthetic(2, 32, seed=1, formats=["p51"])
    b = generate_synthetic(2, 32, seed=2, formats=["p51"])
    assert not np.array_equal(a.samples[0].image, b.samples[0].image)


def test_round_robin_annotation_counts():
    ds = generate_synthetic(9, 32, seed=3, formats=["p51", "p68", "p98"], annotate="round-robin")
    for fmt in ("p51", "p68", "p98"):
        assert sum(sample.has(fmt) for sample in ds) == 3
    for i, sample in enumerate(ds):
        assert len(sample.annotations) == 1


def test_format_lengths_match_registry():
    reg = default_registry()
    for name in ("p51", "p68", "p98"):
        assert len(FORMAT_KEYS[name]) == reg.get(name).points
        assert len(set(FORMAT_KEYS[name])) == reg.get(name).points


def test_68_and_98_agree_on_shared_template_keypoints():
    ds = generate_synthetic(3, 48, seed=5, formats=["p68", "p98"])
    keys68, keys98 = FORMAT_KEYS["p68"], FORMAT_KEYS["p98"]
    shared = [(i, keys98.index(k)) for i, k in enumerate(keys68) if k in keys98]
    assert len(shared) >= 40  # contour subset, brows, nose, corners, mouth
    for sample in ds:
        a68 = sample.annotations["p68"].reshape(-1, 2)
        a98 = sample.annotations["p98"].reshape(-1, 2)
        for i68, i98 in shared:
            np.testing.assert_array_equal(a68[i68], a98[i98])


def test_interocular_indices_land_on_eye_corners_and_centers():
    assert FORMAT_KEYS["p98"][60] == "eye_r.a180"
    assert FORMAT_KEYS["p98"][72] == "eye_l.a0"
    assert FORMAT_KEYS["p68"][36] == "eye_r.a180"
    assert FORMAT_KEYS["p68"][45] == "eye_l.a0"
    assert FORMAT_KEYS["p51"][0] == "eye_r.center"
    assert FORMAT_KEYS["p51"][1] == "eye_l.center"


def test_eye_center_landmark_matches_rendered_disk_within_half_pixel():
    # intensity centroid of the darkness deficit over a tight window; the
    # window must exclude the brow stroke and keep the antialiased edge
    # pixels that carry the subpixel position
    size = 64
    ds = generate_synthetic(4, size, seed=6, formats=["p51"], noise=0.0)
    for sample in ds:
        gray = sample.image[..., 0]
        pts = sample.annotations["p51"].reshape(-1, 2)
        for eye in (pts[0], pts[1]):
            cx, cy = eye * size
            y0, y1 = int(round(cy)) - 3, int(round(cy)) + 4
            x0, x1 = int(round(cx)) - 3, int(round(cx)) + 4
            window = gray[y0:y1, x0:x1]
            darkness = np.clip(0.7 - window, 0.0, None)
            ys, xs = np.mgrid[y0:y1, x0:x1]
            total = darkness.sum()
            assert total > 0
            centroid_x = (darkness * (xs + 0.5)).sum() / total
            centroid_y = (darkness * (ys + 0.5)).sum() / total
            assert abs(centroid_x - cx) <= 0.5
            assert abs(centroid_y - cy) <= 0.5


def test_all_landmarks_inside_unit_square():
    ds = generate_synthetic(20, 32, seed=7, formats=["p51", "p68", "p98"])
    for sample in ds:
        for coords in sample.annotations.values():
            assert coords.min() >= 0.0 and coords.max() <= 1.0


def test_images_quantized_to_8bit_levels():
    ds = generate_synthetic(2, 32, seed=8, formats=["p51"])
    for sample in ds:
        levels = sample.image * 255.0
        np.testing.assert_allclose(levels, np.round(levels), atol=1e-9)


def test_generate_save_load_identity(tmp_path):
    ds = generate_synthetic(5, 32, seed=9, formats=["p51", "p68", "p98"], annotate="round-robin")
    save_dataset(ds, tmp_path)
    loaded = load_dataset(tmp_path)
    for a, b in zip(ds.samples, loaded.samples):
        np.testing.assert_array_equal(a.image, b.image)
        assert set(a.annotations) == set(b.annotations)
        for fmt in a.annotations:
            np.testing.assert_array_equal(a.annotations[fmt], b.annotations[fmt])


def test_interocular_distance_positive_for_all_samples():
    reg = default_registry()
    ds = generate_synthetic(10, 32, seed=10, formats=["p51", "p68", "p98"])
    for sample in ds:
        for fmt_name, coords in sample.annotations.items():
            assert eye_distances(coords[None], reg.get(fmt_name))[0] > 0.1


def test_unregistered_format_is_config_error():
    with pytest.raises(ConfigError, match="not registered"):
        generate_synthetic(1, 32, seed=0, formats=["p999"])


def test_unsupported_template_format():
    reg = default_registry()
    from efld.formats import LandmarkFormat

    reg.register(LandmarkFormat("exotic", 7, (0, 1)))
    with pytest.raises(ConfigError, match="template"):
        generate_synthetic(1, 32, seed=0, formats=["exotic"], registry=reg)


def test_template_is_dense_superset():
    template = dense_template()
    used = set()
    for keys in FORMAT_KEYS.values():
        used.update(keys)
    assert used <= set(template)
    for name in ("p51", "p68", "p98"):
        pts = template_points(name)
        assert pts.shape == (len(FORMAT_KEYS[name]), 2)
