import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gazekit.pupil import (
    DEFAULT_GRID,
    DegenerateIntensity,
    ParamGrid,
    PupilParams,
    PupilStatus,
    binarize,
    detect_pupil,
    dilate,
    erode,
    largest_circular_blob,
    morph_close,
    morph_open,
    nearest_rank_percentile,
    polygon_mask,
    rescale_intensity,
)
from gazekit.synth import render_eye_crop

from oracles import (
    close_oracle,
    dilate_oracle,
    erode_oracle,
    largest_circular_blob_oracle,
    open_oracle,
    percentile_oracle,
)

FULL_POLY = np.array([[1, 12], [12, 2], [28, 2], [38, 12], [28, 22], [12, 22]], dtype=float)


def test_param_grid_has_27_sorted_triples():
    triples = DEFAULT_GRID.triples()
    assert len(triples) == 27
    keys = [(p.cdf_threshold, p.opening_window, p.closing_window) for p in triples]
    assert keys == sorted(keys)


def test_param_validation():
    with pytest.raises(ValueError):
        PupilParams(0.0, 1, 1)
    with pytest.raises(ValueError):
        PupilParams(0.05, 2, 1)
    with pytest.raises(ValueError):
        ParamGrid((0.05, 0.03, 0.1), (1, 3, 5), (1, 3, 5))


def test_nearest_rank_percentile_on_ramp():
    ramp = np.arange(100)
    for pct in (2.0, 50.0, 98.0, 100.0, 1.0):
        assert nearest_rank_percentile(ramp, pct) == percentile_oracle(ramp, pct)
    assert nearest_rank_percentile(ramp, 2.0) == 1
    assert nearest_rank_percentile(ramp, 98.0) == 97


def test_rescale_uniform_image_is_degenerate():
    img = np.full((8, 8), 128, dtype=np.uint8)
    with pytest.raises(DegenerateIntensity):
        rescale_intensity(img, [[0, 0], [7, 0], [7, 7], [3, 7], [0, 7], [0, 3]])


def test_rescale_two_level_image():
    img = np.full((10, 10), 200, dtype=np.uint8)
    img[:5, :5] = 0  # 25% dark
    poly = [[0, 0], [9, 0], [9, 5], [9, 9], [0, 9], [0, 5]]
    out = rescale_intensity(img, poly)
    mask = polygon_mask(10, 10, poly)
    assert np.all(out[mask & (img == 0)] == 0.0)
    assert np.all(out[mask & (img == 200)] == 1.0)


def test_rescale_ramp_against_percentile_oracle():
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(10, 10)).astype(np.uint8)
    poly = [[0, 0], [9, 0], [9, 5], [9, 9], [0, 9], [0, 5]]
    mask = polygon_mask(10, 10, poly)
    lo = percentile_oracle(img[mask], 2.0)
    hi = percentile_oracle(img[mask], 98.0)
    out = rescale_intensity(img, poly)
    expected = np.clip((img.astype(float) - lo) / (hi - lo), 0, 1)
    assert np.allclose(out[mask], expected[mask])
    assert np.all(out[~mask] == 1.0)


def test_binarize_examples():
    assert np.all(binarize(np.zeros((4, 4)), 0.5) == 1)
    assert np.all(binarize(np.ones((4, 4)), 1.0) == 0)
    checker = np.indices((4, 4)).sum(axis=0) % 2
    img = np.where(checker == 1, 0.8, 0.2)
    assert np.array_equal(binarize(img, 0.5), (checker == 0).astype(np.uint8))


def test_morphology_window_one_is_identity():
    rng = np.random.default_rng(0)
    img = (rng.random((6, 9)) < 0.4).astype(np.uint8)
    for op in (erode, dilate, morph_open, morph_close):
        assert np.array_equal(op(img, 1), img)


def test_open_removes_isolated_pixel():
    img = np.zeros((7, 7), dtype=np.uint8)
    img[3, 3] = 1
    assert morph_open(img, 3).sum() == 0


def test_morphology_matches_bruteforce_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        img = (rng.random((8, 8)) < rng.uniform(0.2, 0.7)).astype(np.uint8)
        for w in (3, 5):
            assert np.array_equal(erode(img, w), erode_oracle(img, w))
            assert np.array_equal(dilate(img, w), dilate_oracle(img, w))
            assert np.array_equal(morph_open(img, w), open_oracle(img, w))
            assert np.array_equal(morph_close(img, w), close_oracle(img, w))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 5]))
def test_open_close_idempotent(seed, w):
    rng = np.random.default_rng(seed)
    img = (rng.random((10, 12)) < 0.45).astype(np.uint8)
    opened = morph_open(img, w)
    assert np.array_equal(morph_open(opened, w), opened)
    closed = morph_close(img, w)
    assert np.array_equal(morph_close(closed, w), closed)


def test_blob_filled_square():
    img = np.zeros((9, 9), dtype=np.uint8)
    img[2:7, 2:7] = 1
    blob = largest_circular_blob(img)
    assert blob.area == 25
    assert blob.bbox == (5, 5)
    assert blob.centroid == (4.0, 4.0)


def test_blob_circularity_rejects_bar():
    img = np.zeros((30, 30), dtype=np.uint8)
    img[1:3, 5:25] = 1    # 2x20 bar, aspect 0.1
    img[10:16, 10:16] = 1  # 6x6 square
    blob = largest_circular_blob(img)
    assert blob.area == 36
    assert blob.bbox == (6, 6)


def test_blob_minimum_area():
    img = np.zeros((10, 10), dtype=np.uint8)
    img[2:4, 2:4] = 1  # circular but only 4 pixels
    assert largest_circular_blob(img) is None


def test_blob_matches_floodfill_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        img = (rng.random((12, 14)) < rng.uniform(0.1, 0.6)).astype(np.uint8)
        expected = largest_circular_blob_oracle(img)
        got = largest_circular_blob(img)
        if expected is None:
            assert got is None
            continue
        area, bbox, centroid = expected
        assert got.area == area
        assert got.bbox == bbox
        assert got.centroid == pytest.approx(centroid)


def _assert_blob_matches_oracle(img):
    expected = largest_circular_blob_oracle(img)
    got = largest_circular_blob(img)
    if expected is None:
        assert got is None
        return
    area, bbox, centroid = expected
    assert (got.area, got.bbox) == (area, bbox)
    # equal-area components sit in different places, so this checks the tie-break
    assert got.centroid == pytest.approx(centroid)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 40), st.integers(1, 40), st.floats(0.05, 0.9), st.integers(0, 2**32 - 1)
)
def test_labeller_and_morphology_match_the_oracles(height, width, density, seed):
    img = (np.random.default_rng(seed).random((height, width)) < density).astype(np.uint8)
    _assert_blob_matches_oracle(img)
    for window in (1, 3, 5, 7):
        assert np.array_equal(erode(img, window), erode_oracle(img, window))
        assert np.array_equal(dilate(img, window), dilate_oracle(img, window))
    small = img[:9, :9]
    past = 2 * max(small.shape) + 3  # wider than the image on both sides
    assert np.array_equal(erode(small, past), erode_oracle(small, past))
    assert np.array_equal(dilate(small, past), dilate_oracle(small, past))


def _maze(rng, height, width):
    """Corridors of a random depth-first maze on the even cells, with a few
    pixels knocked out so that it falls into several components."""
    img = np.zeros((height, width), dtype=np.uint8)
    img[0, 0] = 1
    stack = [(0, 0)]
    while stack:
        r, c = stack[-1]
        steps = [(dr, dc) for dr, dc in ((0, 2), (2, 0), (0, -2), (-2, 0))
                 if 0 <= r + dr < height and 0 <= c + dc < width and not img[r + dr, c + dc]]
        if not steps:
            stack.pop()
            continue
        dr, dc = steps[rng.integers(len(steps))]
        img[r + dr // 2, c + dc // 2] = img[r + dr, c + dc] = 1
        stack.append((r + dr, c + dc))
    img[rng.random((height, width)) < 0.02] = 0
    return img


def _serpentine(height, width, gap):
    """One path sweeping the rows left to right, then right to left, and so on."""
    img = np.zeros((height, width), dtype=np.uint8)
    img[::gap] = 1
    for turn, r in enumerate(range(0, height - gap, gap)):
        img[r : r + gap, width - 1 if turn % 2 == 0 else 0] = 1
    return img


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(["maze", "serpentine", "serpentine_t"]),
    st.integers(2, 255), st.integers(2, 255), st.integers(2, 4), st.integers(0, 2**32 - 1),
)
@example("maze", 255, 255, 2, 0)
@example("serpentine", 255, 255, 2, 0)
@example("serpentine_t", 255, 255, 3, 0)
def test_labeller_matches_the_oracle_on_mazes_and_serpentines(kind, height, width, gap, seed):
    if kind == "maze":
        img = _maze(np.random.default_rng(seed), height, width)
    else:
        img = _serpentine(height, width, gap)
        if kind == "serpentine_t":
            img = np.ascontiguousarray(img.T)
    _assert_blob_matches_oracle(img)


def test_detect_pupil_memory_is_bounded_on_the_largest_crop():
    side = 256  # the largest crop a dataset may hold
    poly = np.array([[0, 128], [64, 0], [192, 0], [255, 128], [192, 255], [64, 255]], dtype=float)
    rng = np.random.default_rng(8)
    dark = polygon_mask(side, side, poly) & (rng.random((side, side)) < 0.9)
    crop = np.where(dark, 10, 200).astype(np.uint8)
    tracemalloc.start()
    try:
        result = detect_pupil(crop, poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.status is PupilStatus.DETECTED
    assert peak < 32 * 2**20


def _disk_crop(center=(20.0, 12.0), radius=5.0, noise=5.0, seed=3):
    rng = np.random.default_rng(seed)
    return render_eye_crop(40, 24, center, radius, rng, noise_sigma=noise)


def test_detect_pupil_closed_eye():
    # polygon bbox 40 wide, 3 tall: 3 < 0.1 * 40 counts as closed
    flat = np.array([[0, 10], [12, 9], [26, 9], [40, 10], [26, 12], [12, 12]], dtype=float)
    result = detect_pupil(_disk_crop(), flat)
    assert result.status is PupilStatus.EYE_CLOSED


def test_detect_pupil_finds_disk_center():
    crop = _disk_crop()
    result = detect_pupil(crop, FULL_POLY)
    assert result.status is PupilStatus.DETECTED
    assert result.center == pytest.approx((20.0, 12.0), abs=2.0)
    assert result.blob_area >= 5
    assert result.chosen_params in DEFAULT_GRID.triples()


def test_detect_pupil_all_bright_is_no_blob():
    rng = np.random.default_rng(0)
    crop = render_eye_crop(40, 24, None, 0.0, rng, noise_sigma=0.0)
    assert detect_pupil(crop, FULL_POLY).status is PupilStatus.NO_BLOB


def test_detect_pupil_deterministic():
    crop = _disk_crop(noise=12.0, seed=9)
    first = detect_pupil(crop, FULL_POLY)
    second = detect_pupil(crop, FULL_POLY)
    assert first == second


def test_detect_pupil_search_is_maximal_and_tiebreaks_lexicographically():
    crop = _disk_crop(noise=10.0, seed=21)
    result = detect_pupil(crop, FULL_POLY)
    assert result.status is PupilStatus.DETECTED
    rescaled = rescale_intensity(crop, FULL_POLY)
    best_area = -1
    best_params = None
    for params in DEFAULT_GRID.triples():  # ascending lexicographic order
        blob = largest_circular_blob(
            morph_close(
                morph_open(binarize(rescaled, params.cdf_threshold), params.opening_window),
                params.closing_window,
            )
        )
        if blob is not None and blob.area > best_area:
            best_area = blob.area
            best_params = params
    assert result.blob_area == best_area
    assert result.chosen_params == best_params


def test_detect_pupil_center_stays_in_polygon_bbox():
    rng = np.random.default_rng(77)
    for _ in range(25):
        center = (rng.uniform(8, 32), rng.uniform(6, 18))
        crop = render_eye_crop(40, 24, center, rng.uniform(3, 6), rng, noise_sigma=10.0)
        result = detect_pupil(crop, FULL_POLY)
        if result.status is not PupilStatus.DETECTED:
            continue
        assert FULL_POLY[:, 0].min() <= result.center[0] <= FULL_POLY[:, 0].max()
        assert FULL_POLY[:, 1].min() <= result.center[1] <= FULL_POLY[:, 1].max()
