import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dbscan_reference, dbscan_reference_members, keypoint_reference
from pointray.frames import BoundingBox, RoiPointSet
from pointray.geometry import deproject
from pointray.pointing import EstimatorParams
from pointray.roi import (
    DepthCluster,
    KeypointStrategy,
    NoEstimate,
    cobb_filter,
    dbscan_depth,
    estimate_keypoint,
    select_target_cluster,
)


def roi_from(samples, bbox=(0, 0, 100, 60), label="hand"):
    bb = BoundingBox(*bbox, label=label)
    return RoiPointSet(np.array(samples, dtype=float).reshape(-1, 3), bb)


# ---------------------------------------------------------------------------
# CoBB filter
# ---------------------------------------------------------------------------

def test_cobb_radius_rule():
    # 100x60 box: radius = 0.35 * 60 = 21 px around center (50, 30)
    roi = roi_from([[50, 30, 2.0], [68, 30, 2.0], [72, 30, 2.0]])
    kept = cobb_filter(roi)
    assert len(kept) == 2  # 18 px in, 22 px out
    assert kept.u.tolist() == [50, 68]


def test_cobb_rejects_corner_sample():
    # corner (0, 0) sits ~58.3 px from the center, beyond the 21 px radius
    assert math.hypot(50, 30) == pytest.approx(58.31, abs=0.01)
    roi = roi_from([[0.0, 0.0, 2.0], [50, 30, 2.0]])
    kept = cobb_filter(roi)
    assert len(kept) == 1 and kept.u[0] == 50


def test_cobb_empty_survival_raises():
    roi = roi_from([[0.0, 0.0, 2.0], [100.0, 60.0, 3.0]])
    with pytest.raises(NoEstimate) as info:
        cobb_filter(roi)
    assert info.value.reason == "empty_roi"


def test_cobb_subset_and_permutation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = rng.integers(1, 30)
        w, h = rng.uniform(20, 200, 2)
        us = rng.uniform(0, w, n)
        vs = rng.uniform(0, h, n)
        zs = rng.uniform(0.5, 5.0, n)
        samples = np.column_stack([us, vs, zs])
        roi = roi_from(samples, bbox=(0, 0, w, h))
        try:
            kept = cobb_filter(roi)
        except NoEstimate:
            kept = None
        perm = rng.permutation(n)
        roi_p = roi_from(samples[perm], bbox=(0, 0, w, h))
        try:
            kept_p = cobb_filter(roi_p)
        except NoEstimate:
            kept_p = None
        if kept is None:
            assert kept_p is None
            continue
        # output is a subset of the input and permutation invariant as a set
        kept_set = {tuple(row) for row in kept.samples}
        assert kept_set <= {tuple(row) for row in samples}
        assert kept_set == {tuple(row) for row in kept_p.samples}
        # every retained sample satisfies the radius predicate exactly
        r = 0.35 * min(w, h)
        d = np.hypot(kept.u - w / 2, kept.v - h / 2)
        assert (d <= r).all()


def test_cobb_ratio_bounds():
    # the ratio is checked where it enters, as an EstimatorParams field
    with pytest.raises(ValueError, match=r"^cobb_ratio: "):
        EstimatorParams(cobb_ratio=0.0)
    with pytest.raises(ValueError, match=r"^cobb_ratio: "):
        EstimatorParams(cobb_ratio=0.6)


# ---------------------------------------------------------------------------
# DBSCAN
# ---------------------------------------------------------------------------

def test_dbscan_two_groups():
    # expected values computed with the naive O(n^2) reference (oracles.py)
    depths = [1.00, 1.02, 1.05, 3.00, 3.01]
    clusters, noise = dbscan_depth(depths, eps=0.1, min_pts=2)
    assert sorted(c.size for c in clusters) == [2, 3]
    assert noise.size == 0
    core, ref_clusters, ref_noise = dbscan_reference(depths, 0.1, 2)
    assert ref_clusters == frozenset({frozenset({0, 1, 2}), frozenset({3, 4})})
    got = frozenset(frozenset(c.member_indices.tolist()) for c in clusters)
    assert got == ref_clusters  # all points are core here


def test_dbscan_single_sample_is_noise():
    clusters, noise = dbscan_depth([2.0], eps=0.1, min_pts=2)
    assert clusters == [] and noise.tolist() == [0]


def test_dbscan_min_pts_one_makes_singletons():
    clusters, noise = dbscan_depth([1.0, 5.0], eps=0.1, min_pts=1)
    assert [c.size for c in clusters] == [1, 1]
    assert noise.size == 0


def test_dbscan_empty_input():
    clusters, noise = dbscan_depth([], eps=0.1, min_pts=2)
    assert clusters == [] and noise.size == 0


def test_dbscan_parameter_validation():
    # eps and min_pts are checked where they enter, as EstimatorParams fields
    with pytest.raises(ValueError, match=r"^dbscan_eps: "):
        EstimatorParams(dbscan_eps=0.0)
    with pytest.raises(ValueError, match=r"^dbscan_min_pts: "):
        EstimatorParams(dbscan_min_pts=0)


def test_dbscan_border_point_takes_first_core_in_input_order():
    # cores around 1.24 (indices 0-3) and around 1.0 (indices 4-7); the
    # border sample at 1.12 is within eps of both groups and must join the
    # cluster of the lowest-index core that reaches it (index 0).
    depths = [1.24, 1.25, 1.26, 1.24, 1.00, 1.01, 1.02, 1.00, 1.12]
    clusters, noise = dbscan_depth(depths, eps=0.15, min_pts=3)
    assert noise.size == 0
    owner = [c for c in clusters if 8 in c.member_indices.tolist()]
    assert len(owner) == 1
    assert 0 in owner[0].member_indices.tolist()


def assert_dbscan_matches_reference(depths, eps, min_pts):
    clusters, noise = dbscan_depth(depths, eps, min_pts)
    ref_clusters, ref_noise = dbscan_reference_members(depths, eps, min_pts)
    assert frozenset(noise.tolist()) == ref_noise
    got = {frozenset(c.member_indices.tolist()): c.mean_depth for c in clusters}
    assert got.keys() == ref_clusters.keys()
    for c in clusters:  # np.mean's bits, and within 1e-12 of fsum's below
        assert c.mean_depth == float(np.mean(np.asarray(depths)[c.member_indices]))
    for members, mean in ref_clusters.items():
        assert got[members] == pytest.approx(mean, rel=1e-12)


def test_dbscan_matches_reference_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(500):
        n = int(rng.integers(1, 51))
        depths = rng.uniform(0.5, 6.0, n)
        if rng.random() < 0.3:  # encourage clumps
            depths = np.round(depths * 4) / 4 + rng.normal(0, 0.01, n)
        eps = float(rng.uniform(0.02, 0.5))
        min_pts = int(rng.integers(1, 6))
        assert_dbscan_matches_reference(depths, eps, min_pts)


def test_dbscan_border_points_match_reference_on_large_instances():
    # Two slabs 2 eps wide, 0.75-0.95 eps apart, with sparse samples in the
    # gap and clutter around them. min_pts is 1.3-1.45x the density at a slab
    # edge, so each slab's outer fifth is border and the gap samples are
    # border points within eps of cores of both clusters. Up to ~2,800
    # samples give core windows of hundreds, which use the deeper
    # range-minimum levels; rounding to 1 cm adds ties.
    rng = np.random.default_rng(31)
    spanning = 0
    for trial in range(16):
        eps = float(rng.uniform(0.05, 0.3))
        density = int(rng.integers(20, 700))  # samples per eps of slab
        gap = float(rng.uniform(0.75, 0.95))
        depths = float(rng.uniform(0.5, 4.0)) + eps * np.concatenate([
            rng.uniform(0.0, 2.0, 2 * density),
            rng.uniform(2.0 + gap, 4.0 + gap, 2 * density),
            rng.uniform(2.0, 2.0 + gap, int(rng.integers(5, 40))),
            rng.uniform(-3.0, 8.0, int(rng.integers(0, 100))),
        ])
        depths = rng.permutation(depths)
        if trial % 2:
            depths = np.round(depths, 2)
        min_pts = int(density * rng.uniform(1.3, 1.45))
        assert_dbscan_matches_reference(depths, eps, min_pts)

        core, core_sets, _ = dbscan_reference(depths, eps, min_pts)
        cluster_of = np.full(depths.size, -1)
        for c, members in enumerate(core_sets):
            cluster_of[list(members)] = c
        for z in depths[~core]:
            spanning += np.unique(cluster_of[core & (np.abs(depths - z) <= eps)]).size > 1
    assert spanning >= 50


def test_dbscan_core_and_noise_order_independent():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        depths = np.round(rng.uniform(0.5, 4.0, n), 1)
        perm = rng.permutation(n)
        c1, n1 = dbscan_depth(depths, 0.15, 3)
        c2, n2 = dbscan_depth(depths[perm], 0.15, 3)
        core1, _, _ = dbscan_reference(depths, 0.15, 3)
        assert frozenset(perm[n2].tolist()) == frozenset(n1.tolist())
        members1 = frozenset(
            frozenset(i for i in c.member_indices.tolist() if core1[i]) for c in c1
        )
        members2 = frozenset(
            frozenset(int(perm[i]) for i in c.member_indices.tolist() if core1[perm[i]])
            for c in c2
        )
        assert members1 == members2


def test_dbscan_every_point_in_exactly_one_bucket():
    rng = np.random.default_rng(29)
    depths = rng.uniform(0.5, 5.0, 200)
    clusters, noise = dbscan_depth(depths, 0.1, 4)
    seen = np.concatenate([c.member_indices for c in clusters] + [noise])
    assert sorted(seen.tolist()) == list(range(200))


# ---------------------------------------------------------------------------
# Target cluster selection
# ---------------------------------------------------------------------------

def _cluster(indices, mean_depth):
    return DepthCluster(np.array(indices, dtype=int), mean_depth)


def test_select_largest_cluster():
    big = _cluster(range(5), 3.0)
    small = _cluster(range(5, 8), 1.0)
    assert select_target_cluster([small, big]) is big


def test_select_tie_breaks_to_nearer():
    near = _cluster(range(4), 2.0)
    far = _cluster(range(4, 8), 3.5)
    assert select_target_cluster([far, near]) is near


def test_select_empty_raises():
    with pytest.raises(NoEstimate) as info:
        select_target_cluster([])
    assert info.value.reason == "no_cluster"


# ---------------------------------------------------------------------------
# Keypoint estimation
# ---------------------------------------------------------------------------

def test_keypoint_depth_statistics(intr):
    roi = roi_from([[50, 30, 1.0], [50, 30, 2.0], [50, 30, 3.0]])
    mean_kp = estimate_keypoint(roi, KeypointStrategy.MEAN_DEPTH, intr)
    med_kp = estimate_keypoint(roi, KeypointStrategy.MEDIAN_DEPTH, intr)
    close_kp = estimate_keypoint(roi, KeypointStrategy.CLOSEST_POINT, intr)
    assert mean_kp[1] == pytest.approx(2.0)
    assert med_kp[1] == pytest.approx(2.0)
    assert close_kp[1] == pytest.approx(1.0)
    expected = deproject(50, 30, 2.0, intr)
    assert math.dist(mean_kp, expected) < 1e-12


def test_keypoint_median_even_count(intr):
    roi = roi_from([[50, 30, 1.0], [50, 30, 2.0], [50, 30, 4.0], [50, 30, 8.0]])
    kp = estimate_keypoint(roi, KeypointStrategy.MEDIAN_DEPTH, intr)
    assert kp[1] == pytest.approx(3.0)  # mean of the two central values


def test_keypoint_singleton_all_strategies_agree(intr):
    roi = roi_from([[42, 25, 1.7]])
    expected = deproject(42, 25, 1.7, intr)
    for strategy in (KeypointStrategy.MEAN_DEPTH, KeypointStrategy.MEDIAN_DEPTH,
                     KeypointStrategy.CLOSEST_POINT):
        kp = estimate_keypoint(roi, strategy, intr)
        assert math.dist(kp, expected) < 1e-12
    kp = estimate_keypoint(roi, KeypointStrategy.DBSCAN_CLUSTER, intr, min_pts=1)
    assert math.dist(kp, expected) < 1e-12


def test_keypoint_pixel_centroid(intr):
    roi = roi_from([[10, 10, 2.0], [20, 20, 2.0]])
    kp = estimate_keypoint(roi, KeypointStrategy.MEAN_DEPTH, intr)
    expected = deproject(15, 15, 2.0, intr)
    assert math.dist(kp, expected) < 1e-12


def test_keypoint_permutation_invariance(intr):
    rng = np.random.default_rng(31)
    samples = np.column_stack([
        rng.uniform(0, 100, 20), rng.uniform(0, 60, 20), rng.uniform(1, 4, 20)
    ])
    roi = roi_from(samples)
    roi_p = roi_from(samples[rng.permutation(20)])
    for strategy in (KeypointStrategy.MEAN_DEPTH, KeypointStrategy.MEDIAN_DEPTH,
                     KeypointStrategy.CLOSEST_POINT):
        a = estimate_keypoint(roi, strategy, intr)
        b = estimate_keypoint(roi_p, strategy, intr)
        assert math.dist(a, b) < 1e-9
    close = estimate_keypoint(roi, KeypointStrategy.CLOSEST_POINT, intr)
    assert close[1] == pytest.approx(samples[:, 2].min())


def test_keypoint_dbscan_uses_largest_cluster(intr):
    # 5 foreground samples at ~1.5 m, 3 background at ~3.0 m
    samples = [[48, 28, 1.50], [50, 30, 1.51], [52, 32, 1.49], [50, 31, 1.50],
               [51, 29, 1.52], [10, 5, 3.0], [90, 55, 3.01], [12, 50, 2.99]]
    roi = roi_from(samples)
    kp = estimate_keypoint(roi, KeypointStrategy.DBSCAN_CLUSTER, intr,
                           eps=0.15, min_pts=3)
    assert kp[1] == pytest.approx(np.mean([1.50, 1.51, 1.49, 1.50, 1.52]))
    # pixel centroid over the cluster members only
    assert (kp[0] > 0) == (np.mean([48, 50, 52, 50, 51]) > intr.cx)


def test_keypoint_dbscan_all_noise_raises(intr):
    roi = roi_from([[10, 10, 1.0], [50, 30, 2.0], [90, 50, 3.0]])
    with pytest.raises(NoEstimate) as info:
        estimate_keypoint(roi, KeypointStrategy.DBSCAN_CLUSTER, intr,
                          eps=0.1, min_pts=2)
    assert info.value.reason == "no_cluster"


def test_keypoint_empty_roi_raises(intr):
    roi = RoiPointSet(np.empty((0, 3)), BoundingBox(0, 0, 10, 10, label="hand"))
    for strategy in KeypointStrategy:
        with pytest.raises(NoEstimate) as info:
            estimate_keypoint(roi, strategy, intr)
        assert info.value.reason == "empty_roi"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1),
       strategy=st.sampled_from(list(KeypointStrategy)))
def test_keypoint_matches_the_np_mean_oracle_bit_for_bit(n, seed, strategy, intr):
    # two depth layers for DBSCAN; the ROI is rebound to a smaller box and,
    # for the other strategies, masked by the center circle as in a frame
    rng = np.random.default_rng(seed)
    near = rng.random(n) < rng.random()
    samples = np.column_stack([rng.uniform(0, 640, n), rng.uniform(0, 480, n),
                               np.where(near, rng.normal(1.5, 0.05, n), rng.normal(3.0, 0.3, n))])
    roi = RoiPointSet(samples, BoundingBox(0.0, 0.0, 640.0, 480.0, label="hand"))
    u0, v0 = rng.uniform(0, 320), rng.uniform(0, 240)
    roi = roi.with_bbox(BoundingBox(u0, v0, u0 + rng.uniform(1, 320), v0 + rng.uniform(1, 240),
                                    label="hand"))

    def outcome(estimate):
        try:
            target = roi if strategy is KeypointStrategy.DBSCAN_CLUSTER else cobb_filter(roi)
            return struct.pack("<3d", *estimate(target, strategy, intr))
        except NoEstimate as exc:
            return exc.reason

    assert outcome(estimate_keypoint) == outcome(keypoint_reference)


def test_strategy_from_name():
    assert KeypointStrategy.from_name("dbscan") is KeypointStrategy.DBSCAN_CLUSTER
    with pytest.raises(ValueError):
        KeypointStrategy.from_name("bogus")
