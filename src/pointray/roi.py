"""Outlier rejection inside a detection ROI and keypoint estimation.

Two complementary filters remove background and spurious depth readings:

* a center-circle mask that keeps only samples within a radius of
  0.35 * min(bbox width, height) around the bbox center (fast, O(n));
* 1-D DBSCAN over the depth values, keeping the most populated cluster.

The surviving samples are summarized into a single 3D keypoint: pixel
centroid plus a depth statistic chosen by :class:`KeypointStrategy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .frames import RoiPointSet
from .geometry import CameraIntrinsics, deproject

DEFAULT_COBB_RATIO = 0.35
DEFAULT_DBSCAN_EPS = 0.15  # meters; hands span well under 15 cm in depth
DEFAULT_DBSCAN_MIN_PTS = 4


# Reason codes attached to frames that yield no estimate or no goal.
REASON_NO_FACE = "no_face"
REASON_NO_HAND = "no_hand"
REASON_EMPTY_ROI = "empty_roi"
REASON_NO_CLUSTER = "no_cluster"
REASON_NO_GROUND_HIT = "no_ground_hit"


class NoEstimate(Exception):
    """A frame yields no estimate; ``reason`` is one of the ``REASON_*`` codes."""

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


class KeypointStrategy(Enum):
    """How the depth of an ROI keypoint is summarized."""

    MEAN_DEPTH = "mean"
    MEDIAN_DEPTH = "median"
    CLOSEST_POINT = "closest"
    DBSCAN_CLUSTER = "dbscan"

    @classmethod
    def from_name(cls, name: str) -> "KeypointStrategy":
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(f"unknown strategy {name!r}; expected one of "
                         f"{[m.value for m in cls]}")


@dataclass(frozen=True, eq=False)
class DepthCluster:
    """One DBSCAN cluster over depth values."""

    member_indices: np.ndarray  # ascending indices into the input array
    mean_depth: float

    @property
    def size(self) -> int:
        return int(self.member_indices.size)


def cobb_filter(roi: RoiPointSet, ratio: float = DEFAULT_COBB_RATIO) -> RoiPointSet:
    """Keep samples within ``ratio * min(w, h)`` pixels of the bbox center.

    ``ratio`` lies in (0, 0.5], as ``EstimatorParams`` checks it. Raises
    :class:`NoEstimate` (``empty_roi``) when nothing survives.
    """
    bbox = roi.source_bbox
    radius = ratio * min(bbox.width, bbox.height)
    cu, cv = bbox.center
    d2 = (roi.u - cu) ** 2 + (roi.v - cv) ** 2
    mask = d2 <= radius * radius
    if not mask.any():
        raise NoEstimate(
            REASON_EMPTY_ROI, f"no {roi.label} samples within {radius:.1f}px of the bbox center"
        )
    return RoiPointSet._unchecked(roi.samples[mask], bbox)


def dbscan_depth(
    depths, eps: float, min_pts: int
) -> tuple[list[DepthCluster], np.ndarray]:
    """1-D DBSCAN over depth values, as whole-array operations.

    A point is core when at least ``min_pts`` samples (itself included) lie
    within ``eps`` of it. In sorted order, consecutive core depths that differ
    by at most ``eps`` are density-connected, so a cluster starts wherever the
    gap to the previous core exceeds ``eps``. A non-core point joins the
    cluster of the lowest-input-index core within ``eps`` of it, found as a
    range minimum over the window of cores it reaches; a point that reaches
    no core is noise. Core flags, cluster ids and this rule depend on depth
    values only, not on how equal depths are ordered.

    Returns ``(clusters, noise_indices)``; clusters are ordered by their
    lowest core depth and each lists its member indices in ascending input
    order. ``eps`` is positive and ``min_pts`` at least 1, as
    ``EstimatorParams`` checks them.
    """
    depths = np.asarray(depths, dtype=float).ravel()
    n = depths.size
    if n == 0:
        return [], np.empty(0, dtype=int)

    order = depths.argsort()
    zs = depths[order]
    is_core = zs.searchsorted(zs + eps, "right") - zs.searchsorted(zs - eps, "left") >= min_pts
    core_z = zs[is_core]
    core_orig = order[is_core]
    m = core_orig.size
    # Cluster id per input index: a new cluster starts at each gap > eps
    # between consecutive sorted cores.
    labels = np.full(n, -1, dtype=int)
    labels[core_orig[:1]] = 0
    labels[core_orig[1:]] = np.cumsum(core_z[1:] - core_z[:-1] > eps)
    n_clusters = int(labels[core_orig[-1]]) + 1 if m else 0

    if 0 < m < n:
        # Border points: minimum input index over each point's [win_lo, win_hi)
        # window of sorted cores, from a sparse table of np.minimum levels.
        # A window may span two clusters, so the minimum is taken over cores,
        # not per cluster. A non-core point reaches fewer than min_pts cores,
        # so the table has at most log2(min_pts) + 1 levels.
        noncore = ~is_core
        border_z = zs[noncore]
        win_lo = core_z.searchsorted(border_z - eps, "left")
        win_hi = core_z.searchsorted(border_z + eps, "right")
        reached = win_hi > win_lo
        win_lo, win_hi = win_lo[reached], win_hi[reached]
        level = np.frexp(win_hi - win_lo)[1] - 1  # floor(log2(window length))
        # table[k, i] = min(core_orig[i : i + 2**k]); the tail of each level,
        # where that slice would run past the last core, is never read.
        table = np.empty((int(level.max(initial=0)) + 1, m), dtype=core_orig.dtype)
        table[0] = core_orig
        for k in range(1, table.shape[0]):
            half = 1 << (k - 1)
            width = m - 2 * half + 1
            table[k, :width] = np.minimum(table[k - 1, :width], table[k - 1, half : half + width])
        first_core = np.minimum(table[level, win_lo], table[level, win_hi - (1 << level)])
        labels[order[noncore][reached]] = labels[first_core]

    # One stable sort groups members by cluster, in ascending input order.
    by_label = labels.argsort(kind="stable")
    ends = labels[by_label].searchsorted(np.arange(-1, n_clusters), "right")
    clusters = []
    for c in range(n_clusters):
        members = by_label[ends[c] : ends[c + 1]]
        # the sum over the size is np.mean's own add.reduce and divide
        mean_depth = float(depths[members].sum() / members.size)
        clusters.append(DepthCluster(member_indices=members, mean_depth=mean_depth))
    return clusters, by_label[: ends[0]]


def select_target_cluster(clusters: list[DepthCluster]) -> DepthCluster:
    """Largest cluster wins; equal sizes fall back to the nearer one."""
    if not clusters:
        raise NoEstimate(REASON_NO_CLUSTER, "no depth clusters to select from")
    return min(clusters, key=lambda c: (-c.size, c.mean_depth))


def estimate_keypoint(
    roi: RoiPointSet,
    strategy: KeypointStrategy,
    intr: CameraIntrinsics,
    *,
    eps: float = DEFAULT_DBSCAN_EPS,
    min_pts: int = DEFAULT_DBSCAN_MIN_PTS,
) -> tuple[float, float, float]:
    """Summarize an ROI into one world-frame 3D keypoint.

    The pixel location is the centroid of the retained samples; the depth is
    the strategy's statistic over their z values. For the first three
    strategies the ROI is expected to be pre-filtered (center-circle mask);
    the clustering strategy consumes the raw ROI and picks its own inliers.
    """
    if len(roi) == 0:
        raise NoEstimate(REASON_EMPTY_ROI, f"{roi.label} ROI holds no samples")
    if strategy is KeypointStrategy.DBSCAN_CLUSTER:
        clusters, _ = dbscan_depth(roi.z, eps, min_pts)
        target = select_target_cluster(clusters)
        chosen = roi.samples[target.member_indices]
        depth = target.mean_depth
    else:
        chosen = roi.samples
        if strategy is KeypointStrategy.MEAN_DEPTH:
            depth = float(roi.z.sum() / len(roi))
        elif strategy is KeypointStrategy.MEDIAN_DEPTH:
            # np.median's own partition and mean of the middle one or two
            # values, without its wrapper (a NaN depth never reaches an ROI)
            half = len(roi) // 2
            if len(roi) % 2:
                depth = float(np.partition(roi.z, half)[half])
            else:
                mid = np.partition(roi.z, (half - 1, half))
                depth = (float(mid[half - 1]) + float(mid[half])) / 2
        elif strategy is KeypointStrategy.CLOSEST_POINT:
            depth = float(roi.z.min())
        else:
            raise ValueError(f"unhandled strategy {strategy!r}")
    # x.sum() / n is np.mean's own add.reduce and divide, without its wrapper
    n = len(chosen)
    u_c = float(chosen[:, 0].sum() / n)
    v_c = float(chosen[:, 1].sum() / n)
    return deproject(u_c, v_c, depth, intr)
