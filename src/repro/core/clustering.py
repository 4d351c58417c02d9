"""1-D k-means for provisional-score clustering (§4.1).

The pruning trigger partitions the current provisional scores into
clusters; everything downstream (selected/deferred/dropped routing)
operates at cluster granularity.  The paper runs K-Means on the CPU
with ~1 ms overhead; scores are scalars, so this is one-dimensional
clustering:

* Lloyd iterations with quantile initialisation (deterministic — no
  random restarts, so engine runs are exactly reproducible);
* the number of clusters is selected by scanning k = 1..k_max and
  keeping the smallest k whose within-cluster variance reduction has
  levelled off (elbow rule), which tracks the "statistically distinct
  clusters" the paper observes scores diverging into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Clustering:
    """Result of clustering a score vector.

    ``labels[i]`` is the cluster id of score *i*; ids are ordered by
    **descending cluster mean** (cluster 0 is the best-scoring band).
    """

    labels: np.ndarray
    centers: np.ndarray  # descending
    inertia: float

    @property
    def num_clusters(self) -> int:
        return int(self.centers.size)

    def members(self, cluster_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster_id)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_clusters)


#: Lloyd iterations per k-means run.
LLOYD_MAX_ITER = 50


def kmeans_1d(scores: np.ndarray, k: int, max_iter: int = LLOYD_MAX_ITER) -> Clustering:
    """Deterministic Lloyd's k-means over scalar scores."""
    scores = _validated(scores)
    if k <= 1:
        return _one_cluster(scores)
    ordered = np.sort(scores)
    k = min(k, _distinct(ordered))
    if k <= 1:
        return _one_cluster(scores)
    return _lloyd(scores, _quantile_centers(ordered.tolist(), k), max_iter)


def _validated(scores: np.ndarray) -> np.ndarray:
    """The scores as a float64 array; NaN and infinities are rejected."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a non-empty 1-D array")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite: no NaN or infinity")
    return scores


def _one_cluster(scores: np.ndarray) -> Clustering:
    center = np.add.reduce(scores) / scores.size  # bitwise scores.mean()
    inertia = float(np.add.reduce(np.square(scores - center)))
    return Clustering(
        labels=np.zeros(scores.size, dtype=np.int64), centers=np.array([center]), inertia=inertia
    )


def _distinct(ordered: np.ndarray) -> int:
    """Number of distinct values in a sorted array (``np.unique(...).size``)."""
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def _quantile_centers(ordered: list[float], k: int) -> list[float]:
    """Quantile initialisation: evenly spaced percentiles of the data.

    Bitwise ``np.quantile(ordered, (np.arange(k) + 0.5) / k)``: numpy's
    default linear estimator written out in float64 scalar arithmetic —
    position ``(n - 1) * q``, then its two-sided interpolation between
    the neighbouring order statistics — without its per-call overhead.
    """
    last = len(ordered) - 1
    centers = []
    for j in range(k):
        position = last * ((j + 0.5) / k)
        below = math.floor(position)
        t = position - below
        a, b = ordered[below], ordered[below + 1]
        centers.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return centers


def _lloyd(scores: np.ndarray, centers: list[float], max_iter: int) -> Clustering:
    """Lloyd's iterations from the given initial centres.

    Each centre is ``np.add.reduce`` over its members in index order,
    divided by the count: bitwise ``scores[mask].mean()``.  A sum taken in
    any other order (prefix sums, ``bincount`` weights, ``reduceat``)
    differs in the last bit, and the prune decisions downstream would
    drift.  After the first update only the clusters a point left or
    joined are recomputed: the others would reproduce their centre.
    """
    k = len(centers)
    # Perturb exact duplicates so each centre owns a distinct region.
    for i in range(1, k):
        if centers[i] <= centers[i - 1]:
            centers[i] = math.nextafter(centers[i - 1], math.inf)
    centers = np.array(centers)

    column = scores[:, None]
    labels = np.zeros(scores.size, dtype=np.int64)
    touched = range(k)
    for iteration in range(max_iter):
        new_labels = np.abs(column - centers).argmin(axis=1)
        if iteration > 0:
            if new_labels.tobytes() == labels.tobytes():
                break
            moved = new_labels != labels
            touched = set(labels[moved].tolist()).union(new_labels[moved].tolist())
        labels = new_labels
        for c in touched:
            members = scores[labels == c]
            if members.size:
                centers[c] = np.add.reduce(members) / members.size

    # Drop empty clusters, then order by descending mean.  After at least
    # one update the occupied centres already are their members' means.
    occupied = np.flatnonzero(np.bincount(labels, minlength=k))
    if max_iter < 1:
        centers[0] = np.add.reduce(scores) / scores.size
    means = centers[occupied]
    order = np.argsort(-means)
    rank = np.empty(k, dtype=np.int64)
    rank[occupied[order]] = np.arange(order.size)
    labels = rank[labels]
    centers = means[order]
    inertia = float(np.add.reduce(np.square(scores - centers[labels])))
    return Clustering(labels=labels, centers=centers, inertia=inertia)


#: Minimum ratio between a cluster boundary's gap (closest points
#: across the boundary) and the median within-cluster neighbour
#: spacing, for clusters to count as "statistically distinct" (§3.1).
#: Calibrated empirically: k-means splits of a unimodal Gaussian blob
#: of ~20 points achieve ratios of ≈2.8 on average (95th percentile
#: ≈6.5), while genuine relevance tiers — including singleton leaders —
#: reach 8–60.  7.0 therefore rejects noise splits while accepting
#: real tier boundaries.
MIN_SEPARATION = 7.0


def _well_separated(
    scores: np.ndarray, order: np.ndarray, clustering: Clustering, min_separation: float
) -> bool:
    """True when every *adjacent pair* of clusters is statistically distinct.

    Distinctness is a dip test on the sorted scores: the empty gap at
    each cluster boundary must dwarf the typical spacing of points
    inside clusters.  Unlike centre-distance tests, this handles the
    two hard cases of 1-D score data directly — singleton leaders
    (whose "spread" is undefined but whose boundary gap is huge) and
    small-sample half-splits of one blob (where k-means places the
    boundary at the widest internal gap, inflating centre distances
    but not the boundary-to-spacing ratio).

    ``order`` sorts ``scores`` ascending.  When every cluster is a
    contiguous run of the sorted scores (labels never rise along
    ``order``), the within-cluster spacings and the boundary gaps are
    exactly the sorted array's adjacent differences, so one ``diff``
    serves every cluster.  Otherwise the test runs cluster by cluster.
    """
    k = clustering.num_clusters
    if k < 2:
        return True
    labels = clustering.labels[order]
    runs = labels[1:] - labels[:-1]
    if (runs > 0).any():
        return _well_separated_by_cluster(scores, clustering, min_separation)
    ordered = scores[order]
    steps = ordered[1:] - ordered[:-1]
    within = runs == 0
    if not within.any():
        return True  # all-singleton clustering: nothing to compare against
    scale = _median(steps[within])
    if scale == 0.0:
        return True  # duplicate-heavy scores: any gap is distinct
    return not (steps[~within] < min_separation * scale).any()


def _well_separated_by_cluster(
    scores: np.ndarray, clustering: Clustering, min_separation: float
) -> bool:
    """:func:`_well_separated` for clusters that interleave in sorted order."""
    k = clustering.num_clusters
    members = [np.sort(scores[clustering.labels == c]) for c in range(k)]
    spacings: list[float] = []
    for m in members:
        if m.size > 1:
            spacings.extend(np.diff(m).tolist())
    if not spacings:
        return True
    scale = float(np.median(spacings))
    if scale == 0.0:
        return True
    for c in range(k - 1):
        # Cluster ids are ordered by descending mean: boundary gap is
        # lowest point of the upper cluster minus highest of the lower.
        gap = float(members[c].min() - members[c + 1].max())
        if gap < min_separation * scale:
            return False
    return True


def _median(values: np.ndarray) -> float:
    """Bitwise ``np.median``: the middle value, or ``np.mean`` of the middle pair."""
    values = np.sort(values)
    mid = values.size // 2
    if values.size % 2:
        return float(values[mid])
    return float(np.add.reduce(values[mid - 1 : mid + 1]) / 2)


def _no_split_separates(steps: np.ndarray, top: int, min_separation: float) -> bool:
    """True when no clustering into 2..``top`` clusters can be well separated.

    ``steps`` are the adjacent differences of more than ``top`` distinct
    sorted scores, so every step is positive.  The test holds when, for
    every k in 2..``top``, the (k-1)-th widest step is narrower than
    ``min_separation`` times the median of the n-k narrowest, and then
    :func:`_well_separated` rejects every clustering with k >= 2
    occupied clusters:

    * one made of contiguous runs has k-1 boundary steps, the narrowest
      no wider than the (k-1)-th widest step; its n-k within-cluster
      steps dominate the n-k narrowest elementwise, so their median is
      no smaller (rounding is monotone), and that boundary fails;
    * one that interleaves in sorted order has clusters c < c' (c of
      the higher mean) with a point of c below a point of c'.  Were the
      gaps between consecutive clusters from c to c' all positive, each
      would lie wholly above the next, and c above c'; so one adjacent
      gap is <= 0.  Every spacing is positive, and the test at
      k = ``top`` forces ``min_separation`` > 1, so the threshold is
      positive and that gap fails.
    """
    ranked = np.sort(steps)
    for k in range(2, top + 1):
        narrow = ranked.size + 1 - k
        if not ranked[narrow] < min_separation * _median(ranked[:narrow]):
            return False
    return True


def cluster_scores(
    scores: np.ndarray,
    max_clusters: int = 6,
    elbow_ratio: float = 0.18,
    min_separation: float = MIN_SEPARATION,
) -> Clustering:
    """Cluster scores with automatic k selection (elbow + separation).

    Increasing k is accepted while (a) it still removes at least
    ``elbow_ratio`` of the remaining within-cluster variance and (b) the
    resulting clusters are *statistically distinct* — adjacent centres
    at least ``min_separation`` pooled within-cluster standard
    deviations apart.  The separation test is what keeps early-layer
    noise blobs in a single cluster (the paper's cluster-γ ≈ 1 premise,
    Figure 2b); without it, 1-D k-means would happily split unimodal
    noise.  ``max_clusters`` bounds the scan (pools of ~20 candidates
    form a handful of tiers).

    Each candidate k is exactly ``kmeans_1d(scores, k)``; the scan sorts
    the scores once for all of them.  When the scores are distinct and
    :func:`_no_split_separates` proves that no k >= 2 can pass the
    separation test, the scan would end on the single cluster, and it
    returns that cluster without running Lloyd at all: every candidate
    fails the test or collapses to one occupied cluster, which is
    bitwise the k = 1 clustering.  Non-finite scores are rejected.
    """
    scores = _validated(scores)
    max_clusters = max(1, min(max_clusters, scores.size))
    best = _one_cluster(scores)
    if max_clusters == 1 or best.inertia == 0.0:
        return best
    order = np.argsort(scores)
    ordered = scores[order]
    distinct = _distinct(ordered)
    # kmeans_1d caps k at the number of distinct scores; with one, every
    # candidate is the single cluster already in hand.
    top = min(max_clusters, distinct)
    if top == 1:
        return best
    if distinct == scores.size > top:
        if _no_split_separates(ordered[1:] - ordered[:-1], top, min_separation):
            return best
    values = ordered.tolist()
    candidates: dict[int, Clustering] = {}
    for k in range(2, max_clusters + 1):
        k_eff = min(k, top)
        candidate = candidates.get(k_eff)
        if candidate is None:
            candidate = _lloyd(scores, _quantile_centers(values, k_eff), LLOYD_MAX_ITER)
            candidates[k_eff] = candidate
        if best.inertia <= 0:
            break
        improvement = (best.inertia - candidate.inertia) / best.inertia
        if improvement < elbow_ratio:
            break
        if not _well_separated(scores, order, candidate, min_separation):
            # This k draws a boundary through a blob, but a finer k may
            # separate cleanly (e.g. k=2 lumping two true tiers into one
            # over-wide cluster while k=3 resolves them) — keep scanning.
            continue
        best = candidate
        if best.inertia == 0.0:
            break
    return best
