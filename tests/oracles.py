"""Independent brute-force reference implementations used by the tests.

Everything here is written for obviousness, not speed: explicit double loops
for morphology, stack-based flood fill for components, exact rational
arithmetic for tree splits, a node-by-node walk of one tree, and
projection-based geometry for the eye frame.
The production code must agree with these, not the other way around.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def erode_oracle(img: np.ndarray, window: int) -> np.ndarray:
    height, width = img.shape
    half = window // 2
    out = np.zeros_like(img)
    for r in range(height):
        for c in range(width):
            value = 1
            for dr in range(-half, half + 1):
                for dc in range(-half, half + 1):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < height and 0 <= cc < width:
                        value = min(value, int(img[rr, cc]))
                    else:
                        value = 0  # outside the frame is background
            out[r, c] = value
    return out


def dilate_oracle(img: np.ndarray, window: int) -> np.ndarray:
    height, width = img.shape
    half = window // 2
    out = np.zeros_like(img)
    for r in range(height):
        for c in range(width):
            value = 0
            for dr in range(-half, half + 1):
                for dc in range(-half, half + 1):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < height and 0 <= cc < width:
                        value = max(value, int(img[rr, cc]))
            out[r, c] = value
    return out


def open_oracle(img: np.ndarray, window: int) -> np.ndarray:
    return dilate_oracle(erode_oracle(img, window), window)


def close_oracle(img: np.ndarray, window: int) -> np.ndarray:
    return erode_oracle(dilate_oracle(img, window), window)


def components_oracle(img: np.ndarray) -> list[list[tuple[int, int]]]:
    """8-connected components, discovered in raster order."""
    height, width = img.shape
    seen = np.zeros_like(img, dtype=bool)
    components = []
    for r0 in range(height):
        for c0 in range(width):
            if not img[r0, c0] or seen[r0, c0]:
                continue
            stack = [(r0, c0)]
            seen[r0, c0] = True
            pixels = []
            while stack:
                r, c = stack.pop()
                pixels.append((r, c))
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cc = r + dr, c + dc
                        if 0 <= rr < height and 0 <= cc < width:
                            if img[rr, cc] and not seen[rr, cc]:
                                seen[rr, cc] = True
                                stack.append((rr, cc))
            components.append(pixels)
    return components


def largest_circular_blob_oracle(img: np.ndarray, min_area=5, min_aspect=0.5):
    """Same selection rule as the production blob finder, via flood fill."""
    width = img.shape[1]
    best_key = None
    best = None
    for pixels in components_oracle(img):
        rows = [p[0] for p in pixels]
        cols = [p[1] for p in pixels]
        h = max(rows) - min(rows) + 1
        w = max(cols) - min(cols) + 1
        if min(w, h) / max(w, h) < min_aspect:
            continue
        area = len(pixels)
        first = min(r * width + c for r, c in pixels)
        key = (-area, first)
        if best_key is None or key < best_key:
            best_key = key
            best = (area, (w, h), (sum(cols) / area, sum(rows) / area))
    if best is None or best[0] < min_area:
        return None
    return best


def percentile_oracle(values, pct: float) -> float:
    """Nearest-rank percentile straight off the sorted list."""
    ordered = sorted(float(v) for v in np.asarray(values).ravel())
    rank = -(-pct * len(ordered) // 100)  # ceil
    return ordered[max(int(rank), 1) - 1]


def average_ranks(values) -> list[float]:
    """1-based ranks; tied values share the mean of the ranks they span."""
    values = [float(v) for v in values]
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        stop = start + 1
        while stop < len(order) and values[order[stop]] == values[order[start]]:
            stop += 1
        for position in range(start, stop):
            ranks[order[position]] = (start + 1 + stop) / 2
        start = stop
    return ranks


def spearman_rho(x, y) -> float:
    """Spearman's rank correlation: Pearson's r of the average ranks."""
    rx, ry = average_ranks(x), average_ranks(y)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    var_x = sum((a - mx) ** 2 for a in rx)
    var_y = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(var_x * var_y)


def normalize_pupil_oracle(pupil, polygon):
    """Eye-frame pupil coordinates via axis projections instead of a matrix."""
    poly = np.asarray(polygon, dtype=np.float64)
    pupil = np.asarray(pupil, dtype=np.float64)
    outer, inner = poly[0], poly[3]
    axis = inner - outer
    length = float(np.hypot(*axis))
    u = axis / length
    v = np.array([-axis[1], axis[0]]) / length
    rel = poly - outer
    xs = rel @ u
    ys = rel @ v
    px = (pupil - outer) @ u
    py = (pupil - outer) @ v
    out = np.array(
        [
            (px - xs.min()) / (xs.max() - xs.min()),
            (py - ys.min()) / (ys.max() - ys.min()),
        ]
    )
    return np.clip(out, 0.0, 1.0)


class CartOracleNode:
    __slots__ = ("fractions", "feature", "threshold", "left", "right")

    def __init__(self, fractions=None, feature=None, threshold=None, left=None, right=None):
        self.fractions = fractions
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right


def cart_oracle(X, y, n_classes: int, max_depth: int, min_samples_leaf: int = 1):
    """Exhaustive CART with exact rational split ranking.

    Splits maximize sum(left_counts^2)/n_left + sum(right_counts^2)/n_right
    (equivalent to minimizing weighted Gini), computed with Fractions so ties
    are exact; ties break toward the lowest feature index, then the lowest
    threshold. Thresholds are float midpoints of consecutive sorted unique
    values, or the lower value where the midpoint is not in [lower, upper)
    (it rounds up between adjacent doubles and overflows near the float64
    limits), matching the production arithmetic bit for bit.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)

    def build(indices, depth):
        labels = y[indices]
        counts = [int((labels == c).sum()) for c in range(n_classes)]
        n = len(indices)
        if depth >= max_depth or max(counts) == n or n < 2 * min_samples_leaf:
            return CartOracleNode(fractions=[c / n for c in counts])
        best = None  # (-quality, feature, threshold, left_indices, right_indices)
        for feature in range(X.shape[1]):
            unique = sorted(set(X[indices, feature].tolist()))
            for lo, hi in zip(unique, unique[1:]):
                threshold = (lo + hi) * 0.5
                if not lo <= threshold < hi:
                    threshold = lo
                left = indices[X[indices, feature] <= threshold]
                right = indices[X[indices, feature] > threshold]
                if len(left) < min_samples_leaf or len(right) < min_samples_leaf:
                    continue
                lc = [int((y[left] == c).sum()) for c in range(n_classes)]
                rc = [int((y[right] == c).sum()) for c in range(n_classes)]
                quality = Fraction(sum(c * c for c in lc), len(left)) + Fraction(
                    sum(c * c for c in rc), len(right)
                )
                key = (-quality, feature, threshold)
                if best is None or key < best[0]:
                    best = (key, feature, threshold, left, right)
        if best is None:
            return CartOracleNode(fractions=[c / n for c in counts])
        _, feature, threshold, left, right = best
        return CartOracleNode(
            feature=feature,
            threshold=threshold,
            left=build(left, depth + 1),
            right=build(right, depth + 1),
        )

    return build(np.arange(len(y)), 0)


def cart_oracle_predict(node: CartOracleNode, x) -> list[float]:
    while node.fractions is None:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.fractions


def tree_predict_proba(nodes, tree: int, x) -> np.ndarray:
    """Walk one tree of a ``ForestNodes`` node by node.

    Returns the class fractions of the leaf that ``x`` reaches, computed
    from that leaf's class counts.
    """
    root = int(nodes.roots[tree])
    node = root
    while nodes.feature[node] >= 0:
        if x[nodes.feature[node]] <= nodes.threshold[node]:
            node += 1
        else:
            node = root + int(nodes.right[node])
    leaf_row = int(np.count_nonzero(nodes.feature[:node] < 0))
    counts = nodes.leaf_counts[leaf_row].astype(np.int64)
    return counts / counts.sum()
