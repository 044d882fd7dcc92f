/* Compiled kernels of gazekit: the tree walk and the level split search of
 * forest.py, and the pupil search of pupil.py.
 *
 * Each function computes exactly what its numpy counterpart computes
 * (``forest._leaf_nodes`` with the mean of the leaf fractions,
 * ``forest._level_splits`` and the 27-triple loop of ``pupil.detect_pupil``),
 * with the same integer arithmetic, the same float64 operations in the same
 * order and the same tie-breaks, so the two paths give bit-identical trees,
 * probabilities and pupils. _native.py builds this file with
 * ``cc -O2 -std=c99 -ffp-contract=off -shared -fPIC`` and loads it with
 * ctypes; every array is C-contiguous and of the stated type.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define LEAF (-1)

/* Mean leaf class fractions over the trees for each row of ``X``.
 *
 * Trees are walked one at a time over every row, so a tree's nodes stay in
 * cache, and each row adds its leaf fractions in tree-index order before the
 * division by the tree count, as ``fractions[leaves].mean(axis=1)`` does.
 * A split's right child is ``right`` (within the tree) nodes after the tree's
 * root. ``out`` (n_rows x n_classes) must be zero on entry. Returns 0, or -1
 * when a node names a feature outside ``dim`` or a next node that is not
 * after it in its own tree; a walk never reads outside the arrays.
 */
int gzk_predict(int64_t n_rows, int64_t dim, const double *X,
                int64_t n_trees, const int64_t *roots, int64_t n_nodes,
                const int32_t *feature, const double *threshold,
                const int32_t *right, int64_t n_classes,
                const double *fractions, double *out)
{
    for (int64_t t = 0; t < n_trees; t++) {
        int64_t root = roots[t];
        int64_t end = t + 1 < n_trees ? roots[t + 1] : n_nodes;
        if (root < 0 || root >= end || end > n_nodes)
            return -1;
        for (int64_t r = 0; r < n_rows; r++) {
            const double *x = X + r * dim;
            int64_t node = root;
            int32_t f;
            while ((f = feature[node]) != LEAF) {
                if (f < 0 || f >= dim)
                    return -1;
                int64_t next = x[f] <= threshold[node] ? node + 1 : root + right[node];
                if (next <= node || next >= end)
                    return -1;
                node = next;
            }
            const double *frac = fractions + node * n_classes;
            double *o = out + r * n_classes;
            for (int64_t c = 0; c < n_classes; c++)
                o[c] += frac[c];
        }
    }
    int64_t total = n_rows * n_classes;
    for (int64_t i = 0; i < total; i++)
        out[i] /= (double)n_trees;
    return 0;
}

/* Sort ``n`` (key, index) pairs by key, keys below 2^32. Insertion sort for
 * a few pairs, else LSD radix sort on as many bytes as ``span`` (the largest
 * key) needs. The result is in (key, idx) or in (key2, idx2); returns 1 when
 * it is in the second pair of buffers. */
static int sort_pairs(int64_t n, uint32_t span, uint32_t *key, int32_t *idx,
                      uint32_t *key2, int32_t *idx2)
{
    if (n <= 32) {
        for (int64_t i = 1; i < n; i++) {
            uint32_t k = key[i];
            int32_t v = idx[i];
            int64_t j = i;
            for (; j > 0 && key[j - 1] > k; j--) {
                key[j] = key[j - 1];
                idx[j] = idx[j - 1];
            }
            key[j] = k;
            idx[j] = v;
        }
        return 0;
    }
    int swapped = 0;
    for (int shift = 0; shift < 32 && (span >> shift) != 0; shift += 8) {
        int64_t count[257] = {0};
        for (int64_t i = 0; i < n; i++)
            count[((key[i] >> shift) & 0xFF) + 1]++;
        if (count[((key[0] >> shift) & 0xFF) + 1] == n)
            continue; /* every key has the same digit */
        for (int b = 0; b < 256; b++)
            count[b + 1] += count[b];
        for (int64_t i = 0; i < n; i++) {
            int64_t at = count[(key[i] >> shift) & 0xFF]++;
            key2[at] = key[i];
            idx2[at] = idx[i];
        }
        uint32_t *tk = key; key = key2; key2 = tk;
        int32_t *ti = idx; idx = idx2; idx2 = ti;
        swapped = !swapped;
    }
    return swapped;
}

/* Best split of every candidate node of one level; see
 * ``forest._level_splits`` for the inputs, the quality and the tie-break.
 *
 * For each candidate and each of its drawn features in order, the
 * candidate's rows are sorted by rank and scanned once, keeping running
 * class counts. At each boundary between two ranks, the upper one a number,
 * with ``min_leaf`` weight on both sides, the quality is
 * (sum(left^2) * n_right + sum(right^2) * n_left) / (n_left * n_right),
 * exact int64 values divided once in float64; a strict ``>`` keeps the first
 * best. Writes the candidates that split, in ascending order, with their
 * features and thresholds (the midpoint of the two values, or the lower
 * value where the midpoint is not below the upper one or overflows), and
 * returns how many there are, or -1 when memory runs out.
 */
int64_t gzk_level_splits(int64_t n, int64_t d, int64_t n_classes,
                         const double *X, const int64_t *y, const int32_t *ranks,
                         const int64_t *weight, int64_t m, int64_t k,
                         const int64_t *counts, const int64_t *feats, int64_t r,
                         const int64_t *rows, const int64_t *slot, int64_t min_leaf,
                         int64_t *node_out, int64_t *feature_out, double *threshold_out)
{
    /* Rows grouped by candidate: candidate c holds grouped[start[c]:start[c + 1]].
     * Per-row scratch is sized for all ``r`` rows, which bounds any candidate. */
    size_t cap = (size_t)r + 1;
    int64_t *start = calloc((size_t)m + 1, sizeof *start);
    int64_t *fill = malloc(((size_t)m + 1) * sizeof *fill);
    int64_t *grouped = malloc(cap * sizeof *grouped);
    int64_t *left = malloc(((size_t)n_classes + 1) * sizeof *left);
    int64_t *w = malloc(cap * sizeof *w);
    int64_t *label = malloc(cap * sizeof *label);
    uint32_t *key = malloc(cap * sizeof *key);
    uint32_t *key2 = malloc(cap * sizeof *key2);
    int32_t *idx = malloc(cap * sizeof *idx);
    int32_t *idx2 = malloc(cap * sizeof *idx2);
    int64_t n_split = -1;
    if (!start || !fill || !grouped || !left || !w || !label || !key || !key2 || !idx || !idx2)
        goto done;
    for (int64_t i = 0; i < r; i++)
        start[slot[i] + 1]++;
    for (int64_t c = 0; c < m; c++)
        start[c + 1] += start[c];
    memcpy(fill, start, (size_t)m * sizeof *fill);
    for (int64_t i = 0; i < r; i++)
        grouped[fill[slot[i]]++] = rows[i];

    const uint32_t nan_rank = (uint32_t)n;
    n_split = 0;
    for (int64_t c = 0; c < m; c++) {
        const int64_t *mine = grouped + start[c];
        int64_t nc = start[c + 1] - start[c];
        const int64_t *total = counts + c * n_classes;
        int64_t n_node = 0, sq_node = 0;
        for (int64_t j = 0; j < n_classes; j++) {
            n_node += total[j];
            sq_node += total[j] * total[j];
        }
        for (int64_t i = 0; i < nc; i++) {
            w[i] = weight[mine[i]];
            label[i] = y[mine[i]];
        }
        int found = 0;
        double best = 0.0;
        int64_t best_feature = 0, best_low = 0, best_high = 0;
        for (int64_t j = 0; j < k; j++) {
            int64_t f = feats[c * k + j];
            uint32_t low = UINT32_MAX, high = 0;
            for (int64_t i = 0; i < nc; i++) {
                uint32_t rank = (uint32_t)ranks[f * n + mine[i]];
                key[i] = rank;
                idx[i] = (int32_t)i;
                if (rank < low) low = rank;
                if (rank > high) high = rank;
            }
            if (low == high || low == nan_rank)
                continue; /* no boundary between two ranks */
            for (int64_t i = 0; i < nc; i++)
                key[i] -= low;
            const uint32_t *sk = key;
            const int32_t *si = idx;
            if (sort_pairs(nc, high - low, key, idx, key2, idx2)) {
                sk = key2;
                si = idx2;
            }
            memset(left, 0, (size_t)n_classes * sizeof *left);
            int64_t n_left = 0, sq_left = 0, sq_right = sq_node;
            for (int64_t i = 0; i + 1 < nc; i++) {
                int64_t at = si[i], wt = w[at], cls = label[at];
                sq_left += wt * (2 * left[cls] + wt);
                sq_right += wt * (wt - 2 * (total[cls] - left[cls]));
                left[cls] += wt;
                n_left += wt;
                int64_t n_right = n_node - n_left;
                if (n_right < min_leaf || sk[i + 1] + low == nan_rank)
                    break;
                if (sk[i + 1] == sk[i] || n_left < min_leaf)
                    continue;
                double quality = (double)(sq_left * n_right + sq_right * n_left)
                                 / (double)(n_left * n_right);
                if (!found || quality > best) {
                    found = 1;
                    best = quality;
                    best_feature = f;
                    best_low = mine[at];
                    best_high = mine[si[i + 1]];
                }
            }
        }
        if (found) {
            double low = X[best_low * d + best_feature];
            double high = X[best_high * d + best_feature];
            double mid = (low + high) * 0.5;
            node_out[n_split] = c;
            feature_out[n_split] = best_feature;
            threshold_out[n_split] = low <= mid && mid < high ? mid : low;
            n_split++;
        }
    }

done:
    free(start); free(fill); free(grouped); free(left);
    free(w); free(label); free(key); free(key2); free(idx); free(idx2);
    return n_split;
}

/* Erosion (``need`` = 2r + 1) or dilation (``need`` = 1) of the h x w image
 * ``src`` of 0s and 1s, row stride ``stride``, over a square window of side
 * 2r + 1 (``pupil.erode``, ``pupil.dilate``): a pixel is set when at least
 * ``need`` pixels of its window are, out-of-bounds pixels counting as
 * background. Rows go into ``tmp`` through prefix counts, then columns into
 * ``dst`` through running counts of the window's rows. ``counts`` holds
 * max(h, w) + 1 ints, and r <= max(h, w) < 2^30. */
static void window_square(const uint8_t *src, uint8_t *tmp, uint8_t *dst, int64_t h, int64_t w,
                          int64_t stride, int64_t r, int32_t need, int32_t *counts)
{
    for (int64_t y = 0; y < h; y++) {
        const uint8_t *s = src + y * stride;
        uint8_t *d = tmp + y * stride;
        counts[0] = 0;
        for (int64_t x = 0; x < w; x++)
            counts[x + 1] = counts[x] + s[x];
        for (int64_t x = 0; x < w; x++) {
            int64_t lo = x - r, hi = x + r + 1;
            d[x] = counts[hi < w ? hi : w] - counts[lo > 0 ? lo : 0] >= need;
        }
    }
    memset(counts, 0, (size_t)w * sizeof *counts);
    for (int64_t y = 0; y < r && y < h; y++)
        for (int64_t x = 0; x < w; x++)
            counts[x] += tmp[y * stride + x];
    for (int64_t y = 0; y < h; y++) {
        if (y + r < h)
            for (int64_t x = 0; x < w; x++)
                counts[x] += tmp[(y + r) * stride + x];
        if (y - r > 0)
            for (int64_t x = 0; x < w; x++)
                counts[x] -= tmp[(y - r - 1) * stride + x];
        uint8_t *d = dst + y * stride;
        for (int64_t x = 0; x < w; x++)
            d[x] = counts[x] >= need;
    }
}

/* The largest 8-connected component of the h x w image ``img`` whose
 * bounding box has min(width, height) / max(width, height) >= ``min_aspect``,
 * the first in raster order among equal areas, as
 * ``pupil.largest_circular_blob`` finds it. ``img`` points at the first
 * pixel of an image with a one-pixel background border and row stride
 * w + 2; its foreground is cleared as it is labelled. ``stack`` holds h * w
 * pixels. Returns the area, or 0 when no component qualifies, and writes the
 * width and height to ``bbox`` and the centroid (x, y) to ``centroid``. */
static int64_t largest_blob(uint8_t *img, int64_t h, int64_t w, int64_t *stack,
                            double min_aspect, int64_t *bbox, double *centroid)
{
    const int64_t stride = w + 2;
    const int64_t around[8] = {-stride - 1, -stride, -stride + 1, -1, 1,
                               stride - 1, stride, stride + 1};
    int64_t best = 0;
    for (int64_t y = 0; y < h; y++) {
        uint8_t *row = img + y * stride;
        for (int64_t x = 0; x < w; x++) {
            if (!row[x])
                continue;
            /* (y, x) is the component's first pixel in raster order: its top. */
            int64_t n_stack = 1, area = 0, bottom = y, left = x, right = x;
            int64_t sum_dy = 0, sum_x = 0;
            row[x] = 0;
            stack[0] = y * stride + x;
            while (n_stack) {
                int64_t p = stack[--n_stack];
                int64_t py = p / stride, px = p % stride;
                area++;
                sum_dy += py - y;
                sum_x += px;
                if (py > bottom) bottom = py;
                if (px < left) left = px;
                if (px > right) right = px;
                for (int k = 0; k < 8; k++) {
                    int64_t q = p + around[k];
                    if (img[q]) {
                        img[q] = 0;
                        stack[n_stack++] = q;
                    }
                }
            }
            int64_t width = right - left + 1, height = bottom - y + 1;
            double aspect = width < height ? (double)width / (double)height
                                           : (double)height / (double)width;
            if (aspect >= min_aspect && area > best) {
                best = area;
                bbox[0] = width;
                bbox[1] = height;
                /* The exact integer sums over the area, as numpy's mean of
                 * the offsets from the top row and the left column. */
                centroid[0] = (double)(sum_x - area * left) / (double)area + (double)left;
                centroid[1] = (double)sum_dy / (double)area + (double)y;
            }
        }
    }
    return best;
}

/* Half a window side, clamped to ``side``: a wider window gives the same
 * erosion and dilation, as in ``pupil._window_extreme``. */
static int64_t window_radius(int64_t window, int64_t side)
{
    int64_t r = window / 2;
    return r < 0 ? 0 : r > side ? side : r;
}

/* The 27-triple pupil search of ``pupil.detect_pupil`` on the h x w
 * rescaled eye crop ``image``. For each threshold t, opening window o and
 * closing window c, in that nesting order, the pixels below t are opened
 * (eroded, then dilated) with an o x o square, closed (dilated, then eroded)
 * with a c x c square, and their largest circular blob of at least
 * ``min_area`` pixels is found; a strict ``>`` on the area keeps the first
 * largest triple. Writes (triple index t * 9 + o * 3 + c, area, width,
 * height) to ``best`` and the centroid (x, y) to ``centroid``. Returns 1,
 * 0 when no triple gives a blob, or -1 when memory runs out.
 */
int gzk_pupil_search(int64_t h, int64_t w, const double *image, const double *thresholds,
                     const int64_t *openings, const int64_t *closings, int64_t min_area,
                     double min_aspect, int64_t *best, double *centroid)
{
    if (h <= 0 || w <= 0)
        return 0;
    /* Five bordered images: binary, opened, closed and two for the passes. */
    const int64_t stride = w + 2, size = (h + 2) * stride, side = h > w ? h : w;
    uint8_t *bytes = calloc(5 * (size_t)size, 1);
    int64_t *stack = malloc((size_t)(h * w) * sizeof *stack);
    int32_t *counts = malloc(((size_t)side + 1) * sizeof *counts);
    int found = -1;
    if (side >= (1 << 30) || !bytes || !stack || !counts)
        goto done;
    uint8_t *binary = bytes + stride + 1, *opened = binary + size, *closed = opened + size;
    uint8_t *tmp = closed + size, *tmp2 = tmp + size;
    int64_t bbox[2] = {0, 0};
    double at[2] = {0.0, 0.0};
    found = 0;
    for (int t = 0; t < 3; t++) {
        for (int64_t y = 0; y < h; y++)
            for (int64_t x = 0; x < w; x++)
                binary[y * stride + x] = image[y * w + x] < thresholds[t];
        for (int o = 0; o < 3; o++) {
            int64_t r = window_radius(openings[o], side);
            const uint8_t *base = binary;
            if (r) {
                window_square(binary, tmp, tmp2, h, w, stride, r, 2 * (int32_t)r + 1, counts);
                window_square(tmp2, tmp, opened, h, w, stride, r, 1, counts);
                base = opened;
            }
            for (int c = 0; c < 3; c++) {
                r = window_radius(closings[c], side);
                if (r) {
                    window_square(base, tmp, tmp2, h, w, stride, r, 1, counts);
                    window_square(tmp2, tmp, closed, h, w, stride, r, 2 * (int32_t)r + 1, counts);
                } else {
                    memcpy(closed - stride - 1, base - stride - 1, (size_t)size);
                }
                int64_t area = largest_blob(closed, h, w, stack, min_aspect, bbox, at);
                if (area >= min_area && area > (found ? best[1] : 0)) {
                    found = 1;
                    best[0] = t * 9 + o * 3 + c;
                    best[1] = area;
                    best[2] = bbox[0];
                    best[3] = bbox[1];
                    centroid[0] = at[0];
                    centroid[1] = at[1];
                }
            }
        }
    }

done:
    free(bytes); free(stack); free(counts);
    return found;
}
