/* Compiled kernels of gazekit.forest: the tree walk and the level split search.
 *
 * Each function computes exactly what its numpy counterpart in forest.py
 * computes (``_leaf_nodes`` with the mean of the leaf fractions, and
 * ``_level_splits``), with the same integer arithmetic, the same float64
 * operations in the same order and the same tie-breaks, so the two paths
 * give bit-identical trees and probabilities. forest.py builds this file
 * with ``cc -O2 -std=c99 -ffp-contract=off -shared -fPIC`` and loads it with
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
