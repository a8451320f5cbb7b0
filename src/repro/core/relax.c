/*
 * Compiled relaxation loop of the configuration DP (repro.core.native).
 *
 * One call runs every round of a fill: per round, one box pass per
 * configuration in the given order, then (sparse mode) one
 * downward-closure sweep per axis.  It reproduces the NumPy loop of
 * repro.core.dp_vectorized step for step:
 *
 *   - a box pass for configuration c sets t[u] = min(t[u], t[u - c] + 1)
 *     for every cell u >= c.  NumPy first copies the whole source view
 *     (np.add(src, 1, out=cand)), so every read sees the value from
 *     before the pass.  Here cells are visited in reverse row-major
 *     order: u - c precedes u, so it is read before the pass writes it;
 *   - a sweep along axis a is np.minimum.accumulate over the reversed
 *     axis: t[u] = min(t[u], t[u + e_a]) for u_a descending;
 *   - the early accept (accept_limit >= 0) and the no-change stop are
 *     tested after each round, in the NumPy loop's order.
 *
 * Tables, round counts and early-accept points are therefore
 * bit-identical to the NumPy loop.  The caller validates every argument.
 *
 * Returns the number of rounds run, -1 when max_rounds rounds ran
 * without converging, or -2 for a table of more than MAX_DIMS axes.
 * *early is set to 1 when the early accept fired.
 */

#include <stdint.h>

#define MAX_DIMS 64

#define DEFINE_RELAX(NAME, T)                                                  \
static int NAME##_box(T *t, int ndim, const int64_t *shape,                    \
                      const int64_t *stride, const int64_t *c)                 \
{                                                                              \
    int64_t off = 0, lo[MAX_DIMS], u[MAX_DIMS];                                \
    int k, j = 0, changed = 0;                                                 \
    for (k = 0; k < ndim; k++) {                                               \
        if (c[k] >= shape[k]) {                                                \
            return 0; /* empty box */                                          \
        }                                                                      \
        off += c[k] * stride[k];                                               \
        if (c[k] > 0) {                                                        \
            j = k;                                                             \
        }                                                                      \
    }                                                                          \
    if (off == 0) {                                                            \
        return 0; /* t[u] + 1 never undercuts t[u] */                          \
    }                                                                          \
    /* Axes after j have c = 0: the box spans them whole, so each run   */    \
    /* [c_j, n_j] x (trailing axes) is contiguous in memory.  Axis j-1  */    \
    /* steps through the runs of one row; an odometer walks the axes    */    \
    /* before it.  Everything goes in reverse row-major order.          */    \
    int64_t run = (shape[j] - c[j]) * stride[j];                               \
    int64_t rows = 1, row_stride = 0, base = c[j] * stride[j];                 \
    int outer = j - 1;                                                         \
    if (j > 0) {                                                               \
        rows = shape[j - 1] - c[j - 1];                                        \
        row_stride = stride[j - 1];                                            \
        base += (shape[j - 1] - 1) * row_stride;                               \
    }                                                                          \
    for (k = 0; k < outer; k++) {                                              \
        lo[k] = c[k];                                                          \
        u[k] = shape[k] - 1;                                                   \
        base += u[k] * stride[k];                                              \
    }                                                                          \
    for (;;) {                                                                 \
        int64_t r, i;                                                          \
        for (r = 0; r < rows; r++) {                                           \
            T *dst = t + base - r * row_stride;                                \
            const T *src = dst - off;                                          \
            for (i = run - 1; i >= 0; i--) {                                   \
                T cand = (T)(src[i] + 1);                                      \
                if (cand < dst[i]) {                                           \
                    dst[i] = cand;                                             \
                    changed = 1;                                               \
                }                                                              \
            }                                                                  \
        }                                                                      \
        /* Next outer position, reverse row-major.                      */    \
        for (k = outer - 1; k >= 0; k--) {                                     \
            if (u[k] > lo[k]) {                                                \
                u[k]--;                                                        \
                base -= stride[k];                                             \
                break;                                                         \
            }                                                                  \
            base += (shape[k] - 1 - lo[k]) * stride[k];                        \
            u[k] = shape[k] - 1;                                               \
        }                                                                      \
        if (k < 0) {                                                           \
            return changed;                                                    \
        }                                                                      \
    }                                                                          \
}                                                                              \
                                                                               \
static int NAME##_sweeps(T *t, int ndim, const int64_t *shape,                 \
                         const int64_t *stride, int64_t size)                  \
{                                                                              \
    int a, changed = 0;                                                        \
    for (a = 0; a < ndim; a++) {                                               \
        int64_t inner = stride[a], line = shape[a] * inner, o, k, i;           \
        for (o = 0; o < size; o += line) {                                     \
            for (k = shape[a] - 2; k >= 0; k--) {                              \
                T *row = t + o + k * inner;                                    \
                const T *next = row + inner;                                   \
                for (i = 0; i < inner; i++) {                                  \
                    if (next[i] < row[i]) {                                    \
                        row[i] = next[i];                                      \
                        changed = 1;                                           \
                    }                                                          \
                }                                                              \
            }                                                                  \
        }                                                                      \
    }                                                                          \
    return changed;                                                            \
}                                                                              \
                                                                               \
int64_t NAME(T *t, int32_t ndim, const int64_t *shape,                         \
             const int64_t *configs, int64_t n_configs, int32_t sweeps,        \
             int64_t max_rounds, int64_t accept_limit, int32_t *early)         \
{                                                                              \
    int64_t stride[MAX_DIMS], size = 1, rounds = 0, n;                         \
    int k;                                                                     \
    *early = 0;                                                                \
    if (ndim > MAX_DIMS) {                                                     \
        return -2;                                                             \
    }                                                                          \
    for (k = ndim - 1; k >= 0; k--) {                                          \
        stride[k] = size;                                                      \
        size *= shape[k];                                                      \
    }                                                                          \
    while (rounds < max_rounds) {                                              \
        int changed = 0;                                                       \
        rounds++;                                                              \
        for (n = 0; n < n_configs; n++) {                                      \
            changed |= NAME##_box(t, ndim, shape, stride, configs + n * ndim); \
        }                                                                      \
        if (sweeps) {                                                          \
            changed |= NAME##_sweeps(t, ndim, shape, stride, size);            \
        }                                                                      \
        int64_t corner = t[size - 1];                                          \
        if (accept_limit >= 0 && corner <= accept_limit && corner <= rounds) { \
            *early = 1;                                                        \
            return rounds;                                                     \
        }                                                                      \
        if (!changed) {                                                        \
            return rounds;                                                     \
        }                                                                      \
    }                                                                          \
    return -1;                                                                 \
}

DEFINE_RELAX(relax_int16, int16_t)
DEFINE_RELAX(relax_int32, int32_t)
DEFINE_RELAX(relax_int64, int64_t)
