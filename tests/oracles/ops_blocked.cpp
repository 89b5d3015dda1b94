/**
 * @file
 * The earlier blocked/register-tiled GEMM kernels, preserved under
 * tensor::blocked as a measured baseline — exactly as ops_ref.cpp
 * preserves the seed's scalar loops. The hot path now runs the
 * packed-panel microkernels (gemm.cpp); BENCH_micro.json reports the
 * packed tiers' speedup over *these* kernels, so keep them compiled
 * with the same -march=native tuning they shipped with.
 *
 * Layout: outputs are computed in MR x NR register tiles with the k
 * loop innermost-but-one, accumulators live in registers for the whole
 * reduction, and the contiguous inner multiply-accumulate is left to
 * the autovectorizer — the "compiler luck" tier the explicit
 * microkernels replace.
 */
#include "oracles/ops_oracles.hpp"

#include <cstring>

#include "common/logging.hpp"
#include "parallel/parallel_for.hpp"

namespace rog {
namespace tensor {
namespace blocked {

namespace {

// Register tile: MR output rows x NR output columns per microkernel.
constexpr std::size_t MR = 4;
constexpr std::size_t NR = 16;

// Rows of output per parallel chunk. A multiple of MR so full tiles
// never straddle a chunk boundary; boundaries depend only on the
// shape, never on the thread count.
constexpr std::size_t kRowGrain = 32;

/**
 * MR x NR microkernel: out[i0..i0+MR) x [j0..j0+NR) = A-panel @ B-panel
 * with A addressed as a[row_stride_a * (i0 + r) + p * col_stride_a] —
 * col_stride_a = 1 addresses A (m x k) directly, row_stride_a = 1 with
 * col_stride_a = lda addresses A^T without materializing it.
 */
inline void
gemmTile(const float *a, std::size_t row_stride_a,
         std::size_t col_stride_a, const float *b, std::size_t ldb,
         float *out, std::size_t ldo, std::size_t i0, std::size_t j0,
         std::size_t k)
{
    float acc[MR][NR] = {};
    const float *a0 = a + (i0 + 0) * row_stride_a;
    const float *a1 = a + (i0 + 1) * row_stride_a;
    const float *a2 = a + (i0 + 2) * row_stride_a;
    const float *a3 = a + (i0 + 3) * row_stride_a;
    for (std::size_t p = 0; p < k; ++p) {
        const float *b_row = b + p * ldb + j0;
        const float av0 = a0[p * col_stride_a];
        const float av1 = a1[p * col_stride_a];
        const float av2 = a2[p * col_stride_a];
        const float av3 = a3[p * col_stride_a];
        for (std::size_t c = 0; c < NR; ++c) {
            const float bv = b_row[c];
            acc[0][c] += av0 * bv;
            acc[1][c] += av1 * bv;
            acc[2][c] += av2 * bv;
            acc[3][c] += av3 * bv;
        }
    }
    for (std::size_t r = 0; r < MR; ++r) {
        float *o = out + (i0 + r) * ldo + j0;
        for (std::size_t c = 0; c < NR; ++c)
            o[c] = acc[r][c];
    }
}

/** Ragged edge of the tile grid: any rows x cols block, accumulators
 *  still in registers, same p-ascending per-element order. */
inline void
gemmEdge(const float *a, std::size_t row_stride_a,
         std::size_t col_stride_a, const float *b, std::size_t ldb,
         float *out, std::size_t ldo, std::size_t i0, std::size_t i1,
         std::size_t j0, std::size_t j1, std::size_t k)
{
    for (std::size_t i = i0; i < i1; ++i) {
        const float *a_row = a + i * row_stride_a;
        float *o = out + i * ldo;
        for (std::size_t j = j0; j < j1; ++j) {
            float acc = 0.0f;
            for (std::size_t p = 0; p < k; ++p)
                acc += a_row[p * col_stride_a] * b[p * ldb + j];
            o[j] = acc;
        }
    }
}

/** Shared GEMM driver over output rows [lo, hi). */
void
gemmRows(const float *a, std::size_t row_stride_a,
         std::size_t col_stride_a, const float *b, std::size_t ldb,
         float *out, std::size_t ldo, std::size_t lo, std::size_t hi,
         std::size_t n, std::size_t k)
{
    std::size_t i = lo;
    for (; i + MR <= hi; i += MR) {
        std::size_t j = 0;
        for (; j + NR <= n; j += NR)
            gemmTile(a, row_stride_a, col_stride_a, b, ldb, out, ldo, i,
                     j, k);
        if (j < n)
            gemmEdge(a, row_stride_a, col_stride_a, b, ldb, out, ldo, i,
                     i + MR, j, n, k);
    }
    if (i < hi)
        gemmEdge(a, row_stride_a, col_stride_a, b, ldb, out, ldo, i, hi,
                 0, n, k);
}

/** Parallel GEMM over the output's rows with fixed row chunks. */
void
gemmParallel(const float *a, std::size_t row_stride_a,
             std::size_t col_stride_a, const float *b, std::size_t ldb,
             float *out, std::size_t ldo, std::size_t m, std::size_t n,
             std::size_t k)
{
    if (k == 0) {
        for (std::size_t i = 0; i < m; ++i)
            std::memset(out + i * ldo, 0, n * sizeof(float));
        return;
    }
    parallel::parallelFor(0, m, kRowGrain,
                          [&](std::size_t lo, std::size_t hi) {
                              gemmRows(a, row_stride_a, col_stride_a, b,
                                       ldb, out, ldo, lo, hi, n, k);
                          });
}

// Lane count for deterministic vectorized dot products: k is split
// across 16 independent accumulators (elementwise, so the compiler
// vectorizes it), then folded in a fixed pairwise tree.
constexpr std::size_t kDotLanes = 16;

inline float
dotLanes(const float *x, const float *y, std::size_t k)
{
    float acc[kDotLanes] = {};
    std::size_t p = 0;
    for (; p + kDotLanes <= k; p += kDotLanes)
        for (std::size_t l = 0; l < kDotLanes; ++l)
            acc[l] += x[p + l] * y[p + l];
    for (std::size_t l = 0; p < k; ++p, ++l)
        acc[l] += x[p] * y[p];
    for (std::size_t w = kDotLanes / 2; w > 0; w /= 2)
        for (std::size_t l = 0; l < w; ++l)
            acc[l] += acc[l + w];
    return acc[0];
}

} // namespace

void
matmul(const Tensor &a, const Tensor &b, Tensor &out)
{
    ROG_ASSERT(a.cols() == b.rows() && out.rows() == a.rows() &&
               out.cols() == b.cols(), "matmul shape mismatch");
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    gemmParallel(a.data(), /*row_stride_a=*/k, /*col_stride_a=*/1,
                 b.data(), n, out.data(), n, m, n, k);
}

void
matmulTransA(const Tensor &a, const Tensor &b, Tensor &out)
{
    ROG_ASSERT(a.rows() == b.rows() && out.rows() == a.cols() &&
               out.cols() == b.cols(), "matmulTransA shape mismatch");
    const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
    gemmParallel(a.data(), /*row_stride_a=*/1, /*col_stride_a=*/m,
                 b.data(), n, out.data(), n, m, n, k);
}

void
matmulTransB(const Tensor &a, const Tensor &b, Tensor &out)
{
    ROG_ASSERT(a.cols() == b.cols() && out.rows() == a.rows() &&
               out.cols() == b.rows(), "matmulTransB shape mismatch");
    const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
    const float *adata = a.data();
    const float *bdata = b.data();
    float *odata = out.data();
    parallel::parallelFor(
        0, m, kRowGrain, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const float *a_row = adata + i * k;
                float *out_row = odata + i * n;
                for (std::size_t j = 0; j < n; ++j)
                    out_row[j] = dotLanes(a_row, bdata + j * k, k);
            }
        });
}

} // namespace blocked
} // namespace tensor
} // namespace rog
