/**
 * @file
 * Blocked/parallel kernels vs the seed's scalar reference kernels.
 *
 * The register-tiled GEMMs in tensor/ops.cpp reassociate the k-loop
 * differently from the reference i-k-j loops, so results are compared
 * within a small tolerance (not bitwise). Shapes deliberately include
 * non-multiples of the microkernel tile (MR=4, NR=16) and of the row
 * grain, so every edge path is exercised.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "oracles/ops_oracles.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace rog;

struct Shape
{
    std::size_t m, k, n;
};

// Mixes multiples and non-multiples of MR=4, NR=16 and the 32-row
// parallel grain, plus degenerate single-row/col cases.
const std::vector<Shape> kShapes = {
    {1, 1, 1},   {1, 7, 1},    {3, 5, 7},    {4, 16, 16},
    {5, 17, 19}, {8, 32, 48},  {13, 29, 31}, {32, 64, 33},
    {33, 70, 65}, {64, 128, 96}, {67, 101, 49},
};

float
maxRelError(const tensor::Tensor &got, const tensor::Tensor &want)
{
    EXPECT_EQ(got.rows(), want.rows());
    EXPECT_EQ(got.cols(), want.cols());
    float worst = 0.0f;
    for (std::size_t i = 0; i < got.size(); ++i) {
        const float g = got.data()[i];
        const float w = want.data()[i];
        const float scale = std::max(1.0f, std::fabs(w));
        worst = std::max(worst, std::fabs(g - w) / scale);
    }
    return worst;
}

TEST(KernelEquivalenceTest, MatmulMatchesReference)
{
    Rng rng(11);
    for (const Shape &s : kShapes) {
        tensor::Tensor a(s.m, s.k), b(s.k, s.n);
        a.randomNormal(rng, 1.0f);
        b.randomNormal(rng, 1.0f);
        tensor::Tensor got(s.m, s.n), want(s.m, s.n);
        tensor::matmul(a, b, got);
        tensor::ref::matmul(a, b, want);
        EXPECT_LT(maxRelError(got, want), 1e-5f)
            << s.m << "x" << s.k << "x" << s.n;
    }
}

TEST(KernelEquivalenceTest, MatmulTransAMatchesReference)
{
    Rng rng(12);
    for (const Shape &s : kShapes) {
        tensor::Tensor a(s.k, s.m), b(s.k, s.n); // out = a^T @ b.
        a.randomNormal(rng, 1.0f);
        b.randomNormal(rng, 1.0f);
        tensor::Tensor got(s.m, s.n), want(s.m, s.n);
        tensor::matmulTransA(a, b, got);
        tensor::ref::matmulTransA(a, b, want);
        EXPECT_LT(maxRelError(got, want), 1e-5f)
            << s.m << "x" << s.k << "x" << s.n;
    }
}

TEST(KernelEquivalenceTest, MatmulTransBMatchesReference)
{
    Rng rng(13);
    for (const Shape &s : kShapes) {
        tensor::Tensor a(s.m, s.k), b(s.n, s.k); // out = a @ b^T.
        a.randomNormal(rng, 1.0f);
        b.randomNormal(rng, 1.0f);
        tensor::Tensor got(s.m, s.n), want(s.m, s.n);
        tensor::matmulTransB(a, b, got);
        tensor::ref::matmulTransB(a, b, want);
        EXPECT_LT(maxRelError(got, want), 1e-5f)
            << s.m << "x" << s.k << "x" << s.n;
    }
}

TEST(KernelEquivalenceTest, MatmulOverwritesStaleOutput)
{
    // The blocked kernel writes (not accumulates) its first k-slice,
    // so a dirty output buffer must not leak into the result.
    Rng rng(14);
    tensor::Tensor a(9, 13), b(13, 21);
    a.randomNormal(rng, 1.0f);
    b.randomNormal(rng, 1.0f);
    tensor::Tensor got(9, 21), want(9, 21);
    for (std::size_t i = 0; i < got.size(); ++i)
        got.data()[i] = 1e6f; // poison.
    tensor::matmul(a, b, got);
    tensor::ref::matmul(a, b, want);
    EXPECT_LT(maxRelError(got, want), 1e-5f);
}

/** Zeros in A exercise the dropped `av == 0` fast path: the blocked
 *  kernel must produce the same values without the branch. */
TEST(KernelEquivalenceTest, SparseInputsMatchReference)
{
    Rng rng(15);
    tensor::Tensor a(33, 47), b(47, 29);
    a.randomNormal(rng, 1.0f);
    b.randomNormal(rng, 1.0f);
    for (std::size_t i = 0; i < a.size(); i += 3)
        a.data()[i] = 0.0f;
    tensor::Tensor got(33, 29), want(33, 29);
    tensor::matmul(a, b, got);
    tensor::ref::matmul(a, b, want);
    EXPECT_LT(maxRelError(got, want), 1e-5f);
}

} // namespace
