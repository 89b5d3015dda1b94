/**
 * @file
 * Forced-tier dispatch sweep: exercises every compiled-in GEMM tier
 * through the packed engine, checks the introspection surface
 * (tierName / tierIsa / matmulActiveTier / matmulIsa), and pins the
 * structural invariants the driver relies on (MR divides the row
 * chunk, kernels exist iff the tier reports available).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "oracles/ops_oracles.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace rog;
using tensor::gemm::Tier;

const Tier kAllTiers[] = {Tier::Avx512, Tier::Avx2, Tier::Neon,
                          Tier::Packed};

TEST(GemmTierTest, PackedTierAlwaysAvailable)
{
    EXPECT_TRUE(tensor::gemm::tierAvailable(Tier::Packed));
    EXPECT_NE(tensor::gemm::kernel(Tier::Packed), nullptr);
}

TEST(GemmTierTest, KernelExistsIffAvailable)
{
    for (Tier t : kAllTiers)
        EXPECT_EQ(tensor::gemm::tierAvailable(t),
                  tensor::gemm::kernel(t) != nullptr)
            << tensor::gemm::tierName(t);
}

TEST(GemmTierTest, TileShapesDivideRowChunk)
{
    // The parallel driver hands out kRowChunk rows per chunk; every
    // tier's MR must divide it so chunk boundaries never split a tile
    // differently than a single-threaded run would.
    for (Tier t : kAllTiers) {
        const tensor::gemm::MicroKernel *uk = tensor::gemm::kernel(t);
        if (uk == nullptr)
            continue;
        EXPECT_GT(uk->mr, 0u);
        EXPECT_GT(uk->nr, 0u);
        EXPECT_LE(uk->mr, tensor::gemm::kMaxMr);
        EXPECT_LE(uk->nr, tensor::gemm::kMaxNr);
        EXPECT_EQ(tensor::gemm::kRowChunk % uk->mr, 0u)
            << tensor::gemm::tierName(t);
    }
}

TEST(GemmTierTest, NamesAndIsaStringsAreStable)
{
    EXPECT_STREQ(tensor::gemm::tierName(Tier::Avx512), "avx512");
    EXPECT_STREQ(tensor::gemm::tierName(Tier::Avx2), "avx2");
    EXPECT_STREQ(tensor::gemm::tierName(Tier::Neon), "neon");
    EXPECT_STREQ(tensor::gemm::tierName(Tier::Packed), "packed");
    EXPECT_STREQ(tensor::gemm::tierIsa(Tier::Packed), "portable");
}

TEST(GemmTierTest, ActiveTierIsAvailableAndIntrospectable)
{
    const Tier active = tensor::gemm::activeTier();
    EXPECT_TRUE(tensor::gemm::tierAvailable(active));
    EXPECT_STREQ(tensor::matmulActiveTier(),
                 tensor::gemm::tierName(active));
    EXPECT_STREQ(tensor::matmulIsa(), tensor::gemm::tierIsa(active));
}

TEST(GemmTierTest, EveryAvailableTierMatchesReference)
{
    Rng rng(11);
    // 61 x 67 x 53: prime everything, ragged against every tile shape.
    const std::size_t m = 61, k = 67, n = 53;
    tensor::Tensor a(m, k), b(k, n);
    a.randomNormal(rng, 1.0f);
    b.randomNormal(rng, 1.0f);
    tensor::Tensor want(m, n);
    tensor::ref::matmul(a, b, want);

    std::set<std::string> exercised;
    for (Tier t : kAllTiers) {
        if (!tensor::gemm::tierAvailable(t))
            continue;
        exercised.insert(tensor::gemm::tierName(t));
        tensor::Tensor got(m, n);
        tensor::gemm::run(t, {a.data(), k, 1}, {b.data(), n, 1},
                          got.data(), n, m, n, k);
        for (std::size_t i = 0; i < got.size(); ++i) {
            const float w = want.data()[i];
            const float tol =
                1e-5f * std::max(1.0f, std::fabs(w)) * 4.0f;
            ASSERT_NEAR(got.data()[i], w, tol)
                << tensor::gemm::tierName(t) << " element " << i;
        }
    }
    // The sweep is only meaningful if it ran something; packed always
    // exists, and CI's native job also covers the SIMD tiers.
    EXPECT_FALSE(exercised.empty());
    EXPECT_TRUE(exercised.count("packed"));
}

TEST(GemmTierTest, ZeroKZeroFillsOutput)
{
    // k == 0 contracts over nothing: out must be zero, not stale.
    tensor::Tensor out(5, 7);
    for (std::size_t i = 0; i < out.size(); ++i)
        out.data()[i] = 3.0f;
    for (Tier t : kAllTiers) {
        if (!tensor::gemm::tierAvailable(t))
            continue;
        tensor::gemm::run(t, {nullptr, 0, 1}, {nullptr, 7, 1},
                          out.data(), 7, 5, 7, 0);
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out.data()[i], 0.0f);
    }
}

} // namespace
