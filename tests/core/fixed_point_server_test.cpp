/**
 * @file
 * The server's Q32.32 gradient arithmetic (core/fixed_point.hpp)
 * shared by ServerShard's cumulative-sum outbox and ServerState's
 * per-copy oracle:
 *  - exact conservation at fleet scale: for every worker and unit,
 *    what was delivered plus what is pending equals the sum of every
 *    contribution, checked against an independent rounding oracle;
 *  - bitwise agreement of the two layouts at 1024 workers;
 *  - bounded drift against the float per-copy arithmetic the server
 *    used before (one float add per push per copy);
 *  - rejection of non-finite and out-of-range pushes with no state
 *    change, and of pushes that would take a pending value to 2^30,
 *    at the same push in both layouts;
 *  - snapshot/restore reproducing the exact state.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "core/fixed_point.hpp"
#include "core/row_partition.hpp"
#include "core/server_shard.hpp"
#include "nn/model.hpp"
#include "oracles/server_state.hpp"

namespace rog {
namespace core {
namespace {

const std::vector<std::size_t> kWidths = {8, 5, 13, 1, 8, 8};

/** Independent Q32.32 conversion: the FPU's round-to-nearest-even,
 *  not the magic-constant trick the server uses. */
std::uint64_t
oracleFixed(float x, std::size_t workers)
{
    const double v = static_cast<double>(x) * 4294967296.0 /
                     static_cast<double>(workers);
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(std::nearbyint(v)));
}

std::vector<float>
randomGradient(Rng &rng, std::size_t width, double amp)
{
    std::vector<float> g(width);
    for (auto &x : g)
        x = static_cast<float>(rng.uniform(-amp, amp));
    return g;
}

TEST(FixedPointServer, ExactConservationAt1024Workers)
{
    constexpr std::size_t kWorkers = 1024;
    ShardedServer server(kWorkers, kWidths, 3);
    std::vector<std::vector<std::uint64_t>> total(kWidths.size());
    for (std::size_t u = 0; u < kWidths.size(); ++u)
        total[u].assign(kWidths[u], 0);
    // delivered[w][u]: the oracle total at w's last pull of u.
    std::vector<std::vector<std::vector<std::uint64_t>>> delivered(
        kWorkers, total);

    Rng rng(0xC0DE);
    for (int op = 0; op < 60000; ++op) {
        const std::size_t u = rng.uniformInt(kWidths.size());
        if (rng.uniformInt(3) == 0) {
            const auto g = randomGradient(rng, kWidths[u], 3.0);
            ASSERT_TRUE(server.accumulate(u, g));
            for (std::size_t j = 0; j < g.size(); ++j)
                total[u][j] += oracleFixed(g[j], kWorkers);
        } else {
            const std::size_t w = rng.uniformInt(kWorkers);
            if (server.hasPending(w, u)) {
                server.clearPending(w, u);
                delivered[w][u] = total[u];
            }
        }
    }

    // Every (worker, unit, element): watermark == delivered and
    // delivered + pending == sum of all contributions, exactly.
    std::vector<ServerStateSnapshot> snaps;
    std::vector<std::size_t> first_unit(server.shardCount(), 0);
    for (std::size_t s = 0; s < server.shardCount(); ++s)
        snaps.push_back(server.shard(s).serverSnapshot());
    for (std::size_t u = kWidths.size(); u-- > 0;)
        first_unit[server.shardOf(u)] = u;
    for (std::size_t u = 0; u < kWidths.size(); ++u) {
        const std::size_t s = server.shardOf(u);
        const std::size_t lu = u - first_unit[s];
        for (std::size_t w = 0; w < kWorkers; ++w) {
            const auto mark = server.watermark(w, u);
            const auto &pend = snaps[s].pending[w][lu];
            for (std::size_t j = 0; j < kWidths[u]; ++j) {
                ASSERT_EQ(mark[j], delivered[w][u][j])
                    << "w=" << w << " u=" << u << " j=" << j;
                ASSERT_EQ(mark[j] + static_cast<std::uint64_t>(pend[j]),
                          total[u][j])
                    << "w=" << w << " u=" << u << " j=" << j;
            }
        }
    }
}

TEST(FixedPointServer, FloatDeliveriesConserveDyadicGradients)
{
    // Gradients m * workers * 2^-10 (m integer in [-64, 64]) make every
    // partial sum exactly representable as a float, so the float API
    // itself must conserve exactly: delivered + pending == pushed.
    constexpr std::size_t kWorkers = 1024;
    ShardedServer server(kWorkers, kWidths, 4);
    std::vector<std::vector<double>> total(kWidths.size());
    for (std::size_t u = 0; u < kWidths.size(); ++u)
        total[u].assign(kWidths[u], 0.0);
    std::vector<std::vector<std::vector<double>>> delivered(kWorkers,
                                                            total);
    Rng rng(0xD1AD);
    std::vector<float> g;
    for (int op = 0; op < 40000; ++op) {
        const std::size_t u = rng.uniformInt(kWidths.size());
        if (rng.uniformInt(4) == 0) {
            g.resize(kWidths[u]);
            for (std::size_t j = 0; j < g.size(); ++j) {
                const auto m =
                    static_cast<double>(rng.uniformInt(129)) - 64.0;
                g[j] = static_cast<float>(m); // m * 1024 * 2^-10.
                total[u][j] += m / 1024.0;
            }
            ASSERT_TRUE(server.accumulate(u, g));
        } else {
            const std::size_t w = rng.uniformInt(kWorkers);
            if (server.hasPending(w, u)) {
                const auto p = server.pending(w, u);
                for (std::size_t j = 0; j < p.size(); ++j)
                    delivered[w][u][j] += static_cast<double>(p[j]);
                server.clearPending(w, u);
            }
        }
    }
    for (std::size_t w = 0; w < kWorkers; ++w)
        for (std::size_t u = 0; u < kWidths.size(); ++u) {
            const auto p = server.pending(w, u);
            for (std::size_t j = 0; j < p.size(); ++j)
                ASSERT_EQ(delivered[w][u][j] + static_cast<double>(p[j]),
                          total[u][j])
                    << "w=" << w << " u=" << u << " j=" << j;
        }
}

struct SmallModel
{
    SmallModel()
        : model(make()), flat(model), partition(flat, Granularity::Row)
    {
    }

    static nn::Model
    make()
    {
        Rng rng(5);
        nn::ClassifierConfig cfg;
        cfg.input_dim = 6;
        cfg.hidden = {8};
        cfg.classes = 3;
        return nn::makeClassifier(cfg, rng);
    }

    nn::Model model;
    FlatModel flat;
    RowPartition partition;
};

TEST(FixedPointServer, ShardedMatchesPerCopyOracleAt1024Workers)
{
    constexpr std::size_t kWorkers = 1024;
    SmallModel m;
    ServerState oracle(kWorkers, m.partition);
    ShardedServer sharded(kWorkers, m.partition, 4);
    const std::size_t units = m.partition.unitCount();
    Rng rng(0x1024);
    for (int op = 0; op < 6000; ++op) {
        const std::size_t u = rng.uniformInt(units);
        const std::size_t w = rng.uniformInt(kWorkers);
        switch (rng.uniformInt(3)) {
        case 0: {
            const auto g =
                randomGradient(rng, m.partition.unit(u).width, 10.0);
            ASSERT_TRUE(oracle.accumulate(u, g));
            ASSERT_TRUE(sharded.accumulate(u, g));
            break;
        }
        case 1:
            ASSERT_EQ(oracle.hasPending(w, u), sharded.hasPending(w, u));
            if (oracle.hasPending(w, u)) {
                const auto a = oracle.pending(w, u);
                const auto b = sharded.pending(w, u);
                for (std::size_t j = 0; j < a.size(); ++j)
                    ASSERT_EQ(a[j], b[j]);
                oracle.clearPending(w, u);
                sharded.clearPending(w, u);
            }
            break;
        default:
            ASSERT_EQ(oracle.pendingMeanAbs(w, u),
                      sharded.pendingMeanAbs(w, u));
            break;
        }
    }
}

/** The server's arithmetic before fixed point: one float copy per
 *  worker, scale * decoded added per push in float. */
class FloatOutboxRef
{
  public:
    FloatOutboxRef(std::size_t workers, std::size_t width)
        : scale_(static_cast<float>(1.0 / static_cast<double>(workers))),
          copies_(workers, std::vector<float>(width, 0.0f))
    {
    }

    void
    accumulate(const std::vector<float> &g)
    {
        for (auto &copy : copies_)
            for (std::size_t j = 0; j < g.size(); ++j)
                copy[j] += scale_ * g[j];
    }

    std::vector<float> &copy(std::size_t w) { return copies_[w]; }

  private:
    float scale_;
    std::vector<std::vector<float>> copies_;
};

TEST(FixedPointServer, DriftAgainstFloatPerCopyArithmeticIsBounded)
{
    // Per element, the float path rounds each product and each add
    // (relative 2^-24 each); the fixed-point path rounds each product
    // to 2^-32 and the final float once. After n pushes since the
    // last pull, |fixed - float| <= (n + 2) * 2^-24 * sum|c| + n * 2^-32.
    double worst_rel = 0.0;
    for (const std::size_t workers : {4u, 64u}) {
        constexpr std::size_t kWidth = 32;
        ShardedServer server(workers, std::vector<std::size_t>{kWidth},
                             1);
        FloatOutboxRef ref(workers, kWidth);
        std::vector<std::vector<double>> abs_sum(
            workers, std::vector<double>(kWidth, 0.0));
        std::vector<std::size_t> pushes(workers, 0);
        Rng rng(0xD21F7 + workers);
        for (int op = 0; op < 20000; ++op) {
            if (rng.uniformInt(2) == 0) {
                // Gradient-like magnitudes spanning several decades.
                std::vector<float> g(kWidth);
                for (auto &x : g)
                    x = static_cast<float>(
                        rng.gaussian() * std::pow(10.0, rng.uniform(-4, 1)));
                ASSERT_TRUE(server.accumulate(0, g));
                ref.accumulate(g);
                for (std::size_t w = 0; w < workers; ++w) {
                    ++pushes[w];
                    for (std::size_t j = 0; j < kWidth; ++j)
                        abs_sum[w][j] += std::fabs(
                            static_cast<double>(g[j]) /
                            static_cast<double>(workers));
                }
                continue;
            }
            const std::size_t w = rng.uniformInt(workers);
            if (!server.hasPending(w, 0))
                continue;
            const auto fixed = server.pending(w, 0);
            auto &old = ref.copy(w);
            const double n = static_cast<double>(pushes[w]);
            for (std::size_t j = 0; j < kWidth; ++j) {
                const double drift = std::fabs(
                    static_cast<double>(fixed[j]) -
                    static_cast<double>(old[j]));
                const double bound = (n + 2.0) * std::ldexp(1.0, -24) *
                                         abs_sum[w][j] +
                                     n * std::ldexp(1.0, -32);
                ASSERT_LE(drift, bound) << "workers=" << workers
                                        << " pushes=" << n;
                // Below ~1e-3 the 2^-32 quantum, not float rounding,
                // dominates; the bound above covers that regime.
                if (abs_sum[w][j] >= 1e-3)
                    worst_rel = std::max(worst_rel, drift / abs_sum[w][j]);
                old[j] = 0.0f;
                abs_sum[w][j] = 0.0;
            }
            pushes[w] = 0;
            server.clearPending(w, 0);
        }
    }
    // Visible in the XML report: the largest drift seen, relative to
    // the magnitude that went into the sum.
    RecordProperty("worst_drift_over_abs_sum", std::to_string(worst_rel));
    EXPECT_LT(worst_rel, 1e-5);
}

template <class Server>
void
expectRejectedWithoutSideEffects(Server &server, std::size_t workers,
                                 std::size_t width)
{
    const float bad_values[] = {
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        // |x / workers| == 2^19: the first value outside the range.
        static_cast<float>(524288.0 * static_cast<double>(workers)),
        -3e38f,
    };
    for (const float bad : bad_values) {
        std::vector<float> g(width, 0.5f);
        g[width / 2] = bad;
        EXPECT_FALSE(server.accumulate(0, g)) << bad;
    }
    for (std::size_t w = 0; w < workers; ++w) {
        EXPECT_FALSE(server.hasPending(w, 0));
        for (float v : server.pending(w, 0))
            EXPECT_EQ(v, 0.0f);
    }
    // The largest float below the bound, and a subnormal, go through.
    std::vector<float> edge(width, 0.0f);
    edge[0] = std::nextafter(
        static_cast<float>(524288.0 * static_cast<double>(workers)), 0.0f);
    edge[1] = -edge[0];
    edge[2] = std::numeric_limits<float>::denorm_min();
    EXPECT_TRUE(server.accumulate(0, edge));
    EXPECT_TRUE(server.hasPending(0, 0));
    const auto p = server.pending(0, 0);
    EXPECT_EQ(static_cast<double>(p[0]),
              static_cast<double>(edge[0]) / static_cast<double>(workers));
    EXPECT_EQ(p[1], -p[0]);
    EXPECT_EQ(p[2], 0.0f); // below 2^-32: rounds to zero, still counted.
}

TEST(FixedPointServer, ShardRejectsNonFiniteAndOutOfRangePushes)
{
    ShardedServer server(4, std::vector<std::size_t>{6, 3}, 2);
    expectRejectedWithoutSideEffects(server, 4, 6);
}

TEST(FixedPointServer, StateRejectsNonFiniteAndOutOfRangePushes)
{
    SmallModel m;
    ServerState server(4, m.partition);
    expectRejectedWithoutSideEffects(server, 4,
                                     m.partition.unit(0).width);
}

/** The largest float a push may carry for @p workers: |x / workers|
 *  just below 2^19. */
float
largestAccepted(std::size_t workers)
{
    return std::nextafter(
        static_cast<float>(524288.0 * static_cast<double>(workers)),
        0.0f);
}

TEST(FixedPointServer, PendingLimitRejectsTheSamePushInBothLayouts)
{
    // Push the largest accepted values with no pull: the pending sums
    // reach 2^30 after ~2^11 pushes. Both layouts must stop at the
    // same push, keep every value exact (no wrap, no sign flip), and
    // take pushes again once every worker has pulled.
    constexpr std::size_t kWorkers = 4;
    SmallModel m;
    ServerState oracle(kWorkers, m.partition);
    ShardedServer sharded(kWorkers, m.partition, 2);
    const std::size_t width = m.partition.unit(0).width;
    ASSERT_GE(width, 3u);
    std::vector<float> g(width, 0.0f);
    g[0] = largestAccepted(kWorkers);
    g[1] = -g[0];
    g[2] = 1.0f;
    const std::int64_t q =
        static_cast<std::int64_t>(oracleFixed(g[0], kWorkers));
    const std::int64_t expect_accepted =
        (fixed::kPendingLimit - 1) / q;

    std::int64_t accepted = 0;
    for (;;) {
        const bool a = oracle.accumulate(0, g);
        ASSERT_EQ(a, sharded.accumulate(0, g)) << "push " << accepted;
        if (!a)
            break;
        ++accepted;
        ASSERT_LE(accepted, expect_accepted);
    }
    EXPECT_EQ(accepted, expect_accepted);
    EXPECT_GT(accepted, 2000);
    const float top = static_cast<float>(
        static_cast<double>(accepted) * static_cast<double>(q) *
        fixed::kInvOne);
    for (std::size_t w = 0; w < kWorkers; ++w) {
        const auto po = oracle.pending(w, 0);
        const std::vector<float> keep(po.begin(), po.end());
        const auto ps = sharded.pending(w, 0);
        for (std::size_t j = 0; j < width; ++j)
            ASSERT_EQ(keep[j], ps[j]) << "w=" << w << " j=" << j;
        EXPECT_EQ(keep[0], top);
        EXPECT_EQ(keep[1], -top);
        EXPECT_EQ(keep[2],
                  static_cast<float>(accepted) /
                      static_cast<float>(kWorkers));
    }
    // Other units keep their own limit.
    std::vector<float> other(m.partition.unit(1).width, 1.0f);
    EXPECT_TRUE(oracle.accumulate(1, other));
    EXPECT_TRUE(sharded.accumulate(1, other));

    // One pull is not enough: the other workers still hold the sums.
    oracle.clearPending(0, 0);
    sharded.clearPending(0, 0);
    EXPECT_FALSE(oracle.accumulate(0, g));
    EXPECT_FALSE(sharded.accumulate(0, g));
    for (std::size_t w = 1; w < kWorkers; ++w) {
        oracle.clearPending(w, 0);
        sharded.clearPending(w, 0);
    }
    EXPECT_TRUE(oracle.accumulate(0, g));
    EXPECT_TRUE(sharded.accumulate(0, g));
    EXPECT_EQ(sharded.pending(3, 0)[0],
              static_cast<float>(static_cast<double>(q) *
                                 fixed::kInvOne));
}

TEST(FixedPointServer, CumulativeDriftPastTheLimitIsNotRejected)
{
    // Workers that keep pulling never hold much, however far the
    // running sum drifts: 3 * 2^11 maximal pushes move it past 2^31
    // (it wraps), while each pending value stays one push.
    constexpr std::size_t kWorkers = 2;
    ServerShard shard(kWorkers, {4});
    const std::vector<float> g(4, largestAccepted(kWorkers));
    const float one = static_cast<float>(
        static_cast<double>(oracleFixed(g[0], kWorkers)) *
        fixed::kInvOne);
    for (int push = 0; push < 3 * 2048; ++push) {
        ASSERT_TRUE(shard.accumulate(0, g)) << "push " << push;
        for (std::size_t w = 0; w < kWorkers; ++w) {
            ASSERT_EQ(shard.pending(w, 0)[3], one) << "push " << push;
            shard.clearPending(w, 0);
        }
    }
}

TEST(FixedPointServer, RestoreRejectsPendingValueAtTheLimit)
{
    constexpr std::size_t kWorkers = 3;
    ServerShard shard(kWorkers, {2, 3});
    ASSERT_TRUE(shard.accumulate(1, std::vector<float>{1.0f, 2.0f, 3.0f}));
    auto snap = shard.serverSnapshot();
    for (const std::int64_t bad :
         {fixed::kPendingLimit, -fixed::kPendingLimit}) {
        snap.pending[2][1][0] = bad;
        ServerShard other(kWorkers, {2, 3});
        EXPECT_THROW(other.restore(shard.versionSnapshot(), snap,
                                   shard.trackerSnapshot()),
                     std::runtime_error);
    }

    // A restored value just inside the limit still counts against it.
    snap.pending[2][1][0] = fixed::kPendingLimit - 1;
    ServerShard restored(kWorkers, {2, 3});
    restored.restore(shard.versionSnapshot(), snap,
                     shard.trackerSnapshot());
    EXPECT_FALSE(restored.accumulate(1, std::vector<float>{1.0f, 0, 0}));
    EXPECT_TRUE(restored.accumulate(1, std::vector<float>{-1.0f, 0, 0}));

    SmallModel m;
    ServerState state(kWorkers, m.partition);
    auto ssnap = state.snapshot();
    ssnap.pending[1][0][0] = fixed::kPendingLimit;
    ssnap.has_pending[1][0] = 1;
    EXPECT_THROW(state.restore(ssnap), std::runtime_error);
    ssnap.pending[1][0][0] = fixed::kPendingLimit - 1;
    state.restore(ssnap);
    EXPECT_TRUE(state.hasPending(1, 0));
    std::vector<float> g(m.partition.unit(0).width, 0.0f);
    g[0] = 1.0f;
    EXPECT_FALSE(state.accumulate(0, g));
    g[0] = -1.0f;
    EXPECT_TRUE(state.accumulate(0, g));
}

TEST(FixedPointServer, ShardRestoreReproducesExactState)
{
    constexpr std::size_t kWorkers = 5;
    const std::vector<std::size_t> widths = {7, 3, 9};
    ServerShard a(kWorkers, widths);
    Rng rng(0x5E5);
    const auto churn = [&rng, &widths](ServerShard &x, ServerShard *y,
                                       int ops) {
        for (int op = 0; op < ops; ++op) {
            const std::size_t u = rng.uniformInt(widths.size());
            const std::size_t w = rng.uniformInt(kWorkers);
            if (rng.uniformInt(2) == 0) {
                const auto g = randomGradient(rng, widths[u], 2.0);
                ASSERT_TRUE(x.accumulate(u, g));
                if (y) {
                    ASSERT_TRUE(y->accumulate(u, g));
                }
            } else {
                x.clearPending(w, u);
                if (y)
                    y->clearPending(w, u);
            }
        }
    };
    churn(a, nullptr, 500);

    ServerShard b(kWorkers, widths);
    b.restore(a.versionSnapshot(), a.serverSnapshot(),
              a.trackerSnapshot());
    const auto same = [&](ServerShard &x, ServerShard &y) {
        for (std::size_t w = 0; w < kWorkers; ++w)
            for (std::size_t u = 0; u < widths.size(); ++u) {
                ASSERT_EQ(x.hasPending(w, u), y.hasPending(w, u));
                ASSERT_EQ(x.pendingMeanAbs(w, u), y.pendingMeanAbs(w, u));
                const auto px = x.pending(w, u);
                const std::vector<float> keep(px.begin(), px.end());
                const auto py = y.pending(w, u);
                for (std::size_t j = 0; j < keep.size(); ++j)
                    ASSERT_EQ(keep[j], py[j]);
            }
    };
    same(a, b);
    churn(a, &b, 500); // the restored shard keeps tracking exactly.
    same(a, b);
}

} // namespace
} // namespace core
} // namespace rog
