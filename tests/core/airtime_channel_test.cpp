/**
 * @file
 * The virtual-airtime channel (core/airtime_channel) against the O(n)
 * fluid formulation it replaced in the fleet DES: remaining bytes per
 * transfer, drained at rate / n on every event, next completion found
 * by a scan. The oracle below is that code, kept verbatim in spirit.
 * Random schedules must produce the same completion order and finish
 * times within 1e-9 relative.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/airtime_channel.hpp"

namespace rog {
namespace core {
namespace {

/** The fleet's original airtime-fair channel: O(active) per event. */
class FluidChannelRef
{
  public:
    std::uint64_t
    start(double now, double bytes, double rate)
    {
        advance(now);
        Transfer tr;
        tr.seq = next_seq_++;
        tr.remaining = bytes;
        tr.rate = rate;
        active_.push_back(tr);
        return tr.seq;
    }

    bool empty() const { return active_.empty(); }

    /** (finish time, seq) of the transfer that completes next. */
    std::pair<double, std::uint64_t>
    next() const
    {
        double best_dt = 0.0;
        std::uint64_t best_seq = 0;
        for (const Transfer &tr : active_) {
            const double rem = tr.remaining > 0.0 ? tr.remaining : 0.0;
            const double dt = rem / shareRate(tr);
            if (best_seq == 0 || dt < best_dt ||
                (dt == best_dt && tr.seq < best_seq)) {
                best_dt = dt;
                best_seq = tr.seq;
            }
        }
        return {last_ + best_dt, best_seq};
    }

    void
    finish(double now, std::uint64_t seq)
    {
        advance(now);
        for (std::size_t i = 0; i < active_.size(); ++i)
            if (active_[i].seq == seq) {
                active_[i] = active_.back();
                active_.pop_back();
                return;
            }
        FAIL() << "finished an unknown transfer " << seq;
    }

  private:
    struct Transfer
    {
        std::uint64_t seq = 0;
        double remaining = 0.0;
        double rate = 0.0;
    };

    double
    shareRate(const Transfer &t) const
    {
        return t.rate / static_cast<double>(active_.size());
    }

    void
    advance(double t)
    {
        const double dt = t - last_;
        for (Transfer &tr : active_)
            tr.remaining -= dt * shareRate(tr);
        last_ = t;
    }

    std::vector<Transfer> active_;
    std::uint64_t next_seq_ = 1;
    double last_ = 0.0;
};

TEST(AirtimeChannel, SingleTransferRunsAtFullLinkRate)
{
    AirtimeChannel ch;
    ch.start(2.0, 1000.0, 500.0, 7);
    EXPECT_DOUBLE_EQ(ch.nextFinish(), 4.0);
    const auto done = ch.finish(4.0);
    EXPECT_EQ(done.seq, 1u);
    EXPECT_EQ(done.tag, 7u);
    EXPECT_TRUE(ch.empty());
}

TEST(AirtimeChannel, ConcurrentTransfersSplitAirtime)
{
    // Two transfers of 1 s airtime each, started together: each gets
    // half the air, so both finish at t = 2, in start order.
    AirtimeChannel ch;
    ch.start(0.0, 100.0, 100.0, 1);
    ch.start(0.0, 300.0, 300.0, 2);
    EXPECT_DOUBLE_EQ(ch.nextFinish(), 2.0);
    EXPECT_EQ(ch.finish(2.0).tag, 1u);
    EXPECT_DOUBLE_EQ(ch.nextFinish(), 2.0);
    EXPECT_EQ(ch.finish(2.0).tag, 2u);
}

TEST(AirtimeChannel, LateStarterSlowsTheIncumbent)
{
    // A: 2 s of airtime from t = 0. B: 1 s from t = 1. A has 1 s left
    // at t = 1; both then drain at half speed: each finishes at t = 3,
    // A first by start order.
    AirtimeChannel ch;
    ch.start(0.0, 200.0, 100.0, 0);
    ch.start(1.0, 50.0, 50.0, 1);
    EXPECT_NEAR(ch.nextFinish(), 3.0, 1e-12);
    EXPECT_EQ(ch.finish(3.0).tag, 0u);
    EXPECT_NEAR(ch.nextFinish(), 3.0, 1e-12);
    EXPECT_EQ(ch.finish(3.0).tag, 1u);
}

TEST(AirtimeChannel, EmptyTransferFinishesAtOnce)
{
    AirtimeChannel ch;
    ch.start(0.0, 1e6, 1e3, 0);
    ch.start(5.0, 0.0, 1e3, 1);
    EXPECT_DOUBLE_EQ(ch.nextFinish(), 5.0);
    EXPECT_EQ(ch.finish(5.0).tag, 1u);
}

/**
 * Drive both channels through one random timeline — starts at random
 * times with fleet-like link rates and sizes, bursts of concurrency,
 * and idle gaps — and compare every completion.
 */
void
fuzzAgainstOracle(std::uint64_t seed, std::size_t events,
                  double &worst_rel)
{
    Rng rng(seed);
    AirtimeChannel heap;
    FluidChannelRef ref;
    double now = 0.0;
    double next_start = 0.0;
    std::size_t started = 0;
    std::size_t finished = 0;
    while (finished < events) {
        const bool can_start = started < events;
        if (!heap.empty()) {
            const double t = heap.nextFinish();
            if (!can_start || t <= next_start) {
                const auto want = ref.next();
                const double scale = std::max(1.0, std::fabs(want.first));
                const double rel = std::fabs(t - want.first) / scale;
                worst_rel = std::max(worst_rel, rel);
                ASSERT_LE(rel, 1e-9)
                    << "seed " << seed << " completion " << finished;
                const auto done = heap.finish(t);
                ASSERT_EQ(done.seq, want.second)
                    << "seed " << seed << " completion " << finished;
                ASSERT_EQ(done.tag, done.seq);
                ref.finish(t, want.second);
                now = t;
                ++finished;
                continue;
            }
        }
        ASSERT_TRUE(can_start);
        now = std::max(now, next_start);
        const double rate = 2e6 * (1.0 + 0.9 * rng.uniform(-1.0, 1.0));
        const double bytes = 16.0 + std::floor(rng.uniform(0.0, 8e4));
        const std::uint64_t seq = ref.start(now, bytes, rate);
        ASSERT_EQ(heap.start(now, bytes, rate, seq), seq);
        ++started;
        // Mostly bursts (same instant or microseconds apart), with
        // occasional gaps long enough to drain the channel.
        const double u = rng.uniform();
        next_start = now + (u < 0.4   ? 0.0
                            : u < 0.9 ? rng.uniform(0.0, 2e-3)
                                      : rng.uniform(0.0, 0.5));
    }
    EXPECT_TRUE(heap.empty());
    EXPECT_TRUE(ref.empty());
}

TEST(AirtimeChannel, MatchesFluidOracleOnRandomSchedules)
{
    double worst_rel = 0.0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        fuzzAgainstOracle(seed, 400, worst_rel);
        if (HasFatalFailure())
            return;
    }
    RecordProperty("worst_relative_time_error",
                   std::to_string(worst_rel));
}

} // namespace
} // namespace core
} // namespace rog
