/**
 * @file
 * Unit tests for the MTA solver — must reproduce the paper's Table I —
 * and for ATP's MTA-time tracker.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "core/mta.hpp"

namespace rog {
namespace core {
namespace {

/** Table I of the paper: threshold -> MTA (2 decimal places). */
struct TableIRow
{
    std::size_t threshold;
    double mta;
};

class TableI : public ::testing::TestWithParam<TableIRow>
{
};

TEST_P(TableI, MatchesPaperValue)
{
    const auto row = GetParam();
    EXPECT_NEAR(mtaFraction(row.threshold), row.mta, 0.005)
        << "threshold " << row.threshold;
}

INSTANTIATE_TEST_SUITE_P(
    PaperValues, TableI,
    ::testing::Values(TableIRow{2, 0.50}, TableIRow{3, 0.38},
                      TableIRow{4, 0.32}, TableIRow{5, 0.28},
                      TableIRow{6, 0.25}, TableIRow{7, 0.22},
                      TableIRow{8, 0.20}));

TEST(MtaTest, ThresholdOneSendsEverything)
{
    EXPECT_DOUBLE_EQ(mtaFraction(0), 1.0);
    EXPECT_DOUBLE_EQ(mtaFraction(1), 1.0);
}

TEST(MtaTest, SolutionSatisfiesDefiningEquation)
{
    for (std::size_t s : {2u, 3u, 5u, 10u, 20u, 40u}) {
        const double p = mtaFraction(s);
        EXPECT_NEAR(std::pow(1.0 - p, static_cast<double>(s - 1)), p,
                    1e-9)
            << s;
    }
}

TEST(MtaTest, FractionDecreasesWithThreshold)
{
    double prev = 1.0;
    for (std::size_t s = 2; s <= 40; ++s) {
        const double p = mtaFraction(s);
        EXPECT_LT(p, prev) << s;
        EXPECT_GT(p, 0.0) << s;
        prev = p;
    }
}

TEST(MtaTest, UnitsRoundUpAndClamp)
{
    // threshold 2 -> 50% of 10 units = 5.
    EXPECT_EQ(mtaUnits(2, 10), 5u);
    // threshold 4 -> 0.3177 * 10 = 3.177 -> ceil 4.
    EXPECT_EQ(mtaUnits(4, 10), 4u);
    // Always at least one unit.
    EXPECT_EQ(mtaUnits(40, 1), 1u);
    // Never more than the total.
    EXPECT_EQ(mtaUnits(1, 7), 7u);
}

TEST(MtaTest, GuaranteeProperty)
{
    // If every push ships the MTA fraction of the *oldest* rows, then
    // after S-1 pushes fewer than an MTA's worth remain — so nothing
    // can exceed staleness S. Simulate the rotation.
    for (std::size_t s : {2u, 4u, 8u}) {
        const std::size_t total = 1000;
        const std::size_t mta = mtaUnits(s, total);
        std::vector<std::size_t> age(total, 0);
        for (int step = 0; step < 200; ++step) {
            // Push the `mta` oldest rows.
            std::vector<std::size_t> order(total);
            for (std::size_t i = 0; i < total; ++i)
                order[i] = i;
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          return age[a] > age[b];
                      });
            for (std::size_t i = 0; i < total; ++i) {
                if (i < mta)
                    age[order[i]] = 0;
                else
                    ++age[order[i]];
            }
            for (std::size_t a : age)
                EXPECT_LT(a, s) << "threshold " << s;
        }
    }
}

TEST(MtaTimeTrackerTest, UnseededIsInfinite)
{
    MtaTimeTracker tracker(3);
    EXPECT_TRUE(std::isinf(tracker.mtaTime()));
}

TEST(MtaTimeTrackerTest, RemainsInfiniteUntilAllReport)
{
    MtaTimeTracker tracker(2);
    tracker.report(0, 1000.0, 1.0, 500.0);
    EXPECT_TRUE(std::isinf(tracker.mtaTime()));
    tracker.report(1, 1000.0, 1.0, 500.0);
    EXPECT_FALSE(std::isinf(tracker.mtaTime()));
}

TEST(MtaTimeTrackerTest, TakesMaxOverWorkers)
{
    MtaTimeTracker tracker(2);
    // Worker 0: 1000 B/s, MTA 500 B -> 0.5 s.
    tracker.report(0, 1000.0, 1.0, 500.0);
    // Worker 1: 100 B/s, MTA 500 B -> 5 s (the straggler).
    tracker.report(1, 100.0, 1.0, 500.0);
    EXPECT_NEAR(tracker.mtaTime(), 5.0, 1e-9);
    EXPECT_NEAR(tracker.estimateFor(0), 0.5, 1e-9);
}

TEST(MtaTimeTrackerTest, ClampsToBounds)
{
    MtaTimeTracker tracker(1, 0.35, 0.05, 30.0);
    tracker.report(0, 1.0, 1.0, 1e9); // absurdly slow.
    EXPECT_DOUBLE_EQ(tracker.mtaTime(), 30.0);
    MtaTimeTracker fast(1, 0.35, 0.05, 30.0);
    fast.report(0, 1e9, 1.0, 1.0); // absurdly fast.
    EXPECT_DOUBLE_EQ(fast.mtaTime(), 0.05);
}

TEST(MtaTimeTrackerTest, EwmaSmoothsRate)
{
    MtaTimeTracker tracker(1, 0.5, 1e-6, 1e6);
    tracker.report(0, 100.0, 1.0, 100.0); // 100 B/s -> 1 s.
    tracker.report(0, 300.0, 1.0, 100.0); // rate ewma = 200 -> 0.5 s.
    EXPECT_NEAR(tracker.estimateFor(0), 0.5, 1e-9);
}

} // namespace
} // namespace core
} // namespace rog
