/**
 * @file
 * Unit tests for RSP version storage.
 */
#include <gtest/gtest.h>

#include "oracles/version_storage.hpp"

namespace rog {
namespace core {
namespace {

TEST(VersionStorageTest, StartsAtZero)
{
    VersionStorage v(3, 5);
    EXPECT_EQ(v.workers(), 3u);
    EXPECT_EQ(v.units(), 5u);
    EXPECT_EQ(v.minVersion(), 0);
    EXPECT_EQ(v.get(2, 4), 0);
}

TEST(VersionStorageTest, UpdateAndGet)
{
    VersionStorage v(2, 3);
    v.update(1, 2, 7);
    EXPECT_EQ(v.get(1, 2), 7);
    EXPECT_EQ(v.get(0, 2), 0);
}

TEST(VersionStorageTest, MinVersionTracksGlobalMin)
{
    VersionStorage v(2, 2);
    v.update(0, 0, 5);
    v.update(0, 1, 5);
    v.update(1, 0, 3);
    EXPECT_EQ(v.minVersion(), 0); // (1, 1) still 0.
    v.update(1, 1, 2);
    EXPECT_EQ(v.minVersion(), 2);
}

TEST(VersionStorageTest, MinAcrossWorkersIsPerUnit)
{
    VersionStorage v(3, 2);
    v.update(0, 0, 10);
    v.update(1, 0, 4);
    v.update(2, 0, 8);
    v.update(0, 1, 1);
    v.update(1, 1, 9);
    v.update(2, 1, 9);
    EXPECT_EQ(v.minAcrossWorkers(0), 4);
    EXPECT_EQ(v.minAcrossWorkers(1), 1);
}

TEST(VersionStorageTest, RetiredWorkerExcludedFromMins)
{
    VersionStorage v(2, 2);
    v.update(0, 0, 10);
    v.update(0, 1, 10);
    // Worker 1 never pushed; retiring it must unblock the mins.
    EXPECT_EQ(v.minVersion(), 0);
    v.retireWorker(1);
    EXPECT_TRUE(v.retired(1));
    EXPECT_FALSE(v.retired(0));
    EXPECT_EQ(v.minVersion(), 10);
    EXPECT_EQ(v.minAcrossWorkers(0), 10);
}

TEST(VersionStorageTest, PerWorkerExtremes)
{
    VersionStorage v(2, 3);
    v.update(0, 0, 4);
    v.update(0, 1, 9);
    EXPECT_EQ(v.minVersionOfWorker(0), 0); // unit 2 untouched.
    EXPECT_EQ(v.maxVersionOfWorker(0), 9);
}

TEST(VersionStorageTest, MinWorkerIterationTracksSlowestWorker)
{
    VersionStorage v(3, 2);
    v.update(0, 0, 10);
    v.update(1, 0, 6);
    v.update(2, 1, 8);
    // Last pushed iterations: 10, 6, 8 -> min is 6.
    EXPECT_EQ(v.minWorkerIteration(), 6);
    v.retireWorker(1);
    EXPECT_EQ(v.minWorkerIteration(), 8);
}

TEST(VersionStorageTest, VersionsMustBeMonotone)
{
    VersionStorage v(1, 1);
    v.update(0, 0, 5);
    EXPECT_DEATH(v.update(0, 0, 3), "monotone");
}

TEST(VersionStorageTest, MinVersionCacheInvalidatedByUpdates)
{
    VersionStorage v(1, 2);
    EXPECT_EQ(v.minVersion(), 0);
    v.update(0, 0, 3);
    v.update(0, 1, 4);
    EXPECT_EQ(v.minVersion(), 3);
    v.update(0, 0, 8);
    EXPECT_EQ(v.minVersion(), 4);
}

TEST(VersionStorageTest, OutOfRangeDies)
{
    VersionStorage v(2, 2);
    EXPECT_DEATH(v.get(2, 0), "range");
    EXPECT_DEATH(v.update(0, 5, 1), "range");
}

} // namespace
} // namespace core
} // namespace rog
