/**
 * @file
 * Bitwise determinism of the parallel fleet DES (ISSUE 10 satellite,
 * mirroring thread_pool_test's contract for tensor ops): the same
 * FleetConfig must produce byte-identical results — final replica
 * bytes, event logs, simulated clock — for every thread count driving
 * the shard lanes, and for both event-queue implementations (heap
 * core vs std::map oracle).
 */
#include <sys/stat.h>

#include <gtest/gtest.h>

#include "core/fleet.hpp"
#include "core/server_checkpoint.hpp"
#include "parallel/thread_pool.hpp"

namespace rog {
namespace core {
namespace {

FleetConfig
fleetConfig64()
{
    FleetConfig cfg;
    cfg.workers = 64;
    cfg.rows = 96;
    cfg.row_width = 24;
    cfg.shards = 4;
    cfg.iterations = 10;
    cfg.staleness_threshold = 4;
    cfg.atp = true;
    cfg.seed = 2026;
    return cfg;
}

void
expectBitIdentical(const FleetResult &a, const FleetResult &b)
{
    EXPECT_EQ(a.state_digest, b.state_digest);
    EXPECT_EQ(a.events_processed, b.events_processed);
    EXPECT_EQ(a.iterations_completed, b.iterations_completed);
    // Exact float comparison on purpose: the determinism contract is
    // bitwise, not approximate.
    EXPECT_EQ(a.sim_seconds, b.sim_seconds);
    EXPECT_EQ(a.total_bytes, b.total_bytes);
    EXPECT_EQ(a.final_metric, b.final_metric);
}

TEST(FleetDeterminismTest, BitwiseIdenticalAcrossThreadCounts)
{
    const FleetConfig cfg = fleetConfig64();

    parallel::ThreadPool p1(1);
    const FleetResult base = runFleetSimulation(cfg, p1);
    EXPECT_EQ(base.workers, 64u);
    EXPECT_EQ(base.shards, 4u);
    EXPECT_EQ(base.iterations_completed, 64u * 10u);
    EXPECT_GT(base.events_processed, 0u);
    EXPECT_GT(base.sim_seconds, 0.0);

    for (std::size_t threads : {2u, 4u, 8u}) {
        parallel::ThreadPool pool(threads);
        const FleetResult r = runFleetSimulation(cfg, pool);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectBitIdentical(base, r);
    }
}

TEST(FleetDeterminismTest, WorkCountsMatchPerCopyFluidReference)
{
    // Recorded from the implementation the fleet had before its O(W)
    // paths were removed: float per-copy outbox, O(n) fluid channel
    // scan, O(W) gate scan. Events and wire bytes are deterministic
    // work counts and must not move; the clock and the metric may
    // differ only by rounding (virtual-airtime clock, Q32.32 sums).
    parallel::ThreadPool pool(2);
    const FleetResult r = runFleetSimulation(fleetConfig64(), pool);
    EXPECT_EQ(r.events_processed, 82921u);
    EXPECT_EQ(r.total_bytes, 7100672.0);
    EXPECT_NEAR(r.sim_seconds, 3.9365555437587898,
                1e-9 * 3.9365555437587898);
    EXPECT_NEAR(r.final_metric, 0.24421812200844906,
                1e-6 * 0.24421812200844906);
}

TEST(FleetDeterminismTest, HeapAndMapQueuesProduceIdenticalRuns)
{
    FleetConfig cfg = fleetConfig64();
    cfg.workers = 16;
    cfg.iterations = 6;

    parallel::ThreadPool pool(2);
    const FleetResult heap = runFleetSimulation(cfg, pool);
    cfg.use_map_queue = true;
    const FleetResult map = runFleetSimulation(cfg, pool);
    expectBitIdentical(heap, map);
}

TEST(FleetDeterminismTest, RepeatRunsAreReproducible)
{
    FleetConfig cfg = fleetConfig64();
    cfg.workers = 8;
    cfg.iterations = 5;

    parallel::ThreadPool pool(4);
    const FleetResult a = runFleetSimulation(cfg, pool);
    const FleetResult b = runFleetSimulation(cfg, pool);
    expectBitIdentical(a, b);
}

TEST(FleetDeterminismTest, BspLockstepConvergesTighterThanRog)
{
    FleetConfig cfg = fleetConfig64();
    cfg.workers = 8;
    cfg.iterations = 12;

    parallel::ThreadPool pool(2);
    const FleetResult rog = runFleetSimulation(cfg, pool);

    FleetConfig bsp = cfg;
    bsp.staleness_threshold = 1; // lockstep
    bsp.atp = false;             // full pushes
    const FleetResult bsp_r = runFleetSimulation(bsp, pool);

    // BSP ships every row every iteration, so per-iteration progress
    // dominates ROG's partial pushes...
    EXPECT_LT(bsp_r.final_metric, rog.final_metric);
    // ...but pays for it on the wire: strictly more bytes moved.
    EXPECT_GT(bsp_r.total_bytes, rog.total_bytes);
}

TEST(FleetDeterminismTest, WritesOneCheckpointFilePerShard)
{
    FleetConfig cfg = fleetConfig64();
    cfg.workers = 4;
    cfg.iterations = 6;
    cfg.shards = 3;
    cfg.checkpoint_every = 3;
    cfg.checkpoint_dir = testing::TempDir() + "rog_fleet_ckpt";
    ::mkdir(cfg.checkpoint_dir.c_str(), 0755);

    parallel::ThreadPool pool(2);
    const FleetResult r = runFleetSimulation(cfg, pool);
    // Worker 0 checkpoints at iterations 3 and 6: shards x 2 files.
    EXPECT_EQ(r.checkpoint_files_written, 3u * 2u);

    for (std::size_t s = 0; s < 3; ++s) {
        std::string path = cfg.checkpoint_dir + "/fleet.rogs";
        if (s != 0)
            path += ".shard" + std::to_string(s);
        const ServerCheckpoint ckpt = readServerCheckpointFile(path);
        EXPECT_EQ(ckpt.iteration, 6);
        EXPECT_EQ(ckpt.versions.versions.size(), cfg.workers);
    }
}

} // namespace
} // namespace core
} // namespace rog
