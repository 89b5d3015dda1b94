/**
 * @file
 * Sharded parameter server equivalence: the ShardedServer facade must
 * be observably — and for full engine runs bit-for-bit — identical to
 * the unsharded server for every shard count. Sharding only changes
 * the storage layout (ROADMAP item 1 / DESIGN.md Sec. 17); the
 * training computation must not notice.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/row_partition.hpp"
#include "core/server_shard.hpp"
#include "core/workloads.hpp"
#include "net/trace_generator.hpp"
#include "oracles/server_state.hpp"
#include "oracles/version_storage.hpp"

namespace rog {
namespace core {
namespace {

CrudaWorkloadConfig
tinyCruda(std::size_t workers)
{
    CrudaWorkloadConfig cfg;
    cfg.data.train_samples = 800;
    cfg.data.test_samples = 200;
    cfg.model.hidden = {16, 12};
    cfg.workers = workers;
    cfg.pretrain_iters = 40;
    cfg.eval_subset = 200;
    cfg.batch_size = 8;
    cfg.opt.learning_rate = 0.01f;
    return cfg;
}

NetworkSetup
unstableNetwork(std::size_t workers, double mean = 20e3)
{
    NetworkSetup net;
    const auto model = net::TraceModel::outdoor(mean);
    for (std::size_t i = 0; i < workers; ++i)
        net.link_traces.push_back(
            net::generateTrace(model, 120.0, 17 + i * 1000));
    return net;
}

/**
 * Differential driver: one legacy trio (VersionStorage + ServerState
 * + MtaTimeTracker) against a ShardedServer with @p shards, fed the
 * same random operation trace; every observable value must match
 * bit-for-bit (float equality, not tolerance).
 */
void
runDifferentialTrace(std::size_t shards, std::uint32_t seed)
{
    // A real partition from a real flat model, so unit widths are the
    // uneven ones the engine sees.
    CrudaWorkloadConfig wcfg = tinyCruda(3);
    CrudaWorkload workload(wcfg);
    auto model = workload.buildReplica();
    FlatModel flat(*model);
    RowPartition partition(flat, Granularity::Row);

    const std::size_t workers = 3;
    const std::size_t units = partition.unitCount();
    ASSERT_GT(units, shards);

    VersionStorage versions(workers, units);
    ServerState server(workers, partition);
    MtaTimeTracker tracker(workers);
    ShardedServer sharded(workers, partition, shards);
    ASSERT_EQ(sharded.shardCount(), shards);

    Rng rng(seed);
    std::vector<float> grad;
    for (int op = 0; op < 4000; ++op) {
        const std::size_t w = rng.uniformInt(workers);
        const std::size_t u = rng.uniformInt(units);
        switch (rng.uniformInt(8)) {
        case 0: { // push: accumulate + version bump
            grad.resize(partition.unit(u).width);
            for (auto &g : grad)
                g = static_cast<float>(rng.uniform(-1.0, 1.0));
            server.accumulate(u, grad);
            sharded.accumulate(u, grad);
            const std::int64_t iter = versions.get(w, u) + 1;
            versions.update(w, u, iter);
            sharded.updateVersion(w, u, iter);
            server.noteUpdate(u, iter);
            sharded.noteUpdate(u, iter);
            break;
        }
        case 1: // pull: read + clear one copy
            ASSERT_EQ(server.hasPending(w, u),
                      sharded.hasPending(w, u));
            if (server.hasPending(w, u)) {
                auto a = server.pending(w, u);
                auto b = sharded.pending(w, u);
                ASSERT_EQ(a.size(), b.size());
                for (std::size_t j = 0; j < a.size(); ++j)
                    ASSERT_EQ(a[j], b[j]) << "row " << u;
                server.clearPending(w, u);
                sharded.clearPending(w, u);
            }
            break;
        case 2:
            ASSERT_DOUBLE_EQ(server.pendingMeanAbs(w, u),
                             sharded.pendingMeanAbs(w, u));
            break;
        case 3:
            ASSERT_EQ(server.lastUpdate(u), sharded.lastUpdate(u));
            ASSERT_EQ(versions.get(w, u), sharded.version(w, u));
            break;
        case 4: { // MTA report (replicated into every shard tracker)
            const double bytes = rng.uniform(1e3, 1e6);
            const double secs = rng.uniform(0.01, 2.0);
            const double mta = rng.uniform(1e3, 1e5);
            tracker.report(w, bytes, secs, mta);
            sharded.report(w, bytes, secs, mta);
            ASSERT_EQ(tracker.mtaTime(), sharded.mtaTime());
            ASSERT_EQ(tracker.estimateFor(w), sharded.estimateFor(w));
            break;
        }
        case 5:
            if (!versions.retired(w)) {
                versions.retireWorker(w);
                sharded.retireWorker(w);
            }
            break;
        case 6:
            if (versions.retired(w)) {
                const std::int64_t at = versions.maxVersionOfWorker(w);
                versions.rejoinWorker(w, at);
                sharded.rejoinWorker(w, at);
                server.clearWorker(w);
                sharded.clearWorker(w);
            }
            break;
        default:
            ASSERT_EQ(versions.retired(w), sharded.retired(w));
            ASSERT_EQ(versions.maxVersionOfWorker(w),
                      sharded.maxVersionOfWorker(w));
            break;
        }
    }

    // Full sweep at the end: every cell identical.
    for (std::size_t w = 0; w < workers; ++w) {
        for (std::size_t u = 0; u < units; ++u) {
            ASSERT_EQ(versions.get(w, u), sharded.version(w, u));
            ASSERT_EQ(server.hasPending(w, u), sharded.hasPending(w, u));
            auto a = server.pending(w, u);
            auto b = sharded.pending(w, u);
            for (std::size_t j = 0; j < a.size(); ++j)
                ASSERT_EQ(a[j], b[j]);
        }
    }
}

TEST(ShardedServerTest, TwoShardsMatchLegacyTrio)
{
    runDifferentialTrace(2, 0xA11CEu);
}

TEST(ShardedServerTest, FourShardsMatchLegacyTrio)
{
    runDifferentialTrace(4, 0xB0B0u);
}

TEST(ShardedServerTest, SingleShardMatchesLegacyTrio)
{
    runDifferentialTrace(1, 0xCAFEu);
}

TEST(ShardedServerTest, ShardCountClampsToUnitCount)
{
    CrudaWorkload workload(tinyCruda(2));
    auto model = workload.buildReplica();
    FlatModel flat(*model);
    RowPartition partition(flat, Granularity::Row);
    ShardedServer s(2, partition, 100000);
    EXPECT_EQ(s.shardCount(), partition.unitCount());
    ShardedServer s0(2, partition, 0);
    EXPECT_EQ(s0.shardCount(), 1u);
}

TEST(ShardedServerTest, ShardRangesAreContiguousAndCoverEveryUnit)
{
    CrudaWorkload workload(tinyCruda(2));
    auto model = workload.buildReplica();
    FlatModel flat(*model);
    RowPartition partition(flat, Granularity::Row);
    ShardedServer s(2, partition, 4);
    std::size_t last = 0;
    for (std::size_t u = 0; u < s.units(); ++u) {
        const std::size_t sh = s.shardOf(u);
        EXPECT_GE(sh, last) << "unit " << u;
        EXPECT_LE(sh, last + 1) << "unit " << u;
        last = sh;
    }
    EXPECT_EQ(last, s.shardCount() - 1);
}

/**
 * The RSP floor: min over live workers of their last pushed
 * iteration, for every shard count. While a worker lives it matches
 * the VersionStorage oracle. Once all have retired the oracle falls
 * back to a min(V) cache its old user never filled (it reads 0), so
 * that case is checked against its own definition instead: the
 * slowest worker's last iteration.
 */
TEST(ShardedServerTest, MinWorkerIterationIsTheRspFloor)
{
    CrudaWorkload workload(tinyCruda(3));
    auto model = workload.buildReplica();
    FlatModel flat(*model);
    RowPartition partition(flat, Granularity::Row);
    const std::size_t units = partition.unitCount();
    for (std::size_t shards : {1u, 2u, 4u}) {
        VersionStorage oracle(3, units);
        ShardedServer s(3, partition, shards);
        EXPECT_EQ(s.minWorkerIteration(), 0);
        // Worker w pushes unit (w * 7) % units at iteration 4 + 3w.
        for (std::size_t w = 0; w < 3; ++w) {
            const std::size_t u = (w * 7) % units;
            const auto iter = static_cast<std::int64_t>(4 + 3 * w);
            oracle.update(w, u, iter);
            s.updateVersion(w, u, iter);
        }
        EXPECT_EQ(s.minWorkerIteration(), oracle.minWorkerIteration());
        EXPECT_EQ(s.minWorkerIteration(), 4);
        oracle.retireWorker(0);
        s.retireWorker(0);
        EXPECT_EQ(s.minWorkerIteration(), oracle.minWorkerIteration());
        EXPECT_EQ(s.minWorkerIteration(), 7);
        oracle.retireWorker(2);
        s.retireWorker(2);
        EXPECT_EQ(s.minWorkerIteration(), oracle.minWorkerIteration());
        EXPECT_EQ(s.minWorkerIteration(), 7);
        s.retireWorker(1);
        EXPECT_EQ(s.minWorkerIteration(), 4) << "shards=" << shards;
        s.rejoinWorker(0, 9);
        EXPECT_EQ(s.minWorkerIteration(), 9) << "shards=" << shards;
    }
}

/**
 * The acceptance bar: a full ROG engine run with a sharded server is
 * row-for-row identical to the single-shard run — same final model
 * bytes, same per-iteration records, same simulated clock.
 */
TEST(ShardedServerTest, EngineRunBitIdenticalAcrossShardCounts)
{
    RunResult base;
    {
        CrudaWorkload workload(tinyCruda(3));
        EngineConfig cfg;
        cfg.system = SystemConfig::rog(4);
        cfg.iterations = 15;
        cfg.eval_every = 5;
        cfg.capture_final_model = true;
        cfg.server_shards = 1;
        base = runDistributedTraining(workload, cfg,
                                      unstableNetwork(3));
    }
    for (std::size_t shards : {2u, 4u}) {
        CrudaWorkload workload(tinyCruda(3));
        EngineConfig cfg;
        cfg.system = SystemConfig::rog(4);
        cfg.iterations = 15;
        cfg.eval_every = 5;
        cfg.capture_final_model = true;
        cfg.server_shards = shards;
        const auto res = runDistributedTraining(workload, cfg,
                                                unstableNetwork(3));
        EXPECT_EQ(res.server_shards, shards);
        ASSERT_EQ(res.final_model_bytes, base.final_model_bytes)
            << "shards=" << shards;
        ASSERT_EQ(res.iterations.size(), base.iterations.size());
        for (std::size_t i = 0; i < res.iterations.size(); ++i) {
            EXPECT_EQ(res.iterations[i].worker,
                      base.iterations[i].worker);
            EXPECT_DOUBLE_EQ(res.iterations[i].comm_s,
                             base.iterations[i].comm_s);
            EXPECT_DOUBLE_EQ(res.iterations[i].stall_s,
                             base.iterations[i].stall_s);
            EXPECT_DOUBLE_EQ(res.iterations[i].end_time_s,
                             base.iterations[i].end_time_s);
        }
        EXPECT_DOUBLE_EQ(res.sim_seconds, base.sim_seconds);
    }
}

} // namespace
} // namespace core
} // namespace rog
