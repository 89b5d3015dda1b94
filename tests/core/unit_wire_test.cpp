/**
 * @file
 * Wire bytes equal DES accounting, as a checked invariant: for every
 * unit of the node workload, at every granularity and with every
 * codec, the encoded push payload is exactly the sum of the codec's
 * payloadBytes over the unit's row chunks — what the coroutine engine
 * charges for the unit minus its index overhead. And push semantics
 * on the DES fabric: the server's per-push decoded values equal, bit
 * for bit, the worker's reconstruction, which is itself the engine's
 * row-keyed transcode of the gradient.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/node_engine.hpp"
#include "core/node_runner.hpp"
#include "core/unit_wire.hpp"
#include "net/session/des_fabric.hpp"
#include "sim/simulation.hpp"

namespace rog {
namespace core {
namespace {

const char *const kCodecs[] = {"identity", "onebit", "topk"};

bool
bitwiseEqual(std::span<const float> a, std::span<const float> b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
                0);
}

TEST(UnitWire, PushPayloadEqualsDesAccountingForEveryUnit)
{
    NodeRunConfig cfg;
    std::unique_ptr<Workload> workload = makeNodeWorkload(cfg);
    std::unique_ptr<nn::Model> model = workload->buildReplica();
    const FlatModel flat(*model);
    Rng rng(17);
    for (const Granularity g :
         {Granularity::Element, Granularity::Row, Granularity::Layer,
          Granularity::WholeModel}) {
        const RowPartition partition(flat, g);
        for (const char *name : kCodecs) {
            auto codec = compress::makeCodec(name);
            double charged = 0.0; //!< what the engine charges.
            for (std::size_t u = 0; u < partition.unitCount(); ++u) {
                const Unit &unit = partition.unit(u);
                // The DES's sum, computed the way the engine once
                // computed it: payloadBytes per row chunk.
                double want = 0.0;
                flat.forEachRowChunk(
                    unit.begin, unit.width,
                    [&](std::size_t, std::size_t, std::size_t count,
                        std::size_t) {
                        want += codec->payloadBytes(count);
                    });
                std::vector<float> grad(unit.width);
                for (float &v : grad)
                    v = static_cast<float>(rng.gaussian(0.0, 1.0));
                std::vector<float> out(unit.width);
                std::vector<std::uint8_t> wire;
                const compress::Result r =
                    encodeUnit(*codec, flat, unit, grad, out, wire);
                ASSERT_TRUE(r.ok());
                EXPECT_EQ(static_cast<double>(wire.size()), want)
                    << name << " unit " << u;
                EXPECT_EQ(r.bytes_out, wire.size());
                EXPECT_EQ(r.bytes_in, 4 * unit.width);
                EXPECT_EQ(unitWireBytes(*codec, flat, unit), wire.size());

                std::vector<float> back(unit.width);
                ASSERT_TRUE(
                    decodeUnit(*codec, flat, unit, wire, back).ok());
                EXPECT_TRUE(bitwiseEqual(back, out))
                    << name << " unit " << u;
                charged += partition.perUnitOverheadBytes() + want;
            }
            EXPECT_EQ(modelWireBytes(*workload, g, name), charged)
                << name << ' ' << granularityName(g);
        }
    }
}

TEST(UnitWire, DecodeUnitRejectsWrongLength)
{
    NodeRunConfig cfg;
    std::unique_ptr<Workload> workload = makeNodeWorkload(cfg);
    std::unique_ptr<nn::Model> model = workload->buildReplica();
    const FlatModel flat(*model);
    const RowPartition partition(flat, Granularity::Layer);
    compress::OneBitCodec codec;
    const Unit &unit = partition.unit(0);
    std::vector<float> grad(unit.width, 0.5f);
    std::vector<float> out(unit.width);
    std::vector<std::uint8_t> wire;
    encodeUnit(codec, flat, unit, grad, out, wire);
    for (const std::size_t len : {wire.size() - 1, wire.size() + 1}) {
        std::vector<std::uint8_t> bad = wire;
        bad.resize(len);
        EXPECT_EQ(decodeUnit(codec, flat, unit, bad, out).error,
                  compress::kBadLength);
    }
}

TEST(UnitWire, ServerDecodesExactlyWhatWorkersReconstruct)
{
    sim::Simulation sim;
    net::session::DesFabricNet net(sim, 4.0e6,
                                   net::transport::TransportConfig{});
    NodeRunConfig cfg = chaosRunDefaults();
    cfg.workers = 2;
    NodeTrainConfig train = cfg.train;
    train.max_iters = 4;
    train.worker_state_dir.clear();
    train.checkpoint_path.clear();
    ASSERT_EQ(train.codec, "onebit");
    std::unique_ptr<Workload> workload = makeNodeWorkload(cfg);

    // The engine's transcode of each worker's gradient stream: one
    // mirror codec per worker, keyed by row over a replica's chunks.
    std::unique_ptr<nn::Model> replica = workload->buildReplica();
    const FlatModel flat(*replica);
    const RowPartition partition(flat, train.granularity);
    std::vector<std::unique_ptr<compress::Codec>> mirror;
    for (std::size_t w = 0; w < cfg.workers; ++w)
        mirror.push_back(compress::makeCodec(train.codec));

    using Key = std::tuple<std::size_t, std::int64_t, std::size_t>;
    std::map<Key, std::vector<float>> pushed;
    std::size_t mirror_mismatches = 0;
    std::size_t size_mismatches = 0;

    ServerNode server(net.node(net::session::kServerNode), *workload,
                      train);
    std::map<Key, std::vector<float>> applied;
    server.setApplyHook([&](const PushRecord &rec) {
        applied[{rec.worker, rec.iter, rec.unit}].assign(
            rec.values.begin(), rec.values.end());
        if (rec.wire_bytes !=
            unitWireBytes(*mirror[0], flat, partition.unit(rec.unit)))
            ++size_mismatches;
    });
    server.start();
    std::vector<std::unique_ptr<WorkerNode>> workers;
    for (std::size_t w = 0; w < cfg.workers; ++w) {
        workers.push_back(std::make_unique<WorkerNode>(
            net.node(net::session::workerNode(w)), *workload, train, w,
            WorkerResumeState{}));
        workers.back()->setPushHook([&](const PushRecord &rec) {
            const Unit &unit = partition.unit(rec.unit);
            std::vector<float> want(unit.width);
            flat.forEachRowChunk(
                unit.begin, unit.width,
                [&](std::size_t row, std::size_t col, std::size_t count,
                    std::size_t off) {
                    mirror[rec.worker]->transcode(
                        row, flat.rowInfo(row).width, col,
                        rec.grad.subspan(off, count),
                        std::span<float>(want).subspan(off, count));
                });
            if (!bitwiseEqual(want, rec.values))
                ++mirror_mismatches;
            pushed[{rec.worker, rec.iter, rec.unit}].assign(
                rec.values.begin(), rec.values.end());
        });
        workers.back()->start("des", 0);
    }
    sim.runUntil(300.0);
    ASSERT_TRUE(server.done());

    EXPECT_EQ(mirror_mismatches, 0u);
    EXPECT_EQ(size_mismatches, 0u);
    ASSERT_EQ(applied.size(), cfg.workers * 4 * partition.unitCount());
    for (const auto &[key, values] : applied) {
        auto it = pushed.find(key);
        ASSERT_NE(it, pushed.end());
        EXPECT_TRUE(bitwiseEqual(values, it->second))
            << "w=" << std::get<0>(key) << " iter=" << std::get<1>(key)
            << " unit=" << std::get<2>(key);
    }
}

} // namespace
} // namespace core
} // namespace rog
