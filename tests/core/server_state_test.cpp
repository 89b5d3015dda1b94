/**
 * @file
 * Unit tests for the ServerState oracle (the per-copy outbox).
 */
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/model.hpp"
#include "oracles/server_state.hpp"

namespace rog {
namespace core {
namespace {

struct Fixture
{
    Fixture()
        : model(makeModel()), flat(model),
          partition(flat, Granularity::Row)
    {
    }

    static nn::Model
    makeModel()
    {
        Rng rng(3);
        nn::ClassifierConfig cfg;
        cfg.input_dim = 4;
        cfg.hidden = {4};
        cfg.classes = 2;
        return nn::makeClassifier(cfg, rng);
    }

    nn::Model model;
    FlatModel flat;
    RowPartition partition;
};

TEST(ServerStateTest, AccumulateAveragesIntoEveryWorkerCopy)
{
    Fixture f;
    ServerState server(4, f.partition);
    std::vector<float> g(f.partition.unit(0).width, 8.0f);
    server.accumulate(0, g);
    for (std::size_t w = 0; w < 4; ++w) {
        EXPECT_TRUE(server.hasPending(w, 0));
        EXPECT_FLOAT_EQ(server.pending(w, 0)[0], 2.0f); // 8 / 4.
    }
    EXPECT_FALSE(server.hasPending(0, 1));
}

TEST(ServerStateTest, AccumulationAdds)
{
    Fixture f;
    ServerState server(2, f.partition);
    std::vector<float> g(f.partition.unit(0).width, 4.0f);
    server.accumulate(0, g);
    server.accumulate(0, g);
    EXPECT_FLOAT_EQ(server.pending(0, 0)[0], 4.0f); // 2 + 2.
}

TEST(ServerStateTest, ClearPendingIsPerWorker)
{
    // Sec. III-B: sending to one worker zeroes only that copy.
    Fixture f;
    ServerState server(3, f.partition);
    std::vector<float> g(f.partition.unit(2).width, 3.0f);
    server.accumulate(2, g);
    server.clearPending(1, 2);
    EXPECT_FALSE(server.hasPending(1, 2));
    EXPECT_FLOAT_EQ(server.pending(1, 2)[0], 0.0f);
    EXPECT_TRUE(server.hasPending(0, 2));
    EXPECT_FLOAT_EQ(server.pending(0, 2)[0], 1.0f);
}

TEST(ServerStateTest, PendingMeanAbs)
{
    Fixture f;
    ServerState server(1, f.partition);
    const std::size_t width = f.partition.unit(0).width;
    std::vector<float> g(width);
    for (std::size_t i = 0; i < width; ++i)
        g[i] = (i % 2 == 0) ? 2.0f : -2.0f;
    server.accumulate(0, g);
    EXPECT_NEAR(server.pendingMeanAbs(0, 0), 2.0, 1e-6);
}

TEST(ServerStateTest, LastUpdateTracksMax)
{
    Fixture f;
    ServerState server(2, f.partition);
    EXPECT_EQ(server.lastUpdate(0), 0);
    server.noteUpdate(0, 5);
    server.noteUpdate(0, 3); // older update must not regress.
    EXPECT_EQ(server.lastUpdate(0), 5);
}

TEST(ServerStateTest, WidthMismatchDies)
{
    Fixture f;
    ServerState server(2, f.partition);
    std::vector<float> bad(f.partition.unit(0).width + 1, 1.0f);
    EXPECT_DEATH(server.accumulate(0, bad), "width");
}

} // namespace
} // namespace core
} // namespace rog
