/**
 * @file
 * Hostile and lifecycle tests for the codec payloads on the node path,
 * over the DES fabric:
 *
 *  - a truncated or overlong push is ignored;
 *  - a CRC-valid push whose one-bit scale is NaN, Inf or 2^20 is
 *    quarantined (counted, logged) and leaves the outbox and the
 *    canonical model bit-identical;
 *  - a PullData whose units, widths or byte lengths disagree with the
 *    worker's partition is dropped without applying anything;
 *  - the per-worker pull residual survives a server restart through
 *    ROGS v4, is kept by a Resume admission and reset by a Rejoin, and
 *    a tampered residual section makes the server start fresh.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/rng.hpp"
#include "core/node_engine.hpp"
#include "core/node_runner.hpp"
#include "core/server_checkpoint.hpp"
#include "core/unit_wire.hpp"
#include "net/session/des_fabric.hpp"
#include "sim/simulation.hpp"

namespace rog {
namespace net {
namespace session {
namespace {

/** A 1-worker run config whose server never evicts the hand-driven
 *  worker (it sends no heartbeats). */
core::NodeTrainConfig
quietTrainConfig(const std::string &checkpoint_path = "")
{
    core::NodeTrainConfig train = core::chaosRunDefaults().train;
    train.detector.detection_bound_s = 1e6;
    train.worker_state_dir.clear();
    train.checkpoint_path = checkpoint_path;
    return train;
}

std::unique_ptr<core::Workload>
oneWorkerWorkload()
{
    core::NodeRunConfig cfg = core::chaosRunDefaults();
    cfg.workers = 1;
    return core::makeNodeWorkload(cfg);
}

/** The model's partition and codec sizes, as every node builds them. */
struct Layout
{
    explicit Layout(core::Workload &workload,
                    const core::NodeTrainConfig &train)
        : model(workload.buildReplica()), flat(*model),
          partition(flat, train.granularity),
          codec(compress::makeCodec(train.codec))
    {}

    /** A valid payload for @p unit from a fresh codec. */
    std::vector<std::uint8_t>
    payload(std::size_t unit, Rng &rng) const
    {
        const core::Unit &u = partition.unit(unit);
        std::vector<float> grad(u.width);
        for (float &v : grad)
            v = static_cast<float>(rng.gaussian(0.0, 0.5));
        std::vector<float> out(u.width);
        std::vector<std::uint8_t> wire;
        auto fresh = compress::makeCodec(codec->name());
        core::encodeUnit(*fresh, flat, u, grad, out, wire);
        return wire;
    }

    std::unique_ptr<nn::Model> model;
    core::FlatModel flat;
    core::RowPartition partition;
    std::unique_ptr<compress::Codec> codec;
};

/** A hand-driven worker 0: handshakes, pushes chosen bytes, requests
 *  pulls, and keeps every PullData it receives. */
class FakeWorker
{
  public:
    FakeWorker(sim::Simulation &sim, DesFabric &fab) : sim_(sim), fab_(fab)
    {
        fab_.connectPeer(kServerNode, "", 0);
        fab_.setMessageHandler(
            [this](const MessageKey &key, std::vector<std::uint8_t> &&b) {
                Welcome wm;
                if (key.row == kRowWelcome && parse(b, wm) &&
                    wm.nonce == nonce_) {
                    session = wm.session;
                    token = wm.resume_token;
                    mode = wm.mode;
                }
                PullData pd;
                if (key.row == kRowPullData && parse(b, pd))
                    pulls.push_back(std::move(pd));
            });
    }

    ~FakeWorker() { fab_.setMessageHandler({}); }

    /** Hello until admitted; false after 10 simulated seconds. */
    bool
    hello(std::uint64_t epoch, std::uint64_t resume_token,
          std::int64_t done_iter, std::uint32_t incarnation)
    {
        session = 0;
        nonce_ = 1000 + hello_seq_;
        Hello h;
        h.worker = 0;
        h.incarnation = incarnation;
        h.epoch = epoch;
        h.resume_token = resume_token;
        h.nonce = nonce_;
        h.rx_port = fab_.listenPort();
        h.last_done_iter = done_iter;
        fab_.sendTo(kServerNode,
                    MessageKey{0, packVersion(incarnation, hello_seq_++),
                               kRowHello, false},
                    encode(h), fab_.now() + 3.0, {});
        const double end = sim_.now() + 10.0;
        for (double t = sim_.now() + 0.1; t < end && session == 0;
             t += 0.1)
            sim_.runUntil(t);
        return session != 0;
    }

    void
    push(std::int64_t iter, std::size_t unit,
         std::span<const std::uint8_t> bytes)
    {
        fab_.sendTo(kServerNode,
                    MessageKey{0, packVersion(session, iter),
                               static_cast<std::uint32_t>(unit), false},
                    bytes, transport::kNoDeadline, {});
        settle();
    }

    void
    pullReq(std::int64_t iter)
    {
        PullReq req;
        req.worker = 0;
        req.iter = iter;
        fab_.sendTo(kServerNode,
                    MessageKey{0, packVersion(session, iter), kRowPullReq,
                               false},
                    encode(req), transport::kNoDeadline, {});
        settle();
    }

    void settle() { sim_.runUntil(sim_.now() + 0.5); }

    std::uint32_t session = 0;
    std::uint64_t token = 0;
    AdmitMode mode = AdmitMode::Fresh;
    std::vector<PullData> pulls;

  private:
    sim::Simulation &sim_;
    DesFabric &fab_;
    std::uint64_t nonce_ = 0;
    std::uint32_t hello_seq_ = 1;
};

TEST(SessionPayload, TruncatedOrOverlongPushIsIgnored)
{
    sim::Simulation sim;
    DesFabricNet net(sim, 4.0e6, transport::TransportConfig{});
    const core::NodeTrainConfig train = quietTrainConfig();
    auto workload = oneWorkerWorkload();
    const Layout layout(*workload, train);
    std::string slog;
    core::ServerNode server(
        net.node(kServerNode), *workload, train,
        [&slog](const std::string &s) { slog += s + "\n"; });
    server.start();
    FakeWorker worker(sim, net.node(workerNode(0)));
    ASSERT_TRUE(worker.hello(train.epoch, 0, 0, 0)) << slog;

    Rng rng(5);
    const std::vector<std::uint8_t> good = layout.payload(0, rng);
    std::vector<std::uint8_t> truncated = good;
    truncated.pop_back();
    std::vector<std::uint8_t> overlong = good;
    overlong.push_back(0);
    worker.push(1, 0, truncated);
    worker.push(2, 0, overlong);
    worker.push(3, 0, std::vector<std::uint8_t>{});
    EXPECT_EQ(server.appliedPushes(), 0u);
    EXPECT_EQ(server.rejectedPushes(), 0u);
    EXPECT_EQ(server.duplicatePushes(), 0u);
    EXPECT_EQ(slog.find(" apply "), std::string::npos) << slog;

    // Ignored, not recorded: the same unit still applies afterwards.
    worker.push(4, 0, good);
    EXPECT_EQ(server.appliedPushes(), 1u);
    EXPECT_NE(slog.find("apply w=0 iter=4 unit=0 bytes=" +
                        std::to_string(good.size())),
              std::string::npos)
        << slog;
}

TEST(SessionPayload, PoisonedScaleIsQuarantinedBitForBit)
{
    sim::Simulation sim;
    DesFabricNet net(sim, 4.0e6, transport::TransportConfig{});
    const std::string ckpt_path =
        testing::TempDir() + "rog_poisoned_scale.rogs";
    std::remove(ckpt_path.c_str());
    const core::NodeTrainConfig train = quietTrainConfig(ckpt_path);
    ASSERT_EQ(train.codec, "onebit");
    auto workload = oneWorkerWorkload();
    const Layout layout(*workload, train);
    std::string slog;
    core::ServerNode server(
        net.node(kServerNode), *workload, train,
        [&slog](const std::string &s) { slog += s + "\n"; });
    server.start();
    FakeWorker worker(sim, net.node(workerNode(0)));
    ASSERT_TRUE(worker.hello(train.epoch, 0, 0, 0)) << slog;

    // One good push so the outbox and the model hold real values.
    Rng rng(6);
    const std::vector<std::uint8_t> good = layout.payload(0, rng);
    worker.push(1, 0, good);
    ASSERT_EQ(server.appliedPushes(), 1u);
    server.checkpointNow();
    const core::ServerCheckpoint before =
        core::readServerCheckpointFile(ckpt_path);
    const std::vector<std::uint8_t> model_before = server.modelBytes();

    const float poisons[] = {std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity(),
                             1048576.0f /* 2^20 */};
    std::int64_t iter = 2;
    for (const float scale : poisons) {
        // CRC-valid on the transport, a well-formed payload length:
        // only the chunk's scale is hostile.
        std::vector<std::uint8_t> bad = good;
        std::memcpy(bad.data(), &scale, 4);
        worker.push(iter, 0, bad);
        EXPECT_EQ(server.rejectedPushes(),
                  static_cast<std::size_t>(iter - 1))
            << scale;
        EXPECT_NE(slog.find("reject_push w=0 iter=" +
                            std::to_string(iter) + " unit=0"),
                  std::string::npos)
            << slog;
        ++iter;
    }
    EXPECT_EQ(server.appliedPushes(), 1u);

    server.checkpointNow();
    const core::ServerCheckpoint after =
        core::readServerCheckpointFile(ckpt_path);
    EXPECT_EQ(after.server.pending, before.server.pending);
    EXPECT_EQ(after.server.has_pending, before.server.has_pending);
    EXPECT_EQ(server.modelBytes(), model_before);
    std::remove(ckpt_path.c_str());
}

/** A scripted server for one real WorkerNode: admits it, then lets
 *  the test answer its PullReq with chosen PullData. */
class PullScript
{
  public:
    explicit PullScript(DesFabric &fab, std::uint64_t epoch)
        : fab_(fab), epoch_(epoch)
    {
        fab_.connectPeer(workerNode(0), "", 0);
        fab_.setMessageHandler(
            [this](const MessageKey &key, std::vector<std::uint8_t> &&b) {
                Hello h;
                PullReq req;
                if (key.row == kRowHello && parse(b, h)) {
                    Welcome w;
                    w.nonce = h.nonce;
                    w.session = kSession;
                    w.resume_token = 99;
                    w.mode = AdmitMode::Fresh;
                    w.epoch = epoch_;
                    send(kRowWelcome, encode(w), packVersion(0, seq_++));
                } else if (key.row == kRowPullReq && parse(b, req)) {
                    pull_iter = req.iter;
                }
            });
    }

    ~PullScript() { fab_.setMessageHandler({}); }

    /** Answer with @p pd under a fresh key of the live session. */
    void
    answer(const PullData &pd)
    {
        send(kRowPullData, encode(pd), packVersion(kSession, seq_++));
    }

    static constexpr std::uint32_t kSession = 9;
    std::int64_t pull_iter = 0;

  private:
    void
    send(std::uint32_t row, std::vector<std::uint8_t> bytes,
         std::int64_t version)
    {
        fab_.sendTo(workerNode(0), MessageKey{0, version, row, true},
                    bytes, fab_.now() + 3.0, {});
    }

    DesFabric &fab_;
    std::uint64_t epoch_;
    std::uint32_t seq_ = 1;
};

std::vector<float>
parameterValues(nn::Model &model)
{
    std::vector<float> out;
    for (nn::Parameter *p : model.parameters())
        out.insert(out.end(), p->value.data(),
                   p->value.data() + p->value.size());
    return out;
}

TEST(SessionPayload, MismatchedPullDataIsDroppedWhole)
{
    sim::Simulation sim;
    DesFabricNet net(sim, 4.0e6, transport::TransportConfig{});
    const core::NodeTrainConfig train = quietTrainConfig();
    auto workload = oneWorkerWorkload();
    const Layout layout(*workload, train);
    PullScript server(net.node(kServerNode), train.epoch);
    std::string wlog;
    core::WorkerNode worker(
        net.node(workerNode(0)), *workload, train, 0,
        core::WorkerResumeState{},
        [&wlog](const std::string &s) { wlog += s + "\n"; });
    worker.start("des", 0);
    for (double t = 0.1; t < 10.0 && server.pull_iter == 0; t += 0.1)
        sim.runUntil(t);
    ASSERT_EQ(server.pull_iter, 1) << wlog;
    ASSERT_EQ(worker.iter(), 1);

    Rng rng(7);
    const std::size_t units = layout.partition.unitCount();
    PullData good;
    good.iter = 1;
    for (std::size_t u = 0; u < units; ++u) {
        UnitUpdate up;
        up.unit = static_cast<std::uint32_t>(u);
        up.bytes = layout.payload(u, rng);
        good.units.push_back(std::move(up));
    }

    std::vector<std::pair<const char *, PullData>> bad;
    {
        PullData pd = good;
        pd.units.push_back(good.units.back());
        bad.emplace_back("more units than the partition", pd);
    }
    {
        PullData pd = good;
        pd.units.back().unit = static_cast<std::uint32_t>(units);
        bad.emplace_back("unit outside the partition", pd);
    }
    {
        PullData pd = good;
        pd.units[3].bytes.pop_back();
        bad.emplace_back("short unit payload", pd);
    }
    {
        PullData pd = good;
        pd.units[3].bytes.push_back(0);
        bad.emplace_back("long unit payload", pd);
    }
    {
        PullData pd = good;
        pd.units[2] = pd.units[1];
        bad.emplace_back("repeated unit", pd);
    }
    {
        PullData pd = good;
        const float nan = std::numeric_limits<float>::quiet_NaN();
        std::memcpy(pd.units.back().bytes.data(), &nan, 4);
        bad.emplace_back("NaN scale", pd);
    }

    const std::vector<float> before = parameterValues(worker.model());
    for (const auto &[what, pd] : bad) {
        server.answer(pd);
        sim.runUntil(sim.now() + 0.5);
        EXPECT_EQ(worker.iter(), 1) << what;
        EXPECT_EQ(parameterValues(worker.model()), before) << what;
    }
    EXPECT_EQ(wlog.find("phase=applied"), std::string::npos) << wlog;

    server.answer(good);
    sim.runUntil(sim.now() + 0.5);
    EXPECT_EQ(worker.iter(), 2) << wlog;
    EXPECT_NE(parameterValues(worker.model()), before);
}

/** Bitwise equality of two residual lists. */
bool
sameResiduals(const std::vector<compress::BlockResidual> &a,
              const std::vector<compress::BlockResidual> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t k = 0; k < a.size(); ++k)
        if (a[k].block != b[k].block ||
            a[k].values.size() != b[k].values.size() ||
            std::memcmp(a[k].values.data(), b[k].values.data(),
                        a[k].values.size() * sizeof(float)) != 0)
            return false;
    return true;
}

/** Admit the fake worker, push every unit of iteration 1, pull it. */
void
runOneIteration(FakeWorker &worker, const Layout &layout,
                const core::NodeTrainConfig &train)
{
    ASSERT_TRUE(worker.hello(train.epoch, 0, 0, 0));
    Rng rng(8);
    for (std::size_t u = 0; u < layout.partition.unitCount(); ++u)
        worker.push(1, u, layout.payload(u, rng));
    worker.pullReq(1);
    ASSERT_EQ(worker.pulls.size(), 1u);
}

TEST(SessionPayload, PullResidualSurvivesRestartAndResetsOnRejoin)
{
    sim::Simulation sim;
    DesFabricNet net(sim, 4.0e6, transport::TransportConfig{});
    const std::string ckpt_path =
        testing::TempDir() + "rog_pull_residual.rogs";
    std::remove(ckpt_path.c_str());
    const core::NodeTrainConfig train = quietTrainConfig(ckpt_path);
    auto workload = oneWorkerWorkload();
    const Layout layout(*workload, train);
    FakeWorker worker(sim, net.node(workerNode(0)));

    std::vector<compress::BlockResidual> saved;
    {
        core::ServerNode server(net.node(kServerNode), *workload, train);
        server.start();
        runOneIteration(worker, layout, train);

        // The pull shipped every unit as codec bytes, and the codec
        // kept what one bit per element left out.
        const PullData &pd = worker.pulls.front();
        ASSERT_EQ(pd.units.size(), layout.partition.unitCount());
        for (const UnitUpdate &u : pd.units)
            EXPECT_EQ(u.bytes.size(),
                      core::unitWireBytes(*layout.codec, layout.flat,
                                          layout.partition.unit(u.unit)));
        saved = server.pullCodec(0).residuals();
        ASSERT_EQ(saved.size(), layout.flat.rowCount());
        double mass = 0.0;
        for (const auto &b : saved)
            for (float v : b.values)
                mass += std::fabs(v);
        ASSERT_GT(mass, 0.0);
        server.checkpointNow();
    } // the server dies here.

    core::ServerNode restarted(net.node(kServerNode), *workload, train);
    ASSERT_TRUE(restarted.recovered());
    EXPECT_TRUE(sameResiduals(restarted.pullCodec(0).residuals(), saved));
    restarted.start();

    // Resume (token, durable progress at the answered pull): the
    // error-feedback mass is still owed to this worker.
    ASSERT_TRUE(worker.hello(restarted.epoch(), worker.token, 1, 1));
    EXPECT_EQ(worker.mode, AdmitMode::Resume);
    EXPECT_TRUE(sameResiduals(restarted.pullCodec(0).residuals(), saved));

    // Rejoin (no token): the model resync covers it, the codec
    // restarts clean.
    ASSERT_TRUE(worker.hello(restarted.epoch(), 0, 0, 2));
    EXPECT_EQ(worker.mode, AdmitMode::Rejoin);
    EXPECT_TRUE(restarted.pullCodec(0).residuals().empty());
    std::remove(ckpt_path.c_str());
}

TEST(SessionPayload, TamperedPullResidualStartsFresh)
{
    sim::Simulation sim;
    DesFabricNet net(sim, 4.0e6, transport::TransportConfig{});
    const std::string ckpt_path =
        testing::TempDir() + "rog_tampered_residual.rogs";
    std::remove(ckpt_path.c_str());
    const core::NodeTrainConfig train = quietTrainConfig(ckpt_path);
    auto workload = oneWorkerWorkload();
    const Layout layout(*workload, train);
    {
        FakeWorker worker(sim, net.node(workerNode(0)));
        core::ServerNode server(net.node(kServerNode), *workload, train);
        server.start();
        runOneIteration(worker, layout, train);
        server.checkpointNow();
    }
    const core::ServerCheckpoint good =
        core::readServerCheckpointFile(ckpt_path);
    ASSERT_EQ(good.pull_residual.size(), 1u);
    ASSERT_FALSE(good.pull_residual[0].empty());

    std::vector<std::pair<const char *, core::ServerCheckpoint>> cases;
    {
        core::ServerCheckpoint c = good;
        c.pull_residual[0][0].values.push_back(0.0f);
        cases.emplace_back("residual wider than its row", c);
    }
    {
        core::ServerCheckpoint c = good;
        c.pull_residual[0][0].values.pop_back();
        cases.emplace_back("residual narrower than its row", c);
    }
    {
        core::ServerCheckpoint c = good;
        c.pull_residual[0].back().block = layout.flat.rowCount();
        cases.emplace_back("residual for a row the model lacks", c);
    }
    {
        core::ServerCheckpoint c = good;
        c.pull_residual[0][0].values[0] =
            std::numeric_limits<float>::quiet_NaN();
        cases.emplace_back("NaN residual", c);
    }
    for (const auto &[what, c] : cases) {
        core::writeServerCheckpointFile(ckpt_path, c);
        std::string slog;
        core::ServerNode server(
            net.node(kServerNode), *workload, train,
            [&slog](const std::string &s) { slog += s + "\n"; });
        EXPECT_FALSE(server.recovered()) << what;
        EXPECT_NE(slog.find("recover_failed"), std::string::npos) << what;
        EXPECT_TRUE(server.pullCodec(0).residuals().empty()) << what;
        EXPECT_EQ(server.minWorkerIteration(), 0) << what;
        EXPECT_EQ(server.epoch(), train.epoch) << what;
    }
    std::remove(ckpt_path.c_str());
}

} // namespace
} // namespace session
} // namespace net
} // namespace rog
