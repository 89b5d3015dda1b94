/**
 * @file
 * Session layer: wire codec round-trips, SessionTable admission and
 * rejection paths (bad epoch, stale resume token, resume downgrade),
 * and the full node engine running over the DES fabric — including a
 * worker whose first Hello carries the wrong epoch and must adopt the
 * server's from the Reject before being admitted.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>

#include <sys/stat.h>

#include "core/node_engine.hpp"
#include "core/node_runner.hpp"
#include "core/server_checkpoint.hpp"
#include "core/unit_wire.hpp"
#include "net/session/des_fabric.hpp"
#include "net/session/session.hpp"
#include "net/session/wire.hpp"
#include "sim/simulation.hpp"

namespace rog {
namespace net {
namespace session {
namespace {

TEST(SessionWire, VersionPackingRoundTrips)
{
    const std::int64_t v = packVersion(7, 123456);
    EXPECT_EQ(versionScope(v), 7u);
    EXPECT_EQ(versionSeq(v), 123456);
    // Scopes separate identical sequences.
    EXPECT_NE(packVersion(1, 5), packVersion(2, 5));
}

TEST(SessionWire, HelloRoundTrips)
{
    Hello in;
    in.worker = 3;
    in.incarnation = 2;
    in.epoch = 9;
    in.resume_token = 0xDEADBEEFCAFEBABEull;
    in.nonce = 42;
    in.rx_port = 54321;
    in.last_done_iter = 17;
    Hello out;
    ASSERT_TRUE(parse(encode(in), out));
    EXPECT_EQ(out.worker, in.worker);
    EXPECT_EQ(out.incarnation, in.incarnation);
    EXPECT_EQ(out.epoch, in.epoch);
    EXPECT_EQ(out.resume_token, in.resume_token);
    EXPECT_EQ(out.nonce, in.nonce);
    EXPECT_EQ(out.rx_port, in.rx_port);
    EXPECT_EQ(out.last_done_iter, in.last_done_iter);
}

TEST(SessionWire, TruncatedParseFails)
{
    Hello in;
    in.worker = 1;
    std::vector<std::uint8_t> bytes = encode(in);
    bytes.pop_back();
    Hello out;
    EXPECT_FALSE(parse(bytes, out));
    Welcome w;
    EXPECT_FALSE(parse(bytes, w)); // wrong tag too.
}

TEST(SessionWire, VersionSeqBeyond24BitsPanics)
{
    EXPECT_DEATH(packVersion(1, 0x1000000), "24-bit");
    EXPECT_DEATH(packVersion(1, -1), "24-bit");
}

TEST(SessionWire, WelcomeWithHugeModelLenFailsParse)
{
    Welcome in;
    in.nonce = 7;
    std::vector<std::uint8_t> bytes = encode(in);
    // model_len sits after tag(1) + nonce(8) + session(4) + token(8) +
    // mode(1) + start_iter(8) + epoch(8) = offset 38. Claim 2^64-1
    // bytes: the parse must fail cleanly, not wrap the bounds check
    // into an invalid iterator range.
    ASSERT_EQ(bytes.size(), 46u);
    for (std::size_t i = 38; i < 46; ++i)
        bytes[i] = 0xFF;
    Welcome out;
    EXPECT_FALSE(parse(bytes, out));
}

TEST(SessionWire, PullDataWithHugeCountsFailsParse)
{
    PullData in;
    in.iter = 1;
    UnitUpdate u;
    u.unit = 0;
    u.bytes = {1, 2, 3, 4, 5, 6, 7, 8};
    in.units.push_back(u);
    const std::vector<std::uint8_t> bytes = encode(in);
    // Layout: tag(1) + iter(8) + min_done(8), unit count at 17,
    // first unit id at 21, its byte count at 25.
    ASSERT_EQ(bytes.size(), 37u);
    PullData out;

    // A short message claiming ~2^32 units must fail the parse before
    // any proportional allocation.
    std::vector<std::uint8_t> huge_units = bytes;
    for (std::size_t i = 17; i < 21; ++i)
        huge_units[i] = 0xFF;
    EXPECT_FALSE(parse(huge_units, out));

    // Same for a unit claiming ~2^32 payload bytes.
    std::vector<std::uint8_t> huge_values = bytes;
    for (std::size_t i = 25; i < 29; ++i)
        huge_values[i] = 0xFF;
    EXPECT_FALSE(parse(huge_values, out));
}

Hello
helloFor(std::size_t worker, std::uint64_t epoch,
         std::uint64_t token = 0, std::int64_t done = 0,
         std::uint32_t inc = 0)
{
    Hello h;
    h.worker = static_cast<std::uint16_t>(worker);
    h.incarnation = inc;
    h.epoch = epoch;
    h.resume_token = token;
    h.nonce = 1000 + inc;
    h.last_done_iter = done;
    return h;
}

TEST(SessionTable, FreshAdmissionMintsSessionAndToken)
{
    SessionTable t(4, /*epoch=*/3, /*salt=*/7);
    const Admission a = t.onHello(helloFor(1, 3));
    ASSERT_TRUE(a.admitted);
    EXPECT_EQ(a.mode, AdmitMode::Fresh);
    EXPECT_EQ(a.start_iter, 0);
    EXPECT_NE(a.session, 0u);
    EXPECT_NE(a.resume_token, 0u);
    EXPECT_TRUE(t.isCurrent(1, a.session));
    EXPECT_EQ(t.sessionOf(1), a.session);
    EXPECT_EQ(t.admissions(), 1u);
}

TEST(SessionTable, BadEpochRejectedWithoutMutation)
{
    SessionTable t(4, 3, 7);
    const Admission a = t.onHello(helloFor(0, /*epoch=*/2));
    ASSERT_FALSE(a.admitted);
    EXPECT_EQ(a.reject, RejectReason::BadEpoch);
    EXPECT_EQ(t.sessionOf(0), 0u);
    EXPECT_EQ(t.admissions(), 0u);

    // Adopting the right epoch (what the worker does on Reject)
    // admits on retry.
    const Admission b = t.onHello(helloFor(0, 3));
    EXPECT_TRUE(b.admitted);
    EXPECT_EQ(b.mode, AdmitMode::Fresh);
}

TEST(SessionTable, StaleTokenRejectedThenFreshReentry)
{
    SessionTable t(4, 3, 7);
    const Admission first = t.onHello(helloFor(2, 3));
    ASSERT_TRUE(first.admitted);

    // A nonzero token that is not the latest mint: rejected.
    const Admission bad =
        t.onHello(helloFor(2, 3, first.resume_token ^ 1, 5, 1));
    ASSERT_FALSE(bad.admitted);
    EXPECT_EQ(bad.reject, RejectReason::StaleToken);
    EXPECT_TRUE(t.isCurrent(2, first.session)); // table untouched.

    // The worker clears the token (token = 0): admitted as a rejoin.
    const Admission retry = t.onHello(helloFor(2, 3, 0, 0, 1));
    ASSERT_TRUE(retry.admitted);
    EXPECT_EQ(retry.mode, AdmitMode::Rejoin);
    EXPECT_NE(retry.session, first.session);
    EXPECT_FALSE(t.isCurrent(2, first.session));
}

TEST(SessionTable, ValidTokenResumesFromLocalCheckpoint)
{
    SessionTable t(4, 3, 7);
    const Admission first = t.onHello(helloFor(2, 3));
    ASSERT_TRUE(first.admitted);
    t.noteProgress(2, 6);
    t.noteResponse(2, 6);

    // Restarted process, checkpoint caught up with the last response:
    // resume, no model resync, starting where the checkpoint says.
    const Admission again =
        t.onHello(helloFor(2, 3, first.resume_token, 6, 1));
    ASSERT_TRUE(again.admitted);
    EXPECT_EQ(again.mode, AdmitMode::Resume);
    EXPECT_EQ(again.start_iter, 6);
    EXPECT_NE(again.resume_token, first.resume_token); // re-minted.
}

TEST(SessionTable, ResumeDowngradesToRejoinWhenCheckpointIsBehind)
{
    SessionTable t(4, 3, 7);
    const Admission first = t.onHello(helloFor(2, 3));
    ASSERT_TRUE(first.admitted);
    t.noteProgress(2, 8);
    t.noteResponse(2, 8);

    // The checkpoint (iter 5) predates the last answered pull (iter
    // 8): the outbox gradients cleared by that response would be lost
    // on a resume, so the admission must downgrade to a full resync.
    const Admission again =
        t.onHello(helloFor(2, 3, first.resume_token, 5, 1));
    ASSERT_TRUE(again.admitted);
    EXPECT_EQ(again.mode, AdmitMode::Rejoin);
    EXPECT_EQ(again.start_iter, 8);
}

TEST(SessionTable, TokensNeverRepeatAcrossAdmissions)
{
    SessionTable t(2, 1, 99);
    std::uint64_t prev = 0;
    for (int i = 0; i < 8; ++i) {
        const Admission a = t.onHello(
            helloFor(0, 1, 0, 0, static_cast<std::uint32_t>(i)));
        ASSERT_TRUE(a.admitted);
        EXPECT_NE(a.resume_token, 0u);
        EXPECT_NE(a.resume_token, prev);
        prev = a.resume_token;
    }
}

TEST(SessionTable, SnapshotRestoreHonorsPreCrashTokens)
{
    SessionTable t(4, /*epoch=*/3, /*salt=*/7);
    const Admission first = t.onHello(helloFor(2, 3));
    ASSERT_TRUE(first.admitted);
    t.noteProgress(2, 6);
    t.noteResponse(2, 6);

    // Server crash: the durable image moves into a brand-new table
    // under a bumped epoch (what ServerNode recovery does).
    const SessionSnapshot snap = t.snapshot();
    SessionTable fresh(4, /*epoch=*/1, /*salt=*/7);
    fresh.restore(snap, /*new_epoch=*/4);
    EXPECT_EQ(fresh.epoch(), 4u);

    // Live session ids do not survive: every worker re-enters
    // through Hello, and the pre-crash scope is dead.
    EXPECT_EQ(fresh.sessionOf(2), 0u);
    EXPECT_FALSE(fresh.isCurrent(2, first.session));

    // A Hello still carrying the dead epoch bounces off the gate.
    const Admission stale = fresh.onHello(
        helloFor(2, 3, first.resume_token, 6, 1));
    ASSERT_FALSE(stale.admitted);
    EXPECT_EQ(stale.reject, RejectReason::BadEpoch);

    // With the new epoch adopted, the pre-crash token resumes from
    // the local checkpoint exactly as it would have before the crash.
    const Admission resumed = fresh.onHello(
        helloFor(2, 4, first.resume_token, 6, 1));
    ASSERT_TRUE(resumed.admitted);
    EXPECT_EQ(resumed.mode, AdmitMode::Resume);
    EXPECT_EQ(resumed.start_iter, 6);
    // Session ids stay monotone across the restart — the restored
    // counter prevents scope aliasing with pre-crash messages.
    EXPECT_GT(resumed.session, first.session);
}

TEST(SessionTable, RestoreStillRejectsStaleTokens)
{
    SessionTable t(2, 1, 99);
    const Admission first = t.onHello(helloFor(0, 1));
    ASSERT_TRUE(first.admitted);

    SessionTable fresh(2, 1, 99);
    fresh.restore(t.snapshot(), 2);
    const Admission bad =
        fresh.onHello(helloFor(0, 2, first.resume_token ^ 1, 3, 1));
    ASSERT_FALSE(bad.admitted);
    EXPECT_EQ(bad.reject, RejectReason::StaleToken);

    // Clearing the token re-enters as a rejoin, same as pre-crash.
    const Admission retry = fresh.onHello(helloFor(0, 2, 0, 0, 1));
    ASSERT_TRUE(retry.admitted);
    EXPECT_EQ(retry.mode, AdmitMode::Rejoin);
}

// ---------------------------------------------------------------
// Engine over the DES fabric.

TEST(SessionDes, TwinRunsToCompletion)
{
    core::NodeRunConfig cfg = core::chaosRunDefaults();
    cfg.workers = 2;
    cfg.train.max_iters = 4;
    cfg.run_timeout_s = 300.0; // simulated seconds, not wall.
    const core::DesTwinResult res = core::runDesTwin(cfg);
    EXPECT_TRUE(res.done);
    EXPECT_TRUE(std::isfinite(res.metric));
    // 4 iters * 2 workers, each pushing every partition unit.
    EXPECT_GT(res.applied_pushes, 8u);
}

TEST(SessionDes, TwinIsDeterministicPerSeed)
{
    core::NodeRunConfig cfg = core::chaosRunDefaults();
    cfg.workers = 2;
    cfg.train.max_iters = 3;
    cfg.run_timeout_s = 300.0;
    const core::DesTwinResult a = core::runDesTwin(cfg);
    const core::DesTwinResult b = core::runDesTwin(cfg);
    ASSERT_TRUE(a.done);
    ASSERT_TRUE(b.done);
    EXPECT_EQ(a.metric, b.metric);
    EXPECT_EQ(a.applied_pushes, b.applied_pushes);
}

TEST(SessionDes, WorkerAdoptsServerEpochAfterReject)
{
    sim::Simulation sim;
    DesFabricNet net(sim, 4.0e6, transport::TransportConfig{});

    core::NodeRunConfig cfg = core::chaosRunDefaults();
    cfg.workers = 1;
    core::NodeTrainConfig train = cfg.train;
    train.max_iters = 2;
    train.epoch = 5;
    train.worker_state_dir.clear();
    train.checkpoint_path.clear();

    std::unique_ptr<core::Workload> workload =
        core::makeNodeWorkload(cfg);
    core::ServerNode server(net.node(kServerNode), *workload, train);
    server.start();

    // The worker believes in a previous run's epoch; its first Hello
    // is rejected with the server's epoch, which it adopts and
    // retries with.
    core::NodeTrainConfig wtrain = train;
    wtrain.epoch = 1;
    core::WorkerNode worker(net.node(workerNode(0)), *workload,
                            wtrain, 0, core::WorkerResumeState{});
    worker.start("des", 0);

    sim.runUntil(300.0);
    EXPECT_TRUE(worker.done());
    EXPECT_TRUE(server.done());
    EXPECT_EQ(worker.admitMode(), AdmitMode::Fresh);
    EXPECT_EQ(server.sessions().epoch(), 5u);
}

// A scripted parameter server: reacts to each of the worker's Hellos
// from inside the delivery (so its replies always quote a live
// nonce), and can also inject delayed rows a dead server incarnation
// might have left in flight.
class ScriptedServer
{
  public:
    explicit ScriptedServer(DesFabric &fab) : fab_(fab)
    {
        fab_.connectPeer(workerNode(0), "", 0);
        fab_.setMessageHandler(
            [this](const MessageKey &key,
                   std::vector<std::uint8_t> &&bytes) {
                if (key.row != kRowHello)
                    return;
                Hello h;
                if (!parse(bytes, h))
                    return;
                hellos.push_back(h);
                if (on_hello)
                    on_hello(h);
            });
    }

    ~ScriptedServer() { fab_.setMessageHandler({}); }

    void
    send(std::uint32_t row, std::vector<std::uint8_t> bytes)
    {
        MessageKey key{0, packVersion(0, seq_++), row, true};
        fab_.sendTo(workerNode(0), key, std::move(bytes),
                    fab_.now() + 3.0,
                    [this](bool ok) { delivered += ok ? 1 : 0; });
    }

    std::vector<Hello> hellos;
    std::function<void(const Hello &)> on_hello;
    int delivered = 0;

  private:
    DesFabric &fab_;
    std::uint32_t seq_ = 1;
};

TEST(SessionDes, WorkerAdoptsBumpedEpochAndIgnoresDeadWelcome)
{
    sim::Simulation sim;
    DesFabricNet net(sim, 4.0e6, transport::TransportConfig{});

    core::NodeRunConfig cfg = core::chaosRunDefaults();
    cfg.workers = 1;
    core::NodeTrainConfig train = cfg.train;
    train.max_iters = 2;
    train.epoch = 7; // the epoch the worker was admitted under.
    train.worker_state_dir.clear();
    train.checkpoint_path.clear();
    std::unique_ptr<core::Workload> workload =
        core::makeNodeWorkload(cfg);

    ScriptedServer server(net.node(kServerNode));
    std::string wlog;
    core::WorkerNode worker(
        net.node(workerNode(0)), *workload, train, 0,
        core::WorkerResumeState{},
        [&wlog](const std::string &s) { wlog += s + "\n"; });

    // Script: (1) bounce the first Hello with BadEpoch announcing
    // epoch 8 — a server that restarted and bumped its epoch; (2) the
    // first epoch-8 Hello gets only a *delayed* Welcome minted for
    // the dead epoch-7 handshake, which the worker must ignore;
    // (3) every later epoch-8 Hello gets the genuine Welcome.
    int stage = 0;
    std::uint64_t dead_nonce = 0;
    std::size_t epoch7_hellos_after_adopt = 0;
    server.on_hello = [&](const Hello &h) {
        if (h.epoch == 7) {
            if (stage == 0)
                dead_nonce = h.nonce;
            else
                ++epoch7_hellos_after_adopt;
            Reject rej;
            rej.nonce = h.nonce;
            rej.reason = RejectReason::BadEpoch;
            rej.server_epoch = 8;
            server.send(kRowReject, encode(rej));
            stage = stage == 0 ? 1 : stage;
            return;
        }
        if (stage == 1) {
            Welcome stale;
            stale.nonce = dead_nonce; // a dead handshake's nonce.
            stale.session = 77;
            stale.resume_token = 123;
            stale.mode = AdmitMode::Fresh;
            stale.start_iter = 0;
            stale.epoch = 7;
            server.send(kRowWelcome, encode(stale));
            stage = 2;
            return;
        }
        Welcome ok;
        ok.nonce = h.nonce;
        ok.session = 9;
        ok.resume_token = 456;
        ok.mode = AdmitMode::Fresh;
        ok.start_iter = 0;
        ok.epoch = 8;
        server.send(kRowWelcome, encode(ok));
    };

    worker.start("des", 0);
    for (double t = 0.1; t < 10.0 && !worker.admitted(); t += 0.1)
        sim.runUntil(t);

    // The worker adopted epoch 8, ignored the dead epoch's Welcome
    // (or it would sit in session 77), and accepted the genuine one.
    EXPECT_GT(server.delivered, 0) << "hellos=" << server.hellos.size();
    EXPECT_TRUE(worker.admitted()) << wlog;
    EXPECT_EQ(worker.epoch(), 8u);
    EXPECT_EQ(worker.session(), 9u);
    EXPECT_EQ(worker.admitMode(), AdmitMode::Fresh);
    // Every post-adoption Hello carried the new epoch.
    EXPECT_EQ(epoch7_hellos_after_adopt, 0u);
    ASSERT_GE(server.hellos.size(), 3u); // reject, stale, genuine.
}

/** True when every canonical-model parameter is finite. */
bool
modelFinite(nn::Model &model)
{
    for (nn::Parameter *p : model.parameters())
        for (std::size_t i = 0; i < p->value.size(); ++i)
            if (!std::isfinite(p->value.data()[i]))
                return false;
    return true;
}

TEST(SessionDes, NanPushIsRejectedAndModelStaysFinite)
{
    // A worker with a live session sends a push whose frames are
    // CRC-valid but whose gradient carries a NaN: the server must
    // quarantine it (counted, logged, nothing applied), keep the
    // canonical model finite, and go on applying good pushes.
    sim::Simulation sim;
    DesFabricNet net(sim, 4.0e6, transport::TransportConfig{});

    core::NodeRunConfig cfg = core::chaosRunDefaults();
    cfg.workers = 1;
    core::NodeTrainConfig train = cfg.train;
    train.worker_state_dir.clear();
    train.checkpoint_path.clear();
    std::unique_ptr<core::Workload> workload =
        core::makeNodeWorkload(cfg);
    std::string slog;
    core::ServerNode server(
        net.node(kServerNode), *workload, train,
        [&slog](const std::string &s) { slog += s + "\n"; });
    server.start();

    DesFabric &fab = net.node(workerNode(0));
    std::uint32_t session = 0;
    fab.connectPeer(kServerNode, "", 0);
    fab.setMessageHandler(
        [&session](const MessageKey &key, std::vector<std::uint8_t> &&b) {
            Welcome wm;
            if (key.row == kRowWelcome && parse(b, wm))
                session = wm.session;
        });
    Hello h;
    h.worker = 0;
    h.epoch = train.epoch;
    h.nonce = 42;
    h.rx_port = fab.listenPort();
    fab.sendTo(kServerNode, MessageKey{0, packVersion(0, 1), kRowHello, false},
               encode(h), fab.now() + 3.0, {});
    for (double t = 0.1; t < 10.0 && session == 0; t += 0.1)
        sim.runUntil(t);
    ASSERT_NE(session, 0u) << slog;

    const core::FlatModel flat(server.model());
    const core::Unit unit0 =
        core::RowPartition(flat, train.granularity).unit(0);
    const std::size_t width = unit0.width;
    std::vector<float> grad(width, 0.25f);
    grad[width / 2] = std::numeric_limits<float>::quiet_NaN();
    // The push is what a worker's codec makes of the gradient (a NaN
    // element poisons the one-bit scale), from a fresh codec each time
    // so the NaN residual of the first push does not carry over.
    const auto push = [&](std::int64_t iter) {
        auto codec = compress::makeCodec(train.codec);
        std::vector<float> out(width);
        std::vector<std::uint8_t> wire;
        core::encodeUnit(*codec, flat, unit0, grad, out, wire);
        fab.sendTo(kServerNode,
                   MessageKey{0, packVersion(session, iter), 0, false},
                   wire, transport::kNoDeadline, {});
        sim.runUntil(sim.now() + 2.0);
    };
    push(1);
    EXPECT_EQ(server.rejectedPushes(), 1u);
    EXPECT_EQ(server.appliedPushes(), 0u);
    EXPECT_TRUE(modelFinite(server.model()));
    EXPECT_NE(slog.find("reject_push w=0 iter=1 unit=0"),
              std::string::npos)
        << slog;

    grad[width / 2] = 0.5f;
    push(2);
    EXPECT_EQ(server.rejectedPushes(), 1u);
    EXPECT_EQ(server.appliedPushes(), 1u);
    EXPECT_TRUE(modelFinite(server.model()));
    fab.setMessageHandler({});
}

TEST(SessionDes, ServerCrashTwinRecoversAndFinishes)
{
    core::NodeRunConfig cfg = core::chaosRunDefaults();
    cfg.workers = 2;
    cfg.train.max_iters = 8;
    cfg.run_timeout_s = 300.0; // simulated seconds.
    cfg.server_crash_iter = 3;
    cfg.server_crash_restart_s = 0.5;
    cfg.artifact_dir = testing::TempDir() + "rog_des_crash_twin";
    ::mkdir(cfg.artifact_dir.c_str(), 0755);
    std::remove((cfg.artifact_dir + "/des_twin.log").c_str());

    const core::DesTwinResult res = core::runDesTwin(cfg);
    EXPECT_TRUE(res.done);
    EXPECT_TRUE(std::isfinite(res.metric));
    EXPECT_GT(res.applied_pushes, 0u);

    // The twin's log must show the kill and a recovered incarnation
    // under a bumped epoch re-admitting the fleet.
    std::ifstream is(cfg.artifact_dir + "/des_twin.log");
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("des_server_killed"), std::string::npos);
    EXPECT_NE(text.find("server_start epoch=2 recovered=1"),
              std::string::npos);
    EXPECT_NE(text.find("epoch=2"), std::string::npos);
}

TEST(SessionDes, FinalCheckpointReportsLastIteration)
{
    // After every worker said Bye, the RSP floor is the slowest
    // worker's last iteration, not 0, and so is the final checkpoint.
    sim::Simulation sim;
    DesFabricNet net(sim, 4.0e6, transport::TransportConfig{});

    core::NodeRunConfig cfg = core::chaosRunDefaults();
    cfg.workers = 2;
    core::NodeTrainConfig train = cfg.train;
    train.max_iters = 5;
    train.worker_state_dir.clear();
    train.checkpoint_path = testing::TempDir() + "rog_final_ckpt.rogs";
    std::remove(train.checkpoint_path.c_str());
    std::unique_ptr<core::Workload> workload =
        core::makeNodeWorkload(cfg);

    core::ServerNode server(net.node(kServerNode), *workload, train);
    server.start();
    std::vector<std::unique_ptr<core::WorkerNode>> workers;
    for (std::size_t w = 0; w < cfg.workers; ++w) {
        workers.push_back(std::make_unique<core::WorkerNode>(
            net.node(workerNode(w)), *workload, train, w,
            core::WorkerResumeState{}));
        workers.back()->start("des", 0);
    }
    sim.runUntil(300.0);
    ASSERT_TRUE(server.done());

    EXPECT_EQ(server.minWorkerIteration(), train.max_iters);
    EXPECT_EQ(core::readServerCheckpointFile(train.checkpoint_path)
                  .iteration,
              train.max_iters);
    std::remove(train.checkpoint_path.c_str());
}

TEST(SessionDes, RejectedCheckpointLeavesServerFresh)
{
    // A CRC-valid ROGS file whose version matrix is fine but whose
    // outbox has one unit of the wrong width must be rejected whole:
    // the server starts fresh, with no version restored from it.
    sim::Simulation sim;
    DesFabricNet net(sim, 4.0e6, transport::TransportConfig{});

    core::NodeRunConfig cfg = core::chaosRunDefaults();
    cfg.workers = 2;
    core::NodeTrainConfig train = cfg.train;
    train.worker_state_dir.clear();
    train.checkpoint_path = testing::TempDir() + "rog_torn_ckpt.rogs";
    std::remove(train.checkpoint_path.c_str());
    std::unique_ptr<core::Workload> workload =
        core::makeNodeWorkload(cfg);

    {
        core::ServerNode seed(net.node(kServerNode), *workload, train);
        seed.checkpointNow();
    }
    core::ServerCheckpoint ckpt =
        core::readServerCheckpointFile(train.checkpoint_path);
    for (auto &row : ckpt.versions.versions)
        for (std::int64_t &v : row)
            v = 5;
    ckpt.iteration = 5;
    ckpt.server.pending[1][0].push_back(0);
    core::writeServerCheckpointFile(train.checkpoint_path, ckpt);

    std::string slog;
    core::ServerNode server(
        net.node(kServerNode), *workload, train,
        [&slog](const std::string &s) { slog += s + "\n"; });
    EXPECT_FALSE(server.recovered());
    EXPECT_NE(slog.find("recover_failed"), std::string::npos) << slog;
    EXPECT_EQ(server.minWorkerIteration(), 0);
    std::remove(train.checkpoint_path.c_str());
}

} // namespace
} // namespace session
} // namespace net
} // namespace rog
