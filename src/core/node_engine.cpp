#include "core/node_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/logging.hpp"
#include "core/server_checkpoint.hpp"
#include "core/unit_wire.hpp"
#include "net/transport/backend.hpp"
#include "nn/loss.hpp"
#include "nn/serialize.hpp"

namespace rog {
namespace core {

using net::session::AdmitMode;
using net::session::admitModeName;
using net::session::Bye;
using net::session::FabricTimer;
using net::session::Heartbeat;
using net::session::Hello;
using net::session::isControlRow;
using net::session::kServerNode;
using net::session::MessageKey;
using net::session::packVersion;
using net::session::PullData;
using net::session::PullReq;
using net::session::Reject;
using net::session::rejectReasonName;
using net::session::RejectReason;
using net::session::UnitUpdate;
using net::session::versionScope;
using net::session::versionSeq;
using net::session::Welcome;
using net::session::workerNode;
using net::transport::kNoDeadline;

namespace {

std::string
fmt(double t, const char *body)
{
    std::ostringstream os;
    os << "t=" << t << ' ' << body;
    return os.str();
}

} // namespace

// --------------------------------------------------------------------
// ServerNode
// --------------------------------------------------------------------

ServerNode::ServerNode(net::session::Fabric &fabric, Workload &workload,
                       const NodeTrainConfig &cfg, NodeLogger log)
    : fabric_(fabric), workload_(workload), cfg_(cfg),
      log_(std::move(log)), model_(workload.buildReplica()),
      flat_(std::make_unique<FlatModel>(*model_)),
      partition_(
          std::make_unique<RowPartition>(*flat_, cfg.granularity)),
      opt_(std::make_unique<nn::SgdMomentum>(
          *model_, workload.optimizerConfig())),
      table_(workload.workers(), cfg.epoch, cfg.session_salt),
      server_(workload.workers(), *partition_, 1),
      tracker_(workload.workers(), cfg.detector),
      peers_(workload.workers()), decoder_(compress::makeCodec(cfg.codec)),
      pull_codecs_(makePullCodecs({}))
{
    recovered_ = restoreFromCheckpoint();
}

ServerNode::~ServerNode()
{
    if (member_timer_ != 0)
        fabric_.cancelTimer(member_timer_);
    // Unbind from the fabric: it outlives this node, and a crash
    // twin (destroy + reconstruct against the same fabric) must not
    // deliver into a dead server.
    fabric_.setMessageHandler({});
}

bool
ServerNode::restoreFromCheckpoint()
{
    if (cfg_.checkpoint_path.empty())
        return false;
    try {
        const ServerCheckpoint ckpt =
            readServerCheckpointFile(cfg_.checkpoint_path);
        // Validate everything that can throw *before* mutating any
        // member: a rejected checkpoint must leave a clean fresh
        // start, never a torn session table or half-restored model.
        if (ckpt.sessions.entries.size() != peers_.size())
            throw std::runtime_error(
                "checkpoint session table does not cover this fleet");
        if (ckpt.model.empty())
            throw std::runtime_error("checkpoint carries no model");
        {
            // Parse into a throwaway replica first; only a blob the
            // architecture fully accepts may touch the live model.
            auto probe = workload_.buildReplica();
            std::string s(ckpt.model.begin(), ckpt.model.end());
            std::istringstream is(s);
            nn::loadModel(is, *probe);
        }
        auto pull_codecs = makePullCodecs(ckpt.pull_residual);
        server_.shard(0).restore(ckpt.versions, ckpt.server,
                                 ckpt.tracker);
        pull_codecs_ = std::move(pull_codecs);
        {
            std::string s(ckpt.model.begin(), ckpt.model.end());
            std::istringstream is(s);
            nn::loadModel(is, *model_);
        }
        // The epoch bump fences off every pre-crash scope; workers
        // holding the old epoch are rejected with the new one and
        // adopt it on retry.
        table_.restore(ckpt.sessions, ckpt.epoch + 1);
        for (std::size_t w = 0; w < peers_.size(); ++w) {
            const bool done = w < ckpt.worker_done.size() &&
                              ckpt.worker_done[w] != 0;
            peers_[w].bye = done;
            if (done)
                tracker_.deactivate(w);
        }
        // Control keys restart past the checkpoint's high-water mark
        // with a gap covering anything sent after it was cut, so no
        // pre-crash in-flight key is ever minted again.
        ctrl_seq_ = static_cast<std::uint32_t>(ckpt.msg_seq) + 4096;
        return true;
    } catch (const std::exception &e) {
        std::ostringstream os;
        os << "recover_failed why=\"" << e.what() << '"';
        logLine(fmt(fabric_.now(), os.str().c_str()));
        return false;
    }
}

std::vector<std::unique_ptr<compress::Codec>>
ServerNode::makePullCodecs(
    const std::vector<std::vector<compress::BlockResidual>> &residuals)
    const
{
    if (!residuals.empty() && residuals.size() != peers_.size())
        throw std::runtime_error(
            "checkpoint pull residuals do not cover this fleet");
    std::vector<std::unique_ptr<compress::Codec>> codecs;
    for (std::size_t w = 0; w < peers_.size(); ++w) {
        codecs.push_back(compress::makeCodec(cfg_.codec));
        if (residuals.empty())
            continue;
        // Blocks are rows, as the pull encode keys them: a block the
        // model lacks, or of the wrong width, is a foreign residual.
        for (const compress::BlockResidual &b : residuals[w]) {
            if (b.block >= flat_->rowCount() ||
                b.values.size() != flat_->rowInfo(b.block).width)
                throw std::runtime_error(
                    "checkpoint pull residual does not fit the model");
            codecs.back()->restoreResidual(b.block, b.values);
        }
    }
    return codecs;
}

void
ServerNode::logLine(const std::string &line)
{
    if (log_)
        log_(line);
}

void
ServerNode::start()
{
    fabric_.setMessageHandler(
        [this](const MessageKey &key, std::vector<std::uint8_t> &&b) {
            onMessage(key, std::move(b));
        });
    member_timer_ = fabric_.after(cfg_.detector.check_interval_s,
                                  [this] { evaluateMembership(); });
    {
        std::ostringstream os;
        os << "server_start epoch=" << table_.epoch()
           << " recovered=" << (recovered_ ? 1 : 0);
        logLine(fmt(fabric_.now(), os.str().c_str()));
    }
    if (recovered_) {
        // The restored apply watermark, one row per worker — the
        // invariant checker uses these to prove no push that survived
        // the crash is ever applied twice by the new incarnation.
        for (std::size_t w = 0; w < peers_.size(); ++w) {
            std::ostringstream os;
            os << "recover_w w=" << w << " versions=";
            for (std::size_t u = 0; u < partition_->unitCount(); ++u) {
                if (u > 0)
                    os << ',';
                os << server_.version(w, u);
            }
            logLine(fmt(fabric_.now(), os.str().c_str()));
        }
        // Re-persist immediately under the bumped epoch: a second
        // crash before the next cadence checkpoint must recover to
        // this epoch, not re-derive it from the pre-crash file.
        checkpointNow();
        checkDone();
    }
}

void
ServerNode::onMessage(const MessageKey &key,
                      std::vector<std::uint8_t> &&bytes)
{
    if (!isControlRow(key.row)) {
        onPush(key, std::move(bytes));
        return;
    }
    switch (key.row) {
    case net::session::kRowHello:
        onHello(std::move(bytes));
        return;
    case net::session::kRowPullReq:
        onPullReq(key, std::move(bytes));
        return;
    case net::session::kRowHeartbeat:
        onHeartbeat(key, std::move(bytes));
        return;
    case net::session::kRowBye:
        onBye(key, std::move(bytes));
        return;
    default:
        return; // not addressed to a server.
    }
}

bool
ServerNode::sessionCurrent(std::size_t w, std::int64_t version)
{
    if (w < peers_.size() && table_.isCurrent(w, versionScope(version)))
        return true;
    ++stale_drops_;
    std::ostringstream os;
    os << "stale_drop w=" << w << " scope=" << versionScope(version);
    logLine(fmt(fabric_.now(), os.str().c_str()));
    return false;
}

void
ServerNode::onHello(std::vector<std::uint8_t> &&bytes)
{
    Hello h;
    if (!net::session::parse(bytes, h) || h.worker >= peers_.size())
        return;
    const std::size_t w = h.worker;
    const double now = fabric_.now();
    const net::session::Admission a = table_.onHello(h);

    // A handshake (either way) proves the old return path is stale:
    // (re)connect to the worker's receiver before answering.
    WorkerPeer &peer = peers_[w];
    peer.host = "127.0.0.1";
    peer.port = h.rx_port;
    peer.connected =
        fabric_.connectPeer(workerNode(w), peer.host, peer.port);
    if (!peer.connected) {
        // No return path — e.g. the worker died right after its Hello
        // and a tcp connect fails synchronously. Answering would hit
        // sendTo on a missing peer; drop the handshake instead. The
        // worker's Hello retry re-triggers admission on a live socket.
        std::ostringstream os;
        os << "hello_connect_failed w=" << w << " port=" << h.rx_port;
        logLine(fmt(now, os.str().c_str()));
        return;
    }

    if (!a.admitted) {
        Reject rej;
        rej.nonce = h.nonce;
        rej.reason = a.reject;
        rej.server_epoch = table_.epoch();
        std::ostringstream os;
        os << "reject w=" << w
           << " reason=" << rejectReasonName(a.reject)
           << " inc=" << h.incarnation;
        logLine(fmt(now, os.str().c_str()));
        MessageKey key{static_cast<std::uint16_t>(w),
                       packVersion(0, ctrl_seq_++),
                       net::session::kRowReject, true};
        fabric_.sendTo(workerNode(w), key, net::session::encode(rej),
                       now + cfg_.welcome_timeout_s, {});
        return;
    }

    // Membership lifecycle: a restarted process and a simulated
    // crash/rejoin walk the same transitions.
    if (tracker_.active(w)) {
        switch (tracker_.state(w)) {
        case MemberState::Dead:
            tracker_.markRejoining(w, now);
            tracker_.markRejoined(w, now);
            break;
        case MemberState::Rejoining:
            tracker_.markRejoined(w, now);
            break;
        default:
            tracker_.resetStats(w, now);
            break;
        }
    }

    // Version re-entry: never below anything the worker already
    // pushed, so its next push is fresh by construction.
    std::int64_t start = a.start_iter;
    if (a.mode != AdmitMode::Fresh) {
        start = std::max(start, server_.maxVersionOfWorker(w));
        server_.rejoinWorker(w, start);
    }

    // Rejoin resyncs to the canonical model, which already reflects
    // every averaged gradient the worker missed: drop its pending
    // copies or they would be applied twice. Resume keeps them — that
    // is the whole point of resuming.
    if (a.mode == AdmitMode::Rejoin)
        server_.clearWorker(w);
    // The pull residual belongs to the worker's model trajectory: a
    // resumed worker still owes it, a resynced one starts clean (as
    // Engine::rejoinResync resets w.pull_codec).
    if (a.mode != AdmitMode::Resume)
        pull_codecs_[w] = compress::makeCodec(cfg_.codec);

    peer.pending_pull = -1;
    peer.bye = false;

    Welcome wmsg;
    wmsg.nonce = h.nonce;
    wmsg.session = a.session;
    wmsg.resume_token = a.resume_token;
    wmsg.mode = a.mode;
    wmsg.start_iter = start;
    wmsg.epoch = table_.epoch();
    if (a.mode != AdmitMode::Resume)
        wmsg.model = modelBytes();

    std::ostringstream os;
    os << "admit w=" << w << " mode=" << admitModeName(a.mode)
       << " session=" << a.session << " start=" << start
       << " inc=" << h.incarnation
       << " model_bytes=" << wmsg.model.size()
       << " epoch=" << table_.epoch();
    logLine(fmt(now, os.str().c_str()));

    MessageKey key{static_cast<std::uint16_t>(w),
                   packVersion(0, ctrl_seq_++),
                   net::session::kRowWelcome, true};
    fabric_.sendTo(workerNode(w), key, net::session::encode(wmsg),
                   now + cfg_.welcome_timeout_s, {});
    answerReadyPulls();
}

void
ServerNode::onPush(const MessageKey &key,
                   std::vector<std::uint8_t> &&bytes)
{
    const std::size_t w = key.worker;
    if (w >= peers_.size() || !sessionCurrent(w, key.version))
        return;
    const std::int64_t iter = versionSeq(key.version);
    const std::size_t unit = key.row;
    if (unit >= partition_->unitCount())
        return;
    // A payload of the wrong length (or a malformed one) is ignored
    // before anything changes: it is not a push of this unit.
    const Unit &u = partition_->unit(unit);
    decoded_.resize(u.width);
    if (!decodeUnit(*decoder_, *flat_, u, bytes, decoded_).ok())
        return;

    // Application-level exactly-once: the version matrix is monotone
    // per (worker, unit), so a retransmitted or replayed push (e.g. a
    // restarted worker redoing its last iteration) is recorded, never
    // applied.
    if (iter <= server_.version(w, unit)) {
        ++duplicate_pushes_;
        std::ostringstream os;
        os << "dup_push w=" << w << " iter=" << iter
           << " unit=" << unit;
        logLine(fmt(fabric_.now(), os.str().c_str()));
        return;
    }

    // Quarantine a poisoned push (NaN, Inf, or outside the server's
    // fixed-point range): nothing reaches the outbox or the canonical
    // model. Its version is still recorded, so the push counts as
    // received — a retransmission stays a duplicate and the RSP gate
    // does not wait on a gradient that will never be applied.
    if (!server_.accumulate(unit, decoded_)) {
        ++rejected_pushes_;
        server_.updateVersion(w, unit, iter);
        std::ostringstream os;
        os << "reject_push w=" << w << " iter=" << iter
           << " unit=" << unit;
        logLine(fmt(fabric_.now(), os.str().c_str()));
        answerReadyPulls();
        return;
    }
    server_.noteUpdate(unit, iter);
    server_.updateVersion(w, unit, iter);

    // The canonical model eats the same 1/num share every outbox
    // gets, so a rejoiner resyncing from it owes nothing twice.
    const float inv =
        1.0f / static_cast<float>(workload_.workers());
    scaled_.resize(decoded_.size());
    for (std::size_t i = 0; i < decoded_.size(); ++i)
        scaled_[i] = decoded_[i] * inv;
    flat_->forEachRowChunk(
        u.begin, u.width,
        [&](std::size_t row, std::size_t col_begin, std::size_t count,
            std::size_t off) {
            opt_->applyRowRange(
                row, col_begin,
                std::span<const float>(scaled_.data() + off, count));
        });

    ++applied_pushes_;
    ++applies_since_ckpt_;
    std::ostringstream os;
    os << "apply w=" << w << " iter=" << iter << " unit=" << unit
       << " bytes=" << bytes.size();
    logLine(fmt(fabric_.now(), os.str().c_str()));
    maybeCheckpoint();
    if (apply_hook_)
        apply_hook_({.worker = w,
                     .iter = iter,
                     .unit = unit,
                     .grad = {},
                     .values = decoded_,
                     .wire_bytes = bytes.size()});
    answerReadyPulls();
}

void
ServerNode::onPullReq(const MessageKey &key,
                      std::vector<std::uint8_t> &&bytes)
{
    PullReq req;
    if (!net::session::parse(bytes, req) ||
        req.worker >= peers_.size())
        return;
    const std::size_t w = req.worker;
    if (!sessionCurrent(w, key.version))
        return;
    table_.noteProgress(w, req.iter - 1);
    peers_[w].pending_pull = req.iter;
    std::ostringstream os;
    os << "pull_req w=" << w << " iter=" << req.iter;
    logLine(fmt(fabric_.now(), os.str().c_str()));
    answerReadyPulls();
}

void
ServerNode::onHeartbeat(const MessageKey &key,
                        std::vector<std::uint8_t> &&bytes)
{
    Heartbeat hb;
    if (!net::session::parse(bytes, hb) ||
        hb.worker >= peers_.size())
        return;
    if (!sessionCurrent(hb.worker, key.version))
        return;
    if (tracker_.active(hb.worker))
        tracker_.observeHeartbeat(hb.worker, fabric_.now());
    table_.noteProgress(hb.worker, hb.iter);
}

void
ServerNode::onBye(const MessageKey &key,
                  std::vector<std::uint8_t> &&bytes)
{
    Bye bye;
    if (!net::session::parse(bytes, bye) ||
        bye.worker >= peers_.size())
        return;
    const std::size_t w = bye.worker;
    if (!sessionCurrent(w, key.version) || peers_[w].bye)
        return;
    table_.noteProgress(w, bye.done_iter);
    peers_[w].bye = true;
    peers_[w].pending_pull = -1;
    server_.retireWorker(w);
    tracker_.deactivate(w);
    std::ostringstream os;
    os << "bye w=" << w << " done_iter=" << bye.done_iter;
    logLine(fmt(fabric_.now(), os.str().c_str()));
    answerReadyPulls();
    checkDone();
}

void
ServerNode::evaluateMembership()
{
    const double now = fabric_.now();
    for (const MembershipEvent &ev : tracker_.evaluate(now)) {
        std::ostringstream os;
        os << "member w=" << ev.worker
           << " from=" << memberStateName(ev.from)
           << " to=" << memberStateName(ev.to) << " phi=" << ev.phi;
        logLine(fmt(ev.time, os.str().c_str()));
        if (ev.to == MemberState::Dead)
            evictWorker(ev.worker);
    }
    if (!done_)
        member_timer_ = fabric_.after(cfg_.detector.check_interval_s,
                                      [this] { evaluateMembership(); });
    else
        member_timer_ = 0;
}

void
ServerNode::evictWorker(std::size_t w)
{
    if (peers_[w].bye)
        return;
    server_.retireWorker(w);
    server_.clearWorker(w);
    peers_[w].pending_pull = -1;
    std::ostringstream os;
    os << "evict w=" << w;
    logLine(fmt(fabric_.now(), os.str().c_str()));
    answerReadyPulls();
}

bool
ServerNode::gateOpen(std::int64_t iter) const
{
    // RSP's gate (Algo 2): wait while n - min(V) >= threshold.
    return iter - server_.minWorkerIteration() < cfg_.staleness;
}

void
ServerNode::answerReadyPulls()
{
    for (std::size_t w = 0; w < peers_.size(); ++w)
        if (peers_[w].pending_pull >= 0 &&
            gateOpen(peers_[w].pending_pull))
            answerPull(w, peers_[w].pending_pull);
}

void
ServerNode::answerPull(std::size_t w, std::int64_t iter)
{
    // The return connection can vanish independently of the pull
    // (dropped on a failed re-Hello): keep the pull and its pending
    // gradients queued until the worker reconnects or is evicted.
    if (!fabric_.hasPeer(workerNode(w)))
        return;
    // Every pending unit goes through the worker's pull codec, as the
    // engine transcodes each pull through w.pull_codec: the wire
    // carries its bytes, its residual keeps what they leave out.
    PullData &pd = pull_msg_;
    pd.iter = iter;
    pd.min_done = server_.minWorkerIteration();
    std::size_t units = 0;
    std::size_t payload = 0;
    for (std::size_t u = 0; u < partition_->unitCount(); ++u) {
        if (!server_.hasPending(w, u))
            continue;
        if (units == pd.units.size())
            pd.units.emplace_back();
        UnitUpdate &up = pd.units[units++];
        up.unit = static_cast<std::uint32_t>(u);
        std::span<float> pending = server_.pending(w, u);
        pull_out_.resize(pending.size());
        encodeUnit(*pull_codecs_[w], *flat_, partition_->unit(u), pending,
                   pull_out_, up.bytes);
        payload += up.bytes.size();
        server_.clearPending(w, u);
    }
    pd.units.resize(units);
    peers_[w].pending_pull = -1;
    table_.noteResponse(w, iter);

    std::ostringstream os;
    os << "pull_answer w=" << w << " iter=" << iter
       << " units=" << pd.units.size() << " bytes=" << payload;
    logLine(fmt(fabric_.now(), os.str().c_str()));

    MessageKey key{static_cast<std::uint16_t>(w),
                   packVersion(table_.sessionOf(w), iter),
                   net::session::kRowPullData, true};
    fabric_.sendTo(workerNode(w), key, net::session::encode(pd),
                   fabric_.now() + cfg_.pull_timeout_s, {});
}

void
ServerNode::maybeCheckpoint()
{
    if (cfg_.checkpoint_path.empty() || cfg_.checkpoint_every == 0 ||
        applies_since_ckpt_ < cfg_.checkpoint_every)
        return;
    checkpointNow();
}

void
ServerNode::checkpointNow()
{
    if (cfg_.checkpoint_path.empty())
        return;
    ServerCheckpoint ckpt;
    ckpt.iteration = server_.minWorkerIteration();
    ckpt.msg_seq = ctrl_seq_;
    ckpt.versions = server_.shard(0).versionSnapshot();
    ckpt.server = server_.shard(0).serverSnapshot();
    ckpt.tracker = server_.shard(0).trackerSnapshot();
    ckpt.epoch = table_.epoch();
    ckpt.sessions = table_.snapshot();
    ckpt.model = modelBytes();
    ckpt.worker_done.resize(peers_.size());
    for (std::size_t w = 0; w < peers_.size(); ++w)
        ckpt.worker_done[w] = peers_[w].bye ? 1 : 0;
    for (const auto &codec : pull_codecs_)
        ckpt.pull_residual.push_back(codec->residuals());
    writeServerCheckpointFile(cfg_.checkpoint_path, ckpt);
    applies_since_ckpt_ = 0;
    std::ostringstream os;
    os << "checkpoint iter=" << ckpt.iteration
       << " applied=" << applied_pushes_;
    logLine(fmt(fabric_.now(), os.str().c_str()));
}

void
ServerNode::checkDone()
{
    for (const WorkerPeer &p : peers_)
        if (!p.bye)
            return;
    done_ = true;
    checkpointNow();
    logLine(fmt(fabric_.now(), "server_done"));
}

double
ServerNode::evaluateModel()
{
    return workload_.evaluate(*model_);
}

std::vector<std::uint8_t>
ServerNode::modelBytes()
{
    std::ostringstream os;
    nn::saveModel(os, *model_);
    const std::string s = os.str();
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

// --------------------------------------------------------------------
// WorkerNode
// --------------------------------------------------------------------

WorkerNode::WorkerNode(net::session::Fabric &fabric, Workload &workload,
                       const NodeTrainConfig &cfg, std::size_t worker,
                       const WorkerResumeState &resume, NodeLogger log)
    : fabric_(fabric), workload_(workload), cfg_(cfg), worker_(worker),
      log_(std::move(log)), model_(workload.buildReplica()),
      flat_(std::make_unique<FlatModel>(*model_)),
      partition_(
          std::make_unique<RowPartition>(*flat_, cfg.granularity)),
      opt_(std::make_unique<nn::SgdMomentum>(
          *model_, workload.optimizerConfig())),
      codec_(compress::makeCodec(cfg.codec)),
      sampler_(workload.makeSampler(worker)),
      incarnation_(resume.incarnation),
      resume_token_(resume.resume_token), epoch_(cfg.epoch),
      done_iter_(resume.last_done_iter)
{
    // A resume claim is only honest with the checkpointed model on
    // disk; without it, fall back to a fresh (token-less) handshake.
    if (resume_token_ != 0) {
        bool loaded = false;
        if (!cfg_.worker_state_dir.empty()) {
            try {
                nn::loadModelFile(cfg_.worker_state_dir + "/worker" +
                                      std::to_string(worker_) + ".rogm",
                                  *model_);
                loaded = true;
            } catch (const std::exception &) {
                loaded = false;
            }
        }
        if (!loaded) {
            resume_token_ = 0;
            done_iter_ = 0;
        }
    }
}

WorkerNode::~WorkerNode()
{
    if (hello_timer_ != 0)
        fabric_.cancelTimer(hello_timer_);
    if (heartbeat_timer_ != 0)
        fabric_.cancelTimer(heartbeat_timer_);
    if (server_watch_timer_ != 0)
        fabric_.cancelTimer(server_watch_timer_);
    fabric_.setMessageHandler({});
}

void
WorkerNode::logLine(const std::string &line)
{
    if (log_)
        log_(line);
}

void
WorkerNode::start(const std::string &server_host,
                  std::uint16_t server_port)
{
    server_host_ = server_host;
    server_port_ = server_port;
    fabric_.setMessageHandler(
        [this](const MessageKey &key, std::vector<std::uint8_t> &&b) {
            onMessage(key, std::move(b));
        });
    if (!fabric_.connectPeer(kServerNode, server_host_, server_port_)) {
        logLine(fmt(fabric_.now(), "connect_failed"));
        phase_ = Phase::Failed;
        return;
    }
    sendHello();
    armHelloRetry();
}

void
WorkerNode::onMessage(const MessageKey &key,
                      std::vector<std::uint8_t> &&bytes)
{
    // Every one of these rows only ever originates at the server:
    // each is proof of life for the response-gap failure detector.
    noteServerAlive();
    switch (key.row) {
    case net::session::kRowWelcome:
        onWelcome(std::move(bytes));
        return;
    case net::session::kRowReject:
        onReject(std::move(bytes));
        return;
    case net::session::kRowPullData:
        // Only this live session's responses count; a slow PullData
        // from a pre-restart session must not double-apply.
        if (session_ != 0 && versionScope(key.version) == session_)
            onPullData(std::move(bytes));
        return;
    default:
        return; // not addressed to a worker.
    }
}

void
WorkerNode::sendHello()
{
    hello_nonce_ = (static_cast<std::uint64_t>(worker_) << 40) ^
                   (static_cast<std::uint64_t>(incarnation_) << 20) ^
                   hello_seq_;
    Hello h;
    h.worker = static_cast<std::uint16_t>(worker_);
    h.incarnation = incarnation_;
    h.epoch = epoch_;
    h.resume_token = resume_token_;
    h.nonce = hello_nonce_;
    h.rx_port = fabric_.listenPort();
    h.last_done_iter = done_iter_;

    std::ostringstream os;
    os << "hello try=" << hello_tries_ << " inc=" << incarnation_
       << " token=" << resume_token_ << " done_iter=" << done_iter_;
    logLine(fmt(fabric_.now(), os.str().c_str()));

    MessageKey key{static_cast<std::uint16_t>(worker_),
                   packVersion(incarnation_, hello_seq_++),
                   net::session::kRowHello, false};
    fabric_.sendTo(kServerNode, key, net::session::encode(h),
                   fabric_.now() + cfg_.hello_retry_max_s, {});
}

void
WorkerNode::armHelloRetry()
{
    // Capped exponential: the same shape as the transport's retry
    // backoff, so a long server outage costs a bounded poll rate.
    const double exp2 = std::pow(
        2.0, static_cast<double>(std::min<std::size_t>(
                 hello_tries_, net::transport::kMaxBackoffExponent)));
    const double delay = std::min(cfg_.hello_retry_max_s,
                                  cfg_.hello_retry_base_s * exp2);
    hello_timer_ = fabric_.after(delay, [this] {
        hello_timer_ = 0;
        if (phase_ != Phase::Hello)
            return;
        if (++hello_tries_ >= cfg_.hello_max_tries) {
            logLine(fmt(fabric_.now(), "hello_giveup"));
            phase_ = Phase::Failed;
            return;
        }
        // The socket itself may be the problem (server restarted):
        // reconnect before retrying.
        fabric_.connectPeer(kServerNode, server_host_, server_port_);
        sendHello();
        armHelloRetry();
    });
}

void
WorkerNode::onWelcome(std::vector<std::uint8_t> &&bytes)
{
    Welcome w;
    if (!net::session::parse(bytes, w) || w.nonce != hello_nonce_ ||
        phase_ != Phase::Hello)
        return;
    if (hello_timer_ != 0) {
        fabric_.cancelTimer(hello_timer_);
        hello_timer_ = 0;
    }
    session_ = w.session;
    resume_token_ = w.resume_token;
    epoch_ = w.epoch;
    admit_mode_ = w.mode;
    done_iter_ = w.start_iter;
    hello_tries_ = 0;

    if (w.mode != AdmitMode::Resume && !w.model.empty()) {
        std::string s(w.model.begin(), w.model.end());
        std::istringstream is(s);
        nn::loadModel(is, *model_);
    }
    // Fresh transmission state for a fresh session: the codec's error
    // residual and the momentum buffers belong to the dead
    // incarnation's stream (they are not part of the resume
    // contract — the model checkpoint is).
    codec_ = compress::makeCodec(cfg_.codec);
    opt_ = std::make_unique<nn::SgdMomentum>(
        *model_, workload_.optimizerConfig());

    std::ostringstream os;
    os << "welcome mode=" << admitModeName(w.mode)
       << " session=" << session_ << " start=" << done_iter_
       << " epoch=" << epoch_ << " model_bytes=" << w.model.size();
    logLine(fmt(fabric_.now(), os.str().c_str()));

    hb_fail_streak_ = 0;
    armHeartbeat();
    armServerWatch();

    // A Resume admission whose start line sits exactly one short of
    // the parked push means the new server never applied it: re-send
    // the parked bytes under the fresh session scope instead of
    // recomputing (the codec residual has moved on). Any other
    // admission mode resynced the model, which already covers — or
    // deliberately discards — whatever was in flight.
    if (w.mode == AdmitMode::Resume && parked_iter_ == done_iter_ + 1) {
        repushParked();
        return;
    }
    parked_iter_ = 0;
    beginIteration();
}

void
WorkerNode::onReject(std::vector<std::uint8_t> &&bytes)
{
    Reject r;
    if (!net::session::parse(bytes, r) || r.nonce != hello_nonce_ ||
        phase_ != Phase::Hello)
        return;
    std::ostringstream os;
    os << "rejected reason=" << rejectReasonName(r.reason);
    logLine(fmt(fabric_.now(), os.str().c_str()));
    if (r.reason == RejectReason::BadEpoch) {
        epoch_ = r.server_epoch; // adopt and retry.
        // An epoch change means the server restarted with fresh
        // receiver state: wipe this link's per-key delivery memory
        // (it describes a dead process) and rebuild the connection.
        fabric_.resetPeer(kServerNode);
        fabric_.connectPeer(kServerNode, server_host_, server_port_);
    } else {
        resume_token_ = 0; // stale claim: re-enter fresh.
        done_iter_ = 0;
    }
    if (hello_timer_ != 0) {
        fabric_.cancelTimer(hello_timer_);
        hello_timer_ = 0;
    }
    ++hello_tries_;
    sendHello();
    armHelloRetry();
}

void
WorkerNode::beginIteration()
{
    iter_ = done_iter_ + 1;
    if (iter_ > cfg_.max_iters) {
        finishRun();
        return;
    }
    phase_ = Phase::Pushing;
    {
        std::ostringstream os;
        os << "iter=" << iter_ << " phase=push_begin";
        logLine(fmt(fabric_.now(), os.str().c_str()));
    }

    // One real training step (identical to the in-process engine).
    data::Batch batch = sampler_.sample(workload_.batchSize());
    model_->zeroGrad();
    const tensor::Tensor &out = model_->forward(batch.features);
    nn::LossResult loss =
        batch.labels.empty()
            ? nn::meanSquaredError(out, batch.targets)
            : nn::softmaxCrossEntropy(out, batch.labels);
    model_->backward(loss.grad);

    // Encode every synchronization unit per row chunk (codec block =
    // row, as the engine keys it) and park the codec's bytes as the
    // push payloads: if the server dies mid-push, the next admission
    // can re-send these exact payloads (the codec residual has
    // already advanced, so a recompute would not reproduce them).
    parked_.resize(partition_->unitCount());
    parked_iter_ = iter_;
    for (std::size_t u = 0; u < partition_->unitCount(); ++u) {
        const Unit &unit = partition_->unit(u);
        grad_.resize(unit.width);
        decoded_.resize(unit.width);
        flat_->gatherGrad(unit.begin, grad_);
        encodeUnit(*codec_, *flat_, unit, grad_, decoded_, parked_[u]);
        if (push_hook_)
            push_hook_({.worker = worker_,
                        .iter = iter_,
                        .unit = u,
                        .grad = grad_,
                        .values = decoded_,
                        .wire_bytes = parked_[u].size()});
    }
    sendParked();
}

void
WorkerNode::sendParked()
{
    // Deadline-less with unbounded chunk retries: a partition stalls
    // the run, it does not corrupt it.
    pushes_in_flight_ = parked_.size();
    push_failed_ = false;
    const std::uint32_t session = session_;
    for (std::size_t u = 0; u < parked_.size(); ++u) {
        MessageKey key{static_cast<std::uint16_t>(worker_),
                       packVersion(session, iter_),
                       static_cast<std::uint32_t>(u), false};
        fabric_.sendTo(
            kServerNode, key, parked_[u], kNoDeadline,
            [this, session](bool ok) {
                if (session != session_ || phase_ != Phase::Pushing)
                    return; // superseded by a resync.
                if (!ok)
                    push_failed_ = true;
                if (--pushes_in_flight_ == 0)
                    onPushesSettled();
            });
    }
}

void
WorkerNode::repushParked()
{
    iter_ = parked_iter_;
    phase_ = Phase::Pushing;
    std::ostringstream os;
    os << "iter=" << iter_ << " phase=repush units=" << parked_.size();
    logLine(fmt(fabric_.now(), os.str().c_str()));
    sendParked();
}

void
WorkerNode::onPushesSettled()
{
    if (push_failed_) {
        resync("push_failed");
        return;
    }
    {
        std::ostringstream os;
        os << "iter=" << iter_ << " phase=push_done";
        logLine(fmt(fabric_.now(), os.str().c_str()));
    }
    phase_ = Phase::PullWait;
    PullReq req;
    req.worker = static_cast<std::uint16_t>(worker_);
    req.iter = iter_;
    MessageKey key{static_cast<std::uint16_t>(worker_),
                   packVersion(session_, iter_),
                   net::session::kRowPullReq, false};
    const std::uint32_t session = session_;
    fabric_.sendTo(kServerNode, key, net::session::encode(req),
                   kNoDeadline, [this, session](bool ok) {
                       if (!ok && session == session_ &&
                           phase_ == Phase::PullWait)
                           resync("pull_req_failed");
                   });
}

void
WorkerNode::onPullData(std::vector<std::uint8_t> &&bytes)
{
    PullData pd;
    if (!net::session::parse(bytes, pd) || phase_ != Phase::PullWait ||
        pd.iter != iter_)
        return;
    // Decode every unit before applying any: a PullData whose units,
    // widths or byte lengths disagree with this partition, or that
    // decodes to a non-finite value, is dropped whole. (Decoding is
    // stateless, so the push codec's instance serves.)
    if (pd.units.size() > partition_->unitCount())
        return;
    pulled_.clear();
    for (std::size_t i = 0; i < pd.units.size(); ++i) {
        const UnitUpdate &u = pd.units[i];
        if (u.unit >= partition_->unitCount() ||
            (i > 0 && u.unit <= pd.units[i - 1].unit))
            return; // foreign, repeated or out-of-order unit.
        const Unit &unit = partition_->unit(u.unit);
        const std::size_t off = pulled_.size();
        pulled_.resize(off + unit.width);
        const std::span<float> out(pulled_.data() + off, unit.width);
        if (!decodeUnit(*codec_, *flat_, unit, u.bytes, out).ok() ||
            !std::all_of(out.begin(), out.end(),
                         [](float v) { return std::isfinite(v); }))
            return;
    }
    std::size_t off = 0;
    for (const UnitUpdate &u : pd.units) {
        const std::size_t width = partition_->unit(u.unit).width;
        applyUnit(u.unit, std::span<const float>(pulled_.data() + off,
                                                 width));
        off += width;
    }
    done_iter_ = iter_;
    parked_iter_ = 0; // the iteration landed; nothing left to re-send.
    writeLocalCheckpoint();
    std::ostringstream os;
    os << "iter=" << iter_ << " phase=applied units=" << pd.units.size();
    logLine(fmt(fabric_.now(), os.str().c_str()));
    beginIteration();
}

void
WorkerNode::applyUnit(std::size_t unit, std::span<const float> values)
{
    const Unit &u = partition_->unit(unit);
    flat_->forEachRowChunk(
        u.begin, u.width,
        [&](std::size_t row, std::size_t col_begin, std::size_t count,
            std::size_t off) {
            opt_->applyRowRange(
                row, col_begin,
                std::span<const float>(values.data() + off, count));
        });
}

void
WorkerNode::writeLocalCheckpoint()
{
    if (cfg_.worker_state_dir.empty())
        return;
    const std::string base =
        cfg_.worker_state_dir + "/worker" + std::to_string(worker_);
    nn::saveModelFile(base + ".rogm", *model_);
    // Tiny metadata sidecar, atomically renamed into place: token,
    // durable iteration, incarnation.
    const std::string tmp = base + ".meta.tmp";
    {
        std::ostringstream os;
        os << resume_token_ << ' ' << done_iter_ << ' '
           << incarnation_ << '\n';
        FILE *f = std::fopen(tmp.c_str(), "w");
        if (f == nullptr)
            return;
        const std::string s = os.str();
        std::fwrite(s.data(), 1, s.size(), f);
        std::fclose(f);
    }
    std::rename(tmp.c_str(), (base + ".meta").c_str());
}

void
WorkerNode::finishRun()
{
    phase_ = Phase::Leaving;
    if (heartbeat_timer_ != 0) {
        fabric_.cancelTimer(heartbeat_timer_);
        heartbeat_timer_ = 0;
    }
    if (server_watch_timer_ != 0) {
        fabric_.cancelTimer(server_watch_timer_);
        server_watch_timer_ = 0;
    }
    Bye bye;
    bye.worker = static_cast<std::uint16_t>(worker_);
    bye.done_iter = done_iter_;
    std::ostringstream os;
    os << "bye done_iter=" << done_iter_;
    logLine(fmt(fabric_.now(), os.str().c_str()));
    MessageKey key{static_cast<std::uint16_t>(worker_),
                   packVersion(session_, 0), net::session::kRowBye,
                   false};
    fabric_.sendTo(kServerNode, key, net::session::encode(bye),
                   fabric_.now() + cfg_.welcome_timeout_s,
                   [this](bool) { phase_ = Phase::Done; });
}

void
WorkerNode::armHeartbeat()
{
    heartbeat_timer_ =
        fabric_.after(cfg_.detector.heartbeat_interval_s, [this] {
            heartbeat_timer_ = 0;
            if (!admitted() || phase_ == Phase::Leaving ||
                phase_ == Phase::Done)
                return;
            sendHeartbeat();
            armHeartbeat();
        });
}

void
WorkerNode::sendHeartbeat()
{
    Heartbeat hb;
    hb.worker = static_cast<std::uint16_t>(worker_);
    hb.iter = done_iter_;
    MessageKey key{static_cast<std::uint16_t>(worker_),
                   packVersion(session_, hb_seq_++),
                   net::session::kRowHeartbeat, false};
    // Best effort with a short deadline: a heartbeat that cannot get
    // through quickly is worthless, and must never pile up retries.
    // A *streak* of failures, though, is transport-level evidence the
    // server is gone — faster than waiting out the response-gap phi.
    const std::uint32_t session = session_;
    fabric_.sendTo(
        kServerNode, key, net::session::encode(hb),
        fabric_.now() + 2.0 * cfg_.detector.heartbeat_interval_s,
        [this, session](bool ok) {
            if (session != session_)
                return; // superseded by a resync.
            if (ok) {
                hb_fail_streak_ = 0;
                return;
            }
            if (++hb_fail_streak_ < 3 ||
                (phase_ != Phase::Pushing && phase_ != Phase::PullWait))
                return;
            hb_fail_streak_ = 0;
            resync("heartbeat_failed");
        });
}

void
WorkerNode::noteServerAlive()
{
    const double now = fabric_.now();
    if (last_server_msg_ > 0.0) {
        const double gap = now - last_server_msg_;
        // Same EWMA shape as the server's heartbeat detector.
        server_gap_ewma_ = server_gap_samples_ == 0
                               ? gap
                               : 0.8 * server_gap_ewma_ + 0.2 * gap;
        ++server_gap_samples_;
    }
    last_server_msg_ = now;
}

void
WorkerNode::armServerWatch()
{
    if (server_watch_timer_ != 0)
        fabric_.cancelTimer(server_watch_timer_);
    if (last_server_msg_ <= 0.0)
        last_server_msg_ = fabric_.now();
    server_watch_timer_ =
        fabric_.after(cfg_.server_check_interval_s, [this] {
            server_watch_timer_ = 0;
            checkServer();
        });
}

void
WorkerNode::checkServer()
{
    // Only a mid-iteration worker expects the server to answer; in
    // Hello the capped-retry loop is already probing, and a leaving
    // or finished worker has nothing left to wait for.
    if (phase_ != Phase::Pushing && phase_ != Phase::PullWait)
        return;
    const double now = fabric_.now();
    const double silence = now - last_server_msg_;
    bool suspect = silence >= cfg_.server_silence_bound_s;
    if (!suspect && server_gap_samples_ >= cfg_.server_phi_min_samples) {
        constexpr double kLn10 = 2.302585092994046;
        const double mean =
            std::max(server_gap_ewma_, cfg_.server_check_interval_s);
        suspect = silence / (mean * kLn10) >= cfg_.server_phi_suspect;
    }
    if (suspect) {
        std::ostringstream os;
        os << "server_suspect silence=" << silence;
        logLine(fmt(now, os.str().c_str()));
        resync("server_suspect");
        return;
    }
    armServerWatch();
}

void
WorkerNode::resync(const char *why)
{
    std::ostringstream os;
    os << "resync why=" << why;
    logLine(fmt(fabric_.now(), os.str().c_str()));
    if (heartbeat_timer_ != 0) {
        fabric_.cancelTimer(heartbeat_timer_);
        heartbeat_timer_ = 0;
    }
    if (hello_timer_ != 0) {
        fabric_.cancelTimer(hello_timer_);
        hello_timer_ = 0;
    }
    if (server_watch_timer_ != 0) {
        fabric_.cancelTimer(server_watch_timer_);
        server_watch_timer_ = 0;
    }
    session_ = 0;
    phase_ = Phase::Hello;
    hello_tries_ = 0;
    hb_fail_streak_ = 0;
    // The next incarnation of the server speaks on its own cadence:
    // old response-gap statistics would only poison the detector.
    last_server_msg_ = 0.0;
    server_gap_ewma_ = 0.0;
    server_gap_samples_ = 0;
    fabric_.dropPeer(kServerNode);
    fabric_.connectPeer(kServerNode, server_host_, server_port_);
    sendHello();
    armHelloRetry();
}

std::int64_t
WorkerNode::pushVersion(std::int64_t iter) const
{
    return packVersion(session_, iter);
}

} // namespace core
} // namespace rog
