/**
 * @file
 * socket_udp: ServerNode plus four WorkerNodes over real loopback UDP
 * on one PollLoop thread, with the tiny CRUDA workload and the one-bit
 * codec, and no faults.
 *
 * The session and transport layers, CRC and poll, and the kernel's
 * socket calls dominate; model compute is minor. It is the only
 * workload with real wire bytes and wall-clock latency.
 *
 * Each node binds an explicit port, as a deployment does (rog_noded
 * --listen-port). Ephemeral binds are not used: the UDP receiver sets
 * SO_REUSEADDR, under which Linux may hand two ephemeral binds the
 * same port; about one repetition in five hundred then lost one
 * worker's traffic to another and never finished.
 *
 * Every node's Fabric is wrapped by TimedFabric, which forwards each
 * call and keeps the per-message tally the metrics need: which pushes
 * were sent and applied (the exactly-once check), push-to-apply
 * latency, and, in traced repetitions, spans per message kind.
 */
#include <unistd.h>

#include <cmath>
#include <map>
#include <set>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/poll_loop.hpp"
#include "core/node_engine.hpp"
#include "core/node_runner.hpp"
#include "net/session/socket_fabric.hpp"
#include "perfbench.hpp"
#include "replay.hpp"

namespace perfbench {

using namespace rog;
using net::session::Fabric;
using net::session::FabricTimer;
using net::session::MessageKey;

namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::int64_t kIterations = 40; //!< per worker, per repetition.
constexpr std::size_t kMinReps = 20;
constexpr std::size_t kSubSeeds = 8; //!< workload seeds cycled per run.
constexpr double kRunTimeoutS = 30.0;

/** First of the kWorkers + 1 ports this process binds: per process,
 *  below the kernel's default ephemeral range (32768-60999). */
std::uint16_t
basePort()
{
    return static_cast<std::uint16_t>(20000 + (getpid() % 1500) * 8);
}

enum class Kind { Push, Pull, Control };

Kind
kindOf(const MessageKey &key)
{
    if (!net::session::isControlRow(key.row))
        return Kind::Push;
    if (key.row == net::session::kRowPullReq ||
        key.row == net::session::kRowPullData)
        return Kind::Pull;
    return Kind::Control;
}

const char *
handlerSpan(Kind k, bool server)
{
    switch (k) {
      case Kind::Push:
        return server ? "core.server.on_push" : "core.worker.on_push";
      case Kind::Pull:
        return server ? "core.server.on_pull" : "core.worker.on_pull";
      default:
        return server ? "core.server.on_control" : "core.worker.on_control";
    }
}

/** What one repetition's fabrics observed. */
struct Probe
{
    std::map<MessageKey, double> push_sent;  //!< key -> sendTo time.
    std::map<MessageKey, int> push_applied;  //!< key -> handler calls.
    std::vector<double> push_to_apply_ms;
    std::vector<double> on_push_us;
    std::vector<double> send_ack_ms;
    std::vector<double> admit_ms;
    double msgs[3] = {0, 0, 0};
    double payload_up = 0.0;
    double payload_down = 0.0;
    double send_failures = 0.0;
};

/** Forwarding Fabric that records what crosses the session seam. */
class TimedFabric : public Fabric
{
  public:
    TimedFabric(net::session::SocketFabric &inner, Probe &probe)
        : inner_(inner), probe_(probe), start_(Clock::now())
    {
    }

    int nodeId() const override { return inner_.nodeId(); }
    double now() const override { return inner_.now(); }
    FabricTimer
    after(double delay_s, std::function<void()> fire) override
    {
        const int tid = nodeId();
        return inner_.after(delay_s, [tid, fire = std::move(fire)] {
            Span s("net.session.after", "net", tid);
            fire();
        });
    }
    void cancelTimer(FabricTimer id) override { inner_.cancelTimer(id); }
    bool
    connectPeer(int peer, const std::string &host,
                std::uint16_t port) override
    {
        return inner_.connectPeer(peer, host, port);
    }
    bool hasPeer(int peer) const override { return inner_.hasPeer(peer); }
    bool peerHealthy(int peer) const override
    {
        return inner_.peerHealthy(peer);
    }
    void dropPeer(int peer) override { inner_.dropPeer(peer); }
    void resetPeer(int peer) override { inner_.resetPeer(peer); }
    std::uint16_t listenPort() const override { return inner_.listenPort(); }

    void
    sendTo(int peer, const MessageKey &key,
           std::span<const std::uint8_t> payload, double deadline_s,
           SendDone done) override
    {
        const Kind k = kindOf(key);
        const bool server = nodeId() == net::session::kServerNode;
        probe_.msgs[static_cast<int>(k)] += 1.0;
        (server ? probe_.payload_down : probe_.payload_up) +=
            static_cast<double>(payload.size());
        if (k == Kind::Push)
            probe_.push_sent.emplace(key, inner_.now());
        const double t0 = inner_.now();
        Probe *probe = &probe_;
        const bool traced = tracer().enabled();
        Span s("net.session.send_to", "net", nodeId());
        inner_.sendTo(peer, key, payload, deadline_s,
                      [probe, t0, traced, this_now = &inner_,
                       done = std::move(done)](bool ok) {
                          if (!ok)
                              probe->send_failures += 1.0;
                          else if (traced)
                              probe->send_ack_ms.push_back(
                                  1e3 * (this_now->now() - t0));
                          if (done)
                              done(ok);
                      });
    }

    void
    setMessageHandler(MessageHandler handler) override
    {
        inner_.setMessageHandler([this, handler = std::move(handler)](
                                     const MessageKey &key,
                                     std::vector<std::uint8_t> &&bytes) {
            const Kind k = kindOf(key);
            const bool server = nodeId() == net::session::kServerNode;
            const double t0 = inner_.now();
            {
                Span s(handlerSpan(k, server), "core", nodeId());
                handler(key, std::move(bytes));
            }
            const double t1 = inner_.now();
            if (server && k == Kind::Push) {
                ++probe_.push_applied[key];
                const auto it = probe_.push_sent.find(key);
                if (it != probe_.push_sent.end())
                    probe_.push_to_apply_ms.push_back(1e3 *
                                                      (t1 - it->second));
                if (tracer().enabled())
                    probe_.on_push_us.push_back(1e6 * (t1 - t0));
            }
            if (!server && key.row == net::session::kRowWelcome &&
                !admitted_) {
                admitted_ = true;
                probe_.admit_ms.push_back(1e3 * secondsSince(start_));
            }
        });
    }

  private:
    net::session::SocketFabric &inner_;
    Probe &probe_;
    Clock::time_point start_;
    bool admitted_ = false;
};

/** Outcome of one repetition. */
struct RepResult
{
    bool ok = false;
    std::string error;
    double setup_s = 0.0;
    double train_s = 0.0;
    double iterations = 0.0;
    double applied = 0.0;
    double duplicates = 0.0;
    double stale = 0.0;
    bool finite_model = false;
    double accuracy = 0.0;
};

RepResult
runOnce(std::uint64_t seed, Probe &probe)
{
    RepResult res;
    const auto t0 = Clock::now();

    core::NodeRunConfig cfg;
    cfg.workers = kWorkers;
    cfg.workload_seed = 1234 + seed;
    core::NodeTrainConfig train = cfg.train;
    train.max_iters = kIterations;
    train.session_salt = 7 + seed;
    train.checkpoint_path.clear();
    train.worker_state_dir.clear();
    std::unique_ptr<core::Workload> workload = core::makeNodeWorkload(cfg);

    PollLoop loop;
    net::session::SocketFabricOptions sopts;
    sopts.kind = "udp";
    sopts.transport = cfg.transport;
    sopts.socket = cfg.socket;
    sopts.listen_port = basePort();
    net::session::SocketFabric server_socket(loop, net::session::kServerNode,
                                             sopts);
    if (!server_socket.ok()) {
        res.error = "server bind: " + server_socket.error();
        return res;
    }
    TimedFabric server_fabric(server_socket, probe);
    core::ServerNode server(server_fabric, *workload, train);
    server.start();

    std::vector<std::unique_ptr<net::session::SocketFabric>> sockets;
    std::vector<std::unique_ptr<TimedFabric>> fabrics;
    std::vector<std::unique_ptr<core::WorkerNode>> workers;
    std::set<std::uint16_t> ports{server_socket.listenPort()};
    for (std::size_t w = 0; w < kWorkers; ++w) {
        sopts.listen_port = static_cast<std::uint16_t>(basePort() + 1 + w);
        sockets.push_back(std::make_unique<net::session::SocketFabric>(
            loop, net::session::workerNode(w), sopts));
        if (!sockets.back()->ok()) {
            res.error = "worker bind: " + sockets.back()->error();
            return res;
        }
        if (!ports.insert(sockets.back()->listenPort()).second) {
            res.error = "two nodes share a port";
            return res;
        }
        fabrics.push_back(std::make_unique<TimedFabric>(*sockets.back(), probe));
        workers.push_back(std::make_unique<core::WorkerNode>(
            *fabrics.back(), *workload, train, w, core::WorkerResumeState{}));
        workers.back()->start("127.0.0.1", server_socket.listenPort());
    }

    const auto all = [&](auto pred) {
        for (const auto &w : workers)
            if (!pred(*w))
                return false;
        return true;
    };
    if (!loop.runUntil(
            [&] { return all([](core::WorkerNode &w) { return w.admitted(); }); },
            kRunTimeoutS)) {
        res.error = "workers were not admitted";
        return res;
    }
    res.setup_s = secondsSince(t0);

    const auto t1 = Clock::now();
    const bool finished = loop.runUntil(
        [&] {
            return server.done() &&
                   all([](core::WorkerNode &w) { return w.done(); });
        },
        kRunTimeoutS);
    res.train_s = secondsSince(t1);
    if (!finished) {
        res.error = "run did not finish";
        return res;
    }
    // iter() is the iteration in flight: one past the last on a
    // finished worker.
    for (const auto &w : workers)
        res.iterations += static_cast<double>(w->iter() - 1);
    res.applied = static_cast<double>(server.appliedPushes());
    res.duplicates = static_cast<double>(server.duplicatePushes());
    res.stale = static_cast<double>(server.staleDrops());
    res.accuracy = server.evaluateModel();
    res.finite_model = std::isfinite(res.accuracy);
    res.ok = true;
    return res;
}

} // namespace

int
runSocketUdp(const Options &opt, Report &report)
{
    std::vector<double> rates, raw_rates, setup_s, setup_raw_s, host;
    std::vector<double> untraced_s, traced_s;
    std::vector<double> admit_ms;
    Reservoir push_to_apply_ms, on_push_us, send_ack_ms;
    double iterations = 0.0, accuracy = 0.0, traced_iters = 0.0, traced_wall = 0.0;
    double wire_bytes = 0.0, traced_frames = 0.0, traced_frame_bytes = 0.0;
    double traced_syscall_s = 0.0, traced_recv_s = 0.0;
    double traced_applied = 0.0;
    double msgs[3] = {0, 0, 0}, payload_up = 0.0, payload_down = 0.0;
    // Operations: worker iterations and pushes. A failed repetition
    // misses all of its iterations; a lost or doubled push fails too.
    std::uint64_t attempted = 0, failed = 0, reps_ok = 0;
    std::uint64_t pushes_sent = 0, pushes_lost = 0, pushes_twice = 0;
    bool finite = true, counters_agree = true;
    std::vector<std::string> errors;
    Usage traced_usage;
    const BufferPool::Stats pool0 = BufferPool::global().stats();

    repeatFor(opt.seconds, kMinReps, opt.trace, [&](std::size_t rep,
                                                    bool traced) {
        Probe probe;
        const Usage u0 = Usage::now();
        const SocketCounters s0 = socketCounters();
        const RepResult r = runOnce(opt.seed * 1000 + rep % kSubSeeds, probe);
        const SocketCounters sock = socketCounters() - s0;
        host.push_back(hostFactor());
        const double f = host.back();

        attempted += kWorkers * kIterations;
        if (!r.ok) {
            failed += kWorkers * kIterations;
            errors.push_back(r.error);
            return;
        }
        ++reps_ok;
        failed += kWorkers * kIterations -
                  static_cast<std::uint64_t>(r.iterations);
        // Exactly once: every push a worker sent reached the server
        // handler once, and the server applied each of them.
        for (const auto &sent : probe.push_sent) {
            const auto it = probe.push_applied.find(sent.first);
            if (it == probe.push_applied.end())
                ++pushes_lost;
            else if (it->second > 1)
                ++pushes_twice;
        }
        pushes_sent += probe.push_sent.size();
        counters_agree = counters_agree &&
                         r.applied == static_cast<double>(probe.push_sent.size()) &&
                         r.duplicates == 0.0 && r.stale == 0.0 &&
                         probe.send_failures == 0.0;
        finite = finite && r.finite_model;

        iterations += r.iterations;
        setup_s.push_back(r.setup_s / f);
        setup_raw_s.push_back(r.setup_s);
        (traced ? traced_s : untraced_s).push_back(r.train_s);
        if (traced) {
            traced_usage = traced_usage + (Usage::now() - u0);
            traced_iters += r.iterations;
            traced_wall += r.train_s;
            traced_frames += static_cast<double>(sock.send_calls);
            traced_frame_bytes += static_cast<double>(sock.send_bytes);
            traced_syscall_s += sock.send_busy_s + sock.recv_busy_s;
            traced_recv_s += sock.recv_busy_s;
            traced_applied += r.applied;
            for (int k = 0; k < 3; ++k)
                msgs[k] += probe.msgs[k];
            payload_up += probe.payload_up;
            payload_down += probe.payload_down;
            on_push_us.merge(probe.on_push_us);
            send_ack_ms.merge(probe.send_ack_ms);
            admit_ms.insert(admit_ms.end(), probe.admit_ms.begin(),
                            probe.admit_ms.end());
        } else {
            rates.push_back(r.iterations / r.train_s * f);
            raw_rates.push_back(r.iterations / r.train_s);
            accuracy += r.accuracy;
            wire_bytes += static_cast<double>(sock.send_bytes);
            for (double ms : probe.push_to_apply_ms)
                push_to_apply_ms.add(ms / f);
        }
    });

    // ---- correctness ----
    report.check("server and every worker finished each repetition",
                 errors.empty());
    for (std::size_t i = 0; i < errors.size() && i < 3; ++i)
        report.check("repetition: " + errors[i], false);
    report.check("no push lost", pushes_lost == 0);
    report.check("no push applied twice", pushes_twice == 0);
    report.check("server counters match the pushes sent", counters_agree);
    report.check("server model is finite", finite);
    report.addOps(attempted + pushes_sent, failed + pushes_lost + pushes_twice);
    report.fingerprint("pushes_sent", std::to_string(pushes_sent));
    if (reps_ok == 0)
        return 0;

    const double all_ops = static_cast<double>(attempted + pushes_sent);
    const double ok_ops =
        all_ops - static_cast<double>(failed + pushes_lost + pushes_twice);
    if (!opt.trace) {
        report.set("train_iters_per_s", median(rates), "1/s", rates.size());
        report.set("train_iters_per_s.raw", median(raw_rates), "1/s",
                   raw_rates.size());
        report.set("setup_s", median(setup_s), "s", setup_s.size());
        report.set("setup_s.raw", median(setup_raw_s), "s",
                   setup_raw_s.size());
        setHostFactor(report, host);
        report.set("peak_rss_mb", peakRssMb(), "MB");
        report.set("ok_op_ratio", ok_ops / all_ops, "ratio");
        report.set("wire_bytes_per_iter", wire_bytes / iterations, "B");
        report.set("final_accuracy", accuracy / rates.size(), "pct");
        setPercentiles(report, "push_to_apply_ms", push_to_apply_ms, "ms");
        return 0;
    }

    // ---- traced run: per-layer metrics ----
    const double n = traced_iters;
    report.set("trace.wall_ms_per_iter", 1e3 * traced_wall / n, "ms");
    report.set("net.session.msgs_per_iter.push", msgs[0] / n, "count");
    report.set("net.session.msgs_per_iter.pull", msgs[1] / n, "count");
    report.set("net.session.msgs_per_iter.control", msgs[2] / n, "count");
    report.set("net.session.payload_bytes_per_iter.up", payload_up / n, "B");
    report.set("net.session.payload_bytes_per_iter.down", payload_down / n,
               "B");
    report.set("net.session.admit_ms", median(admit_ms), "ms",
               admit_ms.size());
    setPercentiles(report, "net.transport.send_ack_ms", send_ack_ms, "ms");
    report.set("core.server.on_push.busy_us.p50",
               median(on_push_us.samples()), "us", on_push_us.seen());
    report.set("net.socket.syscall_busy_ms_per_iter",
               1e3 * traced_syscall_s / n, "ms");
    report.set("net.socket.datagrams_per_iter", traced_frames / n, "count");
    const BufferPool::Stats pool1 = BufferPool::global().stats();
    const double leases = static_cast<double>(pool1.leases - pool0.leases);
    report.set("common.pool_hit_rate",
               leases > 0 ? static_cast<double>(pool1.reuses - pool0.reuses) /
                                leases
                          : 0.0,
               "ratio");
    setOsMetrics(report, traced_usage, n);
    setTraceOverhead(report, untraced_s, traced_s);

    // Replay one repetition's frames and server applies.
    tracer().enable(true);
    const double reps = traced_s.empty() ? 1.0 : traced_s.size();
    const auto frames = static_cast<std::uint64_t>(traced_frames / reps);
    const auto frame_payload = static_cast<std::size_t>(
        std::max(0.0, traced_frame_bytes / traced_frames -
                          static_cast<double>(
                              net::transport::FrameHeader::kWireSize)));
    const ReplayResult fr = replayFrames(frames, frame_payload);
    report.set("net.transport.frame.busy_ns_per_kb",
               1e9 * fr.busy_s / (fr.work / 1024.0), "ns");
    core::NodeRunConfig cfg;
    cfg.workers = kWorkers;
    std::unique_ptr<core::Workload> workload = core::makeNodeWorkload(cfg);
    const std::vector<std::size_t> widths = rowUnitWidths(*workload);
    const auto iters = static_cast<std::size_t>(kWorkers * kIterations);
    const ServerReplay sv = replayServer(kWorkers, widths, 1,
                                         traced_applied / n, 0.0, iters);
    report.set("core.server.accumulate.calls_per_iter", traced_applied / n,
               "count");
    report.set("core.server.accumulate.busy_ms_per_iter",
               1e3 * sv.accumulate.busy_s / iters, "ms");
    tracer().enable(false);
    // Top-level spans on the poll-loop thread: message handlers and
    // timers. Socket calls outside them (the receive path) are added.
    double handlers_s = tracer().totals("net.session.after").busy_s;
    for (const Kind k : {Kind::Push, Kind::Pull, Kind::Control})
        for (const bool server : {true, false})
            handlers_s += tracer().totals(handlerSpan(k, server)).busy_s;
    setExplained(report, 1e3 * (handlers_s + traced_recv_s) / n,
                 traced_usage, n);

    report.predict("net.session.msgs_per_iter.push",
                   "socket_udp wire_bytes_per_iter");
    report.predict("net.session.msgs_per_iter.pull",
                   "socket_udp wire_bytes_per_iter");
    report.predict("net.session.msgs_per_iter.control",
                   "socket_udp wire_bytes_per_iter");
    report.predict("net.session.payload_bytes_per_iter.up",
                   "socket_udp wire_bytes_per_iter");
    report.predict("net.session.payload_bytes_per_iter.down",
                   "socket_udp wire_bytes_per_iter");
    report.predict("net.session.admit_ms", "socket_udp setup_s");
    report.predict("net.transport.send_ack_ms.p50",
                   "socket_udp push_to_apply_ms, train_iters_per_s");
    report.predict("net.transport.send_ack_ms.p99",
                   "socket_udp push_to_apply_ms, train_iters_per_s");
    report.predict("net.transport.frame.busy_ns_per_kb",
                   "socket_udp push_to_apply_ms, train_iters_per_s");
    report.predict("core.server.on_push.busy_us.p50",
                   "socket_udp push_to_apply_ms");
    report.predict("core.server.accumulate.calls_per_iter",
                   "socket_udp push_to_apply_ms");
    report.predict("core.server.accumulate.busy_ms_per_iter",
                   "socket_udp push_to_apply_ms");
    report.predict("net.socket.syscall_busy_ms_per_iter",
                   "socket_udp train_iters_per_s");
    report.predict("net.socket.datagrams_per_iter",
                   "socket_udp wire_bytes_per_iter");
    report.predict("trace.wall_ms_per_iter",
                   "wall time the layer busy times are set against");
    return 0;
}

} // namespace perfbench
