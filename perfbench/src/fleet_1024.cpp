/**
 * @file
 * fleet_1024: the parallel DES (core::runFleetSimulation) with 1024
 * workers, a 64 x 8 model, 8 server shards and RSP 4 + ATP, on a
 * two-thread pool.
 *
 * Server accumulate, the channel scans, the event core and the
 * parallel tick dominate; there is no GEMM, codec or socket. It is the
 * only workload that runs the thread pool above one thread.
 *
 * The public API offers no hook between building the simulation and
 * its first iteration, so set-up is the pool start plus a run of one
 * iteration per worker: state build and the first lockstep round.
 */
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "core/mta.hpp"
#include "parallel/thread_pool.hpp"
#include "perfbench.hpp"
#include "replay.hpp"

namespace perfbench {

using namespace rog;

namespace {

constexpr std::size_t kWorkers = 1024;
constexpr std::size_t kRows = 64;
constexpr std::size_t kRowWidth = 8;
constexpr std::size_t kShards = 8;
constexpr std::size_t kStaleness = 4;
constexpr std::size_t kThreads = 2;
constexpr std::size_t kIterations = 6; //!< per worker, per repetition.
constexpr std::size_t kMinReps = 5;
constexpr std::size_t kSetupReps = 15;

core::FleetConfig
fleetConfig(std::uint64_t seed, std::size_t iterations)
{
    core::FleetConfig cfg;
    cfg.workers = kWorkers;
    cfg.rows = kRows;
    cfg.row_width = kRowWidth;
    cfg.shards = kShards;
    cfg.staleness_threshold = kStaleness;
    cfg.atp = true;
    cfg.iterations = iterations;
    cfg.seed = seed;
    return cfg;
}

std::string
hex(std::uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", v);
    return buf;
}

} // namespace

int
runFleet1024(const Options &opt, Report &report)
{
    const core::FleetConfig cfg = fleetConfig(opt.seed, kIterations);

    // ---- set-up ----
    std::vector<double> setup_s, setup_raw_s, host;
    for (std::size_t i = 0; i < kSetupReps; ++i) {
        const auto t0 = Clock::now();
        parallel::ThreadPool pool(kThreads);
        const core::FleetResult first = core::runFleetSimulation(
            fleetConfig(opt.seed, 1), pool);
        setup_raw_s.push_back(secondsSince(t0));
        host.push_back(hostFactor());
        setup_s.push_back(setup_raw_s.back() / host.back());
        if (first.iterations_completed != kWorkers)
            report.check("one-iteration set-up run completed", false);
    }

    // ---- timed phase, on the two-thread pool ----
    parallel::ThreadPool pool(kThreads);
    core::FleetResult ref;
    std::vector<double> rates, raw_rates, untraced_s, traced_s;
    std::uint64_t attempted = 0, completed = 0;
    bool repeatable = true;
    double traced_iters = 0.0, traced_wall = 0.0, traced_events = 0.0;
    double pool_leases = 0.0, pool_reuses = 0.0;
    Usage traced_usage;

    repeatFor(opt.seconds, kMinReps, opt.trace, [&](std::size_t rep,
                                                    bool traced) {
        const Usage u0 = Usage::now();
        const auto t0 = Clock::now();
        core::FleetResult r;
        {
            Span s("core.fleet.run", "core");
            r = core::runFleetSimulation(cfg, pool);
        }
        const double wall = secondsSince(t0);
        const double iters = static_cast<double>(r.iterations_completed);
        attempted += kWorkers * kIterations;
        completed += r.iterations_completed;
        (traced ? traced_s : untraced_s).push_back(wall);
        host.push_back(hostFactor());
        if (!traced) {
            rates.push_back(iters / wall * host.back());
            raw_rates.push_back(iters / wall);
        }
        if (rep == 0)
            ref = r;
        else
            repeatable = repeatable && r.state_digest == ref.state_digest &&
                         r.events_processed == ref.events_processed;
        if (traced) {
            traced_usage = traced_usage + (Usage::now() - u0);
            traced_iters += iters;
            traced_wall += wall;
            traced_events += static_cast<double>(r.events_processed);
            pool_leases += static_cast<double>(r.pool_leases);
            pool_reuses += static_cast<double>(r.pool_reuses);
        }
    });

    // ---- correctness: the determinism contract ----
    parallel::ThreadPool single(1);
    const core::FleetResult one = core::runFleetSimulation(cfg, single);
    report.check("state_digest identical on 1 and 2 threads",
                 one.state_digest == ref.state_digest);
    report.check("repeated runs are identical", repeatable);
    report.check("final_sq_error is finite", std::isfinite(ref.final_metric));
    report.check("every worker finished its iterations",
                 completed == attempted);
    report.addOps(attempted, attempted - completed);
    report.fingerprint("state_digest", hex(ref.state_digest));
    report.fingerprint("events", std::to_string(ref.events_processed));

    const double ref_iters = static_cast<double>(ref.iterations_completed);
    if (!opt.trace) {
        report.set("train_iters_per_s", median(rates), "1/s", rates.size());
        report.set("train_iters_per_s.raw", median(raw_rates), "1/s",
                   raw_rates.size());
        report.set("setup_s", median(setup_s), "s", setup_s.size());
        report.set("setup_s.raw", median(setup_raw_s), "s", setup_s.size());
        setHostFactor(report, host);
        report.set("peak_rss_mb", peakRssMb(), "MB");
        report.set("ok_op_ratio",
                   static_cast<double>(completed) /
                       static_cast<double>(attempted),
                   "ratio");
        report.set("wire_bytes_per_iter", ref.total_bytes / ref_iters, "B");
        report.set("final_sq_error", ref.final_metric, "sq");
        return 0;
    }

    // ---- traced run: per-layer metrics ----
    const double n = traced_iters;
    report.set("trace.wall_ms_per_iter", 1e3 * traced_wall / n, "ms");
    report.set("sim.events_per_iter", traced_events / n, "count");
    report.set("parallel.utilization",
               (traced_usage.user_s + traced_usage.sys_s) /
                   (traced_wall * static_cast<double>(kThreads)),
               "share");
    report.set("common.pool_hit_rate",
               pool_leases > 0 ? pool_reuses / pool_leases : 0.0, "ratio");
    setOsMetrics(report, traced_usage, n);
    setTraceOverhead(report, untraced_s, traced_s);

    // Replay one iteration per worker: every push accumulates the MTA
    // row count into the sharded server; the event queue steps one
    // iteration's events at a fleet-sized pending depth.
    tracer().enable(true);
    const double pushes_per_iter =
        static_cast<double>(core::mtaUnits(kStaleness, kRows));
    const std::vector<std::size_t> widths(kRows, kRowWidth);
    const ServerReplay sv =
        replayServer(kWorkers, widths, kShards, pushes_per_iter, 0.0, kWorkers);
    report.set("core.server.accumulate.calls_per_iter", pushes_per_iter,
               "count");
    report.set("core.server.accumulate.busy_ms_per_iter",
               1e3 * sv.accumulate.busy_s / kWorkers, "ms");
    const auto events = static_cast<std::uint64_t>(
        static_cast<double>(ref.events_processed) / ref_iters * kWorkers);
    const ReplayResult eq = replayEventQueue(events, 4 * kWorkers);
    report.set("sim.event_queue.busy_ns_per_event", 1e9 * eq.busy_s / eq.work,
               "ns");
    tracer().enable(false);
    // Replays run on one thread, so they are set against CPU time.
    setExplained(report,
                 1e3 * sv.accumulate.busy_s / kWorkers +
                     1e3 * eq.busy_s / eq.work * (traced_events / n),
                 traced_usage, n);

    report.predict("core.server.accumulate.calls_per_iter",
                   "fleet_1024 train_iters_per_s");
    report.predict("core.server.accumulate.busy_ms_per_iter",
                   "fleet_1024 train_iters_per_s");
    report.predict("sim.events_per_iter", "fleet_1024 train_iters_per_s");
    report.predict("sim.event_queue.busy_ns_per_event",
                   "fleet_1024 train_iters_per_s");
    report.predict("parallel.utilization", "fleet_1024 train_iters_per_s");
    report.predict("common.pool_hit_rate", "fleet_1024 train_iters_per_s");
    report.predict("trace.wall_ms_per_iter",
                   "wall time the layer busy times are set against");
    return 0;
}

} // namespace perfbench
