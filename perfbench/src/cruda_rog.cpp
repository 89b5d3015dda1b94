/**
 * @file
 * cruda_rog: the coroutine engine on the paper's CRUDA preset — four
 * workers, ROG threshold 20, outdoor calibrated traces, the one-bit
 * codec, one thread.
 *
 * Host time goes to the tensor, nn, compress and core importance
 * layers; the server and sockets do little. The simulated metrics
 * (sim_s_to_target, energy, stall share, iteration times) are
 * deterministic per seed, which makes this workload the accuracy and
 * energy guard for changes to the server arithmetic.
 *
 * One repetition is one stats::runSystem call. The seed picks the
 * workload data and the engine seeds. Repetitions cycle through
 * kSubSeeds trace draws, the same for every seed, as the paper replays
 * identical traces across runs: the simulated metrics then average
 * over several draws, and the timed mix is the same in every cycle.
 */
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/system_config.hpp"
#include "core/workloads.hpp"
#include "perfbench.hpp"
#include "replay.hpp"
#include "stats/experiment.hpp"
#include "stats/run_analysis.hpp"

namespace perfbench {

using namespace rog;

namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kIterations = 120; //!< per worker, per repetition.
constexpr std::size_t kEvalEvery = 40;
constexpr std::size_t kSubSeeds = 4;
constexpr std::size_t kSetupReps = 7;

/** Accuracy gain, in points over the pretrained model, whose
 *  simulated arrival time is sim_s_to_target. */
constexpr double kTargetGainPct = 4.0;

core::CrudaWorkloadConfig
workloadConfig(std::uint64_t seed)
{
    core::CrudaWorkloadConfig cfg;
    cfg.workers = kWorkers;
    cfg.seed = 1234 + seed;
    cfg.data.seed = 42 + seed;
    return cfg;
}

stats::ExperimentConfig
experimentConfig(std::uint64_t seed, std::size_t sub)
{
    stats::ExperimentConfig cfg;
    cfg.env = stats::Environment::Outdoor;
    cfg.iterations = kIterations;
    cfg.eval_every = kEvalEvery;
    cfg.time_horizon_seconds = 1e9; // iteration-bounded.
    cfg.network_seed = 5 + sub;
    cfg.engine_seed = 2022 + 131 * seed + sub;
    return cfg;
}

/** Forwards to the real workload, with a span around every call. */
class TracedWorkload : public core::Workload
{
  public:
    explicit TracedWorkload(core::Workload &inner) : inner_(inner) {}

    std::size_t workers() const override { return inner_.workers(); }
    std::unique_ptr<nn::Model>
    buildReplica() override
    {
        Span s("core.workload.build_replica", "core");
        return inner_.buildReplica();
    }
    data::BatchSampler
    makeSampler(std::size_t w) override
    {
        Span s("data.make_sampler", "data");
        return inner_.makeSampler(w);
    }
    std::size_t batchSize() const override { return inner_.batchSize(); }
    nn::OptimizerConfig
    optimizerConfig() const override
    {
        return inner_.optimizerConfig();
    }
    double
    evaluate(nn::Model &model) override
    {
        Span s("core.evaluate", "core");
        return inner_.evaluate(model);
    }
    std::string metricName() const override { return inner_.metricName(); }
    bool lowerIsBetter() const override { return inner_.lowerIsBetter(); }

  private:
    core::Workload &inner_;
};

/** Simulated time at which the merged accuracy curve first reaches
 *  @p target, interpolated between checkpoints; NaN if never. */
double
timeToTarget(const std::vector<stats::MergedCheckpoint> &curve,
             double start_metric, double target)
{
    double t_prev = 0.0, m_prev = start_metric;
    for (const auto &c : curve) {
        if (c.mean_metric >= target) {
            if (m_prev >= target || c.mean_metric == m_prev)
                return c.mean_time_s;
            const double f = (target - m_prev) / (c.mean_metric - m_prev);
            return t_prev + f * (c.mean_time_s - t_prev);
        }
        t_prev = c.mean_time_s;
        m_prev = c.mean_metric;
    }
    return std::numeric_limits<double>::quiet_NaN();
}

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Deterministic summary of one sub-seed's run. */
struct SubRun
{
    double sim_seconds = 0.0;
    double total_bytes = 0.0;
    double final_accuracy = 0.0;
};

} // namespace

int
runCrudaRog(const Options &opt, Report &report)
{
    const core::SystemConfig system = core::SystemConfig::rog(20);

    // ---- set-up: workload build (data + pretraining) and traces ----
    std::vector<double> setup_s, setup_raw_s, host;
    std::unique_ptr<core::CrudaWorkload> workload;
    for (std::size_t i = 0; i < kSetupReps; ++i) {
        const auto t0 = Clock::now();
        workload = std::make_unique<core::CrudaWorkload>(
            workloadConfig(opt.seed));
        const core::NetworkSetup net =
            stats::makeNetwork(*workload, experimentConfig(opt.seed, 0));
        setup_raw_s.push_back(secondsSince(t0));
        host.push_back(hostFactor());
        setup_s.push_back(setup_raw_s.back() / host.back());
        if (net.link_traces.size() != kWorkers)
            report.check("one trace per worker", false);
    }
    const double initial_accuracy = workload->initialAccuracy();
    TracedWorkload traced_workload(*workload);

    // ---- timed phase ----
    std::vector<SubRun> first(kSubSeeds);
    // Per cycle: iterations, host-scaled wall time, raw wall time.
    std::vector<double> cycle_iters(1, 0.0), cycle_wall(1, 0.0),
        cycle_raw(1, 0.0);
    std::vector<double> untraced_s, traced_s;
    Reservoir iter_ms;
    double energy_j = 0.0, compute_s = 0.0, comm_s = 0.0, stall_s = 0.0;
    double push_fraction = 0.0, units_pushed = 0.0, units_pulled = 0.0;
    double first_iters = 0.0, to_target = 0.0;
    std::vector<double> staleness;
    double traced_iters = 0.0, traced_wall = 0.0;
    double pool_leases = 0.0, pool_reuses = 0.0;
    std::uint64_t attempted = 0, completed = 0;
    bool reached_target = true, budgets_met = true;
    Usage traced_usage;

    repeatFor(opt.seconds, kSubSeeds, opt.trace, [&](std::size_t rep,
                                                     bool traced) {
        const std::size_t sub = rep % kSubSeeds;
        core::Workload &wl =
            traced ? static_cast<core::Workload &>(traced_workload)
                   : static_cast<core::Workload &>(*workload);
        const Usage u0 = Usage::now();
        const auto t0 = Clock::now();
        const stats::SystemRun run =
            stats::runSystem(wl, system, experimentConfig(opt.seed, sub));
        const double wall = secondsSince(t0);

        const core::RunResult &r = run.result;
        double iters = 0.0;
        for (std::size_t w = 0; w < r.worker_iterations.size(); ++w) {
            iters += static_cast<double>(r.worker_iterations[w]);
            budgets_met = budgets_met && r.worker_iterations[w] == kIterations;
        }
        attempted += kWorkers * kIterations;
        completed += static_cast<std::uint64_t>(iters);

        host.push_back(hostFactor());
        if (rep > 0 && sub == 0) {
            cycle_iters.push_back(0.0);
            cycle_wall.push_back(0.0);
            cycle_raw.push_back(0.0);
        }
        cycle_iters.back() += iters;
        cycle_wall.back() += wall / host.back();
        cycle_raw.back() += wall;
        (traced ? traced_s : untraced_s).push_back(wall);

        const double final_acc =
            run.curve.empty() ? std::nan("") : run.curve.back().mean_metric;
        if (rep < kSubSeeds) {
            first[sub] = SubRun{r.sim_seconds, r.total_bytes, final_acc};
            first_iters += iters;
            for (double e : r.worker_energy_j)
                energy_j += e;
            for (const core::IterationRecord &rec : r.iterations) {
                compute_s += rec.compute_s;
                comm_s += rec.comm_s;
                stall_s += rec.stall_s;
                iter_ms.add(1e3 * (rec.compute_s + rec.comm_s + rec.stall_s));
            }
            const double t = timeToTarget(run.curve, initial_accuracy,
                                          initial_accuracy + kTargetGainPct);
            reached_target = reached_target && std::isfinite(t);
            to_target += t;
        }

        if (traced) {
            traced_usage = traced_usage + (Usage::now() - u0);
            traced_iters += iters;
            traced_wall += wall;
            for (const core::IterationRecord &rec : r.iterations) {
                push_fraction += rec.push_fraction;
                units_pushed += static_cast<double>(rec.units_pushed);
                units_pulled += static_cast<double>(rec.units_pulled);
                staleness.push_back(
                    static_cast<double>(rec.staleness_behind));
            }
            pool_leases += static_cast<double>(r.pool_leases);
            pool_reuses += static_cast<double>(r.pool_reuses);
        }
    });

    // Complete cycles only, so each rate covers every sub-seed equally.
    if (cycle_iters.size() > 1 &&
        (untraced_s.size() + traced_s.size()) % kSubSeeds != 0) {
        cycle_iters.pop_back();
        cycle_wall.pop_back();
        cycle_raw.pop_back();
    }

    // ---- correctness ----
    // Each run draws minibatches from the workload's sampler stream, so
    // only a freshly built workload repeats the first cycle exactly.
    {
        core::CrudaWorkload fresh(workloadConfig(opt.seed));
        const stats::SystemRun again =
            stats::runSystem(fresh, system, experimentConfig(opt.seed, 0));
        report.check("a fresh workload repeats sub-seed 0 exactly",
                     again.result.sim_seconds == first[0].sim_seconds &&
                         again.result.total_bytes == first[0].total_bytes);
    }
    double mean_final = 0.0;
    for (const SubRun &f : first)
        mean_final += f.final_accuracy / kSubSeeds;
    report.check("every worker finished its iteration budget", budgets_met);
    report.check("final accuracy is finite", std::isfinite(mean_final));
    report.check("final accuracy is above the pretrained model",
                 mean_final > initial_accuracy);
    report.check("accuracy target reached on every sub-seed",
                 reached_target);
    report.addOps(attempted, attempted - completed);

    report.fingerprint("initial_accuracy", fmt(initial_accuracy));
    for (std::size_t s = 0; s < kSubSeeds; ++s)
        report.fingerprint("sub" + std::to_string(s),
                           "sim_s=" + fmt(first[s].sim_seconds) +
                               " bytes=" + fmt(first[s].total_bytes) +
                               " accuracy=" + fmt(first[s].final_accuracy));

    if (!opt.trace) {
        std::vector<double> rates, raw;
        for (std::size_t c = 0; c < cycle_iters.size(); ++c) {
            rates.push_back(cycle_iters[c] / cycle_wall[c]);
            raw.push_back(cycle_iters[c] / cycle_raw[c]);
        }
        report.set("train_iters_per_s", median(rates), "1/s", rates.size());
        report.set("train_iters_per_s.raw", median(raw), "1/s", raw.size());
        report.set("setup_s", median(setup_s), "s", setup_s.size());
        report.set("setup_s.raw", median(setup_raw_s), "s", setup_s.size());
        setHostFactor(report, host);
        report.set("peak_rss_mb", peakRssMb(), "MB");
        report.set("ok_op_ratio",
                   static_cast<double>(completed) /
                       static_cast<double>(attempted),
                   "ratio");
        double bytes = 0.0;
        for (const SubRun &f : first)
            bytes += f.total_bytes;
        report.set("wire_bytes_per_iter", bytes / first_iters, "B");
        report.set("final_accuracy", mean_final, "pct");
        report.set("sim_s_to_target", to_target / kSubSeeds, "s");
        report.set("energy_j_per_iter", energy_j / first_iters, "J");
        report.set("stall_share", stall_s / (compute_s + comm_s + stall_s),
                   "share");
        setPercentiles(report, "iter_ms", iter_ms, "ms");
        return 0;
    }

    // ---- traced run: per-layer metrics ----
    const double n = traced_iters;
    const double wall_ms_per_iter = 1e3 * traced_wall / n;
    const auto busyMs = [&](const char *name) {
        return 1e3 * tracer().totals(name).busy_s / n;
    };
    report.set("trace.wall_ms_per_iter", wall_ms_per_iter, "ms");
    report.set("core.evaluate.busy_share",
               tracer().totals("core.evaluate").busy_s / traced_wall, "share");
    report.set("core.push_fraction.mean", push_fraction / n, "share");
    report.set("core.staleness.p99", percentile(staleness, 0.99), "iters",
               staleness.size());
    report.set("sim.compute_s_per_iter", compute_s / first_iters, "s");
    report.set("sim.comm_s_per_iter", comm_s / first_iters, "s");
    report.set("sim.stall_s_per_iter", stall_s / first_iters, "s");
    report.set("common.pool_hit_rate",
               pool_leases > 0 ? pool_reuses / pool_leases : 0.0, "ratio");
    setOsMetrics(report, traced_usage, n);
    setTraceOverhead(report, untraced_s, traced_s);

    // Replay one repetition's worth of layer calls.
    tracer().enable(true);
    const std::size_t iters = kWorkers * kIterations;
    const std::vector<DenseLayer> layers = denseLayers(*workload);
    const std::vector<std::size_t> widths = rowUnitWidths(*workload);
    const ReplayResult mm =
        replayMatmul(layers, workload->batchSize(), iters);
    report.set("tensor.matmul.flops_per_iter", mm.work / iters, "flop");
    report.set("tensor.matmul.busy_ms_per_iter", 1e3 * mm.busy_s / iters,
               "ms");
    const ReplayResult fb = replayForwardBackward(*workload, iters);
    report.set("nn.fwd_bwd.busy_ms_per_iter", 1e3 * fb.busy_s / iters, "ms");
    const ReplayResult tc =
        replayTranscode(widths, units_pushed / n, iters);
    report.set("compress.bytes_in_per_iter", tc.work / iters, "B");
    report.set("compress.bytes_out_per_iter", tc.work_out / iters, "B");
    report.set("compress.transcode.busy_ms_per_iter",
               1e3 * tc.busy_s / iters, "ms");
    const ReplayResult rk = replayRank(widths.size(), iters);
    report.set("core.importance.rank.busy_ms_per_iter",
               1e3 * rk.busy_s / iters, "ms");
    const ServerReplay sv = replayServer(kWorkers, widths, 1, units_pushed / n,
                                         units_pulled / n, iters);
    report.set("core.server.accumulate.calls_per_iter", units_pushed / n,
               "count");
    report.set("core.server.accumulate.busy_ms_per_iter",
               1e3 * sv.accumulate.busy_s / iters, "ms");
    report.set("core.server.pull.busy_ms_per_iter",
               1e3 * sv.pull.busy_s / iters, "ms");
    report.set("core.evaluate.busy_ms_per_iter", busyMs("core.evaluate"),
               "ms");

    tracer().enable(false);
    setExplained(report,
                 1e3 * (fb.busy_s + tc.busy_s + rk.busy_s +
                        sv.accumulate.busy_s + sv.pull.busy_s) / iters +
                     busyMs("core.evaluate"),
                 traced_usage, n);

    report.predict("tensor.matmul.flops_per_iter",
                   "cruda_rog train_iters_per_s (no move on fleet_1024)");
    report.predict("tensor.matmul.busy_ms_per_iter",
                   "cruda_rog train_iters_per_s");
    report.predict("nn.fwd_bwd.busy_ms_per_iter", "cruda_rog train_iters_per_s");
    report.predict("compress.bytes_in_per_iter",
                   "cruda_rog train_iters_per_s, socket_udp wire_bytes_per_iter");
    report.predict("compress.bytes_out_per_iter",
                   "cruda_rog train_iters_per_s, socket_udp wire_bytes_per_iter");
    report.predict("compress.transcode.busy_ms_per_iter",
                   "cruda_rog train_iters_per_s");
    report.predict("core.importance.rank.busy_ms_per_iter",
                   "cruda_rog train_iters_per_s");
    report.predict("core.evaluate.busy_share", "cruda_rog train_iters_per_s");
    report.predict("core.server.accumulate.calls_per_iter",
                   "cruda_rog train_iters_per_s");
    report.predict("core.server.accumulate.busy_ms_per_iter",
                   "cruda_rog train_iters_per_s");
    report.predict("core.server.pull.busy_ms_per_iter",
                   "cruda_rog train_iters_per_s");
    report.predict("core.push_fraction.mean",
                   "cruda_rog sim_s_to_target, energy_j_per_iter, stall_share");
    report.predict("core.staleness.p99",
                   "cruda_rog sim_s_to_target, energy_j_per_iter, stall_share");
    report.predict("sim.compute_s_per_iter", "cruda_rog sim_s_to_target");
    report.predict("sim.comm_s_per_iter", "cruda_rog sim_s_to_target");
    report.predict("sim.stall_s_per_iter", "cruda_rog stall_share");
    report.predict("common.pool_hit_rate", "cruda_rog train_iters_per_s");
    report.predict("trace.wall_ms_per_iter",
                   "wall time the layer busy times are set against");
    return 0;
}

} // namespace perfbench
