#include "core/chaos_check.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "core/server_checkpoint.hpp"
#include "core/unit_wire.hpp"
#include "net/transport/event_log.hpp"
#include "nn/serialize.hpp"

namespace rog {
namespace core {

namespace {

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream is(path);
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line);
    return lines;
}

/** "key value" pairs from a summary file. */
std::map<std::string, std::string>
readSummary(const std::string &path)
{
    std::map<std::string, std::string> kv;
    std::ifstream is(path);
    std::string key;
    std::string value;
    while (is >> key >> value)
        kv[key] = value;
    return kv;
}

/** Per-unit payload bytes the DES charges for @p cfg's model and
 *  codec, less the per-unit index overhead. */
std::vector<std::size_t>
expectedUnitBytes(const NodeRunConfig &cfg)
{
    std::unique_ptr<Workload> workload = makeNodeWorkload(cfg);
    std::unique_ptr<nn::Model> model = workload->buildReplica();
    const FlatModel flat(*model);
    const RowPartition partition(flat, cfg.train.granularity);
    const auto codec = compress::makeCodec(cfg.train.codec);
    std::vector<std::size_t> bytes;
    for (const Unit &u : partition.units())
        bytes.push_back(unitWireBytes(*codec, flat, u));
    return bytes;
}

} // namespace

ChaosCheckResult
checkChaosRun(const NodeRunConfig &cfg, const ChaosCheckOptions &opts)
{
    ChaosCheckResult res;
    std::ostringstream report;
    const std::string &dir = cfg.artifact_dir;
    auto violate = [&](const std::string &what) {
        res.violations.push_back(what);
    };

    // 1. Server checkpoint: present and CRC-clean.
    try {
        const ServerCheckpoint ckpt =
            readServerCheckpointFile(dir + "/checkpoint.rogs");
        report << "checkpoint: ok (iter " << ckpt.iteration << ")\n";
    } catch (const std::exception &e) {
        violate(std::string("checkpoint unreadable: ") + e.what());
        report << "checkpoint: FAIL\n";
    }

    // 2. Final model: CRC-clean and finite under evaluation.
    double metric = std::nan("");
    try {
        std::unique_ptr<Workload> workload = makeNodeWorkload(cfg);
        std::unique_ptr<nn::Model> model = workload->buildReplica();
        nn::loadModelFile(dir + "/model.rogm", *model);
        metric = workload->evaluate(*model);
        if (!std::isfinite(metric))
            violate("final model evaluates non-finite");
        report << "model: ok (" << workload->metricName() << ' '
               << metric << ")\n";
    } catch (const std::exception &e) {
        violate(std::string("final model unreadable: ") + e.what());
        report << "model: FAIL\n";
    }

    // 3. Application-level exactly-once + 5. membership outcomes +
    //    7. server restart invariants, all from the structured server
    //    run log. The log is append-mode across server incarnations;
    //    each `server_start` line opens a new segment with its own
    //    applied-set (a restarted server legitimately re-applies
    //    pushes its checkpoint never covered) and its own restored
    //    watermark (anything at or below it must NOT re-apply).
    std::set<std::size_t> admitted_restart; //!< admit with inc >= 1.
    std::set<std::size_t> evicted;
    std::set<std::size_t> byed;
    struct Incarnation
    {
        std::uint64_t epoch = 0;
        bool recovered = false;
        /** Restored per-(worker,unit) apply watermark from the
         *  recover_w lines; applies at or below it are duplicates. */
        std::map<std::size_t, std::vector<long long>> watermark;
        std::set<std::string> applied;
        std::map<std::size_t, std::uint64_t> admit_epoch;
        std::set<std::size_t> byes;
    };
    std::vector<Incarnation> incs;
    const std::vector<std::size_t> unit_bytes = expectedUnitBytes(cfg);
    std::size_t wire_applies = 0;
    std::size_t wire_mismatches = 0;
    {
        std::size_t total_applies = 0;
        std::size_t dup_applies = 0;
        auto cur = [&incs]() -> Incarnation & {
            if (incs.empty())
                incs.emplace_back(); // pre-PR-9 logs: one segment.
            return incs.back();
        };
        for (const std::string &line :
             readLines(dir + "/server_run.log")) {
            double t = 0.0;
            std::size_t w = 0;
            long long iter = 0;
            std::size_t unit = 0;
            unsigned inc = 0;
            unsigned long long epoch = 0;
            int recovered = 0;
            std::size_t bytes = 0;
            char mode[16] = {0};
            const int apply_fields =
                std::sscanf(line.c_str(),
                            "t=%lf apply w=%zu iter=%lld unit=%zu "
                            "bytes=%zu",
                            &t, &w, &iter, &unit, &bytes);
            if (apply_fields >= 4) {
                ++total_applies;
                // 8. The bytes the socket carried for this push are
                //    exactly what the DES charges for the unit.
                ++wire_applies;
                if (apply_fields != 5 || unit >= unit_bytes.size() ||
                    bytes != unit_bytes[unit]) {
                    ++wire_mismatches;
                    violate("push payload bytes differ from DES "
                            "accounting: w=" +
                            std::to_string(w) +
                            " iter=" + std::to_string(iter) +
                            " unit=" + std::to_string(unit) +
                            " bytes=" +
                            (apply_fields == 5 ? std::to_string(bytes)
                                               : std::string("?")) +
                            " want=" +
                            (unit < unit_bytes.size()
                                 ? std::to_string(unit_bytes[unit])
                                 : std::string("?")));
                }
                Incarnation &seg = cur();
                std::ostringstream key;
                key << w << ':' << iter << ':' << unit;
                if (!seg.applied.insert(key.str()).second) {
                    ++dup_applies;
                    violate("gradient applied twice: w=" +
                            std::to_string(w) +
                            " iter=" + std::to_string(iter) +
                            " unit=" + std::to_string(unit));
                }
                auto wm = seg.watermark.find(w);
                if (wm != seg.watermark.end() &&
                    unit < wm->second.size() &&
                    iter <= wm->second[unit]) {
                    ++dup_applies;
                    violate(
                        "gradient re-applied after server restart: "
                        "w=" +
                        std::to_string(w) +
                        " iter=" + std::to_string(iter) +
                        " unit=" + std::to_string(unit) +
                        " watermark=" +
                        std::to_string(wm->second[unit]));
                }
            } else if (std::sscanf(line.c_str(),
                                   "t=%lf server_start epoch=%llu "
                                   "recovered=%d",
                                   &t, &epoch, &recovered) == 3) {
                incs.emplace_back();
                incs.back().epoch = epoch;
                incs.back().recovered = recovered != 0;
            } else if (std::sscanf(line.c_str(),
                                   "t=%lf recover_w w=%zu versions=",
                                   &t, &w) == 2) {
                const std::size_t pos = line.find("versions=");
                if (pos != std::string::npos) {
                    std::vector<long long> vs;
                    std::istringstream is(
                        line.substr(pos + std::strlen("versions=")));
                    std::string tok;
                    while (std::getline(is, tok, ','))
                        vs.push_back(std::stoll(tok));
                    cur().watermark[w] = std::move(vs);
                }
            } else if (std::sscanf(line.c_str(),
                                   "t=%lf admit w=%zu mode=%15s "
                                   "session=%*u start=%*d inc=%u "
                                   "model_bytes=%*u epoch=%llu",
                                   &t, &w, mode, &inc, &epoch) >= 3) {
                if (inc >= 1)
                    admitted_restart.insert(w);
                cur().admit_epoch[w] = epoch;
            } else if (std::sscanf(line.c_str(), "t=%lf evict w=%zu",
                                   &t, &w) == 2) {
                evicted.insert(w);
            } else if (std::sscanf(line.c_str(),
                                   "t=%lf bye w=%zu", &t, &w) == 2) {
                byed.insert(w);
                cur().byes.insert(w);
            }
        }
        report << "applies: " << total_applies << " total over "
               << incs.size() << " server incarnation(s), "
               << dup_applies << " double-applied\n";
        report << "wire bytes: " << wire_applies << " pushes, "
               << wire_mismatches << " differ from DES accounting\n";
    }

    // 4. Transport-level exactly-once from the server's receiver
    //    event log: one Deliver per key, one fresh Accept per chunk.
    {
        std::ifstream is(dir + "/server_events.log");
        std::stringstream buf;
        buf << is.rdbuf();
        const net::transport::LogParseResult parsed =
            net::transport::tryParseLog(buf.str());
        if (!parsed.error.empty()) {
            violate("server event log unparsable: " + parsed.error);
            report << "transport log: FAIL\n";
        } else {
            std::map<std::string, std::size_t> delivers;
            std::set<std::string> accepts;
            std::size_t dup_delivers = 0;
            std::size_t dup_accepts = 0;
            for (const auto &ev : parsed.events) {
                std::ostringstream key;
                key << ev.key.worker << ':' << ev.key.version << ':'
                    << ev.key.row << ':' << ev.key.pull;
                if (ev.kind ==
                    net::transport::TransportEvent::Kind::Deliver) {
                    if (++delivers[key.str()] > 1) {
                        ++dup_delivers;
                        violate("transport delivered twice: key " +
                                key.str());
                    }
                } else if (ev.kind == net::transport::TransportEvent::
                                          Kind::Accept) {
                    key << '#' << ev.chunk_seq;
                    if (!accepts.insert(key.str()).second) {
                        ++dup_accepts;
                        violate("chunk accepted fresh twice: " +
                                key.str());
                    }
                }
            }
            report << "transport log: " << parsed.events.size()
                   << " events, " << dup_delivers
                   << " double-delivers, " << dup_accepts
                   << " double-accepts\n";
        }
    }

    // 5. Every killed worker must have been evicted or re-admitted
    //    as a restarted incarnation — a silent disappearance is a
    //    failure-detection bug.
    for (std::size_t w : opts.killed_workers) {
        if (admitted_restart.count(w) == 0 && evicted.count(w) == 0)
            violate("killed worker neither evicted nor re-admitted: "
                    "w=" +
                    std::to_string(w));
        if (opts.require_all_bye && byed.count(w) == 0)
            violate("killed+restarted worker never finished: w=" +
                    std::to_string(w));
    }
    if (opts.require_all_bye) {
        for (std::size_t w = 0; w < cfg.workers; ++w)
            if (byed.count(w) == 0)
                violate("worker never said bye: w=" +
                        std::to_string(w));
    }
    report << "membership: " << admitted_restart.size()
           << " restarted-admits, " << evicted.size() << " evictions, "
           << byed.size() << " byes\n";

    // 7. Server crash-restart invariants: every kill produced a new
    //    incarnation that recovered from the checkpoint under a
    //    strictly higher epoch, and the workers that finished after
    //    the last restart did so under that final epoch — i.e. they
    //    actually crossed the Hello/Welcome re-admission gate instead
    //    of talking to a ghost of the old server.
    if (opts.server_restarts > 0) {
        if (incs.size() != opts.server_restarts + 1) {
            violate("expected " +
                    std::to_string(opts.server_restarts + 1) +
                    " server incarnations, log shows " +
                    std::to_string(incs.size()));
        } else {
            for (std::size_t k = 1; k < incs.size(); ++k) {
                if (!incs[k].recovered)
                    violate("server incarnation " + std::to_string(k) +
                            " did not recover from a checkpoint");
                if (incs[k].epoch <= incs[k - 1].epoch)
                    violate("server epoch did not rise across "
                            "restart: " +
                            std::to_string(incs[k - 1].epoch) +
                            " -> " + std::to_string(incs[k].epoch));
            }
            const Incarnation &last = incs.back();
            for (std::size_t w : last.byes) {
                auto it = last.admit_epoch.find(w);
                if (it == last.admit_epoch.end())
                    violate("worker finished after server restart "
                            "without re-admission: w=" +
                            std::to_string(w));
                else if (it->second != last.epoch)
                    violate("worker re-admitted under wrong epoch: "
                            "w=" +
                            std::to_string(w) + " epoch=" +
                            std::to_string(it->second) + " (want " +
                            std::to_string(last.epoch) + ")");
            }
        }
        report << "server restarts: " << (incs.size() - 1)
               << " observed, final epoch "
               << (incs.empty() ? 0 : incs.back().epoch) << "\n";
    }

    // 6. Metric within tolerance of the fault-free DES twin.
    {
        const auto twin = readSummary(dir + "/des_summary.txt");
        auto it = twin.find("metric");
        if (it == twin.end()) {
            if (opts.require_twin)
                violate("no DES twin summary to compare against");
            report << "twin: absent\n";
        } else if (std::isfinite(metric)) {
            const double ref = std::stod(it->second);
            const double delta = std::fabs(metric - ref);
            if (!(delta <= opts.metric_tolerance))
                violate("metric " + std::to_string(metric) +
                        " deviates from twin " + it->second + " by " +
                        std::to_string(delta) + " (tolerance " +
                        std::to_string(opts.metric_tolerance) + ")");
            report << "twin: ref " << ref << ", delta " << delta
                   << "\n";
        }
    }

    res.ok = res.violations.empty();
    res.report = report.str();
    return res;
}

} // namespace core
} // namespace rog
