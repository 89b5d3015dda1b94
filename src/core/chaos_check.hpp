/**
 * @file
 * Post-mortem invariant verification of a chaos run.
 *
 * The chaos supervisor (tools/rog_chaos) SIGKILLs workers mid-push,
 * restarts them, and injects seeded wire faults; this checker then
 * reads only the run's on-disk artifacts — no live process state —
 * and decides whether the system stayed correct:
 *
 *  1. The server checkpoint parses with a valid CRC (crash-consistent
 *     write survived the run).
 *  2. The final model file parses with a valid CRC and evaluates to a
 *     finite metric.
 *  3. No (worker, iteration, unit) gradient was applied twice
 *     (application-level exactly-once, from the server run log).
 *  4. The server's transport event log shows no receiver-side
 *     exactly-once violation: at most one Deliver per message key, at
 *     most one fresh Accept per (key, chunk).
 *  5. Every killed worker was either evicted or re-admitted (and when
 *     the run requires it, finished with a Bye).
 *  6. The final metric is within tolerance of the DES twin of the
 *     same seed and plan (the twin replays the server-crash fault
 *     plan in simulation when the run used one).
 *  7. When the supervisor killed the server, each restart is visible
 *     as a recovered server_start under a strictly higher epoch, no
 *     gradient the checkpoint already covered is re-applied by a
 *     later incarnation, and every worker that finished after the
 *     last restart was re-admitted under the final epoch.
 *
 *  8. Wire bytes equal DES accounting: every applied push's payload
 *     size (the server log's per-apply `bytes=`) equals the sum of
 *     the codec's wireBytes over the unit's row chunks — what the
 *     coroutine engine charges for the unit minus its index overhead.
 *
 * Violations are returned as human-readable strings; an empty list is
 * a passing run.
 */
#ifndef ROG_CORE_CHAOS_CHECK_HPP
#define ROG_CORE_CHAOS_CHECK_HPP

#include <string>
#include <vector>

#include "core/node_runner.hpp"

namespace rog {
namespace core {

struct ChaosCheckOptions
{
    /** Workers the supervisor killed at least once. */
    std::vector<std::size_t> killed_workers;

    /** Require a Bye from every worker (restart-all scenarios). */
    bool require_all_bye = true;

    /** |metric - twin metric| bound, in metric units (accuracy
     *  percentage points for CRUDA). */
    double metric_tolerance = 15.0;

    /** Skip invariant 6 when no DES twin summary exists. */
    bool require_twin = true;

    /** Times the supervisor SIGKILLed + restarted the *server*. When
     *  > 0 the checker additionally requires: one server_start line
     *  per incarnation, the last one recovered from a checkpoint, a
     *  strictly rising epoch, and every worker that finished after
     *  the last restart re-admitted under the final epoch. */
    std::size_t server_restarts = 0;
};

struct ChaosCheckResult
{
    bool ok = false;
    std::vector<std::string> violations;
    /** One-line-per-check human readable report. */
    std::string report;
};

/** Verify the artifacts under cfg.artifact_dir. */
ChaosCheckResult checkChaosRun(const NodeRunConfig &cfg,
                               const ChaosCheckOptions &opts);

} // namespace core
} // namespace rog

#endif // ROG_CORE_CHAOS_CHECK_HPP
