/**
 * @file
 * Test oracle: the original RSP Version Storage (Fig. 5 / Algo 2),
 * one nested row per worker. Production code keeps the version
 * matrix in ServerShard (core/server_shard.hpp); the tests hold it
 * against this one.
 *
 * Tracks, per (worker, unit), the latest training iteration whose
 * gradients for that unit reached the parameter server — the V = {v_i^r}
 * of Algo 2. RSP's two-level staleness control reduces to one check
 * against min(V): a worker that just pushed units at iteration n must
 * wait while n - min(V) >= threshold, which simultaneously bounds the
 * divergence of the same row across workers and of different rows
 * within one worker.
 */
#ifndef ROG_ORACLES_VERSION_STORAGE_HPP
#define ROG_ORACLES_VERSION_STORAGE_HPP

#include <cstdint>
#include <vector>

#include "core/server_shard.hpp"

namespace rog {
namespace core {

/** The server's per-(worker, unit) version matrix. */
class VersionStorage
{
  public:
    /** All versions start at 0 (nothing pushed yet). */
    VersionStorage(std::size_t workers, std::size_t units);

    std::size_t workers() const { return versions_.size(); }
    std::size_t units() const { return units_; }

    /** Version of @p unit as pushed by @p worker. */
    std::int64_t get(std::size_t worker, std::size_t unit) const;

    /** Record that @p worker pushed @p unit at iteration @p iter. */
    void update(std::size_t worker, std::size_t unit, std::int64_t iter);

    /**
     * min(V) over all units of all *active* workers; retired workers
     * are excluded. Returns the last computed min if every worker has
     * retired.
     */
    std::int64_t minVersion() const;

    /**
     * min over active workers of the version of @p unit — the
     * per-row staleness reference of Algo 2's gate ("wait for other
     * worker update g_i"). Falls back to minVersion() semantics if
     * every worker has retired.
     */
    std::int64_t minAcrossWorkers(std::size_t unit) const;

    /**
     * Exclude a finished worker from min(V) so it cannot stall the
     * remaining ones after it leaves the training run.
     */
    void retireWorker(std::size_t worker);

    bool retired(std::size_t worker) const;

    /**
     * Re-admit a previously retired (crashed) worker that resynced to
     * the model at iteration @p iter: its versions jump to @p iter so
     * the gate treats it as freshly caught up, not eternally stale.
     * @pre iter >= every version the worker pushed before the crash.
     */
    void rejoinWorker(std::size_t worker, std::int64_t iter);

    /** Oldest version among @p worker's own units (diagnostics). */
    std::int64_t minVersionOfWorker(std::size_t worker) const;

    /** Newest version among @p worker's units — its last pushed
     *  training iteration. */
    std::int64_t maxVersionOfWorker(std::size_t worker) const;

    /** Copy out the full matrix + retirement flags (checkpointing). */
    VersionSnapshot snapshot() const;

    /**
     * Overwrite the matrix from a snapshot of the *same shape*;
     * fails (throws) on a shape mismatch.
     */
    void restore(const VersionSnapshot &s);

    /**
     * min over active workers of their last pushed iteration — the
     * reference for RSP's cross-worker staleness level: how far the
     * slowest worker's training state lags. Falls back to
     * minVersion() if every worker has retired.
     */
    std::int64_t minWorkerIteration() const;

  private:
    std::vector<std::vector<std::int64_t>> versions_;
    std::vector<bool> retired_;
    std::size_t units_;

    // min(V) cache: recomputed only when an update lowers confidence.
    mutable std::int64_t cached_min_ = 0;
    mutable bool dirty_ = true;
};

} // namespace core
} // namespace rog

#endif // ROG_ORACLES_VERSION_STORAGE_HPP
