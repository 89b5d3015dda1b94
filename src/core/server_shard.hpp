/**
 * @file
 * Sharded parameter server: the fleet-scale layout of the server-side
 * state (ROADMAP item 1).
 *
 * The original server trio — VersionStorage, ServerState,
 * MtaTimeTracker — keeps one nested heap allocation per (worker, unit)
 * cell: `vector<vector<vector<float>>>` outboxes and
 * `vector<vector<int64>>` version matrices. At 1024 workers that is
 * hundreds of thousands of small allocations with no locality between
 * the cells one request touches. This file replaces the trio on the
 * engine's hot path with N `ServerShard`s behind a `ShardedServer`
 * facade:
 *
 *  - Model rows (synchronization units) are partitioned across shards
 *    in contiguous ranges; `unit -> (shard, local unit)` is two O(1)
 *    table lookups.
 *  - Each shard keeps ONE cumulative sum per unit element instead of
 *    one outbox copy per worker (see "Gradient outbox" below), plus
 *    flat per-(worker, unit) watermarks, push-count marks and version
 *    cells, and owns its own MtaTimeTracker bookkeeping, membership
 *    (retired) view, and ROGS checkpoint payload.
 *  - MTA throughput reports are replicated into every shard's tracker:
 *    the EWMA streams are identical, so every shard derives the same
 *    tMTA a single global tracker would — while remaining
 *    self-contained for checkpointing and for the parallel fleet DES,
 *    where each shard is driven by its own event queue.
 *
 * Gradient outbox. ROG's server owes every worker the sum of all
 * averaged pushes since that worker last pulled the unit (paper
 * Sec. III-B keeps one copy per worker for this, O(workers * width)
 * per push). A shard instead keeps, per unit element, the running
 * Q32.32 sum cum[j] of every push, and per (worker, unit) the value
 * of cum at that worker's last pull (its watermark). Then:
 *  - accumulate() is O(width): one conversion and add into cum;
 *  - pending(w, u) = cum - watermark, exactly (integer arithmetic);
 *  - clearPending(w, u) copies cum into the watermark, O(width);
 *  - hasPending(w, u) is an O(1) compare of the unit's 64-bit push
 *    count against the count recorded at the worker's last pull.
 * Memory is O(rows * width) for the sums plus O(workers * rows *
 * width) for the watermarks: exact per-worker pending needs a full
 * watermark per element, not one counter per row.
 *
 * Numerical contract (core/fixed_point.hpp, shared with ServerState):
 * a push adds round(decoded[j] * 2^32 / workers) per element. Integer
 * sums are exact and associative, so pending values are bit-identical
 * to ServerState's per-copy arithmetic, for every shard count and any
 * arrival order; sharding does not change a single bit. A push is
 * rejected whole (accumulate returns false, no state changes) if any
 * value is non-finite, any |decoded[j] / workers| >= 2^19, or it would
 * take any worker's pending value to 2^30 or more in magnitude — the
 * same rule ServerState applies per copy. The last check is O(width):
 * per unit the shard keeps an upper bound on every worker's |pending|,
 * grown by each push's largest converted |value| and never lowered by
 * a pull; only when a push would cross the limit against this bound
 * does it measure every worker's pending values exactly and reset the
 * bound to what it finds. With every pending value below 2^30,
 * cum - watermark is exact. The watermark itself (cum at the last
 * pull) reads as the total delivered only while that total stays
 * below 2^31. sharded_server_test and fixed_point_server_test verify
 * this differentially.
 */
#ifndef ROG_CORE_SERVER_SHARD_HPP
#define ROG_CORE_SERVER_SHARD_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/row_partition.hpp"
#include "core/server_state.hpp"
#include "core/version_storage.hpp"

namespace rog {
namespace core {

/**
 * One shard: contiguous-arena server state for a contiguous range of
 * synchronization units. Unit indices here are SHARD-LOCAL; the
 * ShardedServer facade owns the global->local mapping.
 */
class ServerShard
{
  public:
    /**
     * @param workers    global worker count (gradient scaling uses
     *                   1/workers regardless of sharding).
     * @param unit_widths widths of this shard's units, in shard order.
     */
    ServerShard(std::size_t workers,
                std::vector<std::size_t> unit_widths);

    std::size_t workers() const { return workers_; }
    std::size_t units() const { return unit_widths_.size(); }

    // ---- gradient outbox (ServerState semantics) ----
    /** False (and no state change) for a rejected push. */
    bool accumulate(std::size_t unit, std::span<const float> decoded);
    /** Floats in per-shard scratch, valid until the next pending(). */
    std::span<float> pending(std::size_t worker, std::size_t unit);
    bool hasPending(std::size_t worker, std::size_t unit) const;
    void clearPending(std::size_t worker, std::size_t unit);
    void clearWorker(std::size_t worker);
    double pendingMeanAbs(std::size_t worker, std::size_t unit) const;
    std::int64_t lastUpdate(std::size_t unit) const;
    void noteUpdate(std::size_t unit, std::int64_t iter);
    /**
     * Q32.32 value of the unit's cumulative sum at @p worker's last
     * pull: everything delivered to it since construction (a restore
     * rebases the sums, after which only differences are meaningful).
     */
    std::span<const std::uint64_t> watermark(std::size_t worker,
                                             std::size_t unit) const;

    // ---- version matrix (VersionStorage semantics) ----
    std::int64_t version(std::size_t worker, std::size_t unit) const;
    void updateVersion(std::size_t worker, std::size_t unit,
                       std::int64_t iter);
    bool retired(std::size_t worker) const;
    void retireWorker(std::size_t worker);
    void rejoinWorker(std::size_t worker, std::int64_t iter);
    std::int64_t maxVersionOfWorker(std::size_t worker) const;
    std::int64_t minVersionOfWorker(std::size_t worker) const;

    // ---- MTA bookkeeping (replicated tracker) ----
    void report(std::size_t worker, double bytes_transmitted,
                double elapsed_seconds, double mta_bytes);
    double mtaTime() const { return tracker_.mtaTime(); }
    double estimateFor(std::size_t worker) const
    {
        return tracker_.estimateFor(worker);
    }

    // ---- checkpointing (shard-local shapes, ROGS-compatible) ----
    VersionSnapshot versionSnapshot() const;
    ServerStateSnapshot serverSnapshot() const;
    MtaTrackerSnapshot trackerSnapshot() const
    {
        return tracker_.snapshot();
    }
    void restore(const VersionSnapshot &versions,
                 const ServerStateSnapshot &server,
                 const MtaTrackerSnapshot &tracker);

  private:
    std::size_t cell(std::size_t worker, std::size_t unit) const
    {
        return worker * unit_widths_.size() + unit;
    }

    const std::uint64_t *
    mark(std::size_t worker, std::size_t unit) const
    {
        return marks_.data() + worker * elems_ + unit_offsets_[unit];
    }

    std::size_t workers_;
    double scale_; //!< Q32.32 factor including 1/workers.
    std::int32_t limit_bits_; //!< bound on |decoded|, float bits.
    std::vector<std::size_t> unit_widths_;
    std::vector<std::size_t> unit_offsets_; //!< into cum_ / a mark block.
    std::size_t elems_ = 0;                 //!< sum of unit widths.

    std::vector<std::uint64_t> cum_;         //!< per element: push sum.
    std::vector<std::uint64_t> marks_;       //!< per worker: cum at pull.
    std::vector<std::int64_t> pend_bound_;   //!< per unit: >= |pending|.
    std::vector<std::uint64_t> pushes_;      //!< per unit: push count.
    std::vector<std::uint64_t> mark_pushes_; //!< per cell: count at pull.
    std::vector<std::uint64_t> push_q_;      //!< one push, converted.
    std::vector<float> scratch_;             //!< pending() output.
    std::vector<std::int64_t> last_update_;  //!< per unit.
    std::vector<std::int64_t> versions_;
    std::vector<std::uint8_t> retired_;     //!< per worker.
    MtaTimeTracker tracker_;
};

/**
 * Facade presenting N shards as one server. Global unit indices are
 * routed with two flat lookups; worker-scoped operations (retire,
 * rejoin, clearWorker, MTA reports) broadcast to every shard so the
 * per-shard membership views and trackers stay replicas of each other.
 */
class ShardedServer
{
  public:
    /**
     * @param workers   worker count.
     * @param partition global row partition (unit widths).
     * @param shards    requested shard count; clamped to
     *                  [1, unitCount()].
     */
    ShardedServer(std::size_t workers, const RowPartition &partition,
                  std::size_t shards);

    /** Same, from raw unit widths (synthetic fleet workloads). */
    ShardedServer(std::size_t workers,
                  const std::vector<std::size_t> &unit_widths,
                  std::size_t shards);

    std::size_t shardCount() const { return shards_.size(); }
    std::size_t workers() const { return shards_[0].workers(); }
    std::size_t units() const { return unit_shard_.size(); }
    std::size_t shardOf(std::size_t unit) const
    {
        return unit_shard_[unit];
    }
    ServerShard &shard(std::size_t s) { return shards_[s]; }
    const ServerShard &shard(std::size_t s) const { return shards_[s]; }

    // ---- gradient outbox ----
    bool accumulate(std::size_t unit, std::span<const float> decoded);
    std::span<float> pending(std::size_t worker, std::size_t unit);
    bool hasPending(std::size_t worker, std::size_t unit) const;
    void clearPending(std::size_t worker, std::size_t unit);
    void clearWorker(std::size_t worker);
    double pendingMeanAbs(std::size_t worker, std::size_t unit) const;
    std::int64_t lastUpdate(std::size_t unit) const;
    void noteUpdate(std::size_t unit, std::int64_t iter);
    std::span<const std::uint64_t> watermark(std::size_t worker,
                                             std::size_t unit) const;

    // ---- version matrix ----
    std::int64_t version(std::size_t worker, std::size_t unit) const;
    void updateVersion(std::size_t worker, std::size_t unit,
                       std::int64_t iter);
    bool retired(std::size_t worker) const
    {
        return shards_[0].retired(worker);
    }
    void retireWorker(std::size_t worker);
    void rejoinWorker(std::size_t worker, std::int64_t iter);
    /** Max over every shard's units — the worker's last pushed iter. */
    std::int64_t maxVersionOfWorker(std::size_t worker) const;

    // ---- MTA ----
    /** Replicated into every shard's tracker (identical EWMAs). */
    void report(std::size_t worker, double bytes_transmitted,
                double elapsed_seconds, double mta_bytes);
    double mtaTime() const { return shards_[0].mtaTime(); }
    double estimateFor(std::size_t worker) const
    {
        return shards_[0].estimateFor(worker);
    }

  private:
    void init(std::size_t workers,
              const std::vector<std::size_t> &unit_widths,
              std::size_t shards);

    std::vector<ServerShard> shards_;
    std::vector<std::uint32_t> unit_shard_;
    std::vector<std::uint32_t> unit_local_;
};

} // namespace core
} // namespace rog

#endif // ROG_CORE_SERVER_SHARD_HPP
