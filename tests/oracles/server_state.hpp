/**
 * @file
 * Test oracle: the paper's literal parameter-server outbox (Fig. 5,
 * right side).
 *
 * The server keeps *one gradient copy per worker* (Sec. III-B): when
 * worker r pushes row i at iteration n, g'_i / num is accumulated into
 * every worker's copy; when the server later sends row i to worker s,
 * only s's copy of row i is zeroed. Together with worker-side
 * accumulation this guarantees every computed gradient is eventually
 * applied to every replica exactly once (gradient conservation).
 *
 * ServerState implements that literally — O(workers * width) per push
 * — and is the exact oracle the tests hold ServerShard's O(width)
 * cumulative-sum layout (core/server_shard.hpp) against. It is not
 * part of any production library. Numerical contract (shared with
 * ServerShard through core/fixed_point.hpp):
 *  - Each copy is a Q32.32 integer sum: a push adds
 *    round(decoded[j] * 2^32 / workers) to every copy. Integer sums
 *    are exact and order-independent, so the per-copy and the
 *    cumulative layouts agree bit for bit.
 *  - pending() returns the nearest float of each copy;
 *    pendingMeanAbs() sums |copy| in the integer domain.
 *  - Range: a push is accepted only if every |decoded[j] / workers| <
 *    2^19 and adding it keeps every copy below 2^30 in magnitude. A
 *    non-finite or out-of-range value, or a push that would take any
 *    copy to the limit, rejects the whole push (accumulate returns
 *    false) and leaves every copy untouched. Every copy is therefore
 *    exact. restore() rejects a snapshot holding a value at or past
 *    the limit.
 */
#ifndef ROG_ORACLES_SERVER_STATE_HPP
#define ROG_ORACLES_SERVER_STATE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/row_partition.hpp"
#include "core/server_shard.hpp"

namespace rog {
namespace core {

/** Accumulated averaged gradients awaiting pull, per worker per unit. */
class ServerState
{
  public:
    ServerState(std::size_t workers, const RowPartition &partition);

    std::size_t workers() const { return copies_.size(); }
    std::size_t units() const { return unit_widths_.size(); }

    /**
     * Accumulate a pushed (already decoded) gradient of @p unit from
     * one worker into *every* worker's copy, scaled by 1/num_workers.
     * Returns false, touching nothing, if any value is non-finite or
     * outside the fixed-point range (see the file comment).
     */
    bool accumulate(std::size_t unit, std::span<const float> decoded);

    /**
     * Pending averaged gradient of @p unit for @p worker, as floats in
     * a scratch buffer that the next pending() call overwrites.
     */
    std::span<float> pending(std::size_t worker, std::size_t unit);

    /** True if a push of @p unit reached @p worker's copy since the
     *  copy was last cleared (even one that summed to zero). */
    bool hasPending(std::size_t worker, std::size_t unit) const;

    /** Zero @p worker's copy of @p unit after it was sent. */
    void clearPending(std::size_t worker, std::size_t unit);

    /**
     * Drop every pending copy held for @p worker — used when a crashed
     * worker rejoins from the current model version, which already
     * reflects the averaged gradients it missed.
     */
    void clearWorker(std::size_t worker);

    /** Mean |pending| of @p unit for @p worker (importance input). */
    double pendingMeanAbs(std::size_t worker, std::size_t unit) const;

    /** Latest iteration that updated @p unit (any worker). */
    std::int64_t lastUpdate(std::size_t unit) const;

    /** Record that @p unit was updated at iteration @p iter. */
    void noteUpdate(std::size_t unit, std::int64_t iter);

    /** Copy out the exact pending sums + flags + update stamps. */
    ServerStateSnapshot snapshot() const;

    /**
     * Overwrite from a snapshot of the *same shape*; fails (throws)
     * on worker/unit/width mismatch.
     */
    void restore(const ServerStateSnapshot &s);

  private:
    /** Per worker, per unit: the Q32.32 sum pending for that copy. */
    std::vector<std::vector<std::vector<std::uint64_t>>> copies_;
    std::vector<std::vector<bool>> has_pending_;
    std::vector<std::size_t> unit_widths_;
    std::vector<std::int64_t> last_update_;
    double scale_; //!< Q32.32 factor including 1/workers.
    float limit_;  //!< exclusive bound on |decoded|.
    std::vector<std::uint64_t> push_q_; //!< one push, converted once.
    std::vector<std::uint64_t> zeros_;  //!< subtrahend for copies.
    std::vector<float> scratch_;        //!< pending() output.
};

} // namespace core
} // namespace rog

#endif // ROG_ORACLES_SERVER_STATE_HPP
