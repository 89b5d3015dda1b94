/**
 * @file
 * Parameter-server state (Fig. 5, right side) and the shared MTA-time
 * tracker of ATP.
 *
 * The server keeps *one gradient copy per worker* (Sec. III-B): when
 * worker r pushes row i at iteration n, g'_i / num is accumulated into
 * every worker's copy; when the server later sends row i to worker s,
 * only s's copy of row i is zeroed. Together with worker-side
 * accumulation this guarantees every computed gradient is eventually
 * applied to every replica exactly once (gradient conservation).
 *
 * ServerState implements that literally — O(workers * width) per push
 * — and is the exact oracle for ServerShard's O(width) cumulative-sum
 * layout. Numerical contract (shared with ServerShard through
 * core/fixed_point.hpp):
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
#ifndef ROG_CORE_SERVER_STATE_HPP
#define ROG_CORE_SERVER_STATE_HPP

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/math_util.hpp"
#include "core/row_partition.hpp"
#include "core/version_storage.hpp"

namespace rog {
namespace core {

/**
 * Plain-data copy of a ServerState's volatile fields (checkpointing).
 * pending[w][u][j] is worker w's exact Q32.32 pending value; a cell
 * whose has_pending flag is 0 holds only zeros.
 */
struct ServerStateSnapshot
{
    std::vector<std::vector<std::vector<std::int64_t>>> pending;
    std::vector<std::vector<std::uint8_t>> has_pending;
    std::vector<std::int64_t> last_update;
};

/** Plain-data copy of an MtaTimeTracker's estimates (checkpointing). */
struct MtaTrackerSnapshot
{
    std::vector<double> rate;          //!< EWMA value per device.
    std::vector<std::uint8_t> seeded;  //!< EWMA seeded flag per device.
    std::vector<double> mta_bytes;
};

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

/**
 * ATP's shared MTA-time estimate (Algo 4's GetMTATime /
 * UpdateMTATime): each device reports its observed throughput after a
 * push/pull; the tracker estimates, per device, the seconds that
 * device needs to transmit an MTA's worth of bytes, and tMTA is the
 * maximum over devices — so non-stragglers keep transmitting for as
 * long as the slowest device needs for its minimum amount, aligning
 * transmission times.
 */
class MtaTimeTracker
{
  public:
    /**
     * @param workers device count.
     * @param alpha EWMA weight for new throughput observations.
     * @param floor_seconds / ceil_seconds clamp on tMTA.
     */
    explicit MtaTimeTracker(std::size_t workers, double alpha = 0.35,
                            double floor_seconds = 0.05,
                            double ceil_seconds = 30.0);

    /**
     * Current tMTA: max over devices of their estimated MTA
     * transmission time; +infinity until the first report (the first
     * iteration transmits everything, like SSP).
     */
    double mtaTime() const;

    /**
     * Report one observed transmission.
     *
     * @param worker reporting device.
     * @param bytes_transmitted total bytes that left the device.
     * @param elapsed_seconds wall time of the transmission. @pre > 0
     * @param mta_bytes current size of this device's MTA in bytes.
     */
    void report(std::size_t worker, double bytes_transmitted,
                double elapsed_seconds, double mta_bytes);

    /** Estimated seconds for @p worker to transmit its MTA. */
    double estimateFor(std::size_t worker) const;

    /** Copy out the per-device rate estimates and MTA sizes. */
    MtaTrackerSnapshot snapshot() const;

    /** Overwrite from a same-shape snapshot; fails (throws) else. */
    void restore(const MtaTrackerSnapshot &s);

  private:
    std::vector<Ewma> rate_;           //!< bytes/sec per device.
    std::vector<double> mta_bytes_;    //!< latest MTA size per device.
    double floor_seconds_;
    double ceil_seconds_;
};

} // namespace core
} // namespace rog

#endif // ROG_CORE_SERVER_STATE_HPP
