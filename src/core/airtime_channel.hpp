/**
 * @file
 * Airtime-fair fluid channel with a virtual-airtime clock — the fleet
 * DES's shared wireless medium.
 *
 * n concurrent transfers split airtime equally: transfer i, on a link
 * of rate r_i, moves r_i / n bytes per second. Its remaining airtime
 * a_i = remaining_bytes_i / r_i therefore drains at 1/n per second —
 * the same rate for every transfer, whatever its link. So one clock
 * V with dV/dt = 1/n (the GPS/WFQ virtual-time trick) replaces the
 * per-transfer bookkeeping: a transfer started at virtual time V0
 * with b bytes finishes when V reaches F = V0 + b / r. Finish times
 * never move relative to each other, so a min-heap on (F, start
 * order) yields the completion order, and every start or finish
 * costs O(log n) instead of a walk over every active transfer.
 *
 * The O(n) formulation it replaces (remaining bytes per transfer,
 * advanced and rescanned on every event) lives on in
 * tests/core/airtime_channel_test.cpp as the differential oracle.
 */
#ifndef ROG_CORE_AIRTIME_CHANNEL_HPP
#define ROG_CORE_AIRTIME_CHANNEL_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rog {
namespace core {

class AirtimeChannel
{
  public:
    /** A finished transfer: its start order and the caller's tag. */
    struct Done
    {
        std::uint64_t seq = 0; //!< 1-based start order.
        std::uint64_t tag = 0;
    };

    /**
     * Start a transfer of @p bytes over a link of @p rate bytes/s at
     * time @p now (>= every earlier call's time). Returns its seq;
     * equal finish times complete in seq order.
     */
    std::uint64_t start(double now, double bytes, double rate,
                        std::uint64_t tag);

    bool empty() const { return heap_.empty(); }
    std::size_t active() const { return heap_.size(); }

    /**
     * Time the earliest transfer finishes if nothing else starts.
     * @pre !empty()
     */
    double nextFinish() const;

    /**
     * Remove the earliest-finishing transfer at its finish time
     * @p now (the time nextFinish() returned). @pre !empty()
     */
    Done finish(double now);

  private:
    struct Entry
    {
        double finish = 0.0; //!< virtual time the transfer completes.
        std::uint64_t seq = 0;
        std::uint64_t tag = 0;
    };

    /** Move the virtual clock to real time @p now. */
    void advance(double now);

    std::vector<Entry> heap_; //!< min-heap on (finish, seq).
    double virtual_ = 0.0;    //!< V: airtime each transfer has had.
    double last_ = 0.0;       //!< real time V was last advanced to.
    std::uint64_t next_seq_ = 1;
};

} // namespace core
} // namespace rog

#endif // ROG_CORE_AIRTIME_CHANNEL_HPP
