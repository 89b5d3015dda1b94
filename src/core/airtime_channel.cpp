#include "core/airtime_channel.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace rog {
namespace core {

namespace {

/** std heap comparator: true when @p a finishes after @p b, so the
 *  earliest (finish, seq) sits at the front. */
template <class E>
bool
later(const E &a, const E &b)
{
    if (a.finish != b.finish)
        return a.finish > b.finish;
    return a.seq > b.seq;
}

} // namespace

void
AirtimeChannel::advance(double now)
{
    if (!heap_.empty())
        virtual_ += (now - last_) / static_cast<double>(heap_.size());
    last_ = now;
}

std::uint64_t
AirtimeChannel::start(double now, double bytes, double rate,
                      std::uint64_t tag)
{
    ROG_ASSERT(rate > 0.0, "transfer needs a positive link rate");
    advance(now);
    Entry e;
    e.finish = virtual_ + (bytes > 0.0 ? bytes : 0.0) / rate;
    e.seq = next_seq_++;
    e.tag = tag;
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), later<Entry>);
    return e.seq;
}

double
AirtimeChannel::nextFinish() const
{
    ROG_ASSERT(!heap_.empty(), "no transfer in flight");
    const double left = heap_.front().finish - virtual_;
    return last_ +
           (left > 0.0 ? left : 0.0) * static_cast<double>(heap_.size());
}

AirtimeChannel::Done
AirtimeChannel::finish(double now)
{
    ROG_ASSERT(!heap_.empty(), "no transfer in flight");
    advance(now);
    std::pop_heap(heap_.begin(), heap_.end(), later<Entry>);
    const Entry e = heap_.back();
    heap_.pop_back();
    // An idle channel restarts its clock, which keeps V (and with it
    // the rounding error of every finish time) small over long runs.
    if (heap_.empty())
        virtual_ = 0.0;
    return {e.seq, e.tag};
}

} // namespace core
} // namespace rog
