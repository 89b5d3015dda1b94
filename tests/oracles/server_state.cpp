#include "oracles/server_state.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "core/fixed_point.hpp"

namespace rog {
namespace core {

ServerState::ServerState(std::size_t workers,
                         const RowPartition &partition)
    : scale_(fixed::averagingScale(workers)),
      limit_(fixed::inputLimit(workers))
{
    ROG_ASSERT(workers > 0, "server needs at least one worker");
    unit_widths_.reserve(partition.unitCount());
    std::size_t max_width = 0;
    for (const Unit &u : partition.units()) {
        unit_widths_.push_back(u.width);
        max_width = std::max(max_width, u.width);
    }
    last_update_.assign(partition.unitCount(), 0);
    push_q_.assign(max_width, 0);
    zeros_.assign(max_width, 0);
    scratch_.assign(max_width, 0.0f);

    copies_.resize(workers);
    has_pending_.resize(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        copies_[w].resize(partition.unitCount());
        has_pending_[w].assign(partition.unitCount(), false);
        for (std::size_t u = 0; u < partition.unitCount(); ++u)
            copies_[w][u].assign(unit_widths_[u], 0);
    }
}

bool
ServerState::accumulate(std::size_t unit, std::span<const float> decoded)
{
    ROG_ASSERT(unit < unit_widths_.size(), "unit out of range");
    ROG_ASSERT(decoded.size() == unit_widths_[unit],
               "decoded width mismatch");
    const std::size_t n = decoded.size();
    if (!fixed::representable(decoded.data(), n, limit_))
        return false;
    fixed::convertScaled(push_q_.data(), decoded.data(), n, scale_);
    for (const auto &copy : copies_)
        if (!(fixed::widestAfterAdd(copy[unit].data(), zeros_.data(),
                                    push_q_.data(),
                                    n) < fixed::kPendingLimit))
            return false;
    for (std::size_t w = 0; w < copies_.size(); ++w) {
        std::uint64_t *dst = copies_[w][unit].data();
        for (std::size_t j = 0; j < n; ++j)
            dst[j] += push_q_[j];
        has_pending_[w][unit] = true;
    }
    return true;
}

std::span<float>
ServerState::pending(std::size_t worker, std::size_t unit)
{
    ROG_ASSERT(worker < copies_.size() && unit < unit_widths_.size(),
               "pending index out of range");
    const auto &copy = copies_[worker][unit];
    fixed::differenceToFloats(copy.data(), zeros_.data(),
                              scratch_.data(), copy.size());
    return {scratch_.data(), copy.size()};
}

bool
ServerState::hasPending(std::size_t worker, std::size_t unit) const
{
    ROG_ASSERT(worker < copies_.size() && unit < unit_widths_.size(),
               "pending index out of range");
    return has_pending_[worker][unit];
}

void
ServerState::clearPending(std::size_t worker, std::size_t unit)
{
    ROG_ASSERT(worker < copies_.size() && unit < unit_widths_.size(),
               "pending index out of range");
    auto &copy = copies_[worker][unit];
    std::fill(copy.begin(), copy.end(), 0);
    has_pending_[worker][unit] = false;
}

void
ServerState::clearWorker(std::size_t worker)
{
    ROG_ASSERT(worker < copies_.size(), "worker out of range");
    for (std::size_t u = 0; u < unit_widths_.size(); ++u)
        clearPending(worker, u);
}

double
ServerState::pendingMeanAbs(std::size_t worker, std::size_t unit) const
{
    ROG_ASSERT(worker < copies_.size() && unit < unit_widths_.size(),
               "pending index out of range");
    const auto &copy = copies_[worker][unit];
    return fixed::meanAbsDifference(copy.data(), zeros_.data(),
                                    copy.size());
}

std::int64_t
ServerState::lastUpdate(std::size_t unit) const
{
    ROG_ASSERT(unit < last_update_.size(), "unit out of range");
    return last_update_[unit];
}

void
ServerState::noteUpdate(std::size_t unit, std::int64_t iter)
{
    ROG_ASSERT(unit < last_update_.size(), "unit out of range");
    last_update_[unit] = std::max(last_update_[unit], iter);
}

ServerStateSnapshot
ServerState::snapshot() const
{
    ServerStateSnapshot s;
    s.pending.resize(copies_.size());
    s.has_pending.resize(has_pending_.size());
    for (std::size_t w = 0; w < copies_.size(); ++w) {
        s.pending[w].resize(unit_widths_.size());
        for (std::size_t u = 0; u < unit_widths_.size(); ++u)
            s.pending[w][u].assign(copies_[w][u].begin(),
                                   copies_[w][u].end());
        s.has_pending[w].reserve(has_pending_[w].size());
        for (bool p : has_pending_[w])
            s.has_pending[w].push_back(p ? 1 : 0);
    }
    s.last_update = last_update_;
    return s;
}

void
ServerState::restore(const ServerStateSnapshot &s)
{
    if (s.pending.size() != copies_.size() ||
        s.has_pending.size() != has_pending_.size() ||
        s.last_update.size() != last_update_.size())
        ROG_FATAL("server snapshot shape mismatch");
    for (std::size_t w = 0; w < copies_.size(); ++w) {
        if (s.pending[w].size() != unit_widths_.size() ||
            s.has_pending[w].size() != unit_widths_.size())
            ROG_FATAL("server snapshot unit count mismatch");
        for (std::size_t u = 0; u < unit_widths_.size(); ++u) {
            if (s.pending[w][u].size() != unit_widths_[u])
                ROG_FATAL("server snapshot unit width mismatch");
            if (!(fixed::widestPending(s.pending[w][u]) <
                  fixed::kPendingLimit))
                ROG_FATAL("server snapshot pending value out of range");
        }
    }
    for (std::size_t w = 0; w < copies_.size(); ++w)
        for (std::size_t u = 0; u < unit_widths_.size(); ++u) {
            copies_[w][u].assign(s.pending[w][u].begin(),
                                 s.pending[w][u].end());
            has_pending_[w][u] = s.has_pending[w][u] != 0;
        }
    last_update_ = s.last_update;
}

} // namespace core
} // namespace rog
