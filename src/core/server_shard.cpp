#include "core/server_shard.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/logging.hpp"
#include "core/fixed_point.hpp"

namespace rog {
namespace core {

ServerShard::ServerShard(std::size_t workers,
                         std::vector<std::size_t> unit_widths)
    : workers_(workers), scale_(fixed::averagingScale(workers)),
      limit_bits_(
          std::bit_cast<std::int32_t>(fixed::inputLimit(workers))),
      unit_widths_(std::move(unit_widths)), tracker_(workers)
{
    ROG_ASSERT(workers_ > 0, "shard needs at least one worker");
    ROG_ASSERT(!unit_widths_.empty(), "shard needs at least one unit");
    unit_offsets_.reserve(unit_widths_.size());
    std::size_t max_width = 0;
    for (std::size_t w : unit_widths_) {
        unit_offsets_.push_back(elems_);
        elems_ += w;
        max_width = std::max(max_width, w);
    }
    cum_.assign(elems_, 0);
    marks_.assign(workers_ * elems_, 0);
    pend_bound_.assign(unit_widths_.size(), 0);
    pushes_.assign(unit_widths_.size(), 0);
    mark_pushes_.assign(workers_ * unit_widths_.size(), 0);
    push_q_.assign(max_width, 0);
    scratch_.assign(max_width, 0.0f);
    last_update_.assign(unit_widths_.size(), 0);
    versions_.assign(workers_ * unit_widths_.size(), 0);
    retired_.assign(workers_, 0);
}

bool
ServerShard::accumulate(std::size_t unit, std::span<const float> decoded)
{
    ROG_ASSERT(unit < unit_widths_.size(), "unit out of range");
    ROG_ASSERT(decoded.size() == unit_widths_[unit],
               "decoded width mismatch");
    const std::size_t n = decoded.size();
    const std::int32_t top = fixed::maxAbsBits(decoded.data(), n);
    if (!(top < limit_bits_))
        return false;
    std::uint64_t *sum = cum_.data() + unit_offsets_[unit];
    // Rounding is monotone and symmetric, so no converted |value|
    // exceeds the converted largest |decoded[j]|: the bound grows by
    // at most that.
    const auto step = static_cast<std::int64_t>(fixed::toFixed(
        static_cast<double>(std::bit_cast<float>(top)) * scale_));
    std::int64_t &bound = pend_bound_[unit];
    if (bound + step < fixed::kPendingLimit) {
        bound += step;
        fixed::addScaled(sum, decoded.data(), n, scale_);
    } else {
        // The bound only grows; measure every worker's pending values
        // exactly before deciding (O(workers * width), reached only
        // once the bound has drifted near the limit).
        const std::uint64_t *q = push_q_.data();
        fixed::convertScaled(push_q_.data(), decoded.data(), n, scale_);
        std::int64_t widest = 0;
        for (std::size_t w = 0; w < workers_; ++w)
            widest = std::max(widest, fixed::widestAfterAdd(
                                          sum, mark(w, unit), q, n));
        if (!(widest < fixed::kPendingLimit))
            return false;
        bound = widest;
        for (std::size_t j = 0; j < n; ++j)
            sum[j] += q[j];
    }
    ++pushes_[unit];
    return true;
}

std::span<float>
ServerShard::pending(std::size_t worker, std::size_t unit)
{
    ROG_ASSERT(worker < workers_ && unit < unit_widths_.size(),
               "pending index out of range");
    const std::size_t width = unit_widths_[unit];
    fixed::differenceToFloats(cum_.data() + unit_offsets_[unit],
                              mark(worker, unit), scratch_.data(),
                              width);
    return {scratch_.data(), width};
}

bool
ServerShard::hasPending(std::size_t worker, std::size_t unit) const
{
    ROG_ASSERT(worker < workers_ && unit < unit_widths_.size(),
               "pending index out of range");
    return mark_pushes_[cell(worker, unit)] != pushes_[unit];
}

void
ServerShard::clearPending(std::size_t worker, std::size_t unit)
{
    ROG_ASSERT(worker < workers_ && unit < unit_widths_.size(),
               "pending index out of range");
    const std::uint64_t *src = cum_.data() + unit_offsets_[unit];
    std::copy(src, src + unit_widths_[unit],
              marks_.begin() + static_cast<std::ptrdiff_t>(
                                   worker * elems_ + unit_offsets_[unit]));
    mark_pushes_[cell(worker, unit)] = pushes_[unit];
}

void
ServerShard::clearWorker(std::size_t worker)
{
    ROG_ASSERT(worker < workers_, "worker out of range");
    for (std::size_t u = 0; u < unit_widths_.size(); ++u)
        clearPending(worker, u);
}

double
ServerShard::pendingMeanAbs(std::size_t worker, std::size_t unit) const
{
    ROG_ASSERT(worker < workers_ && unit < unit_widths_.size(),
               "pending index out of range");
    return fixed::meanAbsDifference(cum_.data() + unit_offsets_[unit],
                                    mark(worker, unit),
                                    unit_widths_[unit]);
}

std::span<const std::uint64_t>
ServerShard::watermark(std::size_t worker, std::size_t unit) const
{
    ROG_ASSERT(worker < workers_ && unit < unit_widths_.size(),
               "watermark index out of range");
    return {mark(worker, unit), unit_widths_[unit]};
}

std::int64_t
ServerShard::lastUpdate(std::size_t unit) const
{
    ROG_ASSERT(unit < last_update_.size(), "unit out of range");
    return last_update_[unit];
}

void
ServerShard::noteUpdate(std::size_t unit, std::int64_t iter)
{
    ROG_ASSERT(unit < last_update_.size(), "unit out of range");
    last_update_[unit] = std::max(last_update_[unit], iter);
}

std::int64_t
ServerShard::version(std::size_t worker, std::size_t unit) const
{
    ROG_ASSERT(worker < workers_ && unit < unit_widths_.size(),
               "version index out of range");
    return versions_[cell(worker, unit)];
}

void
ServerShard::updateVersion(std::size_t worker, std::size_t unit,
                           std::int64_t iter)
{
    ROG_ASSERT(worker < workers_ && unit < unit_widths_.size(),
               "version index out of range");
    ROG_ASSERT(iter >= versions_[cell(worker, unit)],
               "versions must be monotone");
    versions_[cell(worker, unit)] = iter;
}

bool
ServerShard::retired(std::size_t worker) const
{
    ROG_ASSERT(worker < workers_, "worker out of range");
    return retired_[worker] != 0;
}

void
ServerShard::retireWorker(std::size_t worker)
{
    ROG_ASSERT(worker < workers_, "worker out of range");
    retired_[worker] = 1;
}

void
ServerShard::rejoinWorker(std::size_t worker, std::int64_t iter)
{
    ROG_ASSERT(worker < workers_, "worker out of range");
    for (std::size_t u = 0; u < unit_widths_.size(); ++u) {
        ROG_ASSERT(iter >= versions_[cell(worker, u)],
                   "rejoin would move a version backwards");
        versions_[cell(worker, u)] = iter;
    }
    retired_[worker] = 0;
}

std::int64_t
ServerShard::maxVersionOfWorker(std::size_t worker) const
{
    ROG_ASSERT(worker < workers_, "worker out of range");
    std::int64_t m = std::numeric_limits<std::int64_t>::min();
    for (std::size_t u = 0; u < unit_widths_.size(); ++u)
        m = std::max(m, versions_[cell(worker, u)]);
    return m;
}

std::int64_t
ServerShard::minVersionOfWorker(std::size_t worker) const
{
    ROG_ASSERT(worker < workers_, "worker out of range");
    std::int64_t m = std::numeric_limits<std::int64_t>::max();
    for (std::size_t u = 0; u < unit_widths_.size(); ++u)
        m = std::min(m, versions_[cell(worker, u)]);
    return m;
}

void
ServerShard::report(std::size_t worker, double bytes_transmitted,
                    double elapsed_seconds, double mta_bytes)
{
    tracker_.report(worker, bytes_transmitted, elapsed_seconds,
                    mta_bytes);
}

VersionSnapshot
ServerShard::versionSnapshot() const
{
    VersionSnapshot s;
    s.versions.resize(workers_);
    for (std::size_t w = 0; w < workers_; ++w) {
        s.versions[w].assign(
            versions_.begin() +
                static_cast<std::ptrdiff_t>(w * unit_widths_.size()),
            versions_.begin() + static_cast<std::ptrdiff_t>(
                                    (w + 1) * unit_widths_.size()));
    }
    s.retired.assign(retired_.begin(), retired_.end());
    return s;
}

ServerStateSnapshot
ServerShard::serverSnapshot() const
{
    ServerStateSnapshot s;
    s.pending.resize(workers_);
    s.has_pending.resize(workers_);
    for (std::size_t w = 0; w < workers_; ++w) {
        s.pending[w].resize(unit_widths_.size());
        s.has_pending[w].resize(unit_widths_.size());
        for (std::size_t u = 0; u < unit_widths_.size(); ++u) {
            const std::uint64_t *sum = cum_.data() + unit_offsets_[u];
            const std::uint64_t *at = mark(w, u);
            auto &dst = s.pending[w][u];
            dst.resize(unit_widths_[u]);
            for (std::size_t j = 0; j < dst.size(); ++j)
                dst[j] = static_cast<std::int64_t>(sum[j] - at[j]);
            s.has_pending[w][u] = hasPending(w, u) ? 1 : 0;
        }
    }
    s.last_update = last_update_;
    return s;
}

void
ServerShard::restore(const VersionSnapshot &versions,
                     const ServerStateSnapshot &server,
                     const MtaTrackerSnapshot &tracker)
{
    if (versions.versions.size() != workers_ ||
        versions.retired.size() != workers_ ||
        server.pending.size() != workers_ ||
        server.has_pending.size() != workers_ ||
        server.last_update.size() != unit_widths_.size())
        ROG_FATAL("shard snapshot shape mismatch");
    for (std::size_t w = 0; w < workers_; ++w) {
        if (versions.versions[w].size() != unit_widths_.size() ||
            server.pending[w].size() != unit_widths_.size() ||
            server.has_pending[w].size() != unit_widths_.size())
            ROG_FATAL("shard snapshot unit count mismatch");
        for (std::size_t u = 0; u < unit_widths_.size(); ++u) {
            if (server.pending[w][u].size() != unit_widths_[u])
                ROG_FATAL("shard snapshot unit width mismatch");
            if (!(fixed::widestPending(server.pending[w][u]) <
                  fixed::kPendingLimit))
                ROG_FATAL("shard snapshot pending value out of range");
        }
    }
    // Rebase: every sum restarts at 0 and each watermark sits the
    // worker's pending value below it, so cum - watermark reproduces
    // the snapshot exactly. One push per unit is on the books and a
    // cell with nothing pending has already seen it.
    std::fill(cum_.begin(), cum_.end(), 0);
    std::fill(pend_bound_.begin(), pend_bound_.end(), 0);
    std::fill(pushes_.begin(), pushes_.end(), 1);
    for (std::size_t w = 0; w < workers_; ++w) {
        std::copy(versions.versions[w].begin(),
                  versions.versions[w].end(),
                  versions_.begin() + static_cast<std::ptrdiff_t>(
                                          w * unit_widths_.size()));
        for (std::size_t u = 0; u < unit_widths_.size(); ++u) {
            std::uint64_t *at =
                marks_.data() + w * elems_ + unit_offsets_[u];
            const auto &p = server.pending[w][u];
            for (std::size_t j = 0; j < p.size(); ++j)
                at[j] = 0 - static_cast<std::uint64_t>(p[j]);
            mark_pushes_[cell(w, u)] = server.has_pending[w][u] ? 0 : 1;
            pend_bound_[u] =
                std::max(pend_bound_[u], fixed::widestPending(p));
        }
        retired_[w] = versions.retired[w];
    }
    last_update_ = server.last_update;
    tracker_.restore(tracker);
}

ShardedServer::ShardedServer(std::size_t workers,
                             const RowPartition &partition,
                             std::size_t shards)
{
    std::vector<std::size_t> widths;
    widths.reserve(partition.unitCount());
    for (const Unit &u : partition.units())
        widths.push_back(u.width);
    init(workers, widths, shards);
}

ShardedServer::ShardedServer(std::size_t workers,
                             const std::vector<std::size_t> &unit_widths,
                             std::size_t shards)
{
    init(workers, unit_widths, shards);
}

void
ShardedServer::init(std::size_t workers,
                    const std::vector<std::size_t> &unit_widths,
                    std::size_t shards)
{
    const std::size_t units = unit_widths.size();
    ROG_ASSERT(units > 0, "sharded server needs at least one unit");
    const std::size_t n = std::max<std::size_t>(
        1, std::min(shards == 0 ? 1 : shards, units));

    unit_shard_.resize(units);
    unit_local_.resize(units);
    shards_.reserve(n);

    // Contiguous balanced ranges: the first (units % n) shards take
    // one extra unit. Contiguity keeps a worker's pull of neighboring
    // rows within one shard and makes shard membership a range check.
    const std::size_t base = units / n;
    const std::size_t rem = units % n;
    std::size_t next = 0;
    for (std::size_t s = 0; s < n; ++s) {
        const std::size_t count = base + (s < rem ? 1 : 0);
        std::vector<std::size_t> widths;
        widths.reserve(count);
        for (std::size_t k = 0; k < count; ++k) {
            const std::size_t u = next + k;
            unit_shard_[u] = static_cast<std::uint32_t>(s);
            unit_local_[u] = static_cast<std::uint32_t>(k);
            widths.push_back(unit_widths[u]);
        }
        shards_.emplace_back(workers, std::move(widths));
        next += count;
    }
    ROG_ASSERT(next == units, "shard ranges must cover every unit");
}

bool
ShardedServer::accumulate(std::size_t unit,
                          std::span<const float> decoded)
{
    return shards_[unit_shard_[unit]].accumulate(unit_local_[unit],
                                                 decoded);
}

std::span<float>
ShardedServer::pending(std::size_t worker, std::size_t unit)
{
    return shards_[unit_shard_[unit]].pending(worker,
                                              unit_local_[unit]);
}

bool
ShardedServer::hasPending(std::size_t worker, std::size_t unit) const
{
    return shards_[unit_shard_[unit]].hasPending(worker,
                                                 unit_local_[unit]);
}

void
ShardedServer::clearPending(std::size_t worker, std::size_t unit)
{
    shards_[unit_shard_[unit]].clearPending(worker, unit_local_[unit]);
}

void
ShardedServer::clearWorker(std::size_t worker)
{
    for (auto &s : shards_)
        s.clearWorker(worker);
}

double
ShardedServer::pendingMeanAbs(std::size_t worker,
                              std::size_t unit) const
{
    return shards_[unit_shard_[unit]].pendingMeanAbs(
        worker, unit_local_[unit]);
}

std::int64_t
ShardedServer::lastUpdate(std::size_t unit) const
{
    return shards_[unit_shard_[unit]].lastUpdate(unit_local_[unit]);
}

void
ShardedServer::noteUpdate(std::size_t unit, std::int64_t iter)
{
    shards_[unit_shard_[unit]].noteUpdate(unit_local_[unit], iter);
}

std::span<const std::uint64_t>
ShardedServer::watermark(std::size_t worker, std::size_t unit) const
{
    return shards_[unit_shard_[unit]].watermark(worker,
                                                unit_local_[unit]);
}

std::int64_t
ShardedServer::version(std::size_t worker, std::size_t unit) const
{
    return shards_[unit_shard_[unit]].version(worker,
                                              unit_local_[unit]);
}

void
ShardedServer::updateVersion(std::size_t worker, std::size_t unit,
                             std::int64_t iter)
{
    shards_[unit_shard_[unit]].updateVersion(worker, unit_local_[unit],
                                             iter);
}

void
ShardedServer::retireWorker(std::size_t worker)
{
    for (auto &s : shards_)
        s.retireWorker(worker);
}

void
ShardedServer::rejoinWorker(std::size_t worker, std::int64_t iter)
{
    for (auto &s : shards_)
        s.rejoinWorker(worker, iter);
}

std::int64_t
ShardedServer::maxVersionOfWorker(std::size_t worker) const
{
    std::int64_t m = std::numeric_limits<std::int64_t>::min();
    for (const auto &s : shards_)
        m = std::max(m, s.maxVersionOfWorker(worker));
    return m;
}

void
ShardedServer::report(std::size_t worker, double bytes_transmitted,
                      double elapsed_seconds, double mta_bytes)
{
    for (auto &s : shards_)
        s.report(worker, bytes_transmitted, elapsed_seconds, mta_bytes);
}

} // namespace core
} // namespace rog
