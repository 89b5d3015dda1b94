#include "oracles/version_storage.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace rog {
namespace core {

VersionStorage::VersionStorage(std::size_t workers, std::size_t units)
    : versions_(workers, std::vector<std::int64_t>(units, 0)),
      retired_(workers, false), units_(units)
{
    ROG_ASSERT(workers > 0 && units > 0, "empty version storage");
}

std::int64_t
VersionStorage::get(std::size_t worker, std::size_t unit) const
{
    ROG_ASSERT(worker < versions_.size() && unit < units_,
               "version index out of range");
    return versions_[worker][unit];
}

void
VersionStorage::update(std::size_t worker, std::size_t unit,
                       std::int64_t iter)
{
    ROG_ASSERT(worker < versions_.size() && unit < units_,
               "version index out of range");
    ROG_ASSERT(iter >= versions_[worker][unit],
               "versions must be monotone");
    versions_[worker][unit] = iter;
    dirty_ = true;
}

std::int64_t
VersionStorage::minVersion() const
{
    if (!dirty_)
        return cached_min_;
    bool any = false;
    std::int64_t m = 0;
    for (std::size_t w = 0; w < versions_.size(); ++w) {
        if (retired_[w])
            continue;
        const auto it =
            std::min_element(versions_[w].begin(), versions_[w].end());
        if (!any || *it < m)
            m = *it;
        any = true;
    }
    if (any)
        cached_min_ = m;
    dirty_ = false;
    return cached_min_;
}

std::int64_t
VersionStorage::minAcrossWorkers(std::size_t unit) const
{
    ROG_ASSERT(unit < units_, "unit out of range");
    bool any = false;
    std::int64_t m = 0;
    for (std::size_t w = 0; w < versions_.size(); ++w) {
        if (retired_[w])
            continue;
        if (!any || versions_[w][unit] < m)
            m = versions_[w][unit];
        any = true;
    }
    return any ? m : minVersion();
}

void
VersionStorage::retireWorker(std::size_t worker)
{
    ROG_ASSERT(worker < retired_.size(), "worker out of range");
    retired_[worker] = true;
    dirty_ = true;
}

bool
VersionStorage::retired(std::size_t worker) const
{
    ROG_ASSERT(worker < retired_.size(), "worker out of range");
    return retired_[worker];
}

void
VersionStorage::rejoinWorker(std::size_t worker, std::int64_t iter)
{
    ROG_ASSERT(worker < retired_.size(), "worker out of range");
    for (std::int64_t &v : versions_[worker]) {
        ROG_ASSERT(iter >= v, "rejoin would move a version backwards");
        v = iter;
    }
    retired_[worker] = false;
    dirty_ = true;
}

VersionSnapshot
VersionStorage::snapshot() const
{
    VersionSnapshot s;
    s.versions = versions_;
    s.retired.reserve(retired_.size());
    for (bool r : retired_)
        s.retired.push_back(r ? 1 : 0);
    return s;
}

void
VersionStorage::restore(const VersionSnapshot &s)
{
    if (s.versions.size() != versions_.size() ||
        s.retired.size() != retired_.size())
        ROG_FATAL("version snapshot worker count mismatch");
    for (const auto &row : s.versions)
        if (row.size() != units_)
            ROG_FATAL("version snapshot unit count mismatch");
    versions_ = s.versions;
    for (std::size_t w = 0; w < retired_.size(); ++w)
        retired_[w] = s.retired[w] != 0;
    dirty_ = true;
}

std::int64_t
VersionStorage::minVersionOfWorker(std::size_t worker) const
{
    ROG_ASSERT(worker < versions_.size(), "worker out of range");
    return *std::min_element(versions_[worker].begin(),
                             versions_[worker].end());
}

std::int64_t
VersionStorage::maxVersionOfWorker(std::size_t worker) const
{
    ROG_ASSERT(worker < versions_.size(), "worker out of range");
    return *std::max_element(versions_[worker].begin(),
                             versions_[worker].end());
}

std::int64_t
VersionStorage::minWorkerIteration() const
{
    bool any = false;
    std::int64_t m = 0;
    for (std::size_t w = 0; w < versions_.size(); ++w) {
        if (retired_[w])
            continue;
        const std::int64_t it = maxVersionOfWorker(w);
        if (!any || it < m)
            m = it;
        any = true;
    }
    return any ? m : minVersion();
}

} // namespace core
} // namespace rog
