#include "core/mta.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hpp"
#include "common/math_util.hpp"

namespace rog {
namespace core {

double
mtaFraction(std::size_t staleness_threshold)
{
    if (staleness_threshold <= 1)
        return 1.0;
    const double s = static_cast<double>(staleness_threshold);
    // f(P) = (1-P)^(S-1) - P is strictly decreasing on (0, 1) with
    // f(0) = 1 and f(1) = -1, so the root is unique.
    return bisect(
        [s](double p) { return std::pow(1.0 - p, s - 1.0) - p; }, 0.0,
        1.0, 1e-12);
}

std::size_t
mtaUnits(std::size_t staleness_threshold, std::size_t total_units)
{
    ROG_ASSERT(total_units > 0, "mtaUnits with no units");
    const double frac = mtaFraction(staleness_threshold);
    const auto units = static_cast<std::size_t>(
        std::ceil(frac * static_cast<double>(total_units)));
    return std::max<std::size_t>(1, std::min(units, total_units));
}

MtaTimeTracker::MtaTimeTracker(std::size_t workers, double alpha,
                               double floor_seconds, double ceil_seconds)
    : rate_(workers, Ewma(alpha)), mta_bytes_(workers, 0.0),
      floor_seconds_(floor_seconds), ceil_seconds_(ceil_seconds)
{
    ROG_ASSERT(workers > 0, "tracker needs at least one worker");
    ROG_ASSERT(floor_seconds > 0.0 && ceil_seconds > floor_seconds,
               "bad tMTA clamp");
}

double
MtaTimeTracker::estimateFor(std::size_t worker) const
{
    ROG_ASSERT(worker < rate_.size(), "worker out of range");
    if (!rate_[worker].seeded() || mta_bytes_[worker] <= 0.0)
        return std::numeric_limits<double>::infinity();
    const double rate = std::max(rate_[worker].value(), 1e-9);
    return mta_bytes_[worker] / rate;
}

double
MtaTimeTracker::mtaTime() const
{
    double worst = 0.0;
    for (std::size_t w = 0; w < rate_.size(); ++w) {
        const double est = estimateFor(w);
        if (std::isinf(est))
            return std::numeric_limits<double>::infinity();
        worst = std::max(worst, est);
    }
    return clamp(worst, floor_seconds_, ceil_seconds_);
}

void
MtaTimeTracker::report(std::size_t worker, double bytes_transmitted,
                       double elapsed_seconds, double mta_bytes)
{
    ROG_ASSERT(worker < rate_.size(), "worker out of range");
    ROG_ASSERT(elapsed_seconds > 0.0, "elapsed must be positive");
    rate_[worker].observe(bytes_transmitted / elapsed_seconds);
    mta_bytes_[worker] = mta_bytes;
}

MtaTrackerSnapshot
MtaTimeTracker::snapshot() const
{
    MtaTrackerSnapshot s;
    s.rate.reserve(rate_.size());
    s.seeded.reserve(rate_.size());
    for (const Ewma &e : rate_) {
        s.rate.push_back(e.value());
        s.seeded.push_back(e.seeded() ? 1 : 0);
    }
    s.mta_bytes = mta_bytes_;
    return s;
}

void
MtaTimeTracker::restore(const MtaTrackerSnapshot &s)
{
    if (s.rate.size() != rate_.size() ||
        s.seeded.size() != rate_.size() ||
        s.mta_bytes.size() != mta_bytes_.size())
        ROG_FATAL("tracker snapshot shape mismatch");
    for (std::size_t w = 0; w < rate_.size(); ++w)
        rate_[w].restore(s.rate[w], s.seeded[w] != 0);
    mta_bytes_ = s.mta_bytes;
}

} // namespace core
} // namespace rog
