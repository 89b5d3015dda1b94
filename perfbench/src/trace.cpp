/**
 * @file
 * Report, statistics, process counters and the span tracer.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "perfbench.hpp"

namespace perfbench {

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
Report::set(const std::string &name, double value, const std::string &unit,
            std::size_t samples)
{
    if (metrics_.count(name) == 0)
        order_.push_back(name);
    metrics_[name] = Metric{value, unit, samples};
}

bool
Report::check(const std::string &what, bool ok)
{
    ++checks_;
    if (!ok) {
        failed_checks_.push_back(what);
        // A failed check is an operation that did not complete right.
        ++attempted_;
        ++failed_;
    }
    return ok;
}

void
Report::addOps(std::uint64_t attempted, std::uint64_t failed)
{
    attempted_ += attempted;
    failed_ += failed;
}

void
Report::fingerprint(const std::string &key, const std::string &value)
{
    fingerprint_.emplace_back(key, value);
}

void
Report::predict(const std::string &layer_metric, const std::string &moves)
{
    predictions_.emplace_back(layer_metric, moves);
}

void
Report::writeJson(std::ostream &os, const Options &opt) const
{
    os << "{\"workload\": " << jsonString(opt.workload)
       << ", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
       << ", \"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"checks\": " << checks_ << ", \"failed_checks\": [";
    for (std::size_t i = 0; i < failed_checks_.size(); ++i)
        os << (i ? ", " : "") << jsonString(failed_checks_[i]);
    os << "], \"fingerprint\": {";
    for (std::size_t i = 0; i < fingerprint_.size(); ++i)
        os << (i ? ", " : "") << jsonString(fingerprint_[i].first) << ": "
           << jsonString(fingerprint_[i].second);
    os << "}, \"metrics\": {";
    for (std::size_t i = 0; i < order_.size(); ++i) {
        const Metric &m = metrics_.at(order_[i]);
        os << (i ? ", " : "") << jsonString(order_[i])
           << ": {\"value\": " << jsonNumber(m.value)
           << ", \"unit\": " << jsonString(m.unit);
        if (m.samples > 0)
            os << ", \"samples\": " << m.samples;
        os << "}";
    }
    os << "}}\n";
}

void
Report::printTable(std::ostream &os, const Options &opt) const
{
    os << "perfbench " << opt.workload << " seed=" << opt.seed
       << (opt.trace ? " (traced run)" : "") << "\n";
    for (const auto &[k, v] : fingerprint_)
        os << "  fingerprint " << k << " = " << v << "\n";
    std::map<std::string, std::string> moves(predictions_.begin(),
                                             predictions_.end());
    for (const auto &name : order_) {
        const Metric &m = metrics_.at(name);
        std::ostringstream line;
        line << "  " << std::left << std::setw(42) << name << " "
             << std::right << std::setw(16) << std::setprecision(6)
             << m.value << " " << std::left << std::setw(6) << m.unit;
        if (m.samples > 0)
            line << " n=" << m.samples;
        const auto it = moves.find(name);
        if (it != moves.end())
            line << "  -> " << it->second;
        os << line.str() << "\n";
    }
    os << "  checks: " << checks_ - failed_checks_.size() << "/" << checks_
       << " passed\n";
    for (const auto &c : failed_checks_)
        os << "  FAILED CHECK: " << c << "\n";
}

double
percentile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
Reservoir::add(double v)
{
    ++seen_;
    if (samples_.size() < kCapacity) {
        samples_.push_back(v);
        return;
    }
    rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t slot = (rng_ >> 11) % seen_;
    if (slot < kCapacity)
        samples_[slot] = v;
}

void
Reservoir::merge(const std::vector<double> &vs)
{
    for (double v : vs)
        add(v);
}

void
setPercentiles(Report &r, const std::string &name, const Reservoir &samples,
               const std::string &unit)
{
    const std::vector<double> &v = samples.samples();
    if (v.empty())
        return;
    r.set(name + ".p50", median(v), unit, samples.seen());
    if (v.size() >= 1000)
        r.set(name + ".p99", percentile(v, 0.99), unit, samples.seen());
}

Usage
Usage::now()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
    u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
    return u;
}

Usage
Usage::operator-(const Usage &o) const
{
    return Usage{user_s - o.user_s, sys_s - o.sys_s,
                 ctx_switches - o.ctx_switches};
}

Usage
Usage::operator+(const Usage &o) const
{
    return Usage{user_s + o.user_s, sys_s + o.sys_s,
                 ctx_switches + o.ctx_switches};
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

double
hostFactor()
{
    // Quiet-host time of one timed pass, measured on the 4-core KVM box
    // where the benchmark was defined.
    constexpr double kNominalS = 1.0e-3;
    static std::vector<std::uint32_t> buf(1u << 19); // 2 MiB
    std::uint64_t h = 0x243F6A8885A308D3ull;
    double seconds = 0.0;
    for (int pass = 0; pass < 2; ++pass) { // the first pass warms buf.
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < 400000; ++i) {
            h = h * 6364136223846793005ull + 1442695040888963407ull;
            buf[(h >> 40) & (buf.size() - 1)] += static_cast<std::uint32_t>(h);
        }
        seconds = secondsSince(t0);
    }
    if (buf[h & (buf.size() - 1)] == 0x5EED) // keep the loop observable.
        seconds += 1e-12;
    return seconds / kNominalS;
}

void
setHostFactor(Report &r, const std::vector<double> &factors)
{
    r.set("host.factor", median(factors), "ratio", factors.size());
}

void
setOsMetrics(Report &r, const Usage &used, double iterations)
{
    r.set("os.user_cpu_ms_per_iter", 1e3 * used.user_s / iterations, "ms");
    r.set("os.sys_cpu_ms_per_iter", 1e3 * used.sys_s / iterations, "ms");
    r.set("os.ctx_switches_per_iter", used.ctx_switches / iterations,
          "count");
}

void
setExplained(Report &r, double layer_busy_ms_per_iter, const Usage &used,
             double iterations)
{
    const double cpu_ms = 1e3 * (used.user_s + used.sys_s) / iterations;
    r.set("trace.explained_share", layer_busy_ms_per_iter / cpu_ms, "share");
}

void
setTraceOverhead(Report &r, const std::vector<double> &untraced_s,
                 const std::vector<double> &traced_s)
{
    r.set("trace.overhead_share", median(traced_s) / median(untraced_s) - 1.0,
          "share", traced_s.size());
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
}

void
Tracer::record(const char *name, const char *cat, double t0_us,
               double t1_us, int tid)
{
    Totals &t = totals_[name];
    t.busy_s += 1e-6 * (t1_us - t0_us);
    ++t.calls;
    if (spans_.size() < kMaxSpans)
        spans_.push_back(Span{name, cat, t0_us, t1_us - t0_us, tid});
    else
        ++dropped_;
}

const Tracer::Totals &
Tracer::totals(const std::string &name) const
{
    static const Totals kNone;
    const auto it = totals_.find(name);
    return it == totals_.end() ? kNone : it->second;
}

bool
Tracer::writeChrome(const std::string &path,
                    const std::string &process_name) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped_spans\": "
       << dropped_ << "}, \"traceEvents\": [\n";
    os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": 0, \"args\": {\"name\": "
       << jsonString(process_name) << "}}";
    char buf[96];
    for (const Span &s : spans_) {
        std::snprintf(buf, sizeof(buf), "%.3f, \"dur\": %.3f", s.t0_us,
                      s.dur_us);
        os << ",\n{\"name\": " << jsonString(s.name)
           << ", \"cat\": " << jsonString(s.cat)
           << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
           << ", \"ts\": " << buf << "}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

} // namespace perfbench
