/**
 * @file
 * Shared pieces of the perfbench executable: options, the metric report
 * every workload fills, process counters, and the in-memory span
 * tracer of the traced run.
 *
 * A workload run has three parts. Set-up is repeated a few times and
 * its median reported. The timed phase repeats a fixed-size training
 * run until the time budget is spent, so every reported rate is a
 * median over many equal units of work. The traced run (--trace 1)
 * alternates untraced and traced repetitions of that same unit, then
 * replays the layers with the shapes and call counts the run produced.
 */
#ifndef PERFBENCH_PERFBENCH_HPP
#define PERFBENCH_PERFBENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_path;   //!< full JSON record.
    std::string trace_path; //!< Chrome trace-event JSON (traced run).
};

/** One reported number. samples > 0 marks a sample statistic. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
};

/**
 * Everything one run reports: metrics, the operation tally behind
 * ok_op_ratio, correctness checks, and the determinism fingerprint.
 */
class Report
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit, std::size_t samples = 0);

    /** Record a correctness check; a failed one also fails an op. */
    bool check(const std::string &what, bool ok);

    void addOps(std::uint64_t attempted, std::uint64_t failed);
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return failed_checks_.empty(); }

    void fingerprint(const std::string &key, const std::string &value);

    /** Per-layer table row: layer metric, and the end-to-end metric
     *  on the workload it is predicted to move. */
    void predict(const std::string &layer_metric,
                 const std::string &moves);

    void writeJson(std::ostream &os, const Options &opt) const;
    void printTable(std::ostream &os, const Options &opt) const;

  private:
    std::map<std::string, Metric> metrics_;
    std::vector<std::string> order_;
    std::vector<std::string> failed_checks_;
    std::size_t checks_ = 0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::pair<std::string, std::string>> fingerprint_;
    std::vector<std::pair<std::string, std::string>> predictions_;
};

/** Nearest-rank percentile, q in [0, 1]. @pre !v.empty() */
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/**
 * A uniform sample of at most kCapacity values from a stream of any
 * length (reservoir sampling with a fixed-seed generator), so that
 * memory stays flat however many latencies a run records.
 */
class Reservoir
{
  public:
    static constexpr std::size_t kCapacity = 100000;

    void add(double v);
    void merge(const std::vector<double> &vs);
    const std::vector<double> &samples() const { return samples_; }
    std::uint64_t seen() const { return seen_; }

  private:
    std::vector<double> samples_;
    std::uint64_t seen_ = 0;
    std::uint64_t rng_ = 0x9E3779B97F4A7C15ull;
};

/** Emit NAME.p50 and NAME.p99 from a real sample distribution; a
 *  p99 needs at least 1000 samples (ten beyond it), else omitted. */
void setPercentiles(Report &r, const std::string &name,
                    const Reservoir &samples, const std::string &unit);

/** getrusage(RUSAGE_SELF) snapshot. */
struct Usage
{
    double user_s = 0.0;
    double sys_s = 0.0;
    double ctx_switches = 0.0; //!< voluntary + involuntary.

    static Usage now();
    Usage operator-(const Usage &o) const;
    Usage operator+(const Usage &o) const;
};

double peakRssMb();

/**
 * Host speed probe. The box this benchmark was defined on shares its
 * cores and caches with other tenants, and its speed drifted by 20-30%
 * within minutes: the same code, measured ten seeds at a time, slowed
 * by that much from one set to the next. hostFactor() times a fixed,
 * benchmark-owned loop (random updates in a warm 2 MiB buffer) and
 * returns its time over the loop's time on that box when quiet: 1 on a
 * quiet host, above 1 on a slow one. Each wall-clock end-to-end sample
 * is scaled by the factor taken right after it, so a host-wide slowdown
 * cancels; the unscaled medians are kept as NAME.raw.
 */
double hostFactor();

/** Record host.factor, the median of the factors a run took. */
void setHostFactor(Report &r, const std::vector<double> &factors);

/** Set the process-level os.* per-iteration metrics. */
void setOsMetrics(Report &r, const Usage &used, double iterations);

/**
 * In-memory span recorder. Spans are kept (up to a cap) for the
 * Chrome trace; busy time and call counts are summed per name for
 * every span, kept or not.
 */
class Tracer
{
  public:
    struct Totals
    {
        double busy_s = 0.0;
        std::uint64_t calls = 0;
    };

    bool enabled() const { return enabled_; }
    void enable(bool on) { enabled_ = on; }

    /** Microseconds since the tracer's origin. */
    double nowUs() const;

    void record(const char *name, const char *cat, double t0_us,
                double t1_us, int tid = 0);

    const Totals &totals(const std::string &name) const;

    /** Write every kept span as Chrome trace-event JSON. */
    bool writeChrome(const std::string &path,
                     const std::string &process_name) const;

  private:
    struct Span
    {
        const char *name;
        const char *cat;
        double t0_us;
        double dur_us;
        int tid;
    };

    static constexpr std::size_t kMaxSpans = 100000;

    bool enabled_ = false;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::uint64_t dropped_ = 0;
    std::map<std::string, Totals> totals_;
};

Tracer &tracer();

/** RAII span around one call into a layer (no-op when disabled). */
class Span
{
  public:
    Span(const char *name, const char *cat, int tid = 0)
        : name_(name), cat_(cat), tid_(tid),
          t0_(tracer().enabled() ? tracer().nowUs() : -1.0)
    {
    }
    ~Span()
    {
        if (t0_ >= 0.0)
            tracer().record(name_, cat_, t0_, tracer().nowUs(), tid_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    const char *cat_;
    int tid_;
    double t0_;
};

/**
 * Time @p fn (one repetition of a workload's unit of work) until
 * @p seconds have passed and at least @p min_reps ran. In a traced
 * run, even repetitions run untraced and odd ones traced.
 */
template <class Fn>
void
repeatFor(double seconds, std::size_t min_reps, bool traced_run, Fn &&fn)
{
    const auto t0 = Clock::now();
    for (std::size_t rep = 0;
         rep < min_reps || secondsSince(t0) < seconds; ++rep) {
        const bool traced = traced_run && (rep % 2 == 1);
        tracer().enable(traced);
        fn(rep, traced);
        tracer().enable(false);
    }
}

/**
 * Set trace.explained_share: the summed busy time of the layers the
 * workload measured, per iteration, over process CPU time per
 * iteration. One minus it is the time no layer metric accounts for.
 */
void setExplained(Report &r, double layer_busy_ms_per_iter,
                  const Usage &used, double iterations);

/** Set trace.overhead_share from per-repetition wall times. */
void setTraceOverhead(Report &r, const std::vector<double> &untraced_s,
                      const std::vector<double> &traced_s);

/**
 * Socket syscall tally. The link step routes the transport's send,
 * sendto, recv and recvfrom calls through wrappers (syscalls.cpp), so
 * these are the bytes that actually crossed the socket API. Busy time
 * is only summed while the tracer is enabled.
 */
struct SocketCounters
{
    std::uint64_t send_calls = 0;
    std::uint64_t send_bytes = 0;
    std::uint64_t recv_calls = 0;
    std::uint64_t recv_bytes = 0;
    double send_busy_s = 0.0;
    double recv_busy_s = 0.0;

    SocketCounters operator-(const SocketCounters &o) const;
};

SocketCounters socketCounters();

int runCrudaRog(const Options &opt, Report &report);
int runFleet1024(const Options &opt, Report &report);
int runSocketUdp(const Options &opt, Report &report);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HPP
