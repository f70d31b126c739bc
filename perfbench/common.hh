/**
 * @file
 * Shared pieces of the repository benchmark: arguments, clocks and
 * process counters, order statistics, golden digests, the span log that
 * attributes traced time to layers, and the result printer.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since @p start. */
double millisSince(Clock::time_point start);

/** Command line of one benchmark run (see run.py). */
struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    /** Pinned worker threads of the workload (workloads.json). */
    unsigned threads = 0;
    /** Golden digest file of the figure reports. */
    std::string golden;
    /** Identity of the measured sources, for the environment block. */
    std::string sourceId = "unknown";
    /** Print the figure digests instead of benchmarking. */
    bool printDigests = false;
};

/** User + system CPU seconds of this process so far (all threads). */
double cpuSeconds();

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * The @p q quantile (0 < q < 1) of @p values, by linear interpolation
 * between closest ranks (0 when empty).
 */
double quantile(std::vector<double> values, double q);

/** 64-bit FNV-1a digest of @p bytes, as 16 hex digits. */
std::string digestHex(std::string_view bytes);

/**
 * Load "key digest" lines (e.g. "figure5/compress 0123...") from
 * @p path. Throws std::runtime_error when the file cannot be read.
 */
std::map<std::string, std::string> loadGolden(const std::string &path);

/**
 * Spans recorded by the benchmark around its calls into the library's
 * layers, plus counts taken at the same boundaries. Single-threaded:
 * spans open and close on the calling thread in stack order, so
 * top-level spans never overlap and a span's children lie inside it.
 * A disabled log records nothing and reads no clock, so the same driver
 * run with tracing off measures what the spans cost.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled = true) : enabled_(enabled) {}

    /** One open span; closes (and is recorded) on destruction. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Milliseconds since the span opened (0 when disabled). */
        double elapsedMillis() const
        {
            return log_.enabled_ ? millisSince(start_) : 0.0;
        }

      private:
        SpanLog &log_;
        const char *name_;
        Clock::time_point start_;
    };

    /** Add @p amount to the count named @p name. */
    void count(const std::string &name, double amount);

    /** Inclusive milliseconds per span name. */
    const std::map<std::string, double> &millis() const { return millis_; }

    /** Counts per name. */
    const std::map<std::string, double> &counts() const { return counts_; }

    /** Milliseconds covered by top-level spans (the attributed time). */
    double attributedMillis() const { return attributed_; }

    /** Spans recorded so far. */
    uint64_t spans() const { return spans_; }

    /** count() calls recorded so far. */
    uint64_t countCalls() const { return countCalls_; }

  private:
    bool enabled_;
    uint64_t spans_ = 0;
    uint64_t countCalls_ = 0;
    std::map<std::string, double> millis_;
    std::map<std::string, double> counts_;
    double attributed_ = 0.0;
    int depth_ = 0;
};

/**
 * Milliseconds that recording @p log's spans and counts cost: its span
 * and count() calls times their unit costs (two clock reads and a map
 * update per span, a map update per count), measured once per process
 * by a calibration loop, the median of several rounds.
 */
double tracingCostMillis(const SpanLog &log);

/** The run's outcome: metrics plus operation tallies. */
class Result
{
  public:
    /** Record one metric with the number of samples behind it. */
    void add(const std::string &name, double value, const std::string &unit,
             size_t samples);

    /** Count one attempted operation. */
    void attempt() { ++attempted_; }

    /** Count one failed or incorrect operation, with why. */
    void fail(const std::string &why);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

    /**
     * Print the human-readable table and environment block, then, as
     * the last line, the JSON object {correct, attempted, failed,
     * metrics}. @p json_metrics names the metrics that go into that
     * object (the table shows every metric).
     */
    void print(const Args &args,
               const std::vector<std::string> &json_metrics) const;

  private:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
        size_t samples = 0;
    };
    std::vector<Metric> metrics_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** Drop the process-wide trace cache, packed-trace cache and design memo. */
void clearProcessCaches();

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
