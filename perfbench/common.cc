#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "flow/design_memo.hh"
#include "sim/packed_trace.hh"
#include "workloads/trace_cache.hh"

namespace perfbench
{

double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
            static_cast<double>(t.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

std::string
digestHex(std::string_view bytes)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(hash));
    return text;
}

std::map<std::string, std::string>
loadGolden(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read golden digests " + path);
    std::map<std::string, std::string> golden;
    std::string key;
    std::string digest;
    while (in >> key >> digest)
        golden[key] = digest;
    return golden;
}

SpanLog::Scope::Scope(SpanLog &log, const char *name)
    : log_(log), name_(name)
{
    if (!log_.enabled_)
        return;
    start_ = Clock::now();
    ++log_.depth_;
}

SpanLog::Scope::~Scope()
{
    if (!log_.enabled_)
        return;
    const double millis = millisSince(start_);
    log_.millis_[name_] += millis;
    ++log_.spans_;
    if (--log_.depth_ == 0)
        log_.attributed_ += millis;
}

void
SpanLog::count(const std::string &name, double amount)
{
    if (!enabled_)
        return;
    counts_[name] += amount;
    ++countCalls_;
}

namespace
{

/** Median milliseconds per call of @p record over rounds of calls. */
template <typename Record>
double
calibrate(Record record)
{
    constexpr int kRounds = 5;
    constexpr int kCalls = 200000;
    std::vector<double> per_call;
    for (int round = 0; round < kRounds; ++round) {
        SpanLog log;
        const auto start = Clock::now();
        for (int i = 0; i < kCalls; ++i)
            record(log, i);
        per_call.push_back(millisSince(start) / kCalls);
    }
    return median(per_call);
}

const char *const kCalibrationNames[] = {
    "workloads.trace_gen", "sim.replay", "flow.design", "automata.subset"};

} // anonymous namespace

double
tracingCostMillis(const SpanLog &log)
{
    static const double span_ms = calibrate([](SpanLog &l, int i) {
        SpanLog::Scope span(l, kCalibrationNames[i % 4]);
    });
    static const double count_ms = calibrate([](SpanLog &l, int i) {
        l.count(kCalibrationNames[i % 4], 1.0);
    });
    return static_cast<double>(log.spans()) * span_ms +
        static_cast<double>(log.countCalls()) * count_ms;
}

void
Result::add(const std::string &name, double value, const std::string &unit,
            size_t samples)
{
    metrics_.push_back({name, value, unit, samples});
}

void
Result::fail(const std::string &why)
{
    ++failed_;
    if (failed_ <= 10)
        std::cout << "FAILED: " << why << "\n";
}

namespace
{

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char text[40];
    std::snprintf(text, sizeof text, "%.17g", value);
    return text;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

} // anonymous namespace

void
Result::print(const Args &args,
              const std::vector<std::string> &json_metrics) const
{
    std::cout << "env {\"cpu\": " << jsonString(cpuModel())
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"threads\": " << args.threads
              << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
              << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
              << ", \"source\": " << jsonString(args.sourceId)
              << ", \"workload\": " << jsonString(args.workload)
              << ", \"seed\": " << args.seed
              << ", \"trace\": " << (args.trace ? 1 : 0) << "}\n";

    char line[160];
    std::snprintf(line, sizeof line, "%-28s %16s %-6s %8s\n", "metric",
                  "value", "unit", "samples");
    std::cout << line;
    for (const Metric &m : metrics_) {
        std::snprintf(line, sizeof line, "%-28s %16.6f %-6s %8zu\n",
                      m.name.c_str(), m.value, m.unit.c_str(), m.samples);
        std::cout << line;
    }

    std::cout << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted_
              << ", \"failed\": " << failed_ << ", \"metrics\": {";
    bool first = true;
    for (const std::string &name : json_metrics) {
        const auto it =
            std::find_if(metrics_.begin(), metrics_.end(),
                         [&](const Metric &m) { return m.name == name; });
        if (it == metrics_.end())
            throw std::logic_error("metric " + name + " was not measured");
        std::cout << (first ? "" : ", ") << jsonString(name)
                  << ": {\"value\": " << jsonNumber(it->value)
                  << ", \"unit\": " << jsonString(it->unit) << "}";
        first = false;
    }
    std::cout << "}}" << std::endl;
}

void
clearProcessCaches()
{
    autofsm::clearBranchTraceCache();
    autofsm::clearPackedTraceCache();
    autofsm::clearDesignMemo();
}

} // namespace perfbench
