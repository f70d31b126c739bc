// The serve_mixed workload: an in-process design daemon on loopback,
// driven by closed-loop clients with a seeded mix of traceRef requests.

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "automata/dfa_io.hh"
#include "bpred/trainer.hh"
#include "design_tail.hh"
#include "flow/api.hh"
#include "flow/batch.hh"
#include "flow/design_memo.hh"
#include "fsmgen/profile.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/bitsliced.hh"
#include "sim/figure2.hh"
#include "support/thread_pool.hh"
#include "workloads.hh"
#include "workloads/branch_workloads.hh"
#include "workloads/trace_cache.hh"

namespace perfbench
{

using namespace autofsm;

namespace
{

/** Closed-loop clients, each waiting for its reply before sending on. */
constexpr int kClients = 2;
/**
 * Trace length every traceRef resolves to: Figure 5's default branches
 * per run (Fig5Options::branchesPerRun). Pre-warmed in set-up.
 */
constexpr uint64_t kTraceBranches = 400000;
/**
 * The design points are the paper's own design requests: the orders
 * Figure 2 designs at (Fig2Options::histories, 2-10) plus Figure 5's
 * order 9 (CustomTrainingOptions::historyLength), Figure 2's predict-1
 * thresholds (Fig2Options::thresholds) and, for more distinct keys, the
 * don't-care masses of bench/bench_ablation_dontcare.cc. No recorded
 * daemon traffic exists, so the shares below are assumptions, not
 * measurements: every order is equally likely among new keys, and 40%
 * of the requests repeat an earlier one (a fixed share, so the design
 * memo and batch dedup see hits and misses at a rate that does not grow
 * with throughput).
 */
std::vector<int>
designOrders()
{
    std::vector<int> orders = Fig2Options().histories;
    orders.push_back(CustomTrainingOptions().historyLength);
    std::sort(orders.begin(), orders.end());
    orders.erase(std::unique(orders.begin(), orders.end()), orders.end());
    return orders;
}
constexpr double kDontCareMasses[] = {0.0, 0.005, 0.01, 0.02, 0.05};
/**
 * One block of the mix holds kRepeatsPerBlock repeats and kNewPerOrder
 * new keys of every order (12 + 3 x 6 = 30 requests, 40% repeats).
 * Fixing the composition per block and shuffling only within it
 * stratifies the draw, so every run sends the same shares.
 */
constexpr int kRepeatsPerBlock = 12;
constexpr int kNewPerOrder = 3;
/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupRepeats = 7;
/** Requests generated per run; far above what any run completes. */
constexpr size_t kMixLength = 20000;

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * The seeded request mix: traceRef over the six branch benchmarks and
 * both inputs, the orders of designOrders(), evaluation on. The k-th new
 * key of an order cycles through the twelve traces and, rotated by one
 * variant per round, through the (threshold, mass) pairs, all in seeded
 * orders, so each run draws a balanced set of them and no key of an
 * order repeats before all 420 were drawn. Repeats copy a uniformly drawn earlier
 * request.
 */
std::vector<DesignRequest>
requestMix(uint64_t seed)
{
    uint64_t state = seed;
    auto below = [&](uint64_t n) { return splitmix64(state) % n; };
    auto shuffle = [&](auto &items) {
        for (size_t i = items.size(); i > 1; --i)
            std::swap(items[i - 1], items[below(i)]);
    };
    std::vector<std::string> traces;
    for (const std::string &name : branchBenchmarkNames()) {
        traces.push_back(name + ":train");
        traces.push_back(name + ":test");
    }

    /** Per order: seeded orders of its traces, masses and thresholds. */
    struct Cycle
    {
        std::vector<std::string> traces;
        std::vector<double> masses;
        std::vector<double> thresholds;
        size_t drawn = 0;
    };
    const std::vector<int> orders = designOrders();
    std::vector<Cycle> cycles(orders.back() + 1);
    for (const int order : orders) {
        Cycle &cycle = cycles[order];
        cycle.traces = traces;
        cycle.masses.assign(std::begin(kDontCareMasses),
                            std::end(kDontCareMasses));
        cycle.thresholds = Fig2Options().thresholds;
        shuffle(cycle.traces);
        shuffle(cycle.masses);
        shuffle(cycle.thresholds);
    }
    // Variant v of a trace is (thresholds[v / masses], masses[v %
    // masses]); the trace's variant advances by 13 per round, which is
    // coprime with the 35 variants, so no key repeats before every one
    // was drawn.
    auto newKey = [&](int order) {
        Cycle &cycle = cycles[order];
        const size_t k = cycle.drawn++;
        const size_t masses = cycle.masses.size();
        const size_t variant = (k + k / cycle.traces.size()) %
            (masses * cycle.thresholds.size());
        DesignRequest request;
        request.traceRef = cycle.traces[k % cycle.traces.size()];
        request.options.order = order;
        request.options.patterns.dontCareMass =
            cycle.masses[variant % masses];
        request.options.patterns.threshold =
            cycle.thresholds[variant / masses];
        return request;
    };

    std::vector<int> block(kRepeatsPerBlock, 0);
    for (const int order : orders)
        block.insert(block.end(), kNewPerOrder, order);
    std::vector<DesignRequest> mix;
    mix.reserve(kMixLength);
    while (mix.size() < kMixLength) {
        shuffle(block);
        for (int order : block) {
            if (order == 0 && mix.empty())
                order = orders.front();
            DesignRequest request =
                order == 0 ? mix[below(mix.size())] : newKey(order);
            request.id = mix.size();
            request.tenant = "perfbench";
            // Bulk runs under the unlimited budget, the only one the
            // design memo serves, so repeated keys can hit it.
            request.requestClass = RequestClass::Bulk;
            request.traceBranches = kTraceBranches;
            request.evaluate = true;
            mix.push_back(std::move(request));
        }
    }
    return mix;
}

std::string
requestKey(const DesignRequest &request)
{
    return request.traceRef + "|" + std::to_string(request.options.order) +
        "|" + std::to_string(request.options.patterns.threshold) + "|" +
        std::to_string(request.options.patterns.dontCareMass);
}

/** A running daemon with its connected clients. */
struct Rig
{
    std::unique_ptr<serve::Server> server;
    std::vector<std::unique_ptr<serve::Client>> clients;
};

/**
 * Set-up of the workload: start the daemon, pre-warm the trace cache
 * with every trace the mix names (a long-lived daemon has them) and
 * connect the clients. Returns the milliseconds it took.
 */
double
setUp(Rig &rig, unsigned workers)
{
    rig.clients.clear();
    rig.server.reset();
    clearProcessCaches();
    const auto start = Clock::now();
    serve::installWorkloadTraceResolver();
    serve::ServeOptions options;
    options.workers = workers;
    rig.server = std::make_unique<serve::Server>(options);
    rig.server->start();
    for (const std::string &name : branchBenchmarkNames()) {
        cachedBranchTrace(name, WorkloadInput::Train, kTraceBranches);
        cachedBranchTrace(name, WorkloadInput::Test, kTraceBranches);
    }
    for (int i = 0; i < kClients; ++i)
        rig.clients.push_back(std::make_unique<serve::Client>(
            "127.0.0.1", rig.server->port()));
    return millisSince(start);
}

double
setUpRepeatedly(Rig &rig, unsigned workers)
{
    std::vector<double> samples;
    for (int i = 0; i < kSetupRepeats; ++i)
        samples.push_back(setUp(rig, workers) / 1000.0);
    return median(samples);
}

/**
 * One request's round trip as a client saw it. Only a digest of the
 * artifact is kept, so the benchmark's own memory does not grow with
 * the machines it receives.
 */
struct Sample
{
    size_t index = 0;
    double millis = 0.0;
    bool ok = false;
    bool degraded = false;
    bool evaluated = false;
    uint64_t evalMisses = 0;
    std::string artifactDigest;
    /** Transport failure or the response's classified error. */
    std::string error;
};

/**
 * Drive the clients in a closed loop over the mix, in mix order, until
 * @p seconds pass. Samples come back in mix order.
 */
std::vector<Sample>
closedLoop(Rig &rig, const std::vector<DesignRequest> &mix, double seconds)
{
    std::atomic<size_t> next{0};
    const auto deadline = Clock::now() +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(seconds));
    std::vector<std::vector<Sample>> per_client(rig.clients.size());
    std::vector<std::thread> threads;
    for (size_t c = 0; c < rig.clients.size(); ++c) {
        threads.emplace_back([&, c] {
            while (Clock::now() < deadline) {
                const size_t index = next.fetch_add(1);
                if (index >= mix.size())
                    break;
                Sample sample;
                sample.index = index;
                const auto start = Clock::now();
                try {
                    const DesignResponse response =
                        rig.clients[c]->design(mix[index]);
                    sample.millis = millisSince(start);
                    sample.ok = response.ok;
                    sample.degraded = response.degraded;
                    sample.evaluated = response.evaluated;
                    sample.evalMisses = response.evalMisses;
                    sample.artifactDigest = digestHex(response.artifact);
                    if (!response.ok)
                        sample.error = response.error.kind + " " +
                            response.error.detail;
                } catch (const std::exception &e) {
                    sample.millis = millisSince(start);
                    sample.error = e.what();
                }
                per_client[c].push_back(std::move(sample));
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    std::vector<Sample> samples(std::min(next.load(), mix.size()));
    if (samples.empty())
        throw std::runtime_error("no request was sent");
    for (std::vector<Sample> &client : per_client)
        for (Sample &sample : client)
            samples[sample.index] = std::move(sample);
    return samples;
}

/** Count every sample; fail the ones that are not ok. */
void
checkOk(const std::vector<Sample> &samples, Result &result)
{
    for (const Sample &sample : samples) {
        result.attempt();
        if (!sample.ok) {
            result.fail("request " + std::to_string(sample.index) + ": " +
                        sample.error);
        } else if (!sample.evaluated) {
            result.fail("request " + std::to_string(sample.index) +
                        ": not evaluated");
        }
    }
}

/** Distinct keys per run whose reference is recomputed with the memo off. */
constexpr size_t kFreshReferences = 24;

/** Mispredictions of @p fsm predicting every outcome, stepped one by one. */
uint64_t
scalarMisses(const Dfa &fsm, const std::vector<int> &outcomes)
{
    uint64_t misses = 0;
    int state = fsm.start();
    for (const int outcome : outcomes) {
        if (fsm.output(state) != outcome)
            ++misses;
        state = fsm.next(state, outcome);
    }
    return misses;
}

/**
 * Every non-degraded response must carry the artifact and evaluation of
 * the in-process reference. The artifact must equal dfaToText of
 * runDesignRequest for the same request. That reference runs with the
 * design memo the daemon filled, so it checks the serving path (frames,
 * JSON, dedup, dispatch) against the library's entry point; for a
 * seeded sample of kFreshReferences keys it is also recomputed with the
 * memo off, which checks the memoized designs themselves. The
 * evaluation misses must equal a scalar Dfa::next/output replay of the
 * request's outcome stream, which checks the daemon's dense bit-sliced
 * evaluation. Distinct keys are checked in parallel on every core (the
 * check is not timed).
 */
void
checkArtifacts(const std::vector<Sample> &samples,
               const std::vector<DesignRequest> &mix, uint64_t seed,
               Result &result)
{
    std::unordered_map<std::string, size_t> slot_of;
    std::vector<size_t> firsts;
    for (const Sample &sample : samples) {
        const auto [it, inserted] =
            slot_of.emplace(requestKey(mix[sample.index]), firsts.size());
        if (inserted)
            firsts.push_back(sample.index);
    }
    const size_t stride = std::max<size_t>(1, firsts.size() / kFreshReferences);
    std::vector<std::string> reference(firsts.size());
    std::vector<uint64_t> misses(firsts.size());
    parallelFor(
        firsts.size(),
        [&](size_t i) {
            DesignRequest request = mix[firsts[i]];
            try {
                const Dfa fsm = runDesignRequest(request).design.fsm;
                const std::string artifact = dfaToText(fsm);
                reference[i] = digestHex(artifact);
                misses[i] = scalarMisses(fsm, resolveRequestOutcomes(request));
                if (i % stride == seed % stride) {
                    request.options.memoizeStages = false;
                    if (dfaToText(runDesignRequest(request).design.fsm) !=
                        artifact)
                        reference[i] = "error: memoized design differs";
                }
            } catch (const std::exception &e) {
                reference[i] = std::string("error: ") + e.what();
            }
        },
        0);
    for (const Sample &sample : samples) {
        if (!sample.ok || sample.degraded)
            continue;
        const size_t slot = slot_of.at(requestKey(mix[sample.index]));
        const std::string what = "request " + std::to_string(sample.index) +
            " (" + requestKey(mix[sample.index]) + "): ";
        if (sample.artifactDigest != reference[slot])
            result.fail(what + "artifact differs from runDesignRequest (" +
                        reference[slot].substr(0, 40) + ")");
        else if (sample.evalMisses != misses[slot])
            result.fail(what + "evaluation misses " +
                        std::to_string(sample.evalMisses) +
                        " != scalar replay " + std::to_string(misses[slot]));
    }
}

/** Sum of every series of @p metric in a Prometheus text scrape. */
double
scrapeSum(const std::string &scrape, const std::string &metric)
{
    std::istringstream in(scrape);
    std::string line;
    double sum = 0.0;
    while (std::getline(in, line)) {
        if (line.rfind(metric, 0) != 0)
            continue;
        const char next = line.size() > metric.size() ? line[metric.size()]
                                                      : '\0';
        if (next != '{' && next != ' ')
            continue;
        sum += std::stod(line.substr(line.rfind(' ') + 1));
    }
    return sum;
}

} // anonymous namespace

void
measureServe(const Args &args, Result &result)
{
    const std::vector<DesignRequest> mix = requestMix(args.seed);
    Rig rig;
    const double setup_s = setUpRepeatedly(rig, args.threads);

    clearDesignMemo();
    const double cpu0 = cpuSeconds();
    const auto start = Clock::now();
    const std::vector<Sample> samples =
        closedLoop(rig, mix, args.seconds);
    const double elapsed_s = millisSince(start) / 1000.0;
    const double cpu_s = cpuSeconds() - cpu0;
    const double peak_rss_mb = peakRssMb(); // before the checks allocate
    rig.clients.clear();
    rig.server->shutdown();

    std::vector<double> latency;
    for (const Sample &sample : samples)
        latency.push_back(sample.millis);
    const size_t n = samples.size();
    result.add("setup_s", setup_s, "s", kSetupRepeats);
    // A client's wall time per request: the mean round trip, which sums
    // into how long a batch of requests takes (latency_p50_ms is the
    // median).
    double total_ms = 0.0;
    for (const double ms : latency)
        total_ms += ms;
    result.add("job_s", total_ms / static_cast<double>(n) / 1000.0, "s", n);
    result.add("cpu_s", cpu_s / static_cast<double>(n), "s", n);
    result.add("peak_rss_mb", peak_rss_mb, "MB", 1);
    result.add("latency_p50_ms", quantile(latency, 0.5), "ms", n);
    result.add("latency_p90_ms", quantile(latency, 0.9), "ms", n);
    result.add("throughput_rps", static_cast<double>(n) / elapsed_s, "1/s",
               n);

    checkOk(samples, result);
    checkArtifacts(samples, mix, args.seed, result);
}

LayerReport
traceServe(const Args &args, Result &result)
{
    const std::vector<DesignRequest> mix = requestMix(args.seed);
    Rig rig;
    setUp(rig, args.threads);

    // The daemon, as measured untraced, for a quarter of the run; the
    // in-process passes below replay its requests and take about as
    // long each.
    clearDesignMemo();
    const std::string before = rig.clients.front()->fetchMetrics();
    const std::vector<Sample> served =
        closedLoop(rig, mix, args.seconds / 4.0);
    const std::string after = rig.clients.front()->fetchMetrics();
    rig.clients.clear();
    rig.server->shutdown();
    checkOk(served, result);
    const size_t n = served.size();

    auto delta = [&](const std::string &metric) {
        return scrapeSum(after, metric) - scrapeSum(before, metric);
    };
    const double queued = delta("autofsm_serve_request_queue_seconds_count");
    const double items = delta("autofsm_batch_items_total");

    ThreadPool pool(args.threads);

    // The same requests in-process through the batch engine, as the
    // daemon's dispatcher runs them: the in-process time of each request.
    clearDesignMemo();
    std::vector<double> in_process_ms(n);
    for (size_t i = 0; i < n; ++i) {
        BatchOptions options;
        options.pool = &pool;
        BatchDesigner designer(mix[i].options, options);
        const auto start = Clock::now();
        const std::vector<BatchItemResult> item =
            designer.designRequests({mix[i]});
        in_process_ms[i] = millisSince(start);
        result.attempt();
        if (!item.front().ok ||
            digestHex(dfaToText(item.front().flow.design.fsm)) !=
                served[i].artifactDigest)
            result.fail("in-process request " + std::to_string(i) +
                        " differs from the daemon's response");
    }

    // The same requests decomposed into the layers' public functions,
    // with spans recorded into @p log (or not, when it is disabled).
    // Returns the pass's wall milliseconds.
    auto decomposed_pass = [&](SpanLog &log) {
        clearDesignMemo();
        double total = 0.0;
        for (size_t i = 0; i < n; ++i) {
            const DesignRequest &request = mix[i];
            const auto start = Clock::now();
            std::vector<int> outcomes;
            {
                SpanLog::Scope span(log, "workloads.trace_gen");
                outcomes = resolveRequestOutcomes(request);
            }
            log.count("workloads.records",
                      static_cast<double>(outcomes.size()));
            std::optional<MarkovModel> model;
            {
                SpanLog::Scope span(log, "fsmgen.markov");
                model = trainMarkovModel(outcomes, request.options.order);
            }
            FlowResult flow;
            {
                SpanLog::Scope span(log, "flow.design");
                flow = designByStages(*model, request.options, log);
            }
            log.count("flow.designs", 1);
            // The batch engine resolves the stream again for evaluation.
            {
                SpanLog::Scope span(log, "workloads.trace_gen");
                outcomes = resolveRequestOutcomes(request);
            }
            log.count("workloads.records",
                      static_cast<double>(outcomes.size()));
            uint64_t misses = 0;
            {
                SpanLog::Scope span(log, "sim.replay");
                const std::vector<uint64_t> words =
                    packOutcomeWords(outcomes);
                BitslicedOptions replay;
                replay.pool = &pool;
                misses = replayMachinesBitsliced(
                             {BitslicedMachine{&flow.design.fsm, nullptr}},
                             words.data(), outcomes.size(), replay)
                             .front();
            }
            log.count("sim.replay_machines", 1);
            const std::string artifact = dfaToText(flow.design.fsm);
            total += millisSince(start);

            result.attempt();
            if (digestHex(artifact) != served[i].artifactDigest ||
                misses != served[i].evalMisses)
                result.fail("decomposed request " + std::to_string(i) +
                            " differs from the daemon's response");
        }
        return total;
    };

    // Spans off, on, on, off: the order cancels a linear drift between
    // passes, and both traced passes add into one log.
    SpanLog traced;
    SpanLog untraced(false);
    double untraced_total = decomposed_pass(untraced);
    double traced_total = decomposed_pass(traced);
    traced_total += decomposed_pass(traced);
    const DesignMemoStats memo = designMemoStats();
    untraced_total += decomposed_pass(untraced);

    LayerReport report;
    report.samples = n;
    const double per = 1.0 / static_cast<double>(2 * n);
    for (const auto &[name, ms] : traced.millis())
        report.values[name + "_ms"] = ms * per;
    for (const auto &[name, count] : traced.counts())
        report.values[name] = count * per;
    const double lookups = static_cast<double>(memo.hits + memo.misses);
    report.values["flow.memo_hit_ratio"] =
        lookups > 0 ? static_cast<double>(memo.hits) / lookups : 0.0;
    report.values["flow.dedup_hit_ratio"] =
        items > 0 ? delta("autofsm_batch_cache_hits_total") / items : 0.0;
    report.values["serve.queue_wait_ms"] = queued > 0
        ? 1000.0 * delta("autofsm_serve_request_queue_seconds_sum") / queued
        : 0.0;
    std::vector<double> overhead(n);
    for (size_t i = 0; i < n; ++i)
        overhead[i] = served[i].millis - in_process_ms[i];
    report.values["serve.overhead_ms"] = median(overhead);
    report.values["unattributed_ratio"] =
        (traced_total - traced.attributedMillis()) / traced_total;
    // What recording the spans cost over the untraced wall time; the
    // paired wall-time ratio goes to the table only (see traceFigure).
    report.values["obs.trace_overhead_ratio"] =
        tracingCostMillis(traced) / untraced_total;
    report.values["obs.paired_overhead_ratio"] =
        traced_total / untraced_total - 1.0;
    return report;
}

} // namespace perfbench
