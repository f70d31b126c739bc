// The fig5_branch and fig2_confidence workloads: whole figure runs from
// trace to Pareto table, each job starting from cold process-wide caches.

#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>

#include "bpred/btb.hh"
#include "bpred/custom.hh"
#include "bpred/gshare.hh"
#include "bpred/local_global.hh"
#include "bpred/simulate.hh"
#include "bpred/trainer.hh"
#include "design_tail.hh"
#include "flow/batch.hh"
#include "flow/design_memo.hh"
#include "sim/figure2.hh"
#include "sim/figure5.hh"
#include "sim/nested_sweep.hh"
#include "sim/packed_trace.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "synth/area.hh"
#include "vpred/conf_sim.hh"
#include "workloads.hh"
#include "workloads/branch_workloads.hh"
#include "workloads/trace_cache.hh"
#include "workloads/value_workloads.hh"

namespace perfbench
{

using namespace autofsm;

namespace
{

/** One figure: its panels, the real entry point, its decomposition. */
template <typename Panel>
struct Figure
{
    std::string kind;
    std::vector<std::string> names;
    /** Panels of one set-up warm-up (about half a second of work). */
    size_t setupPanels = 1;
    std::function<Panel(const std::string &)> run;
    std::function<Panel(const std::string &, SpanLog &)> runTraced;
    std::function<std::string(const Panel &)> digest;
};

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupRepeats = 3;

/** Count each panel of one job and check its report against golden. */
template <typename Panel>
void
checkPanels(const Figure<Panel> &figure,
            const std::map<std::string, std::string> &golden,
            const std::vector<Panel> &panels, Result &result)
{
    for (size_t i = 0; i < panels.size(); ++i) {
        result.attempt();
        const std::string key = figure.kind + "/" + figure.names[i];
        const auto it = golden.find(key);
        const std::string got = figure.digest(panels[i]);
        if (it == golden.end())
            result.fail(key + ": no golden digest");
        else if (it->second != got)
            result.fail(key + ": report digest " + got + " != golden " +
                        it->second);
    }
}

/**
 * Set-up of a figure process: a cold-cache warm-up over the first
 * setupPanels benchmarks, which pays the lazy one-time costs (telemetry
 * registration, allocator growth, first touch) before timing.
 */
template <typename Panel>
double
setupFigure(const Figure<Panel> &figure)
{
    std::vector<double> samples;
    for (int i = 0; i < kSetupRepeats; ++i) {
        clearProcessCaches();
        const auto start = Clock::now();
        for (size_t p = 0; p < figure.setupPanels; ++p)
            figure.run(figure.names[p]);
        samples.push_back(millisSince(start) / 1000.0);
    }
    return median(samples);
}

template <typename Panel>
std::vector<Panel>
measureFigure(const Figure<Panel> &figure, const Args &args, Result &result)
{
    const auto golden = loadGolden(args.golden);
    const double setup_s = setupFigure(figure);

    std::vector<double> job_s;
    std::vector<double> cpu_s;
    std::vector<double> panel_ms;
    std::vector<Panel> first_job;
    // Jobs run back to back while the next one is expected to end within
    // --seconds (at least one job).
    const auto begin = Clock::now();
    double measured_ms = 0.0;
    while (job_s.empty() ||
           millisSince(begin) + job_s.back() * 1000.0 <=
               args.seconds * 1000.0) {
        clearProcessCaches();
        std::vector<Panel> panels;
        const double cpu0 = cpuSeconds();
        const auto start = Clock::now();
        for (const std::string &name : figure.names) {
            const auto panel_start = Clock::now();
            panels.push_back(figure.run(name));
            panel_ms.push_back(millisSince(panel_start));
        }
        const double wall_ms = millisSince(start);
        cpu_s.push_back(cpuSeconds() - cpu0);
        job_s.push_back(wall_ms / 1000.0);
        measured_ms += wall_ms;

        checkPanels(figure, golden, panels, result);
        if (first_job.empty())
            first_job = std::move(panels);
    }
    const double peak_rss_mb = peakRssMb(); // before any check allocates

    const size_t jobs = job_s.size();
    result.add("setup_s", setup_s, "s", kSetupRepeats);
    result.add("job_s", median(job_s), "s", jobs);
    result.add("cpu_s", median(cpu_s), "s", jobs);
    result.add("peak_rss_mb", peak_rss_mb, "MB", 1);
    result.add("latency_p50_ms", quantile(panel_ms, 0.5), "ms",
               panel_ms.size());
    result.add("latency_p90_ms", quantile(panel_ms, 0.9), "ms",
               panel_ms.size());
    result.add("throughput_rps",
               static_cast<double>(panel_ms.size()) / (measured_ms / 1000.0),
               "1/s", panel_ms.size());
    return first_job;
}

/**
 * The traced run. One job through the real entry point, then pairs of
 * jobs through the decomposed run, one with spans recorded and one with
 * a disabled span log (alternating which goes first). Every job's
 * reports must match golden, so the decomposition is bit-identical to
 * the entry point. Per-layer values are medians over traced jobs of
 * per-job span totals and counts. obs.trace_overhead_ratio is what
 * recording a job's spans costs (tracingCostMillis) over the untraced
 * job's wall time; the paired wall-time ratio (traced over untraced,
 * minus 1) and its spread are reported beside it, in the table only,
 * because the spans cost far less than jobs spread from run to run.
 */
template <typename Panel>
LayerReport
traceFigure(const Figure<Panel> &figure, const Args &args, Result &result)
{
    const auto golden = loadGolden(args.golden);
    setupFigure(figure);
    {
        clearProcessCaches();
        std::vector<Panel> panels;
        for (const std::string &name : figure.names)
            panels.push_back(figure.run(name));
        checkPanels(figure, golden, panels, result);
    }

    std::vector<double> untraced_ms;
    std::vector<double> overhead;
    std::vector<double> tracing_ms;
    std::map<std::string, std::vector<double>> per_job;
    double wall_total = 0.0;
    double attributed_total = 0.0;

    auto decomposed_job = [&](bool traced) {
        clearProcessCaches();
        SpanLog log(traced);
        std::vector<Panel> panels;
        const auto start = Clock::now();
        for (const std::string &name : figure.names)
            panels.push_back(figure.runTraced(name, log));
        const double wall = millisSince(start);
        checkPanels(figure, golden, panels, result);
        if (!traced)
            return wall;

        const DesignMemoStats memo = designMemoStats();
        wall_total += wall;
        attributed_total += log.attributedMillis();
        tracing_ms.push_back(tracingCostMillis(log));
        for (const auto &[name, ms] : log.millis())
            per_job[name + "_ms"].push_back(ms);
        for (const auto &[name, n] : log.counts())
            per_job[name].push_back(n);
        const double lookups = static_cast<double>(memo.hits + memo.misses);
        per_job["flow.memo_hit_ratio"].push_back(
            lookups > 0 ? static_cast<double>(memo.hits) / lookups : 0.0);
        const auto &counts = log.counts();
        const auto count = [&](const std::string &name) {
            const auto it = counts.find(name);
            return it == counts.end() ? 0.0 : it->second;
        };
        const double designs = count("flow.designs");
        per_job["flow.dedup_hit_ratio"].push_back(
            designs > 0 ? count("flow.dedup_hits") / designs : 0.0);
        return wall;
    };

    const auto begin = Clock::now();
    double pair_ms = 0.0;
    for (int pair = 0;
         pair == 0 || millisSince(begin) + pair_ms <= args.seconds * 1000.0;
         ++pair) {
        const auto pair_start = Clock::now();
        double on = 0.0;
        double off = 0.0;
        if (pair % 2 == 0) {
            off = decomposed_job(false);
            on = decomposed_job(true);
        } else {
            on = decomposed_job(true);
            off = decomposed_job(false);
        }
        untraced_ms.push_back(off);
        overhead.push_back(on / off - 1.0);
        pair_ms = millisSince(pair_start);
    }

    LayerReport report;
    report.samples = overhead.size();
    for (const auto &[name, values] : per_job)
        if (name != "flow.dedup_hits")
            report.values[name] = median(values);
    report.values["unattributed_ratio"] =
        (wall_total - attributed_total) / wall_total;
    report.values["obs.trace_overhead_ratio"] =
        median(tracing_ms) / median(untraced_ms);
    report.values["obs.paired_overhead_ratio"] = median(overhead);
    report.values["obs.paired_overhead_iqr"] =
        quantile(overhead, 0.75) - quantile(overhead, 0.25);
    return report;
}

// --- Figure 5 --------------------------------------------------------

Fig5Options
fig5Options(unsigned threads)
{
    Fig5Options options;
    options.training.threads = threads;
    options.sweepThreads = threads;
    return options;
}

/** The report JSON minus its wall-clock fields (stage millis). */
std::string
fig5Digest(const Fig5Benchmark &panel)
{
    Fig5Benchmark copy = panel;
    for (TrainedBranch &branch : copy.trained) {
        FlowTrace zeroed;
        for (const StageRecord &stage : branch.trace.stages())
            zeroed.add(stage.stage, 0.0, stage.metric, stage.metricName);
        for (const std::string &fallback : branch.trace.fallbacks())
            zeroed.noteFallback(fallback);
        branch.trace = std::move(zeroed);
    }
    return digestHex(Fig5Report(std::move(copy)).toJson());
}

/** figure5.cc's custom curve assembly, over replay counts. */
AreaMissSeries
customSeries(const std::vector<TrainedBranch> &trained,
             const CustomReplayCounts &counts, size_t trace_size,
             const std::string &label, const AreaCosts &costs)
{
    const double total = static_cast<double>(trace_size ? trace_size : 1);
    const CustomEntryConfig entry_config;
    AreaMissSeries series;
    series.label = label;
    double area = counts.btbArea;
    uint64_t misses = counts.btbMissesTotal;
    for (size_t k = 0; k < trained.size(); ++k) {
        misses -= counts.btbMisses[k];
        misses += counts.fsmMisses[k];
        area += entry_config.tagBits * costs.camBit +
            entry_config.targetBits * costs.sramBit +
            trained[k].fsmArea.area;
        series.points.push_back({area,
                                 static_cast<double>(misses) / total,
                                 std::to_string(k + 1) + " fsm"});
    }
    return series;
}

/**
 * runFigure5 decomposed into its layers, in its order: trace generation,
 * baseline profiling, per-branch design (deduplicated like
 * BatchDesigner), packing, custom-machine replays and the nested sweep.
 */
Fig5Benchmark
fig5Traced(const std::string &name, const Fig5Options &options,
           SpanLog &log)
{
    // The same process-wide caches runFigure5 resolves traces through.
    std::shared_ptr<const BranchTrace> train;
    std::shared_ptr<const BranchTrace> test;
    {
        SpanLog::Scope span(log, "workloads.trace_gen");
        train = cachedBranchTrace(name, WorkloadInput::Train,
                                  options.branchesPerRun);
        test = cachedBranchTrace(name, WorkloadInput::Test,
                                 options.branchesPerRun);
    }
    log.count("workloads.records",
              static_cast<double>(train->size() + test->size()));

    BaselineBtbProfile profile;
    std::vector<BranchModel> candidates;
    {
        SpanLog::Scope span(log, "bpred.profile");
        candidates = collectBranchModels(*train, options.training, &profile);
    }
    log.count("bpred.branches_selected",
              static_cast<double>(candidates.size()));

    FsmDesignOptions design;
    design.order = options.training.historyLength;
    design.patterns = options.training.patterns;
    design.minimizer = options.training.minimizer;
    std::vector<TrainedBranch> trained(candidates.size());
    {
        SpanLog::Scope span(log, "flow.design");
        for (size_t i = 0; i < candidates.size(); ++i) {
            TrainedBranch &branch = trained[i];
            size_t rep = i;
            for (size_t j = 0; j < i && rep == i; ++j)
                if (markovEqual(candidates[j].model, candidates[i].model))
                    rep = j;
            FlowResult flow;
            if (rep != i) {
                flow.design = trained[rep].design;
                flow.trace = trained[rep].trace;
                log.count("flow.dedup_hits", 1);
            } else {
                flow = designByStages(candidates[i].model, design, log);
            }
            branch.pc = candidates[i].pc;
            branch.baselineMisses = candidates[i].baselineMisses;
            branch.design = std::move(flow.design);
            branch.trace = std::move(flow.trace);
            branch.fsmArea = estimateFsmArea(branch.design.fsm);
            branch.trainPositions = std::move(candidates[i].positions);
        }
    }
    log.count("flow.designs", static_cast<double>(trained.size()));

    std::shared_ptr<const PackedTrace> packed_train;
    std::shared_ptr<const PackedTrace> packed_test;
    {
        SpanLog::Scope span(log, "sim.pack");
        packed_train = cachedPackedTrace(train);
        packed_test = cachedPackedTrace(test);
    }

    const AreaCosts costs;
    const unsigned threads = options.sweepThreads;
    Fig5Benchmark result;
    result.name = name;
    result.trained = trained;
    std::vector<CustomSweepMachine> machines;
    for (const TrainedBranch &branch : trained)
        machines.push_back({branch.pc, &branch.design.fsm});

    CustomReplayCounts diff_counts;
    {
        SpanLog::Scope span(log, "sim.replay");
        diff_counts = replayCustomMachines(machines, *packed_test,
                                           options.training.baseline, costs,
                                           threads, options.replayShards);
        BpredSimResult r;
        r.branches = packed_test->size();
        r.mispredicts = diff_counts.btbMissesTotal;
        publishBpredRun(diff_counts.btbName, r);
        publishBtbMetrics(diff_counts.btbName, diff_counts.btbLookups,
                          diff_counts.btbHits);
        result.xscale = {diff_counts.btbArea, r.missRate(),
                         diff_counts.btbName};
    }
    log.count("sim.replay_machines", static_cast<double>(machines.size()));

    {
        NestedSweepRequest request;
        for (const int log2 : options.gshareLog2) {
            GshareConfig config;
            config.log2Entries = log2;
            config.historyBits = std::min(log2, 16);
            request.gshare.push_back(config);
        }
        for (const int log2 : options.lgcLog2) {
            LgcConfig config;
            config.log2Entries = log2;
            request.lgc.push_back(config);
        }
        NestedSweepOptions sweep_options;
        sweep_options.threads = threads;
        sweep_options.shards = options.replayShards;
        NestedSweepResult swept;
        {
            SpanLog::Scope span(log, "sim.sweep");
            swept = nestedSweep(request, *packed_test, costs, sweep_options);
        }
        log.count("sim.sweep_points",
                  static_cast<double>(swept.stats.pointsPerPass));
        result.gshare.label = "gshare";
        for (const NestedSweepPoint &point : swept.gshare)
            result.gshare.points.push_back(
                {point.area, point.result.missRate(), point.name});
        result.lgc.label = "lgc";
        for (const NestedSweepPoint &point : swept.lgc)
            result.lgc.points.push_back(
                {point.area, point.result.missRate(), point.name});
    }

    CustomReplayCounts same_counts;
    {
        SpanLog::Scope span(log, "sim.replay");
        CustomBaselineProfile baseline;
        baseline.btbMissesTotal = profile.mispredicts;
        baseline.btbLookups = profile.lookups;
        baseline.btbHits = profile.hits;
        baseline.btbArea = profile.area;
        baseline.btbName = profile.name;
        for (const TrainedBranch &branch : trained) {
            baseline.btbMisses.push_back(branch.baselineMisses);
            baseline.positions.push_back(&branch.trainPositions);
        }
        same_counts = replayCustomMachines(machines, *packed_train, baseline,
                                           threads, options.replayShards);
    }
    log.count("sim.replay_machines", static_cast<double>(machines.size()));

    result.customSame = customSeries(trained, same_counts,
                                     packed_train->size(), "custom-same",
                                     costs);
    result.customDiff = customSeries(trained, diff_counts,
                                     packed_test->size(), "custom-diff",
                                     costs);
    return result;
}

Figure<Fig5Benchmark>
fig5Figure(const Args &args)
{
    const Fig5Options options = fig5Options(args.threads);
    // One panel is ~0.1 s and its warm-up time spreads ~20% between
    // runs; the whole figure is ~0.5 s and steady.
    return {"figure5", branchBenchmarkNames(), branchBenchmarkNames().size(),
            [options](const std::string &name) {
                return runFigure5(name, options);
            },
            [options](const std::string &name, SpanLog &log) {
                return fig5Traced(name, options, log);
            },
            fig5Digest};
}

bool
sameArea(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), 1.0);
}

/**
 * Cross-check sampled sweep points of @p panels (one gshare size, one
 * LGC size, chosen by the seed, and the XScale point) against the plain
 * predictor classes driven by simulateBranchPredictor.
 */
void
crossCheckFig5(const std::vector<Fig5Benchmark> &panels, const Args &args,
               Result &result)
{
    const Fig5Options options = fig5Options(args.threads);
    const size_t g = args.seed % options.gshareLog2.size();
    const size_t l = (args.seed / options.gshareLog2.size()) %
        options.lgcLog2.size();
    for (const Fig5Benchmark &panel : panels) {
        const BranchTrace test = makeBranchTrace(
            panel.name, WorkloadInput::Test, options.branchesPerRun);

        GshareConfig gshare_config;
        gshare_config.log2Entries = options.gshareLog2[g];
        gshare_config.historyBits = std::min(options.gshareLog2[g], 16);
        Gshare gshare(gshare_config);
        LgcConfig lgc_config;
        lgc_config.log2Entries = options.lgcLog2[l];
        LocalGlobalChooser lgc(lgc_config);
        XScaleBtb xscale(options.training.baseline);

        const std::pair<BranchPredictor *, const AreaMissPoint *> checks[] = {
            {&gshare, &panel.gshare.points.at(g)},
            {&lgc, &panel.lgc.points.at(l)},
            {&xscale, &panel.xscale},
        };
        for (const auto &[predictor, point] : checks) {
            result.attempt();
            const BpredSimResult r =
                simulateBranchPredictor(*predictor, test);
            if (r.missRate() != point->missRate ||
                !sameArea(predictor->area(), point->area)) {
                result.fail("figure5/" + panel.name + " point " +
                            point->label + ": sweep says " +
                            std::to_string(point->missRate) + " @ " +
                            std::to_string(point->area) + ", " +
                            predictor->name() + " says " +
                            std::to_string(r.missRate()) + " @ " +
                            std::to_string(predictor->area()));
            }
        }
    }
}

// --- Figure 2 --------------------------------------------------------

std::string
fig2Digest(const Fig2Benchmark &panel)
{
    return digestHex(Fig2Report(panel).toJson());
}

/** figure2.cc's threshold label. */
std::string
formatPct(double frac)
{
    char text[32];
    std::snprintf(text, sizeof text, "%.1f%%", frac * 100.0);
    return text;
}

/**
 * runFigure2 decomposed into its layers: value-trace generation, the
 * SUD estimator replays, the leave-one-out model collection, the FSM
 * designs and the FSM estimator replays.
 */
Fig2Benchmark
fig2Traced(const std::string &name, const Fig2Options &options,
           SpanLog &log)
{
    Fig2Benchmark result;
    result.name = name;
    const auto entries = static_cast<size_t>(options.stride.entries);

    ValueTrace own;
    {
        SpanLog::Scope span(log, "workloads.trace_gen");
        own = makeValueTrace(name, options.loadsPerBenchmark);
    }
    log.count("workloads.records", static_cast<double>(own.size()));

    for (const int max : options.sudMax) {
        for (const int dec : options.sudDecrement) {
            for (const double frac : options.sudThresholdFrac) {
                SudConfig config;
                config.max = max;
                config.increment = 1;
                config.decrement = dec < 0 ? max + 1 : dec;
                config.threshold =
                    std::max(1, static_cast<int>(frac * max + 0.5));
                SudConfidence estimator(entries, config);
                ConfidenceResult r;
                {
                    SpanLog::Scope span(log, "vpred.sud_sim");
                    r = simulateConfidence(own, options.stride, estimator);
                }
                log.count("vpred.loads_simulated",
                          static_cast<double>(own.size()));
                result.sudPoints.push_back(
                    {r.accuracy(), r.coverage(), estimator.name()});
            }
        }
    }

    std::vector<MarkovModel> models;
    for (const int order : options.histories)
        models.emplace_back(order);
    for (const std::string &other : valueBenchmarkNames()) {
        if (other == name)
            continue;
        ValueTrace trace;
        {
            SpanLog::Scope span(log, "workloads.trace_gen");
            trace = makeValueTrace(other, options.loadsPerBenchmark);
        }
        log.count("workloads.records", static_cast<double>(trace.size()));
        std::vector<MarkovModel *> pointers;
        for (MarkovModel &model : models)
            pointers.push_back(&model);
        {
            SpanLog::Scope span(log, "vpred.collect");
            collectConfidenceModels(trace, options.stride, pointers);
        }
        log.count("vpred.loads_simulated", static_cast<double>(trace.size()));
    }

    for (size_t i = 0; i < models.size(); ++i) {
        ParetoSeries series;
        series.label =
            "custom w/ hist=" + std::to_string(options.histories[i]);
        for (const double threshold : options.thresholds) {
            FsmDesignOptions design;
            design.order = options.histories[i];
            design.patterns.threshold = threshold;
            design.patterns.dontCareMass = 0.01;
            FlowResult designed;
            {
                SpanLog::Scope span(log, "flow.design");
                designed = designByStages(models[i], design, log);
            }
            log.count("flow.designs", 1);

            FsmConfidence estimator(entries, designed.design.fsm,
                                    series.label + " thr=" +
                                        formatPct(threshold));
            ConfidenceResult r;
            {
                SpanLog::Scope span(log, "vpred.fsm_sim");
                r = simulateConfidence(own, options.stride, estimator);
            }
            log.count("vpred.loads_simulated",
                      static_cast<double>(own.size()));
            series.points.push_back({r.accuracy(), r.coverage(),
                                     "thr=" + formatPct(threshold)});
        }
        result.fsmCurves.push_back(std::move(series));
    }
    return result;
}

Figure<Fig2Benchmark>
fig2Figure()
{
    const Fig2Options options;
    // One panel is ~0.7 s.
    return {"figure2", valueBenchmarkNames(), 1,
            [options](const std::string &name) {
                return runFigure2(name, options);
            },
            [options](const std::string &name, SpanLog &log) {
                return fig2Traced(name, options, log);
            },
            fig2Digest};
}

} // anonymous namespace

void
measureFig5(const Args &args, Result &result)
{
    const std::vector<Fig5Benchmark> first =
        measureFigure(fig5Figure(args), args, result);
    crossCheckFig5(first, args, result);
}

LayerReport
traceFig5(const Args &args, Result &result)
{
    return traceFigure(fig5Figure(args), args, result);
}

void
measureFig2(const Args &args, Result &result)
{
    measureFigure(fig2Figure(), args, result);
}

LayerReport
traceFig2(const Args &args, Result &result)
{
    return traceFigure(fig2Figure(), args, result);
}

void
printFigureDigests(const Args &args)
{
    clearProcessCaches();
    const Figure<Fig5Benchmark> fig5 = fig5Figure(args);
    for (const std::string &name : fig5.names)
        std::cout << fig5.kind << "/" << name << " "
                  << fig5.digest(fig5.run(name)) << "\n";
    const Figure<Fig2Benchmark> fig2 = fig2Figure();
    for (const std::string &name : fig2.names)
        std::cout << fig2.kind << "/" << name << " "
                  << fig2.digest(fig2.run(name)) << "\n";
}

} // namespace perfbench
