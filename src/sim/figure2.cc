#include "sim/figure2.hh"

#include <algorithm>
#include <sstream>

#include "fsmgen/designer.hh"
#include "workloads/value_workloads.hh"

namespace autofsm
{

namespace
{

std::string
formatPct(double frac)
{
    std::ostringstream out;
    out.precision(1);
    out << std::fixed << frac * 100.0 << "%";
    return out.str();
}

/**
 * One Figure 2 panel over recorded streams: @p own is the reported
 * benchmark's, @p others every other benchmark's, in
 * valueBenchmarkNames() order.
 */
Fig2Benchmark
figure2Panel(const std::string &benchmark, const ConfidenceStream &own,
             const std::vector<const ConfidenceStream *> &others,
             const Fig2Options &options)
{
    Fig2Benchmark result;
    result.name = benchmark;

    // --- SUD counter scatter -------------------------------------------
    for (int max : options.sudMax) {
        for (int dec : options.sudDecrement) {
            for (double frac : options.sudThresholdFrac) {
                SudConfig config;
                config.max = max;
                config.increment = 1;
                config.decrement = dec < 0 ? max + 1 : dec;
                config.threshold =
                    std::max(1, static_cast<int>(frac * max + 0.5));
                const std::string label = sudLabel(config);
                const ConfidenceResult r = replayConfidence(
                    own, FsmTable(sudCounterDfa(config)), label);
                result.sudPoints.push_back(
                    {r.accuracy(), r.coverage(), label});
            }
        }
    }

    // --- Cross-trained FSM curves --------------------------------------
    // Aggregate per-entry correctness Markov models over every other
    // benchmark (Section 6.3's leave-one-out methodology).
    std::vector<MarkovModel> models;
    models.reserve(options.histories.size());
    for (int order : options.histories)
        models.emplace_back(order);
    std::vector<MarkovModel *> pointers;
    for (auto &model : models)
        pointers.push_back(&model);
    for (const ConfidenceStream *other : others)
        collectConfidenceModels(*other, pointers);

    for (size_t i = 0; i < models.size(); ++i) {
        ParetoSeries series;
        series.label =
            "custom w/ hist=" + std::to_string(options.histories[i]);
        for (double threshold : options.thresholds) {
            FsmDesignOptions design;
            design.order = options.histories[i];
            design.patterns.threshold = threshold;
            design.patterns.dontCareMass = 0.01;
            const FsmDesignResult designed = designFsm(models[i], design);

            const ConfidenceResult r = replayConfidence(
                own, FsmTable(designed.fsm),
                series.label + " thr=" + formatPct(threshold));
            series.points.push_back({r.accuracy(), r.coverage(),
                                     "thr=" + formatPct(threshold)});
        }
        result.fsmCurves.push_back(std::move(series));
    }
    return result;
}

/** The stride predictor's verdicts over @p benchmark's value trace. */
ConfidenceStream
recordBenchmark(const std::string &benchmark, const Fig2Options &options)
{
    return recordConfidenceStream(
        makeValueTrace(benchmark, options.loadsPerBenchmark),
        options.stride);
}

} // anonymous namespace

Fig2Benchmark
runFigure2(const std::string &benchmark, const Fig2Options &options)
{
    // Every estimator sees only the stride predictor's verdicts, so the
    // predictor runs once per trace and each configuration replays the
    // recorded stream as a Moore table.
    const ConfidenceStream own = recordBenchmark(benchmark, options);
    std::vector<ConfidenceStream> recorded;
    for (const std::string &other : valueBenchmarkNames()) {
        if (other != benchmark)
            recorded.push_back(recordBenchmark(other, options));
    }
    std::vector<const ConfidenceStream *> others;
    for (const ConfidenceStream &stream : recorded)
        others.push_back(&stream);
    return figure2Panel(benchmark, own, others, options);
}

std::vector<Fig2Benchmark>
runFigure2All(const Fig2Options &options)
{
    // Each benchmark's stream serves as its own panel's and as training
    // data for the four other panels, so record each one once.
    const std::vector<std::string> &names = valueBenchmarkNames();
    std::vector<ConfidenceStream> streams;
    for (const std::string &name : names)
        streams.push_back(recordBenchmark(name, options));

    std::vector<Fig2Benchmark> all;
    for (size_t i = 0; i < names.size(); ++i) {
        std::vector<const ConfidenceStream *> others;
        for (size_t j = 0; j < names.size(); ++j) {
            if (j != i)
                others.push_back(&streams[j]);
        }
        all.push_back(figure2Panel(names[i], streams[i], others, options));
    }
    return all;
}

} // namespace autofsm
