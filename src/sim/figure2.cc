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

} // anonymous namespace

Fig2Benchmark
runFigure2(const std::string &benchmark, const Fig2Options &options)
{
    Fig2Benchmark result;
    result.name = benchmark;

    // Every estimator sees only the stride predictor's verdicts, so the
    // predictor runs once per trace and each configuration replays the
    // recorded stream as a Moore table.
    const ConfidenceStream own = recordConfidenceStream(
        makeValueTrace(benchmark, options.loadsPerBenchmark),
        options.stride);

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

    for (const std::string &other : valueBenchmarkNames()) {
        if (other == benchmark)
            continue;
        std::vector<MarkovModel *> pointers;
        for (auto &model : models)
            pointers.push_back(&model);
        collectConfidenceModels(
            recordConfidenceStream(
                makeValueTrace(other, options.loadsPerBenchmark),
                options.stride),
            pointers);
    }

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

std::vector<Fig2Benchmark>
runFigure2All(const Fig2Options &options)
{
    std::vector<Fig2Benchmark> all;
    for (const std::string &name : valueBenchmarkNames())
        all.push_back(runFigure2(name, options));
    return all;
}

} // namespace autofsm
