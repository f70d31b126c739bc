#include "vpred/conf_sim.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "fsmgen/profile.hh"
#include "obs/metrics.hh"
#include "support/bits.hh"

namespace autofsm
{

namespace
{

/**
 * Publish one confidence run's coverage tallies, labelled by estimator
 * (bounded cardinality: one per swept configuration). Bumped once per
 * run so the per-load hot loop stays untouched.
 */
void
publishConfidenceRun(const std::string &estimator,
                     const ConfidenceResult &result)
{
    obs::MetricsRegistry &registry = obs::globalMetrics();
    if (!registry.enabled())
        return;
    const obs::Labels labels = {{"estimator", estimator}};
    registry
        .counter("autofsm_vpred_loads_total",
                 "Dynamic loads simulated by the confidence harness.",
                 labels)
        .inc(result.loads);
    registry
        .counter("autofsm_vpred_correct_total",
                 "Loads whose value prediction was correct.", labels)
        .inc(result.correct);
    registry
        .counter("autofsm_vpred_confident_total",
                 "Loads the estimator marked confident.", labels)
        .inc(result.confident);
    registry
        .counter("autofsm_vpred_confident_correct_total",
                 "Confident loads that were also correct.", labels)
        .inc(result.confidentCorrect);
}

} // anonymous namespace

ConfidenceStream
recordConfidenceStream(const ValueTrace &trace, ValuePredictor &predictor)
{
    // entry << 1 | 1 must fit 32 bits: entries up to 2^31.
    if (predictor.entries() > (size_t{1} << 31))
        throw std::invalid_argument(
            "recordConfidenceStream: " + predictor.name() + " has " +
            std::to_string(predictor.entries()) +
            " entries, more than a 32-bit stream word can index");
    ConfidenceStream stream;
    stream.entries = predictor.entries();
    stream.loads = trace.size();
    stream.words.reserve(trace.size());
    for (const auto &record : trace) {
        const StrideOutcome outcome =
            predictor.executeLoad(record.pc, record.value);
        stream.correct += outcome.correct;
        stream.words.push_back(static_cast<uint32_t>(outcome.entry << 1) |
                               (outcome.correct ? 1U : 0U));
    }
    return stream;
}

ConfidenceStream
recordConfidenceStream(const ValueTrace &trace, const StrideConfig &config)
{
    TwoDeltaStridePredictor predictor(config);
    return recordConfidenceStream(trace, predictor);
}

ConfidenceResult
replayConfidence(const ConfidenceStream &stream, const FsmTable &table,
                 const std::string &label)
{
    std::vector<int> state(stream.entries, table.start());
    uint64_t confident = 0;
    uint64_t confident_correct = 0;
    for (const uint32_t word : stream.words) {
        const size_t entry = word >> 1;
        const int correct = static_cast<int>(word & 1U);
        const int marked = table.output(state[entry]);
        confident += static_cast<uint64_t>(marked);
        confident_correct += static_cast<uint64_t>(marked & correct);
        state[entry] = table.next(state[entry], correct);
    }

    ConfidenceResult result;
    result.loads = stream.loads;
    result.correct = stream.correct;
    result.confident = confident;
    result.confidentCorrect = confident_correct;
    publishConfidenceRun(label, result);
    return result;
}

ConfidenceResult
simulateConfidence(const ValueTrace &trace, ValuePredictor &predictor,
                   ConfidenceEstimator &estimator)
{
    ConfidenceResult result;
    for (const auto &record : trace) {
        const size_t entry = predictor.indexOf(record.pc);
        const bool marked = estimator.confident(entry);
        const StrideOutcome outcome =
            predictor.executeLoad(record.pc, record.value);

        ++result.loads;
        result.correct += outcome.correct;
        result.confident += marked;
        result.confidentCorrect += marked && outcome.correct;

        estimator.update(entry, outcome.correct);
    }
    publishConfidenceRun(estimator.name(), result);
    return result;
}

ConfidenceResult
simulateConfidence(const ValueTrace &trace, const StrideConfig &config,
                   ConfidenceEstimator &estimator)
{
    TwoDeltaStridePredictor predictor(config);
    return simulateConfidence(trace, predictor, estimator);
}

void
collectConfidenceModels(const ConfidenceStream &stream,
                        std::vector<MarkovModel *> models)
{
    assert(!models.empty());
    std::vector<int> orders;
    orders.reserve(models.size());
    int max_order = 0;
    for (const MarkovModel *model : models) {
        orders.push_back(model->order());
        max_order = std::max(max_order, model->order());
    }

    // Per-entry correctness history plus a saturating push count so each
    // order knows when its own (shorter) warm-up completes. One flat
    // counter at the widest order absorbs every outcome; the per-order
    // tables are folded out at the end (fsmgen/profile.hh) instead of
    // updating every model inside the per-load loop.
    std::vector<uint32_t> history(stream.entries, 0);
    std::vector<int> pushes(stream.entries, 0);
    MultiOrderCounter counter(max_order);

    for (const uint32_t word : stream.words) {
        const size_t entry = word >> 1;
        const uint32_t correct = word & 1U;

        counter.observe(history[entry], pushes[entry],
                        static_cast<int>(correct));

        history[entry] = ((history[entry] << 1) | correct) &
            lowMask(max_order);
        if (pushes[entry] < max_order)
            ++pushes[entry];
    }

    MultiOrderProfile profile = counter.finish(orders);
    for (MarkovModel *model : models)
        model->merge(profile.model(model->order()));
}

void
collectConfidenceModels(const ValueTrace &trace, ValuePredictor &predictor,
                        std::vector<MarkovModel *> models)
{
    collectConfidenceModels(recordConfidenceStream(trace, predictor),
                            std::move(models));
}

void
collectConfidenceModels(const ValueTrace &trace, const StrideConfig &config,
                        std::vector<MarkovModel *> models)
{
    collectConfidenceModels(recordConfidenceStream(trace, config),
                            std::move(models));
}

} // namespace autofsm
