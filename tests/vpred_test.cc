/**
 * @file
 * Tests for the value-prediction substrate: the two-delta stride
 * predictor, SUD/FSM confidence estimators and the combined simulation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <iomanip>
#include <map>
#include <sstream>
#include <stdexcept>

#include "fsmgen/designer.hh"
#include "obs/metrics.hh"
#include "sim/figure2.hh"
#include "sim/report.hh"
#include "support/rng.hh"
#include "vpred/conf_sim.hh"
#include "vpred/confidence.hh"
#include "vpred/stride_predictor.hh"
#include "workloads/value_workloads.hh"

namespace autofsm
{
namespace
{

TEST(StridePredictorTest, AllocationIsNotAPrediction)
{
    TwoDeltaStridePredictor predictor;
    const StrideOutcome outcome = predictor.executeLoad(0x100, 42);
    EXPECT_FALSE(outcome.predicted);
    EXPECT_FALSE(outcome.correct);
}

TEST(StridePredictorTest, ConstantValueLocksOn)
{
    TwoDeltaStridePredictor predictor;
    predictor.executeLoad(0x100, 7);
    for (int i = 0; i < 5; ++i) {
        const StrideOutcome outcome = predictor.executeLoad(0x100, 7);
        EXPECT_TRUE(outcome.predicted);
        EXPECT_TRUE(outcome.correct);
    }
}

TEST(StridePredictorTest, TwoDeltaNeedsStrideTwice)
{
    TwoDeltaStridePredictor predictor;
    // Values 10, 14, 18, 22: stride 4 seen at 14 (once) and 18 (twice).
    predictor.executeLoad(0x100, 10);
    EXPECT_FALSE(predictor.executeLoad(0x100, 14).correct); // pred 10
    EXPECT_FALSE(predictor.executeLoad(0x100, 18).correct); // pred 14
    // Stride now adopted: next prediction is 18 + 4 = 22.
    EXPECT_TRUE(predictor.executeLoad(0x100, 22).correct);
    EXPECT_TRUE(predictor.executeLoad(0x100, 26).correct);
}

TEST(StridePredictorTest, TransientStrideDoesNotDisturb)
{
    TwoDeltaStridePredictor predictor;
    // Lock onto stride 0 (constant 5), then a one-off jump to 9 and
    // back: the two-delta filter keeps the stride at 0.
    for (uint64_t v : {5u, 5u, 5u, 5u})
        predictor.executeLoad(0x100, v);
    EXPECT_FALSE(predictor.executeLoad(0x100, 9).correct);
    // Prediction is 9 + 0 = 9 (stride still 0), actual 5: wrong.
    EXPECT_FALSE(predictor.executeLoad(0x100, 5).correct);
    // Back to constant 5: correct again.
    EXPECT_TRUE(predictor.executeLoad(0x100, 5).correct);
}

TEST(StridePredictorTest, CyclePatternIsPeriodicallyWrong)
{
    // The 5,5,5,9 cycle: correctness pattern (after warm-up) must be
    // exactly (1,1,0,0) repeating - the structure FsmConfidence learns.
    TwoDeltaStridePredictor predictor;
    std::vector<int> correctness;
    const uint64_t cycle[4] = {5, 5, 5, 9};
    for (int i = 0; i < 40; ++i) {
        const StrideOutcome outcome =
            predictor.executeLoad(0x200, cycle[i % 4]);
        if (i >= 8)
            correctness.push_back(outcome.correct);
    }
    // Phase: recording starts at a cycle boundary (i = 8), where the
    // two-delta predictor mispredicts the 9 and the 5 after it, then
    // hits the two repeated 5s: (0,1,1,0) from the recording origin.
    for (size_t i = 0; i < correctness.size(); ++i) {
        const int expected = (i % 4 == 1 || i % 4 == 2) ? 1 : 0;
        EXPECT_EQ(correctness[i], expected) << i;
    }
}

TEST(StridePredictorTest, TagConflictReallocates)
{
    StrideConfig config;
    config.entries = 4;
    TwoDeltaStridePredictor predictor(config);
    const uint64_t pc_a = 0x100;
    const uint64_t pc_b = pc_a + 4 * 4; // same index, different tag
    predictor.executeLoad(pc_a, 7);
    predictor.executeLoad(pc_a, 7);
    EXPECT_TRUE(predictor.executeLoad(pc_a, 7).correct);
    // Conflicting load evicts.
    EXPECT_FALSE(predictor.executeLoad(pc_b, 3).predicted);
    EXPECT_FALSE(predictor.executeLoad(pc_a, 7).predicted);
}

TEST(StridePredictorTest, RejectsBadGeometry)
{
    for (int entries : {0, -4, 3, 2047}) {
        StrideConfig config;
        config.entries = entries;
        EXPECT_THROW(TwoDeltaStridePredictor{config}, std::invalid_argument)
            << entries;
    }
    for (int tag_bits : {-1, 64, 100}) {
        StrideConfig config;
        config.tagBits = tag_bits;
        EXPECT_THROW(TwoDeltaStridePredictor{config}, std::invalid_argument)
            << tag_bits;
    }
    // The edges of the accepted range still work.
    StrideConfig one_entry;
    one_entry.entries = 1;
    one_entry.tagBits = 63;
    TwoDeltaStridePredictor predictor(one_entry);
    EXPECT_EQ(predictor.entries(), 1u);
    predictor.executeLoad(0x100, 7);
    EXPECT_TRUE(predictor.executeLoad(0x100, 7).predicted);
    // A 63-bit tag tells apart PCs that differ above bit 32.
    EXPECT_FALSE(predictor.executeLoad(0x100 + (1ULL << 40), 7).predicted);
}

TEST(SudConfidenceTest, PerEntryIndependence)
{
    SudConfidence confidence(4, SudConfig{3, 1, 1, 2});
    confidence.update(0, true);
    confidence.update(0, true);
    EXPECT_TRUE(confidence.confident(0));
    EXPECT_FALSE(confidence.confident(1));
}

TEST(FsmConfidenceTest, SharedTablePerEntryState)
{
    // Machine: confident iff last outcome was correct.
    Dfa dfa;
    const int s0 = dfa.addState(0);
    const int s1 = dfa.addState(1);
    dfa.setEdge(s0, 0, s0);
    dfa.setEdge(s0, 1, s1);
    dfa.setEdge(s1, 0, s0);
    dfa.setEdge(s1, 1, s1);
    dfa.setStart(s0);

    FsmConfidence confidence(3, dfa, "last-correct");
    confidence.update(1, true);
    EXPECT_FALSE(confidence.confident(0));
    EXPECT_TRUE(confidence.confident(1));
    EXPECT_EQ(confidence.numStates(), 2);
    EXPECT_EQ(confidence.name(), "last-correct");
}

TEST(ConfSimTest, AccuracyAndCoverageDefinitions)
{
    ConfidenceResult result;
    result.loads = 100;
    result.correct = 50;
    result.confident = 25;
    result.confidentCorrect = 20;
    EXPECT_DOUBLE_EQ(result.accuracy(), 0.8);
    EXPECT_DOUBLE_EQ(result.coverage(), 0.4);

    ConfidenceResult empty;
    EXPECT_DOUBLE_EQ(empty.accuracy(), 0.0);
    EXPECT_DOUBLE_EQ(empty.coverage(), 0.0);
}

TEST(ConfSimTest, AlwaysConfidentHasFullCoverage)
{
    /// Degenerate estimator: always confident.
    class AlwaysConfident : public ConfidenceEstimator
    {
      public:
        bool confident(size_t) const override { return true; }
        void update(size_t, bool) override {}
        std::string name() const override { return "always"; }
    };

    const ValueTrace trace = makeValueTrace("groff", 5000);
    AlwaysConfident estimator;
    const ConfidenceResult result =
        simulateConfidence(trace, StrideConfig{}, estimator);
    EXPECT_EQ(result.confident, result.loads);
    EXPECT_DOUBLE_EQ(result.coverage(), 1.0);
    // Accuracy equals the raw value-predictor hit rate.
    EXPECT_NEAR(result.accuracy(),
                static_cast<double>(result.correct) /
                    static_cast<double>(result.loads),
                1e-12);
}

TEST(ConfSimTest, SudTradeoffMovesWithThreshold)
{
    const ValueTrace trace = makeValueTrace("gcc", 30000);
    SudConfidence loose(2048, SudConfig{10, 1, 1, 2});
    SudConfidence strict(2048, SudConfig{10, 1, 10, 9});
    const ConfidenceResult loose_r =
        simulateConfidence(trace, StrideConfig{}, loose);
    const ConfidenceResult strict_r =
        simulateConfidence(trace, StrideConfig{}, strict);
    EXPECT_GT(strict_r.accuracy(), loose_r.accuracy());
    EXPECT_LT(strict_r.coverage(), loose_r.coverage());
}

TEST(ConfSimTest, FsmLearnsCyclePatternConfidence)
{
    // Train on the (1,1,0,0) correctness cycle, then verify the FSM
    // confidence achieves near-perfect accuracy AND coverage, which no
    // SUD counter can do on this stream.
    ValueTrace trace;
    const uint64_t cycle[4] = {5, 5, 5, 9};
    for (int i = 0; i < 20000; ++i)
        trace.push_back({0x300, cycle[i % 4]});

    MarkovModel model(4);
    collectConfidenceModels(trace, StrideConfig{}, {&model});

    FsmDesignOptions design;
    design.order = 4;
    design.patterns.threshold = 0.9;
    const FsmDesignResult designed = designFsm(model, design);

    FsmConfidence fsm(2048, designed.fsm);
    const ConfidenceResult fsm_r =
        simulateConfidence(trace, StrideConfig{}, fsm);
    EXPECT_GT(fsm_r.accuracy(), 0.98);
    EXPECT_GT(fsm_r.coverage(), 0.90);

    // Best-effort SUD comparison: every configuration leaves coverage
    // or accuracy far below the FSM on this stream.
    bool sud_matches = false;
    for (int max : {3, 10, 20}) {
        for (int threshold : {1, max / 2, max - 1}) {
            if (threshold < 1)
                continue;
            SudConfidence sud(2048, SudConfig{max, 1, 1, threshold});
            const ConfidenceResult r =
                simulateConfidence(trace, StrideConfig{}, sud);
            if (r.accuracy() > 0.98 && r.coverage() > 0.90)
                sud_matches = true;
        }
    }
    EXPECT_FALSE(sud_matches);
}

TEST(ConfSimTest, CollectModelsMatchesRuntimeView)
{
    // The Markov model built by collectConfidenceModels must reflect
    // the deterministic (1,1,0,0) correctness cycle.
    ValueTrace trace;
    const uint64_t cycle[4] = {5, 5, 5, 9};
    for (int i = 0; i < 4000; ++i)
        trace.push_back({0x300, cycle[i % 4]});

    MarkovModel model(2);
    collectConfidenceModels(trace, StrideConfig{}, {&model});

    // After (correct=1, correct=1) the next is wrong; history "11"->0.
    EXPECT_LT(model.probabilityOne(fromBinary("11")), 0.05);
    // After (wrong, wrong) the next is correct; history "00"->1.
    EXPECT_GT(model.probabilityOne(fromBinary("00")), 0.95);
}

// --- Recorded stream + table replay against the per-load reference ----

/** The 60 SUD configurations of Figure 2, in runFigure2's order. */
std::vector<SudConfig>
figure2SudConfigs()
{
    const Fig2Options options;
    std::vector<SudConfig> configs;
    for (int max : options.sudMax) {
        for (int dec : options.sudDecrement) {
            for (double frac : options.sudThresholdFrac) {
                SudConfig config;
                config.max = max;
                config.increment = 1;
                config.decrement = dec < 0 ? max + 1 : dec;
                config.threshold =
                    std::max(1, static_cast<int>(frac * max + 0.5));
                configs.push_back(config);
            }
        }
    }
    return configs;
}

/**
 * A random value trace of @p length loads over a few hundred PCs
 * (enough to collide in a 2K table), each PC running a stride that
 * sometimes changes and with random one-off values mixed in.
 */
ValueTrace
randomValueTrace(size_t length, uint64_t seed)
{
    Rng rng(seed);
    const size_t pcs = 300;
    std::vector<uint64_t> pc(pcs), value(pcs), stride(pcs);
    for (size_t i = 0; i < pcs; ++i) {
        pc[i] = 4 * rng.below(1 << 14);
        value[i] = rng.below(1000);
        stride[i] = rng.below(4);
    }
    ValueTrace trace;
    for (size_t n = 0; n < length; ++n) {
        const size_t i = rng.below(pcs);
        if (rng.chance(0.05))
            stride[i] = rng.below(4);
        value[i] += stride[i];
        trace.push_back(
            {pc[i], rng.chance(0.1) ? rng.below(1 << 20) : value[i]});
    }
    return trace;
}

/** A random complete DFA with @p states states and start @p start. */
Dfa
randomDfa(int states, int start, Rng &rng)
{
    Dfa dfa;
    for (int s = 0; s < states; ++s)
        dfa.addState(rng.chance(0.5) ? 1 : 0);
    for (int s = 0; s < states; ++s) {
        dfa.setEdge(s, 0, static_cast<int>(rng.below(states)));
        dfa.setEdge(s, 1, static_cast<int>(rng.below(states)));
    }
    dfa.setStart(start);
    return dfa;
}

/** The inputs of the differential tests: random traces of edge-case
 *  lengths, then the five value benchmarks. */
std::vector<std::pair<std::string, ValueTrace>>
replayInputs()
{
    std::vector<std::pair<std::string, ValueTrace>> inputs;
    for (size_t length : {0, 1, 63, 64, 65, 12345})
        inputs.emplace_back("random" + std::to_string(length),
                            randomValueTrace(length, 1000 + length));
    for (const std::string &name : valueBenchmarkNames())
        inputs.emplace_back(name, makeValueTrace(name, 20000));
    return inputs;
}

void
expectSameResult(const ConfidenceResult &replayed,
                 const ConfidenceResult &reference, const std::string &what)
{
    EXPECT_EQ(replayed.loads, reference.loads) << what;
    EXPECT_EQ(replayed.correct, reference.correct) << what;
    EXPECT_EQ(replayed.confident, reference.confident) << what;
    EXPECT_EQ(replayed.confidentCorrect, reference.confidentCorrect)
        << what;
}

TEST(ConfidenceReplayTest, StreamRecordsEveryLoad)
{
    const ValueTrace trace = makeValueTrace("gcc", 5000);
    const ConfidenceStream stream =
        recordConfidenceStream(trace, StrideConfig{});
    EXPECT_EQ(stream.loads, trace.size());
    EXPECT_EQ(stream.words.size(), trace.size());
    EXPECT_EQ(stream.entries, 2048u);

    TwoDeltaStridePredictor predictor;
    uint64_t correct = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
        const StrideOutcome outcome =
            predictor.executeLoad(trace[i].pc, trace[i].value);
        correct += outcome.correct;
        EXPECT_EQ(stream.words[i] >> 1, outcome.entry) << i;
        EXPECT_EQ(stream.words[i] & 1U, outcome.correct ? 1U : 0U) << i;
    }
    EXPECT_EQ(stream.correct, correct);
}

TEST(ConfidenceReplayTest, RejectsEntriesBeyondTheStreamWord)
{
    /// A predictor that only claims a table too large for 32-bit words.
    class Huge : public ValuePredictor
    {
      public:
        StrideOutcome executeLoad(uint64_t, uint64_t) override { return {}; }
        size_t indexOf(uint64_t) const override { return 0; }
        size_t entries() const override { return (size_t{1} << 31) + 1; }
        std::string name() const override { return "huge"; }
    };
    Huge huge;
    EXPECT_THROW(recordConfidenceStream(ValueTrace{}, huge),
                 std::invalid_argument);
}

TEST(ConfidenceReplayTest, SudReplayMatchesPerLoadSimulation)
{
    const std::vector<SudConfig> configs = figure2SudConfigs();
    ASSERT_EQ(configs.size(), 60u);
    for (const auto &[name, trace] : replayInputs()) {
        const ConfidenceStream stream =
            recordConfidenceStream(trace, StrideConfig{});
        for (const SudConfig &config : configs) {
            SudConfidence reference(2048, config);
            expectSameResult(
                replayConfidence(stream, FsmTable(sudCounterDfa(config)),
                                 sudLabel(config)),
                simulateConfidence(trace, StrideConfig{}, reference),
                name + " " + sudLabel(config));
        }
    }
}

TEST(ConfidenceReplayTest, FsmReplayMatchesPerLoadSimulation)
{
    Rng rng(77);
    // Small and large machines, start states other than 0, and more
    // than 256 states (beyond a byte-wide state index).
    const std::vector<std::pair<int, int>> shapes = {
        {1, 0}, {2, 1}, {7, 3}, {40, 39}, {300, 0}, {300, 257}, {1000, 999}};
    std::vector<Dfa> machines;
    for (const auto &[states, start] : shapes)
        machines.push_back(randomDfa(states, start, rng));

    for (const auto &[name, trace] : replayInputs()) {
        const ConfidenceStream stream =
            recordConfidenceStream(trace, StrideConfig{});
        for (size_t m = 0; m < machines.size(); ++m) {
            const std::string label = "random-dfa" + std::to_string(m);
            FsmConfidence reference(2048, machines[m], label);
            expectSameResult(
                replayConfidence(stream, FsmTable(machines[m]), label),
                simulateConfidence(trace, StrideConfig{}, reference),
                name + " " + label);
        }
    }
}

TEST(ConfidenceReplayTest, SudCounterDfaStepsLikeSudCounter)
{
    std::vector<SudConfig> configs = figure2SudConfigs();
    configs.push_back(SudConfig::twoBit());
    configs.push_back(SudConfig::resetting(7, 7));
    configs.push_back({9, 4, 3, 0});  // always confident
    configs.push_back({9, 20, 1, 10}); // never confident; jumps to max
    for (const SudConfig &config : configs) {
        const Dfa dfa = sudCounterDfa(config);
        ASSERT_EQ(dfa.numStates(), config.max + 1) << sudLabel(config);
        EXPECT_EQ(dfa.start(), SudCounter(config).value());
        for (int value = 0; value <= config.max; ++value) {
            EXPECT_EQ(dfa.output(value) == 1,
                      SudCounter(config, value).predict())
                << sudLabel(config) << " value " << value;
            for (bool input : {false, true}) {
                SudCounter counter(config, value);
                counter.update(input);
                EXPECT_EQ(dfa.next(value, input ? 1 : 0), counter.value())
                    << sudLabel(config) << " value " << value
                    << " input " << input;
            }
        }
    }
}

TEST(ConfidenceReplayTest, SudCounterDfaRejectsInvalidConfigs)
{
    const std::vector<SudConfig> invalid = {
        {0, 1, 1, 0},  {-3, 1, 1, 0},      {5, 0, 1, 3},
        {5, 1, 0, 3},  {5, 1, 1, -1},      {5, 1, 1, 7},
        {5, -1, 1, 3}, {INT_MAX, 1, 1, 1},
    };
    for (const SudConfig &config : invalid)
        EXPECT_THROW(sudCounterDfa(config), std::invalid_argument)
            << sudLabel(config);
    // threshold == max + 1 is valid: never confident.
    EXPECT_EQ(sudCounterDfa({5, 1, 1, 6}).numStates(), 6);
}

/**
 * Per-load model collection written straight against MarkovModel: each
 * entry keeps its own history, and a model of order k observes an
 * outcome once the entry has seen k earlier ones.
 */
void
collectPerLoad(const ValueTrace &trace, std::vector<MarkovModel> &models)
{
    TwoDeltaStridePredictor predictor;
    std::vector<uint32_t> history(predictor.entries(), 0);
    std::vector<int> seen(predictor.entries(), 0);
    for (const auto &record : trace) {
        const StrideOutcome outcome =
            predictor.executeLoad(record.pc, record.value);
        const size_t entry = outcome.entry;
        const int bit = outcome.correct ? 1 : 0;
        for (MarkovModel &model : models) {
            if (seen[entry] >= model.order())
                model.observe(history[entry] & lowMask(model.order()), bit);
        }
        history[entry] = (history[entry] << 1) | static_cast<uint32_t>(bit);
        ++seen[entry];
    }
}

void
expectSameModels(const std::vector<MarkovModel> &actual,
                 const std::vector<MarkovModel> &expected,
                 const std::string &what)
{
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].totalObservations(),
                  expected[i].totalObservations())
            << what << " order " << actual[i].order();
        EXPECT_EQ(actual[i].distinctHistories(),
                  expected[i].distinctHistories())
            << what << " order " << actual[i].order();
        for (const auto &[history, counts] : expected[i].table()) {
            const HistoryCounts got = actual[i].counts(history);
            EXPECT_EQ(got.ones, counts.ones) << what << " " << history;
            EXPECT_EQ(got.total, counts.total) << what << " " << history;
        }
    }
}

TEST(ConfidenceReplayTest, StreamModelsMatchTraceAndPerLoadCollection)
{
    const std::vector<int> orders = {2, 4, 6, 8, 10};
    for (const auto &[name, trace] : replayInputs()) {
        std::vector<MarkovModel> from_stream, from_trace, per_load;
        for (int order : orders) {
            from_stream.emplace_back(order);
            from_trace.emplace_back(order);
            per_load.emplace_back(order);
        }
        auto pointers = [](std::vector<MarkovModel> &models) {
            std::vector<MarkovModel *> out;
            for (MarkovModel &model : models)
                out.push_back(&model);
            return out;
        };
        collectConfidenceModels(
            recordConfidenceStream(trace, StrideConfig{}),
            pointers(from_stream));
        collectConfidenceModels(trace, StrideConfig{}, pointers(from_trace));
        collectPerLoad(trace, per_load);
        expectSameModels(from_stream, per_load, name + " stream");
        expectSameModels(from_trace, per_load, name + " trace");
    }
}

std::string
referencePct(double frac)
{
    std::ostringstream out;
    out.precision(1);
    out << std::fixed << frac * 100.0 << "%";
    return out.str();
}

/**
 * The per-load Figure 2 driver: a full stride-predictor run and a
 * virtual estimator per configuration. Kept as the oracle for
 * runFigure2's recorded-stream replay.
 */
Fig2Benchmark
referenceFigure2(const std::string &benchmark, const Fig2Options &options)
{
    Fig2Benchmark result;
    result.name = benchmark;
    const auto entries = static_cast<size_t>(options.stride.entries);
    const ValueTrace own =
        makeValueTrace(benchmark, options.loadsPerBenchmark);

    for (const SudConfig &config : figure2SudConfigs()) {
        SudConfidence estimator(entries, config);
        const ConfidenceResult r =
            simulateConfidence(own, options.stride, estimator);
        result.sudPoints.push_back(
            {r.accuracy(), r.coverage(), estimator.name()});
    }

    std::vector<MarkovModel> models;
    for (int order : options.histories)
        models.emplace_back(order);
    for (const std::string &other : valueBenchmarkNames()) {
        if (other == benchmark)
            continue;
        std::vector<MarkovModel *> pointers;
        for (auto &model : models)
            pointers.push_back(&model);
        collectConfidenceModels(
            makeValueTrace(other, options.loadsPerBenchmark),
            options.stride, pointers);
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
            FsmConfidence estimator(entries, designed.fsm,
                                    series.label + " thr=" +
                                        referencePct(threshold));
            const ConfidenceResult r =
                simulateConfidence(own, options.stride, estimator);
            series.points.push_back({r.accuracy(), r.coverage(),
                                     "thr=" + referencePct(threshold)});
        }
        result.fsmCurves.push_back(std::move(series));
    }
    return result;
}

TEST(ConfidenceReplayTest, Figure2MatchesPerLoadReference)
{
    Fig2Options options;
    options.loadsPerBenchmark = 20000;
    for (const std::string &name : valueBenchmarkNames()) {
        EXPECT_EQ(Fig2Report(runFigure2(name, options)).toJson(),
                  Fig2Report(referenceFigure2(name, options)).toJson())
            << name;
    }
}

/** Current autofsm_vpred_*_total counters, keyed by name and label. */
std::map<std::string, uint64_t>
vpredCounters()
{
    std::map<std::string, uint64_t> counters;
    for (const obs::MetricValue &metric :
         obs::globalMetrics().snapshot().metrics) {
        if (metric.name.rfind("autofsm_vpred_", 0) != 0)
            continue;
        std::string key = metric.name;
        for (const auto &[label, value] : metric.labels)
            key += " " + label + "=" + value;
        counters[key] = metric.count;
    }
    return counters;
}

std::map<std::string, uint64_t>
counterDelta(const std::map<std::string, uint64_t> &before,
             const std::map<std::string, uint64_t> &after)
{
    std::map<std::string, uint64_t> delta;
    for (const auto &[key, value] : after) {
        const auto it = before.find(key);
        const uint64_t base = it == before.end() ? 0 : it->second;
        if (value != base)
            delta[key] = value - base;
    }
    return delta;
}

TEST(ConfidenceReplayTest, Figure2MetricsMatchPerLoadReference)
{
    Fig2Options options;
    options.loadsPerBenchmark = 20000;

    const auto start = vpredCounters();
    runFigure2("gcc", options);
    const auto replayed = vpredCounters();
    referenceFigure2("gcc", options);
    const auto reference = vpredCounters();

    const auto replayed_delta = counterDelta(start, replayed);
    EXPECT_EQ(replayed_delta, counterDelta(replayed, reference));
#ifndef AUTOFSM_NO_TELEMETRY
    // One load counter for each of the 60 SUD and 35 FSM configurations.
    const auto loads = std::count_if(
        replayed_delta.begin(), replayed_delta.end(), [](const auto &kv) {
            return kv.first.rfind("autofsm_vpred_loads_total ", 0) == 0;
        });
    EXPECT_EQ(loads, 95);
#endif
}

} // anonymous namespace
} // namespace autofsm
