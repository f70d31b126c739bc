/**
 * @file
 * Tests for the branch-prediction substrate: SUD counters, the XScale
 * BTB, gshare, the local/global chooser (each held to its SudCounter
 * reference in reference_predictors.hh), the customized architecture
 * and the training flow.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "reference_predictors.hh"

#include "bpred/btb.hh"
#include "bpred/custom.hh"
#include "bpred/gshare.hh"
#include "bpred/local_global.hh"
#include "bpred/simulate.hh"
#include "bpred/trainer.hh"
#include "support/rng.hh"
#include "workloads/branch_workloads.hh"

namespace autofsm
{
namespace
{

TEST(SudCounterTest, TwoBitSemantics)
{
    SudCounter counter(SudConfig::twoBit(), 0);
    EXPECT_FALSE(counter.predict());
    counter.update(true);
    counter.update(true);
    EXPECT_TRUE(counter.predict());
    counter.update(true);
    counter.update(true);
    EXPECT_EQ(counter.value(), 3); // saturates
    counter.update(false);
    EXPECT_TRUE(counter.predict()); // hysteresis
    counter.update(false);
    EXPECT_FALSE(counter.predict());
    counter.update(false);
    EXPECT_EQ(counter.value(), 0); // floors
}

TEST(SudCounterTest, ResettingCounterClearsOnMiss)
{
    SudCounter counter(SudConfig::resetting(10, 8), 0);
    for (int i = 0; i < 9; ++i)
        counter.update(true);
    EXPECT_TRUE(counter.predict());
    counter.update(false);
    EXPECT_EQ(counter.value(), 0);
    EXPECT_FALSE(counter.predict());
}

TEST(SudCounterTest, AsymmetricPenalty)
{
    SudConfig config{20, 1, 5, 16};
    SudCounter counter(config, 20);
    EXPECT_TRUE(counter.predict());
    counter.update(false);
    EXPECT_EQ(counter.value(), 15);
    EXPECT_FALSE(counter.predict());
}

TEST(XScaleBtbTest, MissPredictsNotTaken)
{
    XScaleBtb btb;
    EXPECT_FALSE(btb.predict(0x1234));
    EXPECT_FALSE(btb.hit(0x1234));
}

TEST(XScaleBtbTest, LearnsBias)
{
    XScaleBtb btb;
    const uint64_t pc = 0x4000;
    for (int i = 0; i < 4; ++i)
        btb.update(pc, true);
    EXPECT_TRUE(btb.hit(pc));
    EXPECT_TRUE(btb.predict(pc));
    for (int i = 0; i < 4; ++i)
        btb.update(pc, false);
    EXPECT_FALSE(btb.predict(pc));
}

TEST(XScaleBtbTest, ConflictEviction)
{
    BtbConfig config;
    config.entries = 4; // tiny, forces conflicts
    XScaleBtb btb(config);
    const uint64_t pc_a = 0x1000;
    const uint64_t pc_b = pc_a + 4 * 4; // same index, different tag
    for (int i = 0; i < 3; ++i)
        btb.update(pc_a, true);
    EXPECT_TRUE(btb.predict(pc_a));
    btb.update(pc_b, true); // evicts pc_a
    EXPECT_FALSE(btb.hit(pc_a));
    EXPECT_FALSE(btb.predict(pc_a));
}

TEST(XScaleBtbTest, AreaMatchesGeometry)
{
    BtbConfig config;
    AreaCosts costs;
    XScaleBtb btb(config, costs);
    const double expected =
        (config.tagBits + config.targetBits + 2) * config.entries *
        costs.sramBit;
    EXPECT_DOUBLE_EQ(btb.area(), expected);
}

// predict() is const and tallies through atomics, so one trained BTB
// may be shared by concurrent readers; the tallies must come out exact
// (the sanitizer CI job runs this under TSan).
TEST(XScaleBtbTest, SharedConstPredictTalliesExactly)
{
    XScaleBtb trained;
    const uint64_t hit_pc = 0x4000;  // entry 0, trained taken
    const uint64_t miss_pc = 0x8004; // entry 1, never allocated
    trained.update(hit_pc, true);
    trained.update(hit_pc, true);
    const XScaleBtb &btb = trained;

    constexpr uint64_t kPerThread = 200000;
    uint64_t wrong[2] = {0, 0};
    // Both readers spin on one start flag so their loops overlap.
    std::atomic<bool> go{false};
    const auto reader = [&btb, &wrong, &go, hit_pc, miss_pc](int t) {
        while (!go.load())
            std::this_thread::yield();
        for (uint64_t i = 0; i < kPerThread; ++i) {
            wrong[t] += !btb.predict(hit_pc);
            wrong[t] += btb.predict(miss_pc);
        }
    };
    std::thread a(reader, 0);
    std::thread b(reader, 1);
    go.store(true);
    a.join();
    b.join();

    EXPECT_EQ(wrong[0] + wrong[1], 0u);
    EXPECT_EQ(btb.lookups(), 4 * kPerThread);
    EXPECT_EQ(btb.hits(), 2 * kPerThread);
}

TEST(GshareTest, LearnsGlobalCorrelation)
{
    // Branch B is taken iff the previous branch was taken: gshare must
    // get B nearly perfect; a bimodal BTB sees a 50/50 coin.
    Gshare gshare(GshareConfig{10, 10, 0.0});
    XScaleBtb btb;
    Rng rng(5);

    uint64_t gshare_wrong = 0, btb_wrong = 0, executions = 0;
    bool prev = false;
    for (int i = 0; i < 20000; ++i) {
        const bool a_taken = rng.chance(0.5);
        gshare.update(0x100, a_taken);
        btb.update(0x100, a_taken);

        const bool b_taken = a_taken;
        ++executions;
        gshare_wrong += gshare.predict(0x200) != b_taken;
        btb_wrong += btb.predict(0x200) != b_taken;
        gshare.update(0x200, b_taken);
        btb.update(0x200, b_taken);
        prev = b_taken;
    }
    (void)prev;
    EXPECT_LT(static_cast<double>(gshare_wrong) / executions, 0.05);
    EXPECT_GT(static_cast<double>(btb_wrong) / executions, 0.30);
}

TEST(GshareTest, AreaGrowsWithTable)
{
    const Gshare small(GshareConfig{10, 10});
    const Gshare large(GshareConfig{14, 14});
    EXPECT_LT(small.area(), large.area());
}

TEST(LgcTest, LearnsLocalPattern)
{
    // Period-4 local pattern on one branch, interleaved with random
    // branches that pollute global history: the local side must win.
    LocalGlobalChooser lgc(LgcConfig{10});
    Rng rng(9);
    const int pattern[4] = {1, 1, 0, 1};
    uint64_t wrong = 0, executions = 0;
    int pos = 0;
    for (int i = 0; i < 40000; ++i) {
        // Noise branch.
        lgc.update(0x900, rng.chance(0.5));
        // Patterned branch.
        const bool taken = pattern[pos] != 0;
        pos = (pos + 1) % 4;
        if (i > 2000) {
            ++executions;
            wrong += lgc.predict(0x500) != taken;
        }
        lgc.update(0x500, taken);
    }
    EXPECT_LT(static_cast<double>(wrong) / executions, 0.05);
}

// Local histories are stored as uint16, so the class refuses larger
// geometries instead of silently truncating them.
TEST(LgcTest, RejectsOversizedGeometry)
{
    LgcConfig config;
    config.log2Entries = 17;
    EXPECT_THROW(LocalGlobalChooser{config}, std::length_error);
    config.log2Entries = 16;
    EXPECT_NO_THROW(LocalGlobalChooser{config});
}

TEST(LgcTest, AreaIncludesAllStructures)
{
    AreaCosts costs;
    LgcConfig config{10, 0.0};
    LocalGlobalChooser lgc(config, costs);
    const double n = 1 << 10;
    EXPECT_DOUBLE_EQ(lgc.area(), (n * 10 + 6 * n) * costs.sramBit);
}

/**
 * Random trace over 640 static branches with per-branch biases: wide
 * enough that every geometry under test aliases (BTB tag conflicts
 * included) and the counters visit every state.
 */
BranchTrace
randomTrace(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> bias(640);
    for (double &b : bias)
        b = rng.uniform();
    BranchTrace trace;
    trace.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        const uint64_t b = rng.below(bias.size());
        // Scatter high bits so branches sharing an index differ in tag.
        const uint64_t pc = 0x10000 + 4 * b + ((b * 0x9e37) << 12);
        trace.push_back({pc, rng.chance(bias[b])});
    }
    return trace;
}

/**
 * Drive @p config's production class @p P two ways - the virtual
 * predict+update API and the fused step - alongside its SudCounter
 * reference @p R over @p trace, and require every decision, the
 * mispredict totals, name(), area() and (BTB) the lookup/hit tallies
 * to agree.
 */
template <class P, class R, class Config>
void
expectMatchesReference(const Config &config, const BranchTrace &trace,
                       const std::string &context)
{
    const AreaCosts costs;
    R reference(config, costs);
    P virt(config, costs);
    P fused(config, costs);
    BranchPredictor &api = virt;

    constexpr size_t kNone = std::numeric_limits<size_t>::max();
    size_t first_virtual_divergence = kNone;
    size_t first_step_divergence = kNone;
    uint64_t reference_misses = 0, virtual_misses = 0, step_misses = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
        const BranchRecord &record = trace[i];
        const bool reference_wrong =
            reference.predict(record.pc) != record.taken;
        const bool virtual_wrong = api.predict(record.pc) != record.taken;
        const bool step_wrong = fused.step(record.pc, record.taken);
        reference.update(record.pc, record.taken);
        api.update(record.pc, record.taken);
        if (virtual_wrong != reference_wrong &&
            first_virtual_divergence == kNone)
            first_virtual_divergence = i;
        if (step_wrong != reference_wrong && first_step_divergence == kNone)
            first_step_divergence = i;
        reference_misses += reference_wrong;
        virtual_misses += virtual_wrong;
        step_misses += step_wrong;
    }

    EXPECT_EQ(first_virtual_divergence, kNone) << context;
    EXPECT_EQ(first_step_divergence, kNone) << context;
    EXPECT_EQ(virtual_misses, reference_misses) << context;
    EXPECT_EQ(step_misses, reference_misses) << context;
    EXPECT_EQ(virt.name(), reference.name()) << context;
    EXPECT_EQ(virt.area(), reference.area()) << context;
    if constexpr (std::is_same_v<P, XScaleBtb>) {
        EXPECT_EQ(virt.lookups(), reference.lookups()) << context;
        EXPECT_EQ(virt.hits(), reference.hits()) << context;
        EXPECT_EQ(fused.lookups(), reference.lookups()) << context;
        EXPECT_EQ(fused.hits(), reference.hits()) << context;
    }
}

/** Every geometry under test, for every production class. */
void
expectAllMatchReference(const BranchTrace &trace, const std::string &context)
{
    BtbConfig tiny;
    tiny.entries = 4;
    tiny.tagBits = 5;
    BtbConfig large;
    large.entries = 1024;
    for (const BtbConfig &config : {BtbConfig{}, tiny, large}) {
        expectMatchesReference<XScaleBtb, reference::XScaleBtb>(
            config, trace,
            context + " btb" + std::to_string(config.entries));
    }
    for (const GshareConfig &config :
         {GshareConfig{8, 8}, GshareConfig{12, 12}, GshareConfig{12, 4},
          GshareConfig{16, 16}}) {
        expectMatchesReference<Gshare, reference::Gshare>(
            config, trace,
            context + " gshare" + std::to_string(config.log2Entries) +
                "/" + std::to_string(config.historyBits));
    }
    for (int log2 : {1, 8, 10, 13, 16}) {
        expectMatchesReference<LocalGlobalChooser,
                               reference::LocalGlobalChooser>(
            LgcConfig{log2}, trace, context + " lgc" + std::to_string(log2));
    }
}

// Trace lengths around the 64-record word boundary plus one long one.
TEST(ReferencePredictorTest, RandomTracesMatchReference)
{
    for (size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                     size_t{65}, size_t{12345}}) {
        expectAllMatchReference(randomTrace(n, 0x5eed + n),
                                "random n=" + std::to_string(n));
    }
}

TEST(ReferencePredictorTest, BenchmarkTracesMatchReference)
{
    for (const std::string &name : branchBenchmarkNames()) {
        expectAllMatchReference(
            makeBranchTrace(name, WorkloadInput::Test, 20000), name);
    }
}

TEST(CustomPredictorTest, CustomEntryOverridesBtb)
{
    CustomBranchPredictor custom;
    custom.addCustomEntry(0x100, Dfa::constant(1));
    EXPECT_TRUE(custom.isCustom(0x100));
    EXPECT_FALSE(custom.isCustom(0x104));
    // BTB would say not-taken (miss); the custom FSM says taken.
    EXPECT_TRUE(custom.predict(0x100));
    EXPECT_FALSE(custom.predict(0x104));
}

TEST(CustomPredictorTest, FsmUpdatesOnEveryBranch)
{
    // FSM predicting "last outcome", attached to branch A. Branch B's
    // outcomes must also step it (Section 7.3 update-all semantics).
    Dfa dfa;
    const int s0 = dfa.addState(0);
    const int s1 = dfa.addState(1);
    dfa.setEdge(s0, 0, s0);
    dfa.setEdge(s0, 1, s1);
    dfa.setEdge(s1, 0, s0);
    dfa.setEdge(s1, 1, s1);
    dfa.setStart(s0);

    CustomBranchPredictor custom;
    custom.addCustomEntry(0xA00, dfa);
    EXPECT_FALSE(custom.predict(0xA00));
    custom.update(0xB00, true); // different branch
    EXPECT_TRUE(custom.predict(0xA00));
    custom.update(0xC00, false);
    EXPECT_FALSE(custom.predict(0xA00));
}

TEST(CustomPredictorTest, AreaAddsPerEntry)
{
    LineFit line;
    line.slope = 2.0;
    line.intercept = 10.0;
    AreaCosts costs;
    CustomBranchPredictor custom({}, {}, line, costs);
    const double base = custom.area();
    custom.addCustomEntry(0x100, Dfa::constant(1)); // 1 state
    const CustomEntryConfig entry;
    const double expected = base + entry.tagBits * costs.camBit +
        entry.targetBits * costs.sramBit + (2.0 * 1 + 10.0);
    EXPECT_DOUBLE_EQ(custom.area(), expected);
}

TEST(SimulateTest, CountsMispredicts)
{
    // Always-not-taken BTB vs an all-taken toy trace.
    XScaleBtb btb;
    BranchTrace trace;
    for (int i = 0; i < 10; ++i)
        trace.push_back({0x50, true});
    const BpredSimResult result = simulateBranchPredictor(btb, trace);
    EXPECT_EQ(result.branches, 10u);
    // First prediction misses (BTB empty), then the counter locks on.
    EXPECT_LT(result.mispredicts, 3u);
    EXPECT_GT(result.mispredicts, 0u);
}

TEST(SimulateTest, PerBranchBreakdown)
{
    XScaleBtb btb;
    BranchTrace trace;
    for (int i = 0; i < 50; ++i) {
        trace.push_back({0x50, true});
        trace.push_back({0x60, i % 2 == 0}); // alternating: hard
    }
    std::unordered_map<uint64_t, uint64_t> per_branch;
    simulateBranchPredictor(btb, trace, per_branch);
    EXPECT_GT(per_branch[0x60], per_branch[0x50]);
}

TEST(TrainerTest, ProfilesWorstBranchFirst)
{
    const BranchTrace trace =
        makeBranchTrace("vortex", WorkloadInput::Train, 30000);
    const auto ranked = profileBaselineMisses(trace);
    ASSERT_GE(ranked.size(), 2u);
    EXPECT_GE(ranked[0].second, ranked[1].second);
}

TEST(TrainerTest, TrainsRequestedCount)
{
    const BranchTrace trace =
        makeBranchTrace("ijpeg", WorkloadInput::Train, 30000);
    CustomTrainingOptions options;
    options.maxCustomBranches = 3;
    options.historyLength = 6;
    const auto trained = trainCustomPredictors(trace, options);
    ASSERT_EQ(trained.size(), 3u);
    for (const auto &branch : trained) {
        EXPECT_GT(branch.design.statesFinal, 0);
        EXPECT_GT(branch.baselineMisses, 0u);
    }
    EXPECT_GE(trained[0].baselineMisses, trained[1].baselineMisses);
}

TEST(TrainerTest, CustomFsmBeatsBaselineOnCorrelatedBranch)
{
    // End-to-end: on the vortex model (globally-correlated branches),
    // the customized architecture must cut the misprediction rate well
    // below the XScale baseline.
    const BranchTrace train =
        makeBranchTrace("vortex", WorkloadInput::Train, 40000);
    const BranchTrace test =
        makeBranchTrace("vortex", WorkloadInput::Test, 40000);

    CustomTrainingOptions options;
    options.maxCustomBranches = 8;
    const auto trained = trainCustomPredictors(train, options);

    XScaleBtb baseline;
    const double base_rate =
        simulateBranchPredictor(baseline, test).missRate();

    CustomBranchPredictor custom;
    for (const auto &branch : trained)
        custom.addCustomEntry(branch.pc, branch.design.fsm);
    const double custom_rate =
        simulateBranchPredictor(custom, test).missRate();

    EXPECT_LT(custom_rate, base_rate * 0.6)
        << "baseline " << base_rate << " custom " << custom_rate;
}

} // anonymous namespace
} // namespace autofsm
