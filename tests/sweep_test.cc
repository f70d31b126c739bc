/**
 * @file
 * Sweep-engine tests: the packed trace round-trips, the sweep kernels
 * and the transposed custom replay are bit-identical to the per-record
 * virtual predict/update path, the Figure 5 size sweep matches the
 * SudCounter reference predictors, parallel sweeps match serial ones,
 * and the process-wide trace cache is safe under concurrent access.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "reference_predictors.hh"

#include "bpred/btb.hh"
#include "bpred/gshare.hh"
#include "bpred/local_global.hh"
#include "bpred/simulate.hh"
#include "bpred/trainer.hh"
#include "fsmgen/predictor_fsm.hh"
#include "sim/figure5.hh"
#include "sim/nested_sweep.hh"
#include "sim/packed_trace.hh"
#include "sim/sweep.hh"
#include "workloads/trace_cache.hh"

namespace autofsm
{
namespace
{

constexpr size_t kBranches = 20000;

TEST(PackedTraceTest, RoundTripsEveryRecord)
{
    const BranchTrace trace =
        makeBranchTrace("gsm", WorkloadInput::Train, kBranches);
    const PackedTrace packed(trace);

    ASSERT_EQ(packed.size(), trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(packed.pc(i), trace[i].pc);
        EXPECT_EQ(packed.taken(i), trace[i].taken);
    }
}

TEST(SweepKernelTest, GoldenMatchAgainstVirtualSimulation)
{
    for (const std::string &name : branchBenchmarkNames()) {
        const BranchTrace trace =
            makeBranchTrace(name, WorkloadInput::Test, kBranches);
        const PackedTrace packed(trace);

        {
            XScaleBtb seed, sweep;
            const BpredSimResult a = simulateBranchPredictor(seed, trace);
            const BpredSimResult b = sweepKernel(sweep, packed);
            EXPECT_EQ(a.branches, b.branches) << name;
            EXPECT_EQ(a.mispredicts, b.mispredicts) << name;
        }
        {
            Gshare seed, sweep;
            const BpredSimResult a = simulateBranchPredictor(seed, trace);
            const BpredSimResult b = sweepKernel(sweep, packed);
            EXPECT_EQ(a.mispredicts, b.mispredicts) << name;
        }
        {
            LocalGlobalChooser seed, sweep;
            const BpredSimResult a = simulateBranchPredictor(seed, trace);
            const BpredSimResult b = sweepKernel(sweep, packed);
            EXPECT_EQ(a.mispredicts, b.mispredicts) << name;
        }
    }
}

TEST(SweepKernelTest, BatchMatchesIndividualRuns)
{
    const BranchTrace trace =
        makeBranchTrace("vortex", WorkloadInput::Test, kBranches);
    const PackedTrace packed(trace);

    std::vector<int> sizes = {8, 10, 12};
    std::vector<Gshare> batch;
    for (int log2 : sizes) {
        GshareConfig config;
        config.log2Entries = log2;
        config.historyBits = log2;
        batch.emplace_back(config);
    }
    const std::vector<BpredSimResult> rs = sweepKernelBatch(batch, packed);
    ASSERT_EQ(rs.size(), sizes.size());

    for (size_t i = 0; i < sizes.size(); ++i) {
        GshareConfig config;
        config.log2Entries = sizes[i];
        config.historyBits = sizes[i];
        Gshare lone(config);
        const BpredSimResult r = sweepKernel(lone, packed);
        EXPECT_EQ(rs[i].branches, r.branches);
        EXPECT_EQ(rs[i].mispredicts, r.mispredicts);
    }
}

TEST(CustomReplayTest, MatchesDirectMachineStepping)
{
    const BranchTrace train =
        makeBranchTrace("ijpeg", WorkloadInput::Train, kBranches);
    CustomTrainingOptions options;
    options.maxCustomBranches = 4;
    const std::vector<TrainedBranch> trained =
        trainCustomPredictors(train, options);
    ASSERT_FALSE(trained.empty());

    // Reference: the seed loop stepping every machine on every record.
    const BtbConfig btb_config;
    const AreaCosts costs;
    XScaleBtb btb(btb_config, costs);
    std::vector<PredictorFsm> machines;
    std::unordered_map<uint64_t, size_t> machine_of;
    for (size_t i = 0; i < trained.size(); ++i) {
        machines.emplace_back(trained[i].design.fsm);
        machine_of.emplace(trained[i].pc, i);
    }
    uint64_t btb_misses_total = 0;
    std::vector<uint64_t> btb_misses(trained.size(), 0);
    std::vector<uint64_t> fsm_misses(trained.size(), 0);
    for (const auto &record : train) {
        const bool wrong = btb.predict(record.pc) != record.taken;
        btb_misses_total += wrong;
        const auto it = machine_of.find(record.pc);
        if (it != machine_of.end()) {
            btb_misses[it->second] += wrong;
            fsm_misses[it->second] +=
                (machines[it->second].predict() != 0) != record.taken;
        }
        btb.update(record.pc, record.taken);
        for (auto &machine : machines)
            machine.update(record.taken ? 1 : 0);
    }

    std::vector<CustomSweepMachine> sweep_machines;
    for (const auto &branch : trained)
        sweep_machines.push_back({branch.pc, &branch.design.fsm});
    const PackedTrace packed(train);
    const CustomReplayCounts counts = replayCustomMachines(
        sweep_machines, packed, btb_config, costs, 1);

    EXPECT_EQ(counts.btbMissesTotal, btb_misses_total);
    EXPECT_EQ(counts.btbMisses, btb_misses);
    EXPECT_EQ(counts.fsmMisses, fsm_misses);
    EXPECT_EQ(counts.btbArea, btb.area());
}

// The training pass records the baseline tallies and branch positions
// the custom-same replay needs; driving the replay from that profile
// must yield exactly what re-simulating the baseline BTB would.
TEST(CustomReplayTest, ProfileDrivenReplayMatchesBtbPass)
{
    const BranchTrace train =
        makeBranchTrace("gsm", WorkloadInput::Train, kBranches);
    CustomTrainingOptions options;
    options.maxCustomBranches = 4;
    BaselineBtbProfile profile;
    const std::vector<TrainedBranch> trained =
        trainCustomPredictors(train, options, &profile);
    ASSERT_FALSE(trained.empty());
    ASSERT_TRUE(profile.valid);

    std::vector<CustomSweepMachine> machines;
    for (const auto &branch : trained)
        machines.push_back({branch.pc, &branch.design.fsm});
    const PackedTrace packed(train);

    const AreaCosts costs;
    const CustomReplayCounts from_pass = replayCustomMachines(
        machines, packed, options.baseline, costs, 1);

    CustomBaselineProfile baseline;
    baseline.btbMissesTotal = profile.mispredicts;
    baseline.btbLookups = profile.lookups;
    baseline.btbHits = profile.hits;
    baseline.btbArea = profile.area;
    baseline.btbName = profile.name;
    for (const auto &branch : trained) {
        baseline.btbMisses.push_back(branch.baselineMisses);
        baseline.positions.push_back(&branch.trainPositions);
    }
    const CustomReplayCounts from_profile =
        replayCustomMachines(machines, packed, baseline, 1);

    EXPECT_EQ(from_pass.btbMissesTotal, from_profile.btbMissesTotal);
    EXPECT_EQ(from_pass.btbMisses, from_profile.btbMisses);
    EXPECT_EQ(from_pass.fsmMisses, from_profile.fsmMisses);
    EXPECT_EQ(from_pass.btbArea, from_profile.btbArea);
    EXPECT_EQ(from_pass.btbName, from_profile.btbName);
    EXPECT_EQ(from_pass.btbLookups, from_profile.btbLookups);
    EXPECT_EQ(from_pass.btbHits, from_profile.btbHits);
}

/** Series must agree bit for bit, label for label. */
void
expectSeriesIdentical(const AreaMissSeries &a, const AreaMissSeries &b)
{
    EXPECT_EQ(a.label, b.label);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].area, b.points[i].area);
        EXPECT_EQ(a.points[i].missRate, b.points[i].missRate);
        EXPECT_EQ(a.points[i].label, b.points[i].label);
    }
}

// TSan covers this test in CI: the parallel run exercises concurrent
// sweep points and custom replays over the shared packed trace.
TEST(SweepParallelTest, ParallelSweepMatchesSerial)
{
    const BranchTrace train =
        makeBranchTrace("g721", WorkloadInput::Train, kBranches);
    const BranchTrace test =
        makeBranchTrace("g721", WorkloadInput::Test, kBranches);

    Fig5Options options;
    options.branchesPerRun = kBranches;
    options.gshareLog2 = {8, 12};
    options.lgcLog2 = {8, 12};
    options.training.maxCustomBranches = 4;
    BaselineBtbProfile profile;
    const std::vector<TrainedBranch> trained =
        trainCustomPredictors(train, options.training, &profile);

    options.sweepThreads = 1;
    const Fig5Benchmark serial =
        evaluateFigure5("g721", train, test, trained, options);
    options.sweepThreads = 4;
    const Fig5Benchmark parallel =
        evaluateFigure5("g721", train, test, trained, options);

    EXPECT_EQ(serial.xscale.area, parallel.xscale.area);
    EXPECT_EQ(serial.xscale.missRate, parallel.xscale.missRate);
    expectSeriesIdentical(serial.gshare, parallel.gshare);
    expectSeriesIdentical(serial.lgc, parallel.lgc);
    expectSeriesIdentical(serial.customSame, parallel.customSame);
    expectSeriesIdentical(serial.customDiff, parallel.customDiff);

    // The profile-driven custom-same path must not change anything
    // either (parallel + profile is what runFigure5 actually runs).
    const Fig5Benchmark profiled =
        evaluateFigure5("g721", PackedTrace(train), PackedTrace(test),
                        trained, options, &profile);
    EXPECT_EQ(serial.xscale.area, profiled.xscale.area);
    EXPECT_EQ(serial.xscale.missRate, profiled.xscale.missRate);
    expectSeriesIdentical(serial.customSame, profiled.customSame);
    expectSeriesIdentical(serial.customDiff, profiled.customDiff);
}

TEST(TraceCacheTest, ConcurrentCallersShareOneBuild)
{
    clearBranchTraceCache();

    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const BranchTrace>> got(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&got, t] {
            got[static_cast<size_t>(t)] =
                cachedBranchTrace("gs", WorkloadInput::Train, kBranches);
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[static_cast<size_t>(t)], got[0]);
    ASSERT_NE(got[0], nullptr);
    EXPECT_EQ(got[0]->size(),
              makeBranchTrace("gs", WorkloadInput::Train, kBranches).size());

    const BranchTraceCacheStats stats = branchTraceCacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.cachedBranches, got[0]->size());

    // Distinct keys are distinct entries; repeats hit.
    const auto test_input =
        cachedBranchTrace("gs", WorkloadInput::Test, kBranches);
    EXPECT_NE(test_input, got[0]);
    const auto again =
        cachedBranchTrace("gs", WorkloadInput::Train, kBranches);
    EXPECT_EQ(again, got[0]);
    EXPECT_EQ(branchTraceCacheStats().misses, 2u);

    clearBranchTraceCache();
    EXPECT_EQ(branchTraceCacheStats().entries, 0u);
}

TEST(TraceCacheTest, LruCapEvictsColdestCompletedEntry)
{
    clearBranchTraceCache();
    const size_t previous = setBranchTraceCacheCapacity(2);

    const auto a = cachedBranchTrace("gs", WorkloadInput::Train, 2000);
    const auto b = cachedBranchTrace("gs", WorkloadInput::Test, 2000);
    // Touch 'a' so 'b' is the LRU victim when 'c' lands.
    cachedBranchTrace("gs", WorkloadInput::Train, 2000);
    const auto c = cachedBranchTrace("gsm", WorkloadInput::Train, 2000);
    (void)c;

    BranchTraceCacheStats stats = branchTraceCacheStats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.capacity, 2u);

    // 'a' survived (it was touched); re-requesting it hits...
    const uint64_t hits_before = branchTraceCacheStats().hits;
    const auto a2 = cachedBranchTrace("gs", WorkloadInput::Train, 2000);
    EXPECT_EQ(a2, a);
    EXPECT_EQ(branchTraceCacheStats().hits, hits_before + 1);
    // ...while the evicted 'b' rebuilds (a fresh allocation; the old
    // shared_ptr stays valid).
    const auto b2 = cachedBranchTrace("gs", WorkloadInput::Test, 2000);
    EXPECT_NE(b2, b);
    EXPECT_EQ(b2->size(), b->size());

    setBranchTraceCacheCapacity(previous);
    clearBranchTraceCache();
}

TEST(PackedTraceCacheTest, LruCapEvictsColdestPacking)
{
    clearPackedTraceCache();
    const size_t previous = setPackedTraceCacheCapacity(2);

    auto trace = [](uint64_t seed) {
        auto t = std::make_shared<BranchTrace>();
        for (int i = 0; i < 100; ++i)
            t->push_back({seed * 1000 + static_cast<uint64_t>(i % 7) * 4,
                          i % 3 == 0});
        return std::shared_ptr<const BranchTrace>(std::move(t));
    };
    const auto t1 = trace(1);
    const auto t2 = trace(2);
    const auto t3 = trace(3);

    const auto p1 = cachedPackedTrace(t1);
    const auto p2 = cachedPackedTrace(t2);
    cachedPackedTrace(t1); // touch t1: t2 becomes the victim
    const auto p3 = cachedPackedTrace(t3);
    (void)p3;

    PackedTraceCacheStats stats = packedTraceCacheStats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.capacity, 2u);

    EXPECT_EQ(cachedPackedTrace(t1), p1);
    const auto p2_again = cachedPackedTrace(t2);
    EXPECT_NE(p2_again, p2); // rebuilt after eviction
    EXPECT_EQ(p2_again->size(), p2->size());

    setPackedTraceCacheCapacity(previous);
    clearPackedTraceCache();
}

/** The Figure-5 gshare and LGC size sweeps. */
NestedSweepRequest
figure5Request()
{
    NestedSweepRequest request;
    for (int log2 : {8, 10, 12, 14, 16}) {
        GshareConfig config;
        config.log2Entries = log2;
        config.historyBits = std::min(log2, 16);
        request.gshare.push_back(config);
    }
    for (int log2 : {8, 10, 12, 13}) {
        LgcConfig config;
        config.log2Entries = log2;
        request.lgc.push_back(config);
    }
    return request;
}

/**
 * Every sweep point must match the SudCounter reference predictor of
 * its config (tests/reference_predictors.hh), driven record by record
 * through predict/update: mispredicts, names and areas.
 */
void
expectSweepMatchesReference(const NestedSweepRequest &request,
                            const BranchTrace &trace,
                            const NestedSweepOptions &options,
                            const std::string &context)
{
    const AreaCosts costs;
    const NestedSweepResult swept =
        nestedSweep(request, PackedTrace(trace), costs, options);
    EXPECT_EQ(swept.stats.pointsPerPass,
              request.gshare.size() + request.lgc.size())
        << context;

    ASSERT_EQ(swept.gshare.size(), request.gshare.size()) << context;
    for (size_t i = 0; i < request.gshare.size(); ++i) {
        reference::Gshare gshare(request.gshare[i], costs);
        const BpredSimResult oracle = simulateBranchPredictor(gshare, trace);
        EXPECT_EQ(swept.gshare[i].result.branches, oracle.branches)
            << context << " gshare " << i;
        EXPECT_EQ(swept.gshare[i].result.mispredicts, oracle.mispredicts)
            << context << " gshare " << i;
        EXPECT_EQ(swept.gshare[i].name, gshare.name()) << context;
        EXPECT_EQ(swept.gshare[i].area, gshare.area()) << context;
    }
    ASSERT_EQ(swept.lgc.size(), request.lgc.size()) << context;
    for (size_t i = 0; i < request.lgc.size(); ++i) {
        reference::LocalGlobalChooser lgc(request.lgc[i], costs);
        const BpredSimResult oracle = simulateBranchPredictor(lgc, trace);
        EXPECT_EQ(swept.lgc[i].result.branches, oracle.branches)
            << context << " lgc " << i;
        EXPECT_EQ(swept.lgc[i].result.mispredicts, oracle.mispredicts)
            << context << " lgc " << i;
        EXPECT_EQ(swept.lgc[i].name, lgc.name()) << context;
        EXPECT_EQ(swept.lgc[i].area, lgc.area()) << context;
    }
}

/** Exactly @p n records of a benchmark trace. */
BranchTrace
traceOfLength(const std::string &name, size_t n)
{
    BranchTrace trace = makeBranchTrace(name, WorkloadInput::Test, n);
    trace.resize(std::min(trace.size(), n));
    return trace;
}

// Every Figure-5 size-sweep point, plus a gshare family whose history
// depths are unrelated to its table sizes; serial, split into uneven
// sub-batches (3 threads) and with more threads than points.
TEST(NestedSweepTest, MatchesReferencePredictors)
{
    NestedSweepRequest mixed_depths;
    GshareConfig shallow;
    shallow.log2Entries = 12;
    shallow.historyBits = 4;
    GshareConfig deep;
    deep.log2Entries = 12;
    deep.historyBits = 12;
    mixed_depths.gshare = {shallow, deep};

    const BranchTrace trace = traceOfLength("compress", kBranches);
    for (const auto &[label, request] :
         {std::pair{"figure5", figure5Request()},
          std::pair{"mixed history depths", mixed_depths}}) {
        for (unsigned threads : {1u, 3u, 12u}) {
            NestedSweepOptions options;
            options.threads = threads;
            expectSweepMatchesReference(request, trace, options,
                                        std::string(label) + " threads=" +
                                            std::to_string(threads));
        }
    }
}

// The empty trace, traces shorter than any history register, packed
// word-boundary straddlers and a count ending mid-word.
TEST(NestedSweepTest, ShortAndMidWordTracesMatchReference)
{
    for (size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{63},
                     size_t{64}, size_t{65}, size_t{130}, size_t{12345}}) {
        const BranchTrace trace = traceOfLength("gsm", n);
        ASSERT_EQ(trace.size(), n);
        for (unsigned threads : {1u, 3u}) {
            NestedSweepOptions options;
            options.threads = threads;
            expectSweepMatchesReference(
                figure5Request(), trace, options,
                "n=" + std::to_string(n) +
                    " threads=" + std::to_string(threads));
        }
    }
}

TEST(NestedSweepTest, EmptyRequestHasNoPoints)
{
    const NestedSweepResult none = nestedSweep(
        NestedSweepRequest{}, PackedTrace(traceOfLength("gs", kBranches)));
    EXPECT_TRUE(none.gshare.empty());
    EXPECT_TRUE(none.lgc.empty());
    EXPECT_EQ(none.stats.pointsPerPass, 0u);
}

TEST(NestedSweepTest, OversizedLgcThrowsLengthError)
{
    NestedSweepRequest request = figure5Request();
    LgcConfig oversized;
    oversized.log2Entries = 17;
    request.lgc.push_back(oversized);
    NestedSweepOptions options;
    options.threads = 3;
    EXPECT_THROW(nestedSweep(request,
                             PackedTrace(traceOfLength("gs", 1000)),
                             AreaCosts{}, options),
                 std::length_error);
}

} // anonymous namespace
} // namespace autofsm
