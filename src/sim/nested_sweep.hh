/**
 * @file
 * The Figure 5 size sweep: every gshare and LGC baseline point over one
 * packed trace.
 *
 * Each family is stepped by sweepKernelBatch (sim/sweep.hh): the trace
 * is read once per pass while the pass's predictor instances step side
 * by side. With one thread each family is one pass, run inline. With T
 * threads each family splits into min(T, family size) contiguous
 * sub-batches, one pass and one parallel task each, so threads beyond
 * two still shorten the sweep.
 *
 * Every point's decisions, tallies, name and area equal a standalone
 * run of the predictor class (sweep_test holds them to the SudCounter
 * reference predictors of tests/reference_predictors.hh).
 */

#ifndef AUTOFSM_SIM_NESTED_SWEEP_HH
#define AUTOFSM_SIM_NESTED_SWEEP_HH

#include <cstddef>
#include <string>
#include <vector>

#include "bpred/gshare.hh"
#include "bpred/local_global.hh"
#include "bpred/simulate.hh"
#include "sim/packed_trace.hh"
#include "synth/area.hh"

namespace autofsm
{

/** The size families one sweep services. Either family may be empty;
 *  points are returned in the order given here. */
struct NestedSweepRequest
{
    std::vector<GshareConfig> gshare;
    std::vector<LgcConfig> lgc;
};

/** Sweep knobs. */
struct NestedSweepOptions
{
    /** Worker threads (0 = one per hardware core; 1 = inline serial).
     *  Also the number of sub-batches each family splits into. */
    unsigned threads = 0;
    /** Ignored by the sweep; kept so existing callers that set it
     *  still compile. */
    size_t shards = 0;
};

/** One evaluated sweep point (same name/area as the predictor class). */
struct NestedSweepPoint
{
    std::string name;
    double area = 0.0;
    BpredSimResult result;
};

/** Facts about one sweep, for benches and tests. */
struct NestedSweepStats
{
    /** Sweep points serviced by this call (all families). */
    size_t pointsPerPass = 0;
};

/** The request's points, evaluated; per-family vectors parallel the
 *  request's config vectors. */
struct NestedSweepResult
{
    std::vector<NestedSweepPoint> gshare;
    std::vector<NestedSweepPoint> lgc;
    NestedSweepStats stats;
};

/**
 * Evaluate every requested sweep point over @p trace, one
 * sweepKernelBatch pass per sub-batch. Publishes the same per-run
 * telemetry as per-config sweepKernel runs (publishBpredRun per point)
 * plus one autofsm_sweep_point_millis observation per pass.
 * Results do not depend on @p options.
 *
 * @throws std::length_error like LocalGlobalChooser for LGC
 *         log2Entries outside [1, 16], before any point is evaluated.
 */
NestedSweepResult nestedSweep(const NestedSweepRequest &request,
                              const PackedTrace &trace,
                              const AreaCosts &costs = {},
                              const NestedSweepOptions &options = {});

} // namespace autofsm

#endif // AUTOFSM_SIM_NESTED_SWEEP_HH
