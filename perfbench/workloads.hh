/**
 * @file
 * The benchmark's workloads. Each one measures its end-to-end metrics
 * with tracing off (measure*) or, in a separate run, repeats the same
 * work through the layers' public functions with spans recorded here
 * and reports the per-layer metrics (trace*). Failed or incorrect
 * operations are counted in the Result.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <map>
#include <string>

#include "common.hh"

namespace perfbench
{

/** Per-layer values of one traced run, by metric name. */
struct LayerReport
{
    std::map<std::string, double> values;
    /** Traced jobs (figures) or traced requests (serve) behind them. */
    size_t samples = 0;
};

void measureFig5(const Args &args, Result &result);
LayerReport traceFig5(const Args &args, Result &result);

void measureFig2(const Args &args, Result &result);
LayerReport traceFig2(const Args &args, Result &result);

void measureServe(const Args &args, Result &result);
LayerReport traceServe(const Args &args, Result &result);

/** Print "figure5/<name> <digest>" and "figure2/<name> <digest>" lines
 *  of the real entry points' reports (regenerates golden.txt). */
void printFigureDigests(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
