/**
 * @file
 * Regenerates Figure 2: value-prediction confidence accuracy vs
 * coverage for the five value benchmarks - the saturating up/down
 * counter sweep against cross-trained custom FSM curves of history
 * length 2-10.
 *
 * Usage: bench_fig2_confidence [loads_per_benchmark]
 */

#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "sim/figure2.hh"
#include "sim/report.hh"

#include "bench_common.hh"

using namespace autofsm;

namespace
{

/** Best SUD coverage at accuracy >= target (the comparison the paper
 *  makes at 80% accuracy for gcc). */
double
bestCoverageAt(const std::vector<ParetoPoint> &points, double accuracy)
{
    double best = 0.0;
    for (const auto &point : points) {
        if (point.accuracy >= accuracy)
            best = std::max(best, point.coverage);
    }
    return best;
}

double
bestCoverageAt(const std::vector<ParetoSeries> &series, double accuracy)
{
    double best = 0.0;
    for (const auto &s : series)
        best = std::max(best, bestCoverageAt(s.points, accuracy));
    return best;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto args = bench::parseBenchArgs(argc, argv, "[loads_per_benchmark]");
    Fig2Options options;
    options.loadsPerBenchmark = static_cast<size_t>(args.positionalOr(
        0, static_cast<long>(options.loadsPerBenchmark)));

    std::cout << "Reproduction of Figure 2 (Sherwood & Calder, ISCA'01)\n"
              << "loads per benchmark: " << options.loadsPerBenchmark
              << ", cross-trained (leave-one-out)\n\n";

    for (const Fig2Benchmark &result : runFigure2All(options)) {
        const std::string &name = result.name;
        printFig2(std::cout, result);

        std::cout << std::fixed << std::setprecision(1);
        for (double target : {0.7, 0.8, 0.9}) {
            const double sud = bestCoverageAt(result.sudPoints, target);
            const double fsm = bestCoverageAt(result.fsmCurves, target);
            std::cout << "summary[" << name << "] @" << target * 100.0
                      << "% accuracy: best sud coverage "
                      << sud * 100.0 << "%, best custom-FSM coverage "
                      << fsm * 100.0 << "%\n";
        }
        std::cout << "\n";
    }
    bench::exportMetricsIfRequested(args);
    return 0;
}
