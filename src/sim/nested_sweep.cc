#include "sim/nested_sweep.hh"

#include <algorithm>
#include <functional>

#include "sim/sweep.hh"
#include "support/thread_pool.hh"

namespace autofsm
{

namespace
{

/**
 * Build one family's predictors as up to @p parts near-equal contiguous
 * sub-batches, label its points from them (so names and areas cannot
 * drift from the predictor classes), and queue one sweepKernelBatch
 * pass per sub-batch on @p tasks.
 */
template <class P, class Config>
void
addFamily(const std::vector<Config> &configs, const AreaCosts &costs,
          size_t parts, const PackedTrace &trace,
          std::vector<NestedSweepPoint> &points,
          std::vector<std::function<void()>> &tasks)
{
    const size_t n = configs.size();
    parts = std::min(parts, n);
    points.resize(n);
    for (size_t b = 0; b < parts; ++b) {
        const size_t first = b * n / parts;
        const size_t end = (b + 1) * n / parts;
        std::vector<P> batch;
        batch.reserve(end - first);
        for (size_t j = first; j < end; ++j) {
            const P &predictor = batch.emplace_back(configs[j], costs);
            points[j].name = predictor.name();
            points[j].area = predictor.area();
        }
        tasks.emplace_back([&trace, &points, first,
                            batch = std::move(batch)]() mutable {
            SweepPointTimer timer;
            const std::vector<BpredSimResult> results =
                sweepKernelBatch(batch, trace);
            for (size_t j = 0; j < results.size(); ++j)
                points[first + j].result = results[j];
        });
    }
}

} // anonymous namespace

NestedSweepResult
nestedSweep(const NestedSweepRequest &request, const PackedTrace &trace,
            const AreaCosts &costs, const NestedSweepOptions &options)
{
    NestedSweepResult out;
    out.stats.pointsPerPass = request.gshare.size() + request.lgc.size();

    // Every constructor runs before any pass, so an oversized LGC
    // geometry raises LocalGlobalChooser's length_error up front.
    const unsigned threads =
        options.threads ? options.threads : ThreadPool::defaultThreadCount();
    std::vector<std::function<void()>> tasks;
    addFamily<Gshare>(request.gshare, costs, threads, trace, out.gshare,
                      tasks);
    addFamily<LocalGlobalChooser>(request.lgc, costs, threads, trace,
                                  out.lgc, tasks);
    parallelFor(
        tasks.size(), [&](size_t task) { tasks[task](); },
        static_cast<unsigned>(std::min<size_t>(threads, tasks.size())));
    // Each pass set the gauge to its own size; report the call.
    observeSweepPointsPerPass(out.stats.pointsPerPass);
    return out;
}

} // namespace autofsm
