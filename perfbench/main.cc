/**
 * @file
 * Entry point of the repository benchmark. run.py builds it and runs
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1 --threads T
 *             --golden perfbench/golden.txt [--source ID]
 *   perfbench --print-digests --golden perfbench/golden.txt --threads T
 *
 * --trace 0 measures the end-to-end metrics with tracing off; --trace 1
 * is the separate traced run that reports the per-layer metrics. The
 * last line of standard output is the JSON result. The exit code is 0
 * only when every operation succeeded and every output was correct.
 */

#include <algorithm>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

/** The end-to-end metrics of the JSON result (every workload). */
const std::vector<std::string> kEndToEnd = {
    "setup_s",        "job_s",          "cpu_s",         "peak_rss_mb",
    "latency_p50_ms", "latency_p90_ms", "throughput_rps",
};

/** The per-layer metrics of a traced run, with units. A layer a
 *  workload never calls reads 0 there. */
const std::pair<const char *, const char *> kPerLayer[] = {
    {"workloads.trace_gen_ms", "ms"},
    {"workloads.records", "count"},
    {"sim.pack_ms", "ms"},
    {"sim.sweep_ms", "ms"},
    {"sim.sweep_points", "count"},
    {"sim.replay_ms", "ms"},
    {"sim.replay_machines", "count"},
    {"bpred.profile_ms", "ms"},
    {"bpred.branches_selected", "count"},
    {"fsmgen.markov_ms", "ms"},
    {"fsmgen.patterns_ms", "ms"},
    {"logicmin.minimize_ms", "ms"},
    {"logicmin.cubes", "count"},
    {"automata.regex_ms", "ms"},
    {"automata.subset_ms", "ms"},
    {"automata.hopcroft_ms", "ms"},
    {"automata.reduce_ms", "ms"},
    {"automata.dfa_states_subset", "count"},
    {"automata.dfa_states_final", "count"},
    {"flow.design_ms", "ms"},
    {"flow.designs", "count"},
    {"flow.memo_hit_ratio", "ratio"},
    {"flow.dedup_hit_ratio", "ratio"},
    {"vpred.sud_sim_ms", "ms"},
    {"vpred.fsm_sim_ms", "ms"},
    {"vpred.collect_ms", "ms"},
    {"vpred.loads_simulated", "count"},
    {"serve.overhead_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"unattributed_ratio", "ratio"},
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--print-digests") {
            args.printDigests = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value after " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = std::stoi(value) != 0;
        else if (flag == "--threads")
            args.threads = static_cast<unsigned>(std::stoul(value));
        else if (flag == "--golden")
            args.golden = value;
        else if (flag == "--source")
            args.sourceId = value;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (args.threads == 0)
        throw std::invalid_argument("--threads must pin a thread count");
    if (args.golden.empty())
        throw std::invalid_argument("--golden is required");
    if (!args.printDigests && args.seconds <= 0.0)
        throw std::invalid_argument("--seconds must be positive");
    return args;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    const bool release = false;
#else
    const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#endif
    if (!release) {
        std::cerr << "perfbench: refusing to time a " << PERFBENCH_BUILD_TYPE
                  << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 3;
    }

    try {
        const Args args = parseArgs(argc, argv);
        if (args.printDigests) {
            printFigureDigests(args);
            return 0;
        }

        Result result;
        if (!args.trace) {
            if (args.workload == "fig5_branch")
                measureFig5(args, result);
            else if (args.workload == "fig2_confidence")
                measureFig2(args, result);
            else if (args.workload == "serve_mixed")
                measureServe(args, result);
            else
                throw std::invalid_argument("unknown workload " +
                                            args.workload);
            result.add("error_rate",
                       static_cast<double>(result.failed()) /
                           static_cast<double>(result.attempted()),
                       "ratio", result.attempted());
            result.print(args, kEndToEnd);
        } else {
            LayerReport report;
            if (args.workload == "fig5_branch")
                report = traceFig5(args, result);
            else if (args.workload == "fig2_confidence")
                report = traceFig2(args, result);
            else if (args.workload == "serve_mixed")
                report = traceServe(args, result);
            else
                throw std::invalid_argument("unknown workload " +
                                            args.workload);
            std::vector<std::string> names;
            for (const auto &[name, unit] : kPerLayer) {
                const auto it = report.values.find(name);
                result.add(name,
                           it == report.values.end() ? 0.0 : it->second,
                           unit, report.samples);
                names.push_back(name);
            }
            // Diagnostics beyond the per-layer set go to the table only.
            for (const auto &[name, value] : report.values)
                if (std::find(names.begin(), names.end(), name) ==
                    names.end())
                    result.add(name, value, "ratio", report.samples);
            result.print(args, names);
        }
        return result.failed() == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
