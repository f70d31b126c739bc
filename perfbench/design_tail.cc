#include "design_tail.hh"

#include <memory>
#include <optional>
#include <stdexcept>

#include "automata/nfa.hh"
#include "automata/regex.hh"
#include "flow/design_memo.hh"
#include "fsmgen/patterns.hh"
#include "logicmin/minimize.hh"

namespace perfbench
{

using namespace autofsm;

FlowResult
designByStages(const MarkovModel &model, const FsmDesignOptions &options,
               SpanLog &log)
{
    if (!options.budget.unlimited())
        throw std::invalid_argument("designByStages: finite budget");
    if (model.order() != options.order)
        throw std::invalid_argument("designByStages: order mismatch");

    FlowResult out;
    FsmDesignResult &result = out.design;
    FlowTrace &trace = out.trace;

    {
        SpanLog::Scope span(log, "fsmgen.patterns");
        result.patterns = definePatterns(model, options.patterns);
        trace.add(FlowStage::Patterns, span.elapsedMillis(),
                  static_cast<int64_t>(result.patterns.predictOne.size() +
                                       result.patterns.predictZero.size()),
                  "specified");
    }

    std::optional<DesignMemoKey> memo_key;
    if (options.memoizeStages) {
        memo_key = designMemoKey(result.patterns, options.minimizer,
                                 options.keepStartupStates);
        if (const auto entry = designMemoLookup(*memo_key)) {
            result.cover = entry->cover;
            result.regexText = entry->regexText;
            result.beforeReduction = entry->beforeReduction;
            result.fsm = entry->fsm;
            result.statesSubset = entry->statesSubset;
            result.statesHopcroft = entry->statesHopcroft;
            result.statesFinal = entry->statesFinal;
            const auto cubes = static_cast<int64_t>(result.cover.size());
            trace.add(FlowStage::Minimize, 0.0, cubes, "cubes");
            trace.add(FlowStage::Regex, 0.0, cubes, "terms");
            trace.add(FlowStage::Subset, 0.0, result.statesSubset, "states");
            trace.add(FlowStage::Hopcroft, 0.0, result.statesHopcroft,
                      "states");
            trace.add(FlowStage::StartReduce, 0.0, result.statesFinal,
                      "states");
            out.tailFromMemo = true;
            return out;
        }
    }

    {
        SpanLog::Scope span(log, "logicmin.minimize");
        result.cover = minimize(result.patterns.toTruthTable(),
                                options.minimizer, MinimizeLimits{});
        trace.add(FlowStage::Minimize, span.elapsedMillis(),
                  static_cast<int64_t>(result.cover.size()), "cubes");
    }
    log.count("logicmin.cubes", static_cast<double>(result.cover.size()));

    if (result.cover.empty()) {
        // DesignFlow's constant-machine short-circuit (no memo store).
        result.regexText = "(empty)";
        result.beforeReduction = Dfa::constant(0);
        result.fsm = result.beforeReduction;
        result.statesSubset = 1;
        result.statesHopcroft = 1;
        result.statesFinal = 1;
        trace.add(FlowStage::Regex, 0.0, 0, "terms");
        trace.add(FlowStage::Subset, 0.0, 1, "states");
        trace.add(FlowStage::Hopcroft, 0.0, 1, "states");
        trace.add(FlowStage::StartReduce, 0.0, 1, "states");
        log.count("automata.dfa_states_subset", 1);
        log.count("automata.dfa_states_final", 1);
        return out;
    }

    std::optional<Regex> regex;
    {
        SpanLog::Scope span(log, "automata.regex");
        regex = regexFromCover(result.cover);
        result.regexText = regex->toString();
        trace.add(FlowStage::Regex, span.elapsedMillis(),
                  static_cast<int64_t>(result.cover.size()), "terms");
    }
    {
        SpanLog::Scope span(log, "automata.subset");
        result.beforeReduction = Dfa::fromNfa(Nfa::fromRegex(*regex));
        result.statesSubset = result.beforeReduction.numStates();
        trace.add(FlowStage::Subset, span.elapsedMillis(),
                  result.statesSubset, "states");
    }
    {
        SpanLog::Scope span(log, "automata.hopcroft");
        result.beforeReduction = result.beforeReduction.minimizeHopcroft();
        result.statesHopcroft = result.beforeReduction.numStates();
        trace.add(FlowStage::Hopcroft, span.elapsedMillis(),
                  result.statesHopcroft, "states");
    }
    {
        SpanLog::Scope span(log, "automata.reduce");
        result.fsm = options.keepStartupStates
            ? result.beforeReduction
            : result.beforeReduction.steadyStateReduce();
        result.statesFinal = result.fsm.numStates();
        trace.add(FlowStage::StartReduce, span.elapsedMillis(),
                  result.statesFinal, "states");
    }
    log.count("automata.dfa_states_subset", result.statesSubset);
    log.count("automata.dfa_states_final", result.statesFinal);

    if (memo_key) {
        auto entry = std::make_shared<DesignMemoEntry>();
        entry->cover = result.cover;
        entry->regexText = result.regexText;
        entry->beforeReduction = result.beforeReduction;
        entry->fsm = result.fsm;
        entry->statesSubset = result.statesSubset;
        entry->statesHopcroft = result.statesHopcroft;
        entry->statesFinal = result.statesFinal;
        for (const StageRecord &stage : trace.stages())
            entry->stageMillis.emplace_back(flowStageName(stage.stage),
                                            stage.millis);
        designMemoStore(std::move(*memo_key), std::move(entry));
    }
    return out;
}

} // namespace perfbench
