/**
 * @file
 * The design flow run stage by stage from outside the library, with a
 * span around each stage's public entry point: definePatterns (fsmgen),
 * minimize (logicmin), regexFromCover, Nfa::fromRegex + Dfa::fromNfa,
 * minimizeHopcroft and steadyStateReduce (automata). It consults and
 * fills the process-wide design memo exactly where DesignFlow does, so a
 * traced job does the same work as the untraced one.
 */

#ifndef PERFBENCH_DESIGN_TAIL_HH
#define PERFBENCH_DESIGN_TAIL_HH

#include "common.hh"
#include "flow/design_flow.hh"

namespace perfbench
{

/**
 * Design @p model under @p options the way DesignFlow::run does with an
 * unlimited budget, recording each stage in @p log ("fsmgen.patterns",
 * "logicmin.minimize", "automata.regex", "automata.subset",
 * "automata.hopcroft", "automata.reduce") plus the counts
 * "logicmin.cubes", "automata.dfa_states_subset" and
 * "automata.dfa_states_final" of computed (not memoized) tails. The
 * FlowTrace carries the same stage records as DesignFlow's, timed by
 * these spans.
 *
 * @throws std::invalid_argument for a finite budget or an order
 *         mismatch (the benchmark never sends either).
 */
autofsm::FlowResult designByStages(const autofsm::MarkovModel &model,
                                   const autofsm::FsmDesignOptions &options,
                                   SpanLog &log);

} // namespace perfbench

#endif // PERFBENCH_DESIGN_TAIL_HH
