/**
 * @file
 * Confidence-estimation simulation and training (Section 6.3-6.4).
 *
 * Two passes share the same mechanics: the *measurement* pass drives a
 * value trace through the stride predictor and a confidence estimator
 * and reports accuracy/coverage; the *training* pass instead feeds each
 * table entry's correctness history into Markov models of the requested
 * orders (this is how the cross-trained FSM estimators of Figure 2 are
 * built).
 *
 * No estimator feeds back into the value predictor, so a trace's
 * (entry, correct) verdicts are recorded once (recordConfidenceStream)
 * and every estimator is replayed over that record as a Moore table
 * (replayConfidence). simulateConfidence, which runs the predictor and
 * a virtual estimator per load, stays as the reference.
 */

#ifndef AUTOFSM_VPRED_CONF_SIM_HH
#define AUTOFSM_VPRED_CONF_SIM_HH

#include <string>
#include <vector>

#include "fsmgen/markov.hh"
#include "trace/value_trace.hh"
#include "vpred/confidence.hh"
#include "vpred/stride_predictor.hh"

namespace autofsm
{

/** Accuracy/coverage measurement of one confidence configuration. */
struct ConfidenceResult
{
    uint64_t loads = 0;
    uint64_t correct = 0;            ///< correct value predictions
    uint64_t confident = 0;          ///< loads marked confident
    uint64_t confidentCorrect = 0;   ///< confident and correct

    /** P(correct | marked confident); 0 when nothing was confident. */
    double
    accuracy() const
    {
        return confident == 0
            ? 0.0
            : static_cast<double>(confidentCorrect) /
                static_cast<double>(confident);
    }

    /** Fraction of correct predictions that were marked confident. */
    double
    coverage() const
    {
        return correct == 0
            ? 0.0
            : static_cast<double>(confidentCorrect) /
                static_cast<double>(correct);
    }
};

/**
 * A value predictor's verdicts over one trace, in load order: what
 * every per-entry confidence estimator sees, recorded once.
 */
struct ConfidenceStream
{
    /** One word per load: entry << 1 | correct. */
    std::vector<uint32_t> words;
    uint64_t loads = 0;   ///< words.size()
    uint64_t correct = 0; ///< loads whose value prediction was correct
    size_t entries = 0;   ///< predictor table size (estimator bank size)
};

/**
 * Drive @p trace through @p predictor once and record each load's
 * entry and verdict.
 *
 * @throws std::invalid_argument if predictor.entries() exceeds 2^31,
 *         so that an entry index no longer fits a stream word.
 */
ConfidenceStream recordConfidenceStream(const ValueTrace &trace,
                                        ValuePredictor &predictor);

/** Convenience overload: a fresh two-delta stride predictor. */
ConfidenceStream recordConfidenceStream(const ValueTrace &trace,
                                        const StrideConfig &config);

/**
 * Measure the Moore machine @p table as a per-entry confidence
 * estimator over @p stream: one state per entry, all starting at
 * table.start(); each load reads its entry's output as the confidence
 * bit, then steps the entry on the verdict. Gives the same result as
 * simulateConfidence with an estimator bank of that machine, and
 * publishes the same autofsm_vpred_*_total counters under
 * estimator=@p label.
 */
ConfidenceResult replayConfidence(const ConfidenceStream &stream,
                                  const FsmTable &table,
                                  const std::string &label);

/**
 * Measure @p estimator against @p trace: for every load, consult the
 * estimator for the entry the load maps to, run @p predictor, then
 * update the estimator with the verdict. The estimator bank must have
 * at least predictor.entries() entries.
 */
ConfidenceResult simulateConfidence(const ValueTrace &trace,
                                    ValuePredictor &predictor,
                                    ConfidenceEstimator &estimator);

/**
 * Convenience overload: a fresh two-delta stride predictor of the
 * given geometry (the paper's configuration).
 */
ConfidenceResult simulateConfidence(const ValueTrace &trace,
                                    const StrideConfig &config,
                                    ConfidenceEstimator &estimator);

/**
 * Training pass: feed each entry's correctness stream into every model
 * in @p models (at least one; each may have a different order).
 * Entries keep independent history registers, exactly mirroring how
 * the per-entry FSM estimators see the world at runtime.
 */
void collectConfidenceModels(const ConfidenceStream &stream,
                             std::vector<MarkovModel *> models);

/** Records @p trace through @p predictor, then collects the stream. */
void collectConfidenceModels(const ValueTrace &trace,
                             ValuePredictor &predictor,
                             std::vector<MarkovModel *> models);

/** Convenience overload: fresh two-delta stride predictor. */
void collectConfidenceModels(const ValueTrace &trace,
                             const StrideConfig &config,
                             std::vector<MarkovModel *> models);

} // namespace autofsm

#endif // AUTOFSM_VPRED_CONF_SIM_HH
