/**
 * @file
 * Two-delta stride load value predictor (Section 6.1).
 *
 * Each entry tracks a tag, the last value, the predicted stride and the
 * last observed stride; the predicted stride is replaced only when the
 * same new stride is seen twice in a row (Eickemeyer & Vassiliadis /
 * Sazeides & Smith). The paper uses a 2K-entry table and predicts only
 * load instructions; confidence estimation is layered on top, one
 * estimator per table entry.
 */

#ifndef AUTOFSM_VPRED_STRIDE_PREDICTOR_HH
#define AUTOFSM_VPRED_STRIDE_PREDICTOR_HH

#include <vector>

#include "vpred/value_predictor.hh"

namespace autofsm
{

/** The two-delta stride value predictor. */
class TwoDeltaStridePredictor : public ValuePredictor
{
  public:
    /** @throws std::invalid_argument on a bad geometry
     *  (checkedEntries). */
    explicit TwoDeltaStridePredictor(const StrideConfig &config = {});

    /**
     * Execute the load at @p pc observing @p value: produce the
     * prediction verdict, then train the entry. Tag misses allocate and
     * report an incorrect, unpredicted outcome.
     */
    StrideOutcome executeLoad(uint64_t pc, uint64_t value) override;

    size_t indexOf(uint64_t pc) const override;
    size_t entries() const override;
    std::string name() const override;

    const StrideConfig &config() const { return config_; }

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t lastValue = 0;
        int64_t stride = 0;
        int64_t lastStride = 0;
    };

    uint64_t tagOf(uint64_t pc) const;

    StrideConfig config_;
    std::vector<Entry> entries_;
};

} // namespace autofsm

#endif // AUTOFSM_VPRED_STRIDE_PREDICTOR_HH
