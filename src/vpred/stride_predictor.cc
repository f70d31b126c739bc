#include "vpred/stride_predictor.hh"

#include "support/bits.hh"

namespace autofsm
{

TwoDeltaStridePredictor::TwoDeltaStridePredictor(const StrideConfig &config)
    : config_(config),
      entries_(checkedEntries(config, "TwoDeltaStridePredictor"))
{}

size_t
TwoDeltaStridePredictor::indexOf(uint64_t pc) const
{
    return static_cast<size_t>((pc >> 2) &
                               static_cast<uint64_t>(config_.entries - 1));
}

size_t
TwoDeltaStridePredictor::entries() const
{
    return entries_.size();
}

std::string
TwoDeltaStridePredictor::name() const
{
    return "two-delta-stride" + std::to_string(config_.entries);
}

uint64_t
TwoDeltaStridePredictor::tagOf(uint64_t pc) const
{
    const int index_bits = ceilLog2(static_cast<uint32_t>(config_.entries));
    return (pc >> (2 + index_bits)) & tagMask(config_.tagBits);
}

StrideOutcome
TwoDeltaStridePredictor::executeLoad(uint64_t pc, uint64_t value)
{
    StrideOutcome outcome;
    outcome.entry = indexOf(pc);
    Entry &entry = entries_[outcome.entry];

    if (!entry.valid || entry.tag != tagOf(pc)) {
        // Allocation: no basis for a prediction yet.
        entry.valid = true;
        entry.tag = tagOf(pc);
        entry.lastValue = value;
        entry.stride = 0;
        entry.lastStride = 0;
        outcome.predicted = false;
        outcome.correct = false;
        return outcome;
    }

    const uint64_t predicted =
        entry.lastValue + static_cast<uint64_t>(entry.stride);
    outcome.predicted = true;
    outcome.correct = predicted == value;

    // Two-delta training: only adopt a new stride seen twice in a row.
    const int64_t new_stride =
        static_cast<int64_t>(value - entry.lastValue);
    if (new_stride == entry.lastStride)
        entry.stride = new_stride;
    entry.lastStride = new_stride;
    entry.lastValue = value;
    return outcome;
}

} // namespace autofsm
