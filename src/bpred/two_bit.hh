/**
 * @file
 * The byte form of the 2-bit saturating branch counter
 * (SudConfig::twoBit(): range 0..3, predict taken iff >= 2) shared by
 * the table predictors: values live in one byte (or less) each, and a
 * predict-then-train pair is one load from a precomputed table
 * instead of a compare plus a saturating bump, which mispredicts
 * heavily as a branch.
 */

#ifndef AUTOFSM_BPRED_TWO_BIT_HH
#define AUTOFSM_BPRED_TWO_BIT_HH

#include <array>
#include <cstdint>

namespace autofsm
{

/** A 0..3 counter after one saturating step towards @p up. */
constexpr uint8_t
bumpedTwoBit(uint8_t value, bool up)
{
    if (up)
        return value < 3 ? static_cast<uint8_t>(value + 1) : value;
    return value > 0 ? static_cast<uint8_t>(value - 1) : value;
}

namespace detail
{

/**
 * Fused 2-bit counter step: entry [(taken << 2) | counter] holds the
 * bumped counter in bits 0-1 and the pre-bump prediction (counter >= 2)
 * in bit 4.
 */
constexpr std::array<uint8_t, 8>
makeCounterStepTable()
{
    std::array<uint8_t, 8> table{};
    for (unsigned t = 0; t < 2; ++t) {
        for (unsigned c = 0; c < 4; ++c) {
            const auto counter = static_cast<uint8_t>(c);
            table[(t << 2) | c] = static_cast<uint8_t>(
                (static_cast<unsigned>(counter >= 2) << 4) |
                bumpedTwoBit(counter, t != 0));
        }
    }
    return table;
}

inline constexpr std::array<uint8_t, 8> kCounterStep =
    makeCounterStepTable();

} // namespace detail

} // namespace autofsm

#endif // AUTOFSM_BPRED_TWO_BIT_HH
