/**
 * @file
 * Local/Global Chooser (LGC) predictor, "similar to the predictor found
 * in the Alpha 21264" (Section 7.5): a two-level local predictor, a
 * global-history predictor, and a meta chooser that picks between them.
 */

#ifndef AUTOFSM_BPRED_LOCAL_GLOBAL_HH
#define AUTOFSM_BPRED_LOCAL_GLOBAL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "bpred/predictor.hh"
#include "bpred/two_bit.hh"
#include "synth/area.hh"

namespace autofsm
{

/**
 * LGC geometry, scaled by one knob: all four structures (local history
 * table, local pattern table, global table, chooser) have 2^log2Entries
 * entries, and local/global history lengths equal log2Entries.
 */
struct LgcConfig
{
    int log2Entries = 10;
    /** Target-BTB storage charged for comparability (tag + target). */
    double btbBits = 128.0 * (23 + 32);
};

namespace detail
{

/**
 * The LGC global-counter/chooser pair is a 4-bit automaton whose next
 * state and prediction depend only on (state, outcome, local component
 * prediction) - 64 combinations in total, so one load from a 64-byte
 * (single cache line) table replaces the bump-and-select arithmetic.
 * Entry [(state << 2) | (taken << 1) | local_pred]: bits 0-3 the next
 * packed state (global counter in 0-1, chooser in 2-3), bit 4 the
 * prediction made before training. The chooser trains only when the
 * components disagree, towards whichever was right.
 */
constexpr std::array<uint8_t, 64>
makeLgcGcStepTable()
{
    std::array<uint8_t, 64> table{};
    for (unsigned gc = 0; gc < 16; ++gc) {
        for (unsigned t = 0; t < 2; ++t) {
            for (unsigned lp = 0; lp < 2; ++lp) {
                const bool taken = t != 0;
                const bool local_pred = lp != 0;
                uint8_t global_counter = gc & 3;
                uint8_t chooser = (gc >> 2) & 3;
                const bool global_pred = global_counter >= 2;
                const bool prediction =
                    chooser >= 2 ? global_pred : local_pred;
                if (local_pred != global_pred)
                    chooser = bumpedTwoBit(chooser, global_pred == taken);
                global_counter = bumpedTwoBit(global_counter, taken);
                table[(gc << 2) | (t << 1) | lp] = static_cast<uint8_t>(
                    (static_cast<unsigned>(prediction) << 4) |
                    (chooser << 2) | global_counter);
            }
        }
    }
    return table;
}

inline constexpr std::array<uint8_t, 64> kLgcGcStep = makeLgcGcStepTable();

} // namespace detail

/**
 * The Local Global Chooser predictor. The global counter and the
 * chooser are always read and trained at the same index (the global
 * history), so they share one byte (global in bits 0-1, chooser in
 * bits 2-3); local pattern counters pack four per byte.
 */
class LocalGlobalChooser final : public BranchPredictor
{
  public:
    /** @throws std::length_error unless 1 <= log2Entries <= 16 (local
     *  histories are log2Entries bits, stored as uint16). */
    explicit LocalGlobalChooser(const LgcConfig &config = {},
                                const AreaCosts &costs = {});

    bool predict(uint64_t pc) const override;
    void update(uint64_t pc, bool taken) override;
    double area() const override;
    std::string name() const override;

    /**
     * Fused predict-then-update, branch-free: the component indices
     * and counters are loaded once, the global/chooser decision is one
     * detail::kLgcGcStep lookup and the local bump one
     * detail::kCounterStep lookup. Returns whether the prediction was
     * wrong; same decisions as predict(pc) followed by update(pc,
     * taken).
     */
    bool
    step(uint64_t pc, bool taken)
    {
        const size_t t = taken;
        const size_t pc_idx = pcIndex(pc);
        const size_t global_idx = globalIndex();
        const uint64_t local_hist = localHistory_[pc_idx] & mask_;
        const auto local_idx = static_cast<size_t>(local_hist);

        uint8_t &local_byte = localTable_[local_idx >> 2];
        const unsigned local_shift = (local_idx & 3) * 2;
        const uint8_t local_counter = (local_byte >> local_shift) & 3;

        const uint8_t stepped = detail::kLgcGcStep
            [(static_cast<size_t>(globalChooser_[global_idx]) << 2) |
             (t << 1) | (local_counter >> 1)];
        globalChooser_[global_idx] = stepped & 0xf;

        const uint8_t bumped =
            detail::kCounterStep[(t << 2) | local_counter] & 3;
        local_byte = static_cast<uint8_t>(
            (local_byte & ~(3u << local_shift)) |
            (static_cast<unsigned>(bumped) << local_shift));

        localHistory_[pc_idx] =
            static_cast<uint16_t>(((local_hist << 1) | t) & mask_);
        history_ = (history_ << 1) | t;
        return static_cast<size_t>((stepped >> 4) & 1) != t;
    }

    /**
     * Hint the local history a future record at @p pc will touch - the
     * head of step's dependent load chain (history, then pattern
     * counter). The history-indexed tables can't be prefetched: their
     * indices depend on outcomes not yet consumed.
     */
    void
    prefetch(uint64_t pc) const
    {
        __builtin_prefetch(&localHistory_[pcIndex(pc)], 1);
    }

  private:
    size_t
    pcIndex(uint64_t pc) const
    {
        return static_cast<size_t>((pc >> 2) & mask_);
    }

    size_t
    globalIndex() const
    {
        return static_cast<size_t>(history_ & mask_);
    }

    LgcConfig config_;
    AreaCosts costs_;
    std::vector<uint16_t> localHistory_;
    /** Local pattern counters, packed four per byte. */
    std::vector<uint8_t> localTable_;
    /** Byte i: global counter (bits 0-1), chooser (bits 2-3). */
    std::vector<uint8_t> globalChooser_;
    uint64_t mask_;
    uint64_t history_ = 0;
};

} // namespace autofsm

#endif // AUTOFSM_BPRED_LOCAL_GLOBAL_HH
