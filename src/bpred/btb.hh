/**
 * @file
 * XScale-style coupled branch target buffer (Section 7.2).
 *
 * Intel's XScale has a 128-entry BTB; each entry carries a 2-bit
 * saturating counter used for conditional branch prediction, and a BTB
 * miss predicts not-taken. This is the baseline the customized
 * architecture extends.
 */

#ifndef AUTOFSM_BPRED_BTB_HH
#define AUTOFSM_BPRED_BTB_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "bpred/predictor.hh"
#include "bpred/two_bit.hh"
#include "synth/area.hh"

namespace autofsm
{

/** Geometry of the coupled BTB. */
struct BtbConfig
{
    int entries = 128;  ///< direct-mapped entry count (power of two)
    int tagBits = 23;   ///< tag width stored per entry
    int targetBits = 32; ///< branch target width stored per entry
};

/** Direct-mapped BTB with a 2-bit counter per entry. */
class XScaleBtb final : public BranchPredictor
{
  public:
    explicit XScaleBtb(const BtbConfig &config = {},
                       const AreaCosts &costs = {});

    /** Safe to call concurrently with other const calls on a shared
     *  instance: the tallies are atomic and the table is only read. */
    bool predict(uint64_t pc) const override;
    void update(uint64_t pc, bool taken) override;
    double area() const override;
    std::string name() const override;

    /**
     * Fused predict-then-update over one shared entry load; returns
     * whether the prediction was wrong. Same decisions and tallies as
     * predict(pc) followed by update(pc, taken), but branch-free: the
     * hit/miss outcome is data-dependent and mispredicts heavily as a
     * branch, so both paths are computed and selected. Writing back
     * valid and tag unconditionally is a no-op on hits.
     */
    bool
    step(uint64_t pc, bool taken)
    {
        Entry &entry = entries_[indexOf(pc)];
        const uint64_t tag = tagOf(pc);
        const bool hit = entry.valid & (entry.tag == tag);
        tally(lookups_, 1);
        tally(hits_, hit);
        const bool prediction = hit & (entry.counter >= 2);
        train(entry, tag, hit, taken);
        return prediction != taken;
    }

    /** Hint the entry a future record at @p pc will touch. */
    void
    prefetch(uint64_t pc) const
    {
        __builtin_prefetch(&entries_[indexOf(pc)], 1);
    }

    /** True iff @p pc currently hits in the BTB. */
    bool hit(uint64_t pc) const;

    /** Lifetime lookups, predict() plus step() calls (telemetry:
     *  autofsm_btb_lookups_total). */
    uint64_t
    lookups() const
    {
        return lookups_.load(std::memory_order_relaxed);
    }

    /** Lifetime tag hits among those lookups. */
    uint64_t
    hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }

    const BtbConfig &config() const { return config_; }

    /** Storage bits of one entry (tag + target + counter). */
    double entryBits() const;

  private:
    struct Entry
    {
        uint64_t tag = 0;
        uint8_t counter = 1;
        bool valid = false;
    };

    size_t
    indexOf(uint64_t pc) const
    {
        // Branches are 4-byte aligned in the synthetic traces.
        return static_cast<size_t>((pc >> 2) & indexMask_);
    }

    uint64_t tagOf(uint64_t pc) const { return (pc >> tagShift_) & tagMask_; }

    /** Bump on a hit; on a miss (first contact or conflict) allocate,
     *  biased towards the observed direction from the weak state. */
    static void
    train(Entry &entry, uint64_t tag, bool hit, bool taken)
    {
        entry.counter = hit ? bumpedTwoBit(entry.counter, taken)
                            : static_cast<uint8_t>(taken ? 2 : 1);
        entry.valid = true;
        entry.tag = tag;
    }

    /** step() owns the instance, so its tallies are a relaxed load and
     *  store: no locked read-modify-write per record, yet no data race
     *  with lookups()/hits() readers. */
    static void
    tally(std::atomic<uint64_t> &counter, uint64_t by)
    {
        counter.store(counter.load(std::memory_order_relaxed) + by,
                      std::memory_order_relaxed);
    }

    BtbConfig config_;
    AreaCosts costs_;
    std::vector<Entry> entries_;
    uint64_t indexMask_;
    int tagShift_;
    uint64_t tagMask_;
    /** Tallied in predict() (const, hence mutable) with relaxed
     *  fetch_add, so an instance shared across threads tallies exactly
     *  and without a data race. Callers export the totals in bulk via
     *  publishBtbMetrics(). */
    mutable std::atomic<uint64_t> lookups_{0};
    mutable std::atomic<uint64_t> hits_{0};
};

/**
 * Export @p btb's lookup/hit tallies to the global metrics registry
 * (autofsm_btb_lookups_total / autofsm_btb_hits_total, labelled with the
 * BTB's name). Call once per finished simulation pass.
 */
void publishBtbMetrics(const XScaleBtb &btb);

/**
 * Same export for tallies recorded earlier, e.g. by the training pass's
 * BaselineBtbProfile when a replay skips its own BTB pass.
 */
void publishBtbMetrics(const std::string &btb_name, uint64_t lookups,
                       uint64_t hits);

} // namespace autofsm

#endif // AUTOFSM_BPRED_BTB_HH
