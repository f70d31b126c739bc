#include "vpred/confidence.hh"

#include <algorithm>
#include <climits>
#include <stdexcept>

namespace autofsm
{

Dfa
sudCounterDfa(const SudConfig &config)
{
    if (config.max < 1 || config.max == INT_MAX || config.increment < 1 ||
        config.decrement < 1 || config.threshold < 0 ||
        config.threshold > config.max + 1)
        throw std::invalid_argument("sudCounterDfa: invalid " +
                                    sudLabel(config));
    Dfa dfa;
    for (int value = 0; value <= config.max; ++value)
        dfa.addState(value >= config.threshold ? 1 : 0);
    for (int value = 0; value <= config.max; ++value) {
        // Widened so a large increment or decrement cannot overflow.
        const long long up = static_cast<long long>(value) + config.increment;
        const long long down =
            static_cast<long long>(value) - config.decrement;
        dfa.setEdge(value, 1,
                    static_cast<int>(std::min<long long>(up, config.max)));
        dfa.setEdge(value, 0, static_cast<int>(std::max(down, 0LL)));
    }
    dfa.setStart(0);
    return dfa;
}

std::string
sudLabel(const SudConfig &config)
{
    return "sud(max=" + std::to_string(config.max) +
        ",dec=" + std::to_string(config.decrement) +
        ",thr=" + std::to_string(config.threshold) + ")";
}

SudConfidence::SudConfidence(size_t entries, const SudConfig &config)
    : config_(config), counters_(entries, SudCounter(config))
{}

bool
SudConfidence::confident(size_t entry) const
{
    return counters_[entry].predict();
}

void
SudConfidence::update(size_t entry, bool correct)
{
    counters_[entry].update(correct);
}

std::string
SudConfidence::name() const
{
    return sudLabel(config_);
}

FsmConfidence::FsmConfidence(size_t entries, const Dfa &fsm,
                             std::string label)
    : table_(std::make_shared<const FsmTable>(fsm)), label_(std::move(label))
{
    machines_.reserve(entries);
    for (size_t i = 0; i < entries; ++i)
        machines_.emplace_back(table_);
}

bool
FsmConfidence::confident(size_t entry) const
{
    return machines_[entry].predict() != 0;
}

void
FsmConfidence::update(size_t entry, bool correct)
{
    machines_[entry].update(correct ? 1 : 0);
}

std::string
FsmConfidence::name() const
{
    return label_;
}

} // namespace autofsm
