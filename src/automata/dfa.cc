#include "automata/dfa.hh"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>

#include "flow/budget.hh"

namespace autofsm
{

int
Dfa::addState(int output)
{
    assert(output == 0 || output == 1);
    State s;
    s.output = output;
    states_.push_back(s);
    return static_cast<int>(states_.size()) - 1;
}

void
Dfa::setEdge(int from, int symbol, int to)
{
    assert(symbol == 0 || symbol == 1);
    assert(from >= 0 && from < numStates());
    assert(to >= 0 && to < numStates());
    states_[static_cast<size_t>(from)].next[static_cast<size_t>(symbol)] = to;
}

void
Dfa::setOutput(int state, int output)
{
    assert(output == 0 || output == 1);
    states_[static_cast<size_t>(state)].output = output;
}

int
Dfa::next(int state, int symbol) const
{
    assert(symbol == 0 || symbol == 1);
    return states_[static_cast<size_t>(state)].next[static_cast<size_t>(symbol)];
}

int
Dfa::output(int state) const
{
    return states_[static_cast<size_t>(state)].output;
}

int
Dfa::run(const std::vector<int> &input) const
{
    int state = start_;
    for (int symbol : input)
        state = next(state, symbol);
    return state;
}

int
Dfa::predictAfter(const std::vector<int> &input) const
{
    return output(run(input));
}

bool
Dfa::equivalent(const Dfa &other) const
{
    // BFS over the product machine: every reachable pair must agree on
    // output.
    std::set<std::pair<int, int>> seen;
    std::deque<std::pair<int, int>> queue;
    queue.emplace_back(start_, other.start_);
    seen.insert({start_, other.start_});
    while (!queue.empty()) {
        const auto [a, b] = queue.front();
        queue.pop_front();
        if (output(a) != other.output(b))
            return false;
        for (int symbol = 0; symbol < 2; ++symbol) {
            const std::pair<int, int> succ{next(a, symbol),
                                           other.next(b, symbol)};
            if (seen.insert(succ).second)
                queue.push_back(succ);
        }
    }
    return true;
}

bool
Dfa::identical(const Dfa &other) const
{
    if (start_ != other.start_ || states_.size() != other.states_.size())
        return false;
    for (size_t i = 0; i < states_.size(); ++i) {
        if (states_[i].next != other.states_[i].next ||
            states_[i].output != other.states_[i].output) {
            return false;
        }
    }
    return true;
}

Dfa
Dfa::trimUnreachable() const
{
    std::vector<int> remap(states_.size(), -1);
    std::vector<int> order;
    std::deque<int> queue;
    queue.push_back(start_);
    remap[static_cast<size_t>(start_)] = 0;
    order.push_back(start_);
    while (!queue.empty()) {
        const int s = queue.front();
        queue.pop_front();
        for (int symbol = 0; symbol < 2; ++symbol) {
            const int t = next(s, symbol);
            if (remap[static_cast<size_t>(t)] < 0) {
                remap[static_cast<size_t>(t)] =
                    static_cast<int>(order.size());
                order.push_back(t);
                queue.push_back(t);
            }
        }
    }

    Dfa out;
    for (int old : order)
        out.addState(output(old));
    for (size_t i = 0; i < order.size(); ++i) {
        for (int symbol = 0; symbol < 2; ++symbol) {
            out.setEdge(static_cast<int>(i), symbol,
                        remap[static_cast<size_t>(next(order[i], symbol))]);
        }
    }
    out.setStart(0);
    return out;
}

Dfa
Dfa::minimizeHopcroft() const
{
    const Dfa trimmed = trimUnreachable();
    const int n = trimmed.numStates();

    // Inverse transition function.
    std::vector<std::vector<int>> preds[2];
    preds[0].assign(static_cast<size_t>(n), {});
    preds[1].assign(static_cast<size_t>(n), {});
    for (int s = 0; s < n; ++s) {
        for (int symbol = 0; symbol < 2; ++symbol) {
            preds[symbol][static_cast<size_t>(trimmed.next(s, symbol))]
                .push_back(s);
        }
    }

    // Initial partition: by Moore output.
    std::vector<int> block_of(static_cast<size_t>(n), 0);
    std::vector<std::vector<int>> blocks;
    {
        std::vector<int> zeros, ones;
        for (int s = 0; s < n; ++s)
            (trimmed.output(s) ? ones : zeros).push_back(s);
        if (!zeros.empty()) {
            for (int s : zeros)
                block_of[static_cast<size_t>(s)] =
                    static_cast<int>(blocks.size());
            blocks.push_back(std::move(zeros));
        }
        if (!ones.empty()) {
            for (int s : ones)
                block_of[static_cast<size_t>(s)] =
                    static_cast<int>(blocks.size());
            blocks.push_back(std::move(ones));
        }
    }

    // Hopcroft worklist of (block, symbol) splitters.
    std::deque<std::pair<int, int>> worklist;
    for (size_t b = 0; b < blocks.size(); ++b) {
        worklist.emplace_back(static_cast<int>(b), 0);
        worklist.emplace_back(static_cast<int>(b), 1);
    }

    // Per-state / per-block mark scratch, reused across splitters. A
    // refinement never has more blocks than states, so size n covers
    // every block index the loop can mint.
    std::vector<char> state_touched(static_cast<size_t>(n), 0);
    std::vector<char> block_touched(static_cast<size_t>(n), 0);
    std::vector<int> touched_blocks;

    while (!worklist.empty()) {
        const auto [splitter, symbol] = worklist.front();
        worklist.pop_front();

        // States with a `symbol`-edge into the splitter block.
        std::vector<int> incoming;
        for (int t : blocks[static_cast<size_t>(splitter)]) {
            const auto &ps = preds[symbol][static_cast<size_t>(t)];
            incoming.insert(incoming.end(), ps.begin(), ps.end());
        }
        if (incoming.empty())
            continue;

        // Mark incoming states and collect the blocks they live in.
        touched_blocks.clear();
        for (int s : incoming) {
            state_touched[static_cast<size_t>(s)] = 1;
            const int b = block_of[static_cast<size_t>(s)];
            if (!block_touched[static_cast<size_t>(b)]) {
                block_touched[static_cast<size_t>(b)] = 1;
                touched_blocks.push_back(b);
            }
        }
        // Ascending block order keeps the split/worklist sequence (and
        // hence state numbering) identical to the ordered-map version.
        std::sort(touched_blocks.begin(), touched_blocks.end());

        for (int block_idx : touched_blocks) {
            block_touched[static_cast<size_t>(block_idx)] = 0;
            auto &block = blocks[static_cast<size_t>(block_idx)];

            // Split `block` into touched and untouched parts. Blocks
            // stay sorted (the initial partition is in state order and
            // both halves of a split preserve it), so a single ordered
            // pass replaces the old sort + binary_search.
            std::vector<int> members, untouched;
            for (int s : block)
                (state_touched[static_cast<size_t>(s)] ? members
                                                       : untouched)
                    .push_back(s);
            if (untouched.empty())
                continue; // no split: all of the block was touched

            const int new_idx = static_cast<int>(blocks.size());
            // Keep the smaller part as the new block (Hopcroft's trick).
            std::vector<int> *small = &members, *large = &untouched;
            if (small->size() > large->size())
                std::swap(small, large);
            block = *large;
            for (int s : *small)
                block_of[static_cast<size_t>(s)] = new_idx;
            blocks.push_back(*small);

            worklist.emplace_back(new_idx, 0);
            worklist.emplace_back(new_idx, 1);
        }

        for (int s : incoming)
            state_touched[static_cast<size_t>(s)] = 0;
    }

    // Build the quotient machine.
    Dfa out;
    for (const auto &block : blocks)
        out.addState(trimmed.output(block.front()));
    for (size_t b = 0; b < blocks.size(); ++b) {
        const int repr = blocks[b].front();
        for (int symbol = 0; symbol < 2; ++symbol) {
            out.setEdge(static_cast<int>(b), symbol,
                        block_of[static_cast<size_t>(
                            trimmed.next(repr, symbol))]);
        }
    }
    out.setStart(block_of[static_cast<size_t>(trimmed.start())]);
    return out.trimUnreachable();
}

Dfa
Dfa::steadyStateReduce() const
{
    const int n = numStates();
    // Eventual-image fixpoint: S_{k+1} = delta(S_k, {0,1}). Because
    // S_1 = delta(Q) is a subset of S_0 = Q, the chain is monotonically
    // decreasing and must converge within n iterations.
    std::vector<bool> core(static_cast<size_t>(n), true);
    for (;;) {
        std::vector<bool> image(static_cast<size_t>(n), false);
        for (int s = 0; s < n; ++s) {
            if (!core[static_cast<size_t>(s)])
                continue;
            image[static_cast<size_t>(next(s, 0))] = true;
            image[static_cast<size_t>(next(s, 1))] = true;
        }
        if (image == core)
            break;
        core = std::move(image);
    }

    // Re-root: walk 0-inputs from the old start until inside the core.
    // Termination: iterating any input sequence eventually enters the
    // eventual image.
    int new_start = start_;
    for (int step = 0; step <= n && !core[static_cast<size_t>(new_start)];
         ++step) {
        new_start = next(new_start, 0);
    }
    assert(core[static_cast<size_t>(new_start)]);

    Dfa out = *this;
    out.setStart(new_start);
    return out.trimUnreachable();
}

std::string
Dfa::toDot(const std::string &name) const
{
    std::ostringstream out;
    out << "digraph " << name << " {\n";
    out << "    rankdir=LR;\n";
    out << "    init [shape=point];\n";
    for (int s = 0; s < numStates(); ++s) {
        out << "    s" << s << " [shape=circle, label=\"s" << s
            << "\\n[" << output(s) << "]\"];\n";
    }
    out << "    init -> s" << start_ << ";\n";
    for (int s = 0; s < numStates(); ++s) {
        for (int symbol = 0; symbol < 2; ++symbol) {
            out << "    s" << s << " -> s" << next(s, symbol)
                << " [label=\"" << symbol << "\"];\n";
        }
    }
    out << "}\n";
    return out.str();
}

namespace
{

/** FNV-1a over the packed state indices of a (sorted) subset. */
struct SubsetHash
{
    size_t
    operator()(const std::vector<int> &subset) const
    {
        uint64_t h = 0xcbf29ce484222325ULL;
        for (int s : subset) {
            h ^= static_cast<uint32_t>(s);
            h *= 0x100000001b3ULL;
        }
        return static_cast<size_t>(h);
    }
};

} // anonymous namespace

Dfa
Dfa::fromNfa(const Nfa &nfa, int max_states)
{
    Dfa dfa;
    // DFA state numbering is fixed by the BFS discovery order below,
    // not by map iteration, so hashing keeps output bit-identical.
    std::unordered_map<std::vector<int>, int, SubsetHash> subset_ids;
    std::deque<std::vector<int>> queue;

    auto checkBudget = [max_states, &dfa] {
        if (max_states > 0 && dfa.numStates() > max_states) {
            throw FlowError("subset", ErrorKind::BudgetExceeded,
                            "subset construction minted more than " +
                                std::to_string(max_states) + " states");
        }
    };

    auto accepting = [&nfa](const std::vector<int> &subset) {
        for (int s : subset) {
            if (nfa.accepting(s))
                return true;
        }
        return false;
    };

    const std::vector<int> start_subset = nfa.closure({nfa.start()});
    subset_ids[start_subset] = dfa.addState(accepting(start_subset) ? 1 : 0);
    queue.push_back(start_subset);
    checkBudget();

    // A sink for subsets that die (cannot happen with the (0|1)* prefix
    // regexes, but hand-built NFAs may be partial).
    int sink = -1;

    while (!queue.empty()) {
        const std::vector<int> subset = queue.front();
        queue.pop_front();
        const int from = subset_ids.at(subset);

        for (int symbol = 0; symbol < 2; ++symbol) {
            std::vector<int> moved;
            for (int s : subset) {
                const auto &succ = nfa.state(s).next[symbol];
                moved.insert(moved.end(), succ.begin(), succ.end());
            }
            const std::vector<int> target = nfa.closure(std::move(moved));

            int to;
            if (target.empty()) {
                if (sink < 0) {
                    sink = dfa.addState(0);
                    dfa.setEdge(sink, 0, sink);
                    dfa.setEdge(sink, 1, sink);
                }
                to = sink;
            } else {
                const auto it = subset_ids.find(target);
                if (it == subset_ids.end()) {
                    to = dfa.addState(accepting(target) ? 1 : 0);
                    checkBudget();
                    subset_ids.emplace(target, to);
                    queue.push_back(target);
                } else {
                    to = it->second;
                }
            }
            dfa.setEdge(from, symbol, to);
        }
    }

    dfa.setStart(0);
    return dfa;
}

namespace
{

/**
 * Set-of-positions interning for Dfa::fromCover. Every subset is
 * `words` 64-bit words in one flat arena, state s at [s*words,
 * (s+1)*words); an open-addressing table of state indices finds a
 * subset's number without allocating a key per lookup.
 */
class PositionSets
{
  public:
    explicit PositionSets(size_t words) : words_(words), slots_(64, -1) {}

    const uint64_t *
    at(int state) const
    {
        return arena_.data() + static_cast<size_t>(state) * words_;
    }

    /** Index of @p set, or -1 after appending it as the next state. */
    int
    findOrAdd(const uint64_t *set)
    {
        const uint64_t h = hash(set);
        size_t slot = slotOf(h);
        for (; slots_[slot] >= 0; slot = (slot + 1) & (slots_.size() - 1)) {
            const int s = slots_[slot];
            if (hashes_[static_cast<size_t>(s)] == h &&
                std::equal(set, set + words_, at(s))) {
                return s;
            }
        }
        slots_[slot] = static_cast<int>(hashes_.size());
        hashes_.push_back(h);
        arena_.insert(arena_.end(), set, set + words_);
        if (hashes_.size() * 2 > slots_.size())
            grow();
        return -1;
    }

  private:
    uint64_t
    hash(const uint64_t *set) const
    {
        uint64_t h = 0x9e3779b97f4a7c15ULL;
        for (size_t w = 0; w < words_; ++w) {
            h = (h ^ set[w]) * 0xff51afd7ed558ccdULL;
            h ^= h >> 32;
        }
        return h;
    }

    size_t slotOf(uint64_t h) const { return h & (slots_.size() - 1); }

    void
    grow()
    {
        slots_.assign(slots_.size() * 2, -1);
        for (size_t s = 0; s < hashes_.size(); ++s) {
            size_t slot = slotOf(hashes_[s]);
            while (slots_[slot] >= 0)
                slot = (slot + 1) & (slots_.size() - 1);
            slots_[slot] = static_cast<int>(s);
        }
    }

    size_t words_;
    std::vector<uint64_t> arena_;
    std::vector<uint64_t> hashes_;
    std::vector<int> slots_;
};

} // anonymous namespace

Dfa
Dfa::fromCover(const Cover &cover, int max_states)
{
    assert(!cover.empty());
    const int n = cover.numVars();

    // Positions of (0|1)*·(c1|...|ck): position 0 is the (0|1)* symbol,
    // then each cube's n symbols, oldest history bit first, as
    // regexFromCover spells them.
    const size_t positions = 1 + static_cast<size_t>(n) * cover.size();
    const size_t words = (positions + 63) / 64;
    auto setBit = [](std::vector<uint64_t> &bits, size_t p) {
        bits[p / 64] |= uint64_t{1} << (p % 64);
    };
    std::vector<uint64_t> match[2] = {std::vector<uint64_t>(words),
                                      std::vector<uint64_t>(words)};
    // enter: position 0 and every cube's first position, the positions
    // that follow position 0.
    std::vector<uint64_t> enter(words), lasts(words);
    setBit(match[0], 0);
    setBit(match[1], 0);
    setBit(enter, 0);
    size_t p = 1;
    for (const Cube &cube : cover.cubes()) {
        for (int bit = n - 1; bit >= 0; --bit, ++p) {
            if (!bitOf(cube.mask, bit) || !bitOf(cube.value, bit))
                setBit(match[0], p);
            if (!bitOf(cube.mask, bit) || bitOf(cube.value, bit))
                setBit(match[1], p);
            if (bit == n - 1)
                setBit(enter, p);
            if (bit == 0)
                setBit(lasts, p);
        }
    }
    // With n == 0 every cube is the empty word: every string matches.
    const bool nullable = n == 0;

    // State 0 is the empty set (nothing read yet); every successor holds
    // position 0, which matches both symbols, so no other state is empty
    // and no sink is needed.
    PositionSets sets(words);
    std::vector<uint64_t> current(words), target(words);
    Dfa dfa;
    auto mint = [&](const uint64_t *bits) {
        bool out = nullable;
        for (size_t w = 0; w < words && !out; ++w)
            out = (bits[w] & lasts[w]) != 0;
        dfa.addState(out ? 1 : 0);
        if (max_states > 0 && dfa.numStates() > max_states) {
            throw FlowError("subset", ErrorKind::BudgetExceeded,
                            "subset construction minted more than " +
                                std::to_string(max_states) + " states");
        }
    };
    sets.findOrAdd(current.data());
    mint(current.data());

    // States are numbered in discovery order and expanded in that order,
    // symbol 0 before 1: the BFS of fromNfa.
    for (int from = 0; from < dfa.numStates(); ++from) {
        const uint64_t *state = sets.at(from);
        std::copy(state, state + words, current.begin());
        for (int symbol = 0; symbol < 2; ++symbol) {
            // Each live cube position moves on to the next one. Every
            // state is initial or holds position 0, so position 0 and
            // every cube's first position are always entered; that also
            // overwrites the bit a cube's last position shifts into the
            // next cube's first.
            uint64_t carry = 0;
            for (size_t w = 0; w < words; ++w) {
                const uint64_t bits = (current[w] << 1) | carry | enter[w];
                carry = current[w] >> 63;
                target[w] = bits & match[symbol][w];
            }
            int to = sets.findOrAdd(target.data());
            if (to < 0) {
                to = dfa.numStates();
                mint(target.data());
            }
            dfa.setEdge(from, symbol, to);
        }
    }
    dfa.setStart(0);
    return dfa;
}

Dfa
Dfa::constant(int output)
{
    Dfa dfa;
    const int s = dfa.addState(output);
    dfa.setEdge(s, 0, s);
    dfa.setEdge(s, 1, s);
    dfa.setStart(s);
    return dfa;
}

Dfa
Dfa::saturatingCounter(int bits)
{
    assert(bits >= 1 && bits <= 8);
    const int n = 1 << bits;
    Dfa dfa;
    for (int s = 0; s < n; ++s)
        dfa.addState(s >= n / 2 ? 1 : 0);
    for (int s = 0; s < n; ++s) {
        dfa.setEdge(s, 0, std::max(s - 1, 0));
        dfa.setEdge(s, 1, std::min(s + 1, n - 1));
    }
    dfa.setStart(n / 2 - 1);
    return dfa;
}

} // namespace autofsm
