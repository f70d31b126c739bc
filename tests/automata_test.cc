/**
 * @file
 * Tests for the automata substrate: regex building, Thompson NFA, subset
 * construction (over the NFA, and straight from a cover against that
 * reference), Hopcroft minimization and start-state reduction.
 */

#include <gtest/gtest.h>

#include "automata/dfa.hh"
#include "automata/nfa.hh"
#include "automata/regex.hh"
#include "flow/budget.hh"
#include "support/rng.hh"

namespace autofsm
{
namespace
{

/** All bit strings of length @p len as vectors. */
std::vector<std::vector<int>>
allStrings(int len)
{
    std::vector<std::vector<int>> out;
    for (uint32_t v = 0; v < (1u << len); ++v) {
        std::vector<int> s(static_cast<size_t>(len));
        for (int i = 0; i < len; ++i)
            s[static_cast<size_t>(i)] = bitOf(v, len - 1 - i);
        out.push_back(std::move(s));
    }
    return out;
}

/** The trailing-@p n bits of @p s packed with bit 0 = most recent. */
uint32_t
suffixBits(const std::vector<int> &s, int n)
{
    uint32_t value = 0;
    for (size_t i = s.size() - static_cast<size_t>(n); i < s.size(); ++i)
        value = (value << 1) | static_cast<uint32_t>(s[i]);
    return value;
}

Cover
paperCover()
{
    Cover cover(2);
    cover.add(Cube::fromPattern("x1"));
    cover.add(Cube::fromPattern("1x"));
    return cover;
}

TEST(RegexTest, PaperNotationRendering)
{
    const Regex regex = regexFromCover(paperCover());
    EXPECT_EQ(regex.toString(), "{0|1}*{ {0|1}1 | 1{0|1} }");
}

TEST(RegexTest, EmptyCoverGivesEmptyRegex)
{
    EXPECT_TRUE(regexFromCover(Cover(2)).empty());
    EXPECT_EQ(Regex().toString(), "(empty)");
}

TEST(NfaTest, AcceptsExactlySuffixLanguage)
{
    const Nfa nfa = Nfa::fromRegex(regexFromCover(paperCover()));
    // Language: all strings whose last two bits are 01, 10 or 11.
    for (int len = 2; len <= 6; ++len) {
        for (const auto &s : allStrings(len)) {
            const uint32_t suffix = suffixBits(s, 2);
            EXPECT_EQ(nfa.accepts(s), suffix != 0u);
        }
    }
}

TEST(NfaTest, ShortStringsRejected)
{
    const Nfa nfa = Nfa::fromRegex(regexFromCover(paperCover()));
    EXPECT_FALSE(nfa.accepts({}));
    EXPECT_FALSE(nfa.accepts({1}));
    EXPECT_FALSE(nfa.accepts({0}));
}

TEST(DfaTest, SubsetConstructionMatchesNfa)
{
    const Nfa nfa = Nfa::fromRegex(regexFromCover(paperCover()));
    const Dfa dfa = Dfa::fromNfa(nfa);
    for (int len = 0; len <= 7; ++len) {
        for (const auto &s : allStrings(len))
            EXPECT_EQ(dfa.predictAfter(s) == 1, nfa.accepts(s));
    }
}

/**
 * A seeded random cover over @p n inputs with 1..@p max_cubes cubes,
 * mixing arbitrary cubes with full minterms, all-don't-care cubes and
 * duplicates of earlier cubes.
 */
Cover
randomCover(Rng &rng, int n, int max_cubes)
{
    Cover cover(n);
    const int k = 1 + static_cast<int>(rng.below(
                          static_cast<uint64_t>(max_cubes)));
    for (int i = 0; i < k; ++i) {
        const uint32_t value = static_cast<uint32_t>(rng.next());
        switch (rng.below(8)) {
          case 0:
            cover.add(Cube(0, 0));
            break;
          case 1:
            cover.add(Cube::minterm(value, n));
            break;
          case 2:
            if (!cover.empty()) {
                cover.add(cover.cubes()[rng.below(cover.size())]);
                break;
            }
            [[fallthrough]];
          default:
            cover.add(Cube(value, static_cast<uint32_t>(rng.next()) &
                                      lowMask(n)));
            break;
        }
    }
    return cover;
}

/** The Thompson-NFA reference of Dfa::fromCover. */
Dfa
thompsonDfa(const Cover &cover, int max_states = 0)
{
    return Dfa::fromNfa(Nfa::fromRegex(regexFromCover(cover)), max_states);
}

TEST(DfaTest, FromCoverIdenticalToThompson)
{
    Rng rng(20011);
    for (int trial = 0; trial < 150; ++trial) {
        const int n = 1 + static_cast<int>(rng.below(12));
        const Cover cover = randomCover(rng, n, 60);
        ASSERT_TRUE(Dfa::fromCover(cover).identical(thompsonDfa(cover)))
            << "trial " << trial << ": " << cover.toString();
    }
    EXPECT_TRUE(Dfa::fromCover(paperCover()).identical(
        thompsonDfa(paperCover())));
}

TEST(DfaTest, FromCoverSpansWordBoundaries)
{
    // Distinct 6-input minterms, so every cube shapes the language. With
    // 1 + 6k positions, cubes 10, 21 and 31 have an inner position pair
    // that straddles bits 63/64, 127/128 and 191/192.
    Rng rng(64);
    std::vector<uint32_t> minterms(64);
    for (uint32_t m = 0; m < 64; ++m)
        minterms[m] = m;
    for (size_t i = minterms.size() - 1; i > 0; --i)
        std::swap(minterms[i], minterms[rng.below(i + 1)]);
    for (int k : {10, 11, 21, 22, 31, 32, 40}) {
        Cover cover(6);
        for (int i = 0; i < k; ++i)
            cover.add(Cube::minterm(minterms[static_cast<size_t>(i)], 6));
        EXPECT_TRUE(Dfa::fromCover(cover).identical(thompsonDfa(cover)))
            << "k=" << k;
    }
}

TEST(DfaTest, FromCoverZeroInputCover)
{
    // Every cube is the empty word, so every string is in the language.
    Cover cover(0);
    cover.add(Cube(0, 0));
    cover.add(Cube(0, 0));
    const Dfa dfa = Dfa::fromCover(cover);
    EXPECT_TRUE(dfa.identical(thompsonDfa(cover)));
    EXPECT_EQ(dfa.predictAfter({}), 1);
}

TEST(DfaTest, FromCoverBudgetMatchesThompson)
{
    Rng rng(4242);
    for (int trial = 0; trial < 25; ++trial) {
        const int n = 1 + static_cast<int>(rng.below(12));
        const Cover cover = randomCover(rng, n, 60);
        const int states = Dfa::fromCover(cover).numStates();
        ASSERT_GE(states, 2);

        std::string direct, reference;
        try {
            Dfa::fromCover(cover, states - 1);
        } catch (const FlowError &e) {
            EXPECT_EQ(e.stage(), "subset");
            EXPECT_EQ(e.kind(), ErrorKind::BudgetExceeded);
            direct = e.what();
        }
        try {
            thompsonDfa(cover, states - 1);
        } catch (const FlowError &e) {
            reference = e.what();
        }
        EXPECT_FALSE(direct.empty()) << "trial " << trial;
        EXPECT_EQ(direct, reference) << "trial " << trial;

        EXPECT_NO_THROW(Dfa::fromCover(cover, states));
        EXPECT_NO_THROW(thompsonDfa(cover, states));
    }
}

TEST(RegexTest, ThompsonStateCountIsClosedForm)
{
    Rng rng(77);
    for (int trial = 0; trial < 200; ++trial) {
        const int n = 1 + static_cast<int>(rng.below(12));
        const Cover cover = randomCover(rng, n, 60);
        EXPECT_EQ(thompsonStateCount(cover),
                  Nfa::fromRegex(regexFromCover(cover)).numStates());
        EXPECT_EQ(thompsonStateCount(cover),
                  2 * n * static_cast<int64_t>(cover.size()) +
                      2 * static_cast<int64_t>(cover.size()) + 2);
    }
    Cover zero_inputs(0);
    zero_inputs.add(Cube(0, 0));
    EXPECT_EQ(thompsonStateCount(zero_inputs),
              Nfa::fromRegex(regexFromCover(zero_inputs)).numStates());
    EXPECT_EQ(thompsonStateCount(Cover(4)), 0);
}

TEST(DfaTest, HopcroftPreservesBehavior)
{
    const Dfa dfa =
        Dfa::fromNfa(Nfa::fromRegex(regexFromCover(paperCover())));
    const Dfa minimized = dfa.minimizeHopcroft();
    EXPECT_TRUE(dfa.equivalent(minimized));
    EXPECT_LE(minimized.numStates(), dfa.numStates());
}

TEST(DfaTest, HopcroftReachesPaperStateCount)
{
    // Figure 1 (left): the machine with start-up states has 5 states.
    const Dfa minimized =
        Dfa::fromNfa(Nfa::fromRegex(regexFromCover(paperCover())))
            .minimizeHopcroft();
    EXPECT_EQ(minimized.numStates(), 5);
}

TEST(DfaTest, SteadyStateReductionReachesPaperStateCount)
{
    // Figure 1 (right): removing start-up states leaves 3 states.
    const Dfa reduced =
        Dfa::fromNfa(Nfa::fromRegex(regexFromCover(paperCover())))
            .minimizeHopcroft()
            .steadyStateReduce();
    EXPECT_EQ(reduced.numStates(), 3);
}

TEST(DfaTest, SteadyStateMachineAgreesOnWarmStrings)
{
    const Dfa full =
        Dfa::fromNfa(Nfa::fromRegex(regexFromCover(paperCover())))
            .minimizeHopcroft();
    const Dfa reduced = full.steadyStateReduce();
    // Behavior must be identical for every string of length >= N = 2.
    for (int len = 2; len <= 8; ++len) {
        for (const auto &s : allStrings(len))
            EXPECT_EQ(full.predictAfter(s), reduced.predictAfter(s));
    }
}

TEST(DfaTest, HopcroftMergesRedundantStates)
{
    // Hand-built machine with two interchangeable output-1 states.
    Dfa dfa;
    const int a = dfa.addState(0);
    const int b = dfa.addState(1);
    const int c = dfa.addState(1); // duplicate of b
    dfa.setEdge(a, 0, a);
    dfa.setEdge(a, 1, b);
    dfa.setEdge(b, 0, a);
    dfa.setEdge(b, 1, c);
    dfa.setEdge(c, 0, a);
    dfa.setEdge(c, 1, b);
    dfa.setStart(a);
    const Dfa minimized = dfa.minimizeHopcroft();
    EXPECT_EQ(minimized.numStates(), 2);
    EXPECT_TRUE(dfa.equivalent(minimized));
}

TEST(DfaTest, TrimDropsUnreachable)
{
    Dfa dfa;
    const int a = dfa.addState(0);
    const int b = dfa.addState(1);
    const int orphan = dfa.addState(1);
    dfa.setEdge(a, 0, a);
    dfa.setEdge(a, 1, b);
    dfa.setEdge(b, 0, b);
    dfa.setEdge(b, 1, a);
    dfa.setEdge(orphan, 0, a);
    dfa.setEdge(orphan, 1, b);
    dfa.setStart(a);
    EXPECT_EQ(dfa.trimUnreachable().numStates(), 2);
}

TEST(DfaTest, EquivalentDetectsDifference)
{
    const Dfa zero = Dfa::constant(0);
    const Dfa one = Dfa::constant(1);
    EXPECT_FALSE(zero.equivalent(one));
    EXPECT_TRUE(zero.equivalent(Dfa::constant(0)));
}

TEST(DfaTest, ConstantMachines)
{
    const Dfa one = Dfa::constant(1);
    EXPECT_EQ(one.numStates(), 1);
    EXPECT_EQ(one.predictAfter({0, 1, 0, 0}), 1);
}

TEST(DfaTest, DotOutputMentionsStatesAndEdges)
{
    const Dfa dfa = Dfa::constant(1);
    const std::string dot = dfa.toDot("example");
    EXPECT_NE(dot.find("digraph example"), std::string::npos);
    EXPECT_NE(dot.find("s0"), std::string::npos);
    EXPECT_NE(dot.find("[1]"), std::string::npos);
    EXPECT_NE(dot.find("init -> s0"), std::string::npos);
}

/**
 * Property: for a random cover over n variables, the fully processed
 * machine (subset construction + Hopcroft + steady-state reduction)
 * predicts exactly cover.evaluate(last n bits) on every input of length
 * >= n. This is the core semantic guarantee of Sections 4.5-4.7.
 */
class PipelinePropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(PipelinePropertyTest, FinalMachineMatchesCoverOnSuffixes)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 1);
    const int n = 2 + static_cast<int>(rng.below(3)); // 2..4

    // Random non-empty, non-total ON set as minterm cover.
    Cover cover(n);
    uint32_t on_count = 0;
    for (uint32_t m = 0; m < (1u << n); ++m) {
        if (rng.chance(0.4)) {
            cover.add(Cube::minterm(m, n));
            ++on_count;
        }
    }
    if (on_count == 0)
        cover.add(Cube::minterm(0, n));

    const Dfa fsm =
        Dfa::fromCover(cover).minimizeHopcroft().steadyStateReduce();

    for (int len = n; len <= n + 4; ++len) {
        for (const auto &s : allStrings(len)) {
            EXPECT_EQ(fsm.predictAfter(s) == 1,
                      cover.evaluate(suffixBits(s, n)))
                << "len=" << len;
        }
    }

    // The steady-state core of a suffix language needs at most 2^n
    // states (one per reachable suffix).
    EXPECT_LE(fsm.numStates(), 1 << n);
}

INSTANTIATE_TEST_SUITE_P(RandomCovers, PipelinePropertyTest,
                         ::testing::Range(0, 20));

} // anonymous namespace
} // namespace autofsm
