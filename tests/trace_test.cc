/**
 * @file
 * Tests for the trace substrate: binary trace I/O.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "support/rng.hh"
#include "trace/trace_io.hh"
#include "workloads/branch_workloads.hh"
#include "workloads/value_workloads.hh"

namespace autofsm
{
namespace
{

TEST(TraceIoTest, BranchRoundTripThroughStream)
{
    const BranchTrace original =
        makeBranchTrace("gsm", WorkloadInput::Train, 3000);
    std::stringstream buffer;
    writeBranchTrace(buffer, original);
    const BranchTrace loaded = readBranchTrace(buffer);
    ASSERT_EQ(loaded.size(), original.size());
    for (size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(loaded[i].pc, original[i].pc);
        EXPECT_EQ(loaded[i].taken, original[i].taken);
    }
}

TEST(TraceIoTest, ValueRoundTripThroughStream)
{
    const ValueTrace original = makeValueTrace("li", 3000);
    std::stringstream buffer;
    writeValueTrace(buffer, original);
    const ValueTrace loaded = readValueTrace(buffer);
    ASSERT_EQ(loaded.size(), original.size());
    for (size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(loaded[i].pc, original[i].pc);
        EXPECT_EQ(loaded[i].value, original[i].value);
    }
}

TEST(TraceIoTest, EmptyTraceRoundTrips)
{
    std::stringstream buffer;
    writeBranchTrace(buffer, {});
    EXPECT_TRUE(readBranchTrace(buffer).empty());
}

TEST(TraceIoTest, RejectsBadMagicAndWrongKind)
{
    std::stringstream garbage("not a trace at all, sorry");
    EXPECT_THROW(readBranchTrace(garbage), std::invalid_argument);

    std::stringstream wrong_kind;
    writeValueTrace(wrong_kind, {});
    EXPECT_THROW(readBranchTrace(wrong_kind), std::invalid_argument);
}

TEST(TraceIoTest, RejectsTruncatedBody)
{
    std::stringstream buffer;
    BranchTrace trace = {{0x100, true}, {0x200, false}};
    writeBranchTrace(buffer, trace);
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() - 5); // chop mid-record
    std::stringstream chopped(bytes);
    EXPECT_THROW(readBranchTrace(chopped), std::invalid_argument);
}

TEST(TraceIoTest, RejectsBadOutcomeByte)
{
    std::stringstream buffer;
    BranchTrace trace = {{0x100, true}, {0x200, false}};
    writeBranchTrace(buffer, trace);
    std::string bytes = buffer.str();
    // Record layout after the 16-byte header: 8-byte pc, 1 outcome
    // byte. Corrupt the first record's outcome to a non-boolean value.
    ASSERT_GT(bytes.size(), 24u);
    bytes[24] = '\x07';
    std::stringstream corrupt(bytes);
    EXPECT_THROW(readBranchTrace(corrupt), std::invalid_argument);
    try {
        std::stringstream again(bytes);
        readBranchTrace(again);
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("outcome"),
                  std::string::npos);
    }
}

TEST(TraceIoTest, RejectsImplausibleRecordCount)
{
    std::stringstream buffer;
    writeBranchTrace(buffer, {});
    std::string bytes = buffer.str();
    // Overwrite the 8-byte record count (header bytes 8..15) with an
    // absurd value; the reader must refuse before reserving memory.
    ASSERT_GE(bytes.size(), 16u);
    for (size_t i = 8; i < 16; ++i)
        bytes[i] = '\xff';
    std::stringstream corrupt(bytes);
    try {
        readBranchTrace(corrupt);
        FAIL() << "expected rejection";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("implausible"),
                  std::string::npos);
    }
}

TEST(TraceIoTest, RejectsTruncatedValueTrace)
{
    std::stringstream buffer;
    const ValueTrace trace = {{0x100, 42}, {0x200, 43}};
    writeValueTrace(buffer, trace);
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() - 3); // chop mid-record
    std::stringstream chopped(bytes);
    EXPECT_THROW(readValueTrace(chopped), std::invalid_argument);
}

TEST(TraceIoTest, FileRoundTrip)
{
    const std::string path = "/tmp/autofsm_trace_io_test.bin";
    const BranchTrace original =
        makeBranchTrace("gs", WorkloadInput::Test, 1000);
    saveBranchTrace(path, original);
    const BranchTrace loaded = loadBranchTrace(path);
    EXPECT_EQ(loaded.size(), original.size());
    std::remove(path.c_str());
}

TEST(TraceIoTest, MissingFileThrows)
{
    EXPECT_THROW(loadBranchTrace("/nonexistent/nope.bin"),
                 std::invalid_argument);
}

} // anonymous namespace
} // namespace autofsm
