// Hostile-input hardening of the trace readers: truncation at any byte,
// garbage headers, and attacker-controlled counts/lengths must surface a
// structured PpgException — never a crash and never an allocation keyed on
// the corrupt value.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "test_helpers.hpp"
#include "trace/trace_io.hpp"
#include "util/error.hpp"

namespace ppg {
namespace {

MultiTrace sample() {
  MultiTrace mt;
  mt.add(test::make_trace({1, 2, 3, 1, 2}));
  mt.add(test::make_trace({9, 8, 9}));
  return mt;
}

std::string serialized() {
  std::ostringstream os;
  write_multitrace(os, sample());
  return os.str();
}

TEST(TraceIoCorruption, RoundTripStillWorks) {
  std::istringstream is(serialized());
  const MultiTrace back = read_multitrace(is);
  EXPECT_TRUE(back.traces() == sample().traces());
}

TEST(TraceIoCorruption, TruncationAtEveryByteIsRejected) {
  const std::string bytes = serialized();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::istringstream is(bytes.substr(0, cut));
    try {
      read_multitrace(is);
      FAIL() << "accepted a stream truncated to " << cut << " of "
             << bytes.size() << " bytes";
    } catch (const PpgException& e) {
      EXPECT_EQ(e.error().code, ErrorCode::kCorruptTrace);
    }
  }
}

TEST(TraceIoCorruption, BadMagicAndVersionAreRejected) {
  std::string bytes = serialized();
  {
    std::string bad = bytes;
    bad[3] = 'x';
    std::istringstream is(bad);
    try {
      read_multitrace(is);
      FAIL() << "accepted bad magic";
    } catch (const PpgException& e) {
      EXPECT_NE(e.error().message.find("magic"), std::string::npos);
    }
  }
  {
    std::string bad = bytes;
    bad[8] = '\x7f';  // version little-endian low byte
    std::istringstream is(bad);
    try {
      read_multitrace(is);
      FAIL() << "accepted bad version";
    } catch (const PpgException& e) {
      EXPECT_NE(e.error().message.find("version"), std::string::npos);
    }
  }
}

TEST(TraceIoCorruption, HugeDeclaredCountIsRejectedBeforeLooping) {
  std::string bytes = serialized();
  // Trace count is the u32 after magic(8) + version(4).
  const std::uint32_t huge = 0xffffffffu;
  std::memcpy(bytes.data() + 12, &huge, sizeof(huge));
  std::istringstream is(bytes);
  try {
    read_multitrace(is);
    FAIL() << "accepted a 4-billion-trace header";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kCorruptTrace);
    EXPECT_NE(e.error().message.find("count"), std::string::npos);
    EXPECT_NE(e.error().byte_offset, kNoOffset);
  }
}

TEST(TraceIoCorruption, HugeDeclaredLengthIsRejectedBeforeAllocating) {
  std::string bytes = serialized();
  // First trace's u64 length sits right after the 16-byte header. A
  // declared 2^61 requests would be a 2^64-byte allocation if trusted.
  const std::uint64_t huge = std::uint64_t{1} << 61;
  std::memcpy(bytes.data() + 16, &huge, sizeof(huge));
  std::istringstream is(bytes);
  try {
    read_multitrace(is);
    FAIL() << "accepted a 2^61-request trace length";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kCorruptTrace);
    EXPECT_NE(e.error().message.find("length"), std::string::npos);
  }
}

TEST(TraceIoCorruption, TextReaderRejectsMalformedLines) {
  {
    std::istringstream is("0 1\nnot-a-number 2\n");
    EXPECT_THROW(read_multitrace_text(is), PpgException);
  }
  {
    std::istringstream is("0 1 extra-token\n");
    try {
      read_multitrace_text(is);
      FAIL() << "accepted trailing tokens";
    } catch (const PpgException& e) {
      EXPECT_NE(e.error().message.find("trailing"), std::string::npos);
    }
  }
}

TEST(TraceIoCorruption, TextReaderCapsHostileProcIds) {
  // A proc id of 2^40 would be a terabyte-scale resize if trusted.
  std::istringstream is("1099511627776 5\n");
  try {
    read_multitrace_text(is);
    FAIL() << "accepted a 2^40 processor id";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kCorruptTrace);
    EXPECT_NE(e.error().message.find("out of range"), std::string::npos);
  }
}

TEST(TraceIoCorruption, TextReaderSkipsCommentsAndBlanks) {
  std::istringstream is("# header comment\n\n  \t\n0 3\n0 4 # inline\n1 7\n");
  const MultiTrace mt = read_multitrace_text(is);
  ASSERT_EQ(mt.num_procs(), 2u);
  EXPECT_EQ(mt.trace(0).requests(), (std::vector<PageId>{3, 4}));
  EXPECT_EQ(mt.trace(1).requests(), (std::vector<PageId>{7}));
}

// --- Chunked streaming reader (open_multitrace_source) ---------------------

class StreamingReaderCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = test::unique_temp_path("corrupt_stream.ppgtrace");
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void write_bytes(const std::string& bytes) {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
};

TEST_F(StreamingReaderCorruption, StreamsIntactFileThroughTinyChunks) {
  write_bytes(serialized());
  // chunk_requests=2 forces a refill every other request; the reader must
  // hide the chunking entirely, including EOF landing inside a chunk.
  const MultiTraceSource sources = open_multitrace_source(path_, 2);
  EXPECT_TRUE(sources.materialize().traces() == sample().traces());
}

TEST_F(StreamingReaderCorruption, EofExactlyAtChunkBoundary) {
  // First trace has 5 requests; a 5-request chunk makes the payload end
  // exactly where the buffer does, and the second trace (3 requests) ends
  // mid-chunk. Both boundaries must read cleanly.
  write_bytes(serialized());
  const MultiTraceSource sources = open_multitrace_source(path_, 5);
  EXPECT_TRUE(sources.materialize().traces() == sample().traces());
  // Also chunk == total payload and chunk > payload.
  for (const std::size_t chunk : {std::size_t{8}, std::size_t{64}}) {
    const MultiTraceSource again = open_multitrace_source(path_, chunk);
    EXPECT_TRUE(again.materialize().traces() == sample().traces());
  }
}

TEST_F(StreamingReaderCorruption, TruncationAtEveryByteIsRejectedAtOpen) {
  // A torn record — the file ends before the lengths declared in its
  // header — must fail at open_multitrace_source time, before any cursor
  // touches the payload.
  const std::string bytes = serialized();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    write_bytes(bytes.substr(0, cut));
    try {
      open_multitrace_source(path_, 4);
      FAIL() << "opened a file truncated to " << cut << " of "
             << bytes.size() << " bytes";
    } catch (const PpgException& e) {
      EXPECT_TRUE(e.error().code == ErrorCode::kCorruptTrace ||
                  e.error().code == ErrorCode::kIoError)
          << "cut=" << cut << ": " << e.error().to_string();
    }
  }
}

TEST_F(StreamingReaderCorruption, MissingFileIsAnIoError) {
  try {
    open_multitrace_source(path_ + ".does-not-exist");
    FAIL() << "opened a nonexistent file";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kIoError);
  }
}

TEST_F(StreamingReaderCorruption, HugeDeclaredLengthIsRejectedAtOpen) {
  std::string bytes = serialized();
  const std::uint64_t huge = std::uint64_t{1} << 61;
  std::memcpy(bytes.data() + 16, &huge, sizeof(huge));
  write_bytes(bytes);
  try {
    open_multitrace_source(path_, 4);
    FAIL() << "accepted a 2^61-request trace length";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kCorruptTrace);
  }
}

TEST_F(StreamingReaderCorruption, TruncationAfterOpenSurfacesFromCursor) {
  // The validated file shrinks between open and read (torn rewrite,
  // vanished NFS page): the cursor must surface kCorruptTrace, not crash
  // or return garbage.
  const std::string bytes = serialized();
  write_bytes(bytes);
  const MultiTraceSource sources = open_multitrace_source(path_, 2);
  // Cut the file inside the first trace's payload (header is 16 bytes,
  // then u64 length, then 5 * 8 payload bytes).
  write_bytes(bytes.substr(0, 16 + 8 + 2 * 8));
  auto cursor = sources.source(0).cursor();
  PageId page = kInvalidPage;
  try {
    while (!cursor->done()) ASSERT_EQ(cursor->next_span(&page, 1), 1u);
    FAIL() << "streamed past the torn payload";
  } catch (const PpgException& e) {
    EXPECT_TRUE(e.error().code == ErrorCode::kCorruptTrace ||
                e.error().code == ErrorCode::kIoError)
        << e.error().to_string();
  }
}

}  // namespace
}  // namespace ppg
