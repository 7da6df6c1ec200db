// SweepJournal: the PPGJRNL checkpoint file must round-trip encoded cells,
// recover from a tail torn at ANY byte, refuse foreign files, binding
// mismatches and a second live writer, and make sweep_cells resume without
// recomputation — with output identical across --jobs values and
// interruptions.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support/parallel_sweep.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/interrupt.hpp"

namespace ppg {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class SweepJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = test::unique_temp_path("journal_test.ppgjrnl");
    clear_interrupt();
  }
  void TearDown() override {
    clear_interrupt();
    std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(SweepJournalTest, RoundTripAcrossStagesAndIndices) {
  {
    auto j = SweepJournal::create(path_, "bench v1");
    j->append(0, 2, "cell-0-2");
    j->append(1, 0, "cell-1-0");
    j->append(0, 0, std::string("\x00\xff|binary", 9));
    EXPECT_EQ(j->num_records(), 3u);
  }
  auto j = SweepJournal::open_resume(path_, "bench v1");
  EXPECT_EQ(j->num_records(), 3u);
  EXPECT_EQ(j->recovered_tail_bytes(), 0u);
  ASSERT_NE(j->find(0, 2), nullptr);
  EXPECT_EQ(*j->find(0, 2), "cell-0-2");
  ASSERT_NE(j->find(1, 0), nullptr);
  EXPECT_EQ(*j->find(1, 0), "cell-1-0");
  ASSERT_NE(j->find(0, 0), nullptr);
  EXPECT_EQ(*j->find(0, 0), std::string("\x00\xff|binary", 9));
  EXPECT_EQ(j->find(2, 0), nullptr);
  EXPECT_EQ(j->find(0, 1), nullptr);
}

TEST_F(SweepJournalTest, TornTailAtEveryByteRecovers) {
  {
    auto j = SweepJournal::create(path_, "bench v1");
    j->append(0, 0, "first-record");
    j->append(0, 1, "second-record");
  }
  const std::string whole = slurp(path_);
  // Find where record 2 begins: the journal with only record 1.
  std::remove(path_.c_str());
  std::size_t first_end;
  {
    auto j = SweepJournal::create(path_, "bench v1");
    j->append(0, 0, "first-record");
  }
  first_end = slurp(path_).size();

  for (std::size_t cut = first_end; cut < whole.size(); ++cut) {
    spill(path_, whole.substr(0, cut));
    auto j = SweepJournal::open_resume(path_, "bench v1");
    ASSERT_NE(j->find(0, 0), nullptr) << "lost record 1 at cut " << cut;
    EXPECT_EQ(*j->find(0, 0), "first-record");
    EXPECT_EQ(j->find(0, 1), nullptr) << "kept a torn record at cut " << cut;
    EXPECT_EQ(j->recovered_tail_bytes(), cut - first_end);
    // The torn tail is truncated in place; appending must produce a
    // journal every future resume reads cleanly.
    j->append(0, 1, "second-record");
    j.reset();
    auto again = SweepJournal::open_resume(path_, "bench v1");
    EXPECT_EQ(again->num_records(), 2u);
    ASSERT_NE(again->find(0, 1), nullptr);
    EXPECT_EQ(*again->find(0, 1), "second-record");
  }
}

TEST_F(SweepJournalTest, CorruptChecksumDropsTailRecord) {
  {
    auto j = SweepJournal::create(path_, "bench v1");
    j->append(0, 0, "first-record");
    j->append(0, 1, "second-record");
  }
  std::string bytes = slurp(path_);
  bytes.back() ^= '\x01';  // flip a checksum bit of the final record
  spill(path_, bytes);
  auto j = SweepJournal::open_resume(path_, "bench v1");
  EXPECT_EQ(j->num_records(), 1u);
  EXPECT_NE(j->find(0, 0), nullptr);
  EXPECT_EQ(j->find(0, 1), nullptr);
  EXPECT_GT(j->recovered_tail_bytes(), 0u);
}

TEST_F(SweepJournalTest, ForeignFileIsRefused) {
  spill(path_, "PNG\x89 this is some other format entirely");
  try {
    SweepJournal::open_resume(path_, "bench v1");
    FAIL() << "opened a non-journal file as a journal";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kBadInput);
    EXPECT_FALSE(e.error().path.empty());
  }
}

TEST_F(SweepJournalTest, BindingMismatchIsRefused) {
  { SweepJournal::create(path_, "bench_a v1 p=8")->append(0, 0, "x"); }
  try {
    SweepJournal::open_resume(path_, "bench_a v1 p=16");
    FAIL() << "resumed against a journal with a different binding";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kBadInput);
    EXPECT_NE(e.error().message.find("binding"), std::string::npos);
  }
}

TEST_F(SweepJournalTest, MissingOrTornHeaderBecomesFresh) {
  // No file at all: resume degrades to a fresh journal.
  auto fresh = SweepJournal::open_resume(path_, "bench v1");
  EXPECT_EQ(fresh->num_records(), 0u);
  fresh->append(0, 0, "works");
  fresh.reset();
  // A header torn mid-magic (crash during creation): also fresh.
  spill(path_, "PPGJ");
  auto recreated = SweepJournal::open_resume(path_, "bench v1");
  EXPECT_EQ(recreated->num_records(), 0u);
  recreated->append(0, 0, "works again");
  recreated.reset();
  auto reread = SweepJournal::open_resume(path_, "bench v1");
  ASSERT_NE(reread->find(0, 0), nullptr);
  EXPECT_EQ(*reread->find(0, 0), "works again");
}

// --- sweep_cells integration ----------------------------------------------

std::vector<std::uint64_t> run_sweep(const SweepOptions& opts,
                                     std::atomic<std::size_t>* computed) {
  return sweep_cells(
      opts, 16,
      [&](std::size_t i) {
        if (computed != nullptr) computed->fetch_add(1);
        return cell_seed(99, i);  // deterministic, index-dependent
      },
      [](CellWriter& w, const std::uint64_t& v) { w.u64(v); },
      [](CellReader& r) { return r.u64(); });
}

TEST_F(SweepJournalTest, ResumeSkipsRecomputation) {
  std::atomic<std::size_t> computed{0};
  SweepOptions opts;
  opts.jobs = 2;
  auto j = SweepJournal::create(path_, "sweep v1");
  opts.journal = j.get();
  const auto first = run_sweep(opts, &computed);
  EXPECT_EQ(computed.load(), 16u);
  j.reset();

  computed = 0;
  auto resumed = SweepJournal::open_resume(path_, "sweep v1");
  opts.journal = resumed.get();
  const auto second = run_sweep(opts, &computed);
  EXPECT_EQ(computed.load(), 0u) << "resume recomputed journaled cells";
  EXPECT_EQ(first, second);
}

TEST_F(SweepJournalTest, JournaledResultsIdenticalAcrossJobs) {
  SweepOptions serial;
  const auto want = run_sweep(serial, nullptr);
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{4}}) {
    std::remove(path_.c_str());
    SweepOptions opts;
    opts.jobs = jobs;
    auto j = SweepJournal::create(path_, "sweep v1");
    opts.journal = j.get();
    EXPECT_EQ(run_sweep(opts, nullptr), want) << "jobs=" << jobs;
    // And decoding the journal back must reproduce the same results.
    j.reset();
    auto reopened = SweepJournal::open_resume(path_, "sweep v1");
    opts.journal = reopened.get();
    EXPECT_EQ(run_sweep(opts, nullptr), want) << "resume, jobs=" << jobs;
  }
}

TEST_F(SweepJournalTest, InterruptPreservesCompletedCells) {
  SweepOptions opts;
  opts.jobs = 1;  // deterministic claim order for the cutoff below
  auto j = SweepJournal::create(path_, "sweep v1");
  opts.journal = j.get();
  try {
    sweep_cells(
        opts, 16,
        [&](std::size_t i) {
          if (i == 5) request_interrupt();  // arrives "mid-sweep"
          return cell_seed(99, i);
        },
        [](CellWriter& w, const std::uint64_t& v) { w.u64(v); },
        [](CellReader& r) { return r.u64(); });
    FAIL() << "interrupted sweep did not throw";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kInterrupted);
    EXPECT_NE(e.error().message.find("--resume"), std::string::npos);
  }
  // Cells 0..5 finished (the in-flight cell drains) and are on disk.
  EXPECT_EQ(j->num_records(), 6u);
  j.reset();
  clear_interrupt();

  // Resume completes the remaining 10 cells and matches a clean run.
  std::atomic<std::size_t> computed{0};
  auto resumed = SweepJournal::open_resume(path_, "sweep v1");
  opts.journal = resumed.get();
  const auto got = run_sweep(opts, &computed);
  EXPECT_EQ(computed.load(), 10u);
  SweepOptions plain;
  EXPECT_EQ(got, run_sweep(plain, nullptr));
}

TEST_F(SweepJournalTest, BareResumeFlagWithoutJournalIsRejected) {
  const char* argv[] = {"bench", "--resume"};
  const ArgParser args(2, argv);
  try {
    journal_from_args(args, "bench v1");
    FAIL() << "accepted --resume without --journal";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kBadInput);
  }
}

TEST_F(SweepJournalTest, DuplicateRecordIsRejectedAsCorruption) {
  // Two records for one (stage, index) can only mean two writers raced
  // the journal; neither copy can be trusted, so resume must refuse —
  // not silently keep the last (or first) one.
  std::size_t header_size;
  {
    SweepJournal::create(path_, "bench v1");
    header_size = slurp(path_).size();
  }
  { SweepJournal::create(path_, "bench v1")->append(0, 0, "copy-a"); }
  const std::string bytes = slurp(path_);
  spill(path_, bytes + bytes.substr(header_size));  // the racer's copy
  try {
    SweepJournal::open_resume(path_, "bench v1");
    FAIL() << "resumed a journal with duplicate (stage, index) records";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kBadInput);
    EXPECT_NE(e.error().message.find("duplicate"), std::string::npos);
  }
}

// --- single-writer lock ---------------------------------------------------

TEST_F(SweepJournalTest, LiveJournalRefusesSecondWriterUntouched) {
  auto owner = SweepJournal::create(path_, "bench v1");
  owner->append(0, 0, "owned-record");
  const std::string before = slurp(path_);
  for (const bool resume : {false, true}) {
    try {
      if (resume) {
        SweepJournal::open_resume(path_, "bench v1");
      } else {
        SweepJournal::create(path_, "bench v1");
      }
      FAIL() << "second writer opened a live journal (resume=" << resume
             << ")";
    } catch (const PpgException& e) {
      EXPECT_EQ(e.error().code, ErrorCode::kJournalLocked);
      EXPECT_EQ(e.error().path, path_);
    }
    // The refusal happens before any byte changes.
    EXPECT_EQ(slurp(path_), before) << "resume=" << resume;
  }
  owner->append(0, 1, "still-owned");
  EXPECT_EQ(owner->num_records(), 2u);
}

TEST_F(SweepJournalTest, ResettingOwnerReleasesLock) {
  auto owner = SweepJournal::create(path_, "bench v1");
  owner->append(0, 0, "x");
  EXPECT_THROW(SweepJournal::open_resume(path_, "bench v1"), PpgException);
  owner.reset();
  auto next = SweepJournal::open_resume(path_, "bench v1");
  ASSERT_NE(next->find(0, 0), nullptr);
  EXPECT_EQ(*next->find(0, 0), "x");
}

TEST_F(SweepJournalTest, SigkilledWriterLeavesNoStaleLock) {
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // A writer that dies holding the journal: nothing runs its destructor.
    try {
      auto j = SweepJournal::create(path_, "bench v1");
      j->append(0, 0, "before-the-crash");
      std::raise(SIGKILL);
    } catch (...) {
    }
    ::_exit(1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  // The kernel dropped the dead owner's lock: a plain resume succeeds.
  auto resumed = SweepJournal::open_resume(path_, "bench v1");
  ASSERT_NE(resumed->find(0, 0), nullptr);
  EXPECT_EQ(*resumed->find(0, 0), "before-the-crash");
}

}  // namespace
}  // namespace ppg
