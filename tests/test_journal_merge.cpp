// Merge-validation suite: merge_journals is the checkpoint where every
// distributed-sweep invariant is proven rather than assumed. Each test
// violates exactly one invariant and checks for the structured kBadInput
// naming the offending shard — and that no output journal is published on
// failure. scripts/tier1.sh re-runs this suite under AddressSanitizer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/journal_merge.hpp"
#include "bench_support/parallel_sweep.hpp"
#include "bench_support/sweep_journal.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace ppg {
namespace {

std::string payload_for(std::uint32_t stage, std::uint64_t index) {
  std::ostringstream os;
  os << "stage=" << stage << " index=" << index;
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

class JournalMerge : public ::testing::Test {
 protected:
  // A per-test temp path, registered for removal in TearDown.
  std::string temp_path(const std::string& name) {
    const std::string path = test::unique_temp_path("merge_" + name);
    std::remove(path.c_str());
    paths_.push_back(path);
    return path;
  }

  /// Writes a complete shard journal: every cell of `cells` owned by
  /// `spec`, in stages {0, 1}, with deterministic payloads.
  std::string make_shard(const std::string& base, const ShardSpec& spec,
                         std::uint64_t cells) {
    const std::string path = temp_path("shard_" +
                                       std::to_string(spec.index) + "_of_" +
                                       std::to_string(spec.count) +
                                       ".ppgjrnl");
    const auto journal =
        SweepJournal::create(path, apply_shard_binding(base, spec));
    for (std::uint32_t stage : {0u, 1u}) {
      for (std::uint64_t i = 0; i < cells; ++i) {
        if (spec.owns(i)) journal->append(stage, i, payload_for(stage, i));
      }
    }
    return path;
  }

  void expect_merge_fails(const std::vector<std::string>& shard_paths,
                          const std::string& out,
                          const std::string& message_fragment) {
    try {
      merge_journals(shard_paths, out);
      FAIL() << "merge accepted inputs that should be refused ("
             << message_fragment << ")";
    } catch (const PpgException& e) {
      EXPECT_EQ(e.error().code, ErrorCode::kBadInput);
      EXPECT_NE(e.error().message.find(message_fragment), std::string::npos)
          << "got: " << e.error().message;
    }
    EXPECT_FALSE(file_exists(out))
        << "failed merge must not publish an output journal";
  }

  void TearDown() override {
    for (const std::string& path : paths_) {
      std::remove(path.c_str());
      std::remove((path + ".lock").c_str());
    }
  }

  std::vector<std::string> paths_;
};

TEST_F(JournalMerge, RebuildsTheFullGridUnderTheBaseBinding) {
  const std::string base = "bench v1 quick=1";
  std::vector<std::string> shard_paths;
  for (std::uint32_t i = 0; i < 3; ++i)
    shard_paths.push_back(make_shard(base, ShardSpec{i, 3}, 7));
  const std::string out = temp_path("merged.ppgjrnl");

  const MergeStats stats = merge_journals(shard_paths, out);
  EXPECT_EQ(stats.num_shards, 3u);
  EXPECT_EQ(stats.num_records, 14u);  // 2 stages x 7 cells
  EXPECT_EQ(stats.binding, base);

  // The merged journal resumes as an *unsharded* run of the same sweep.
  const auto merged = SweepJournal::load(out);
  EXPECT_EQ(merged->binding(), base);
  ASSERT_EQ(merged->num_records(), 14u);
  for (std::uint32_t stage : {0u, 1u}) {
    for (std::uint64_t i = 0; i < 7; ++i) {
      const std::string* payload = merged->find(stage, i);
      ASSERT_NE(payload, nullptr) << "stage " << stage << " index " << i;
      EXPECT_EQ(*payload, payload_for(stage, i));
    }
  }
}

TEST_F(JournalMerge, OutputIsIndependentOfShardArgumentOrder) {
  const std::string base = "bench v1";
  std::vector<std::string> shard_paths;
  for (std::uint32_t i = 0; i < 4; ++i)
    shard_paths.push_back(make_shard(base, ShardSpec{i, 4}, 10));
  const std::string forward = temp_path("merged_forward.ppgjrnl");
  const std::string backward = temp_path("merged_backward.ppgjrnl");

  merge_journals(shard_paths, forward);
  std::vector<std::string> reversed(shard_paths.rbegin(), shard_paths.rend());
  merge_journals(reversed, backward);
  EXPECT_EQ(read_file(forward), read_file(backward));
  EXPECT_FALSE(read_file(forward).empty());
}

TEST_F(JournalMerge, SingleUnshardedJournalMergesAsACopy) {
  // Identity shard (0/1) folds to the bare base binding; merging it is a
  // validated copy, which keeps tooling uniform across sharded and
  // unsharded runs.
  const std::string path = make_shard("bench v1", ShardSpec{}, 5);
  const std::string out = temp_path("merged_single.ppgjrnl");
  const MergeStats stats = merge_journals({path}, out);
  EXPECT_EQ(stats.num_shards, 1u);
  EXPECT_EQ(stats.num_records, 10u);
  EXPECT_EQ(SweepJournal::load(out)->binding(), "bench v1");
}

TEST_F(JournalMerge, RefusesEmptyInput) {
  expect_merge_fails({}, temp_path("merged_empty.ppgjrnl"),
                     "nothing to merge");
}

TEST_F(JournalMerge, RefusesMissingShardJournal) {
  const std::string a = make_shard("bench v1", ShardSpec{0, 2}, 6);
  const std::string b = make_shard("bench v1", ShardSpec{1, 2}, 6);
  std::remove(b.c_str());
  const std::string out = temp_path("merged_missing.ppgjrnl");
  EXPECT_THROW(merge_journals({a, b}, out), PpgException);
  EXPECT_FALSE(file_exists(out));
}

TEST_F(JournalMerge, RefusesFewerJournalsThanShardCount) {
  const std::string a = make_shard("bench v1", ShardSpec{0, 3}, 6);
  const std::string b = make_shard("bench v1", ShardSpec{1, 3}, 6);
  expect_merge_fails({a, b}, temp_path("merged_short.ppgjrnl"),
                     "one journal per shard");
}

TEST_F(JournalMerge, RefusesDuplicateShardSlice) {
  const std::string a = make_shard("bench v1", ShardSpec{0, 2}, 6);
  expect_merge_fails({a, a}, temp_path("merged_dup.ppgjrnl"),
                     "two journals claim the same slice");
}

TEST_F(JournalMerge, RefusesMixedShardCounts) {
  const std::string a = make_shard("bench v1", ShardSpec{0, 2}, 6);
  const std::string b = make_shard("bench v1", ShardSpec{1, 3}, 6);
  // Two journals, counts {2, 3}: neither "count == #journals" nor "same
  // slicing" holds; the error must mention the count mismatch either way.
  expect_merge_fails({a, b}, temp_path("merged_mixed.ppgjrnl"),
                     "shard count mismatch");
}

TEST_F(JournalMerge, RefusesBindingBaseMismatch) {
  const std::string a = make_shard("bench v1 quick=1", ShardSpec{0, 2}, 6);
  const std::string b = make_shard("bench v1 quick=0", ShardSpec{1, 2}, 6);
  expect_merge_fails({a, b}, temp_path("merged_base.ppgjrnl"),
                     "different sweeps");
}

TEST_F(JournalMerge, RefusesForeignCellAsOverlap) {
  const std::string a = make_shard("bench v1", ShardSpec{0, 2}, 6);
  const std::string b = make_shard("bench v1", ShardSpec{1, 2}, 6);
  {
    // Shard 0 also claims index 1 — shard 1's cell. This is how two racing
    // writers (or a mis-sliced rerun) manifest at merge time.
    const auto journal =
        SweepJournal::open_resume(a, "bench v1 shard=0/2");
    journal->append(0, 1, "foreign");
  }
  expect_merge_fails({a, b}, temp_path("merged_overlap.ppgjrnl"), "overlap");
}

TEST_F(JournalMerge, RefusesInteriorGapNamingTheIncompleteShard) {
  const std::string base = "bench v1";
  const std::string a = temp_path("shard_gap_0_of_2.ppgjrnl");
  {
    // Shard 0 of 2 over 6 cells owns {0, 2, 4} but journaled only {0, 4}:
    // cell 2 was lost, not absent by design.
    const auto journal =
        SweepJournal::create(a, apply_shard_binding(base, ShardSpec{0, 2}));
    journal->append(0, 0, payload_for(0, 0));
    journal->append(0, 4, payload_for(0, 4));
  }
  const std::string b = temp_path("shard_gap_1_of_2.ppgjrnl");
  {
    const auto journal =
        SweepJournal::create(b, apply_shard_binding(base, ShardSpec{1, 2}));
    for (std::uint64_t i : {1u, 3u, 5u})
      journal->append(0, i, payload_for(0, i));
  }
  const std::string out = temp_path("merged_gap.ppgjrnl");
  try {
    merge_journals({a, b}, out);
    FAIL() << "merge accepted a shard with a lost interior cell";
  } catch (const PpgException& e) {
    EXPECT_EQ(e.error().code, ErrorCode::kBadInput);
    EXPECT_NE(e.error().message.find("missing cell (stage 0, index 2)"),
              std::string::npos)
        << "got: " << e.error().message;
    // The error points the operator at the shard to resume.
    EXPECT_NE(e.error().message.find("0/2"), std::string::npos);
    EXPECT_NE(e.error().message.find("resume"), std::string::npos);
  }
  EXPECT_FALSE(file_exists(out));
}

TEST_F(JournalMerge, RefusesTornShardInsteadOfRepairing) {
  const std::string a = make_shard("bench v1", ShardSpec{0, 2}, 6);
  const std::string b = make_shard("bench v1", ShardSpec{1, 2}, 6);
  const std::string whole = read_file(b);
  ASSERT_GT(whole.size(), 3u);
  spill(b, whole.substr(0, whole.size() - 3));
  // open_resume would truncate the torn tail and carry on; merge must not —
  // the shard worker owns the repair (resume recomputes the torn cell).
  const std::string out = temp_path("merged_torn.ppgjrnl");
  EXPECT_THROW(merge_journals({a, b}, out), PpgException);
  EXPECT_FALSE(file_exists(out));
}

}  // namespace
}  // namespace ppg
