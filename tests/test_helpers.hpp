// Shared fixtures and fakes for the test suite.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "trace/trace.hpp"

namespace ppg::test {

/// An EngineView with a directly settable active set, for driving
/// schedulers without an engine.
class FakeView final : public EngineView {
 public:
  explicit FakeView(ProcId p) : active_(p, true), ids_(p) {
    std::iota(ids_.begin(), ids_.end(), ProcId{0});
  }

  ProcId num_procs() const override {
    return static_cast<ProcId>(active_.size());
  }
  ProcId active_count() const override {
    return static_cast<ProcId>(ids_.size());
  }
  bool is_active(ProcId proc) const override { return active_[proc]; }
  const std::vector<ProcId>& active_ids() const override { return ids_; }

  void finish(ProcId proc) {
    if (active_[proc]) {
      active_[proc] = false;
      ids_.erase(std::lower_bound(ids_.begin(), ids_.end(), proc));
    }
  }

 private:
  std::vector<bool> active_;
  std::vector<ProcId> ids_;  ///< Ascending.
};

/// A path under testing::TempDir() unique to the running test case and
/// process: ppg_<Suite>.<Test>_<pid>_<stem>. gtest_discover_tests runs
/// every case as its own ctest process, so a fixed file name there is
/// shared by whichever cases `ctest -j` runs at once. The same stem within
/// one test yields the same path. ppg_lint's temp-path rule sends every
/// test's temp file through here.
inline std::string unique_temp_path(const std::string& stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info == nullptr ? std::string("no_test")
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  std::replace(test.begin(), test.end(), '/', '_');  // parameterized names
  return ::testing::TempDir() + "ppg_" + test + "_" +
         std::to_string(::getpid()) + "_" + stem;
}

/// Builds a Trace from an initializer-list of small ints (test shorthand).
inline Trace make_trace(std::initializer_list<int> pages) {
  std::vector<PageId> reqs;
  for (int p : pages) reqs.push_back(static_cast<PageId>(p));
  return Trace(std::move(reqs));
}

}  // namespace ppg::test
