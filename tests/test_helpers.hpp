// Shared fixtures and fakes for the test suite.
#pragma once

#include <algorithm>
#include <numeric>
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

/// Builds a Trace from an initializer-list of small ints (test shorthand).
inline Trace make_trace(std::initializer_list<int> pages) {
  std::vector<PageId> reqs;
  for (int p : pages) reqs.push_back(static_cast<PageId>(p));
  return Trace(std::move(reqs));
}

}  // namespace ppg::test
