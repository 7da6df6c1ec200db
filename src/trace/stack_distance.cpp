#include "trace/stack_distance.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>

#include "util/assert.hpp"

namespace ppg {

namespace {

/// Fenwick (binary indexed) tree over [0, n) with point update and prefix
/// count queries; counts never exceed n, so T only has to hold n.
template <typename T>
class Fenwick {
 public:
  explicit Fenwick(std::size_t n) : tree_(n + 1, 0) {}

  void add(std::size_t pos, int delta) {
    for (std::size_t i = pos + 1; i < tree_.size(); i += i & (~i + 1))
      tree_[i] = static_cast<T>(static_cast<std::int64_t>(tree_[i]) + delta);
  }

  /// Sum of entries in [0, pos].
  T prefix(std::size_t pos) const {
    T sum = 0;
    for (std::size_t i = pos + 1; i > 0; i -= i & (~i + 1)) sum += tree_[i];
    return sum;
  }

 private:
  std::vector<T> tree_;
};

/// The Fenwick pass over previous_accesses(), distances of type D with
/// D's maximum for first accesses. D must hold previous.size().
template <typename D>
std::vector<D> fenwick_distances(const std::vector<std::size_t>& previous) {
  const std::size_t n = previous.size();
  std::vector<D> out(n, std::numeric_limits<D>::max());
  if (n == 0) return out;

  // A 1 at the latest access of every page seen so far.
  Fenwick<D> live(n);
  D distinct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t prev = previous[i];
    if (prev == kNoPrevious) {
      ++distinct;
    } else {
      // Distinct pages accessed strictly between prev and i = live markers
      // in (prev, i); every distinct page seen so far holds exactly one.
      out[i] = static_cast<D>(distinct - live.prefix(prev));
      live.add(prev, -1);
    }
    live.add(i, +1);
  }
  return out;
}

}  // namespace

void OnlineStackDistance::tree_add(std::size_t slot, std::int64_t delta) {
  for (std::size_t i = slot + 1; i < tree_.size(); i += i & (~i + 1))
    tree_[i] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(tree_[i]) + delta);
}

std::uint64_t OnlineStackDistance::tree_prefix(std::size_t slot) const {
  std::uint64_t sum = 0;
  for (std::size_t i = slot + 1; i > 0; i -= i & (~i + 1)) sum += tree_[i];
  return sum;
}

void OnlineStackDistance::compact() {
  // Live pages keep their relative slot order, so distances computed after
  // compaction are unchanged.
  std::vector<std::pair<std::uint64_t, PageId>> order;
  order.reserve(slot_of_.size());
  // Drained pairs are sorted below before any use, so the map's order never
  // escapes this function. ppg-lint: allow(unordered-iter)
  for (const auto& [page, slot] : slot_of_) order.emplace_back(slot, page);
  std::sort(order.begin(), order.end());
  tree_.assign(std::max<std::size_t>(16, 2 * order.size() + 2), 0);
  next_slot_ = 0;
  for (const auto& [slot, page] : order) {
    slot_of_[page] = next_slot_;
    tree_add(static_cast<std::size_t>(next_slot_), +1);
    ++next_slot_;
  }
}

std::uint64_t OnlineStackDistance::access(PageId page) {
  // Compact before touching the tree so the new slot always fits; value
  // updates keep map iterators valid.
  if (next_slot_ + 1 >= tree_.size()) compact();
  std::uint64_t distance = kInfiniteDistance;
  const auto it = slot_of_.find(page);
  if (it != slot_of_.end()) {
    // Live slots strictly after the previous access = distinct pages
    // touched since (the page's own marker sits AT the previous slot).
    distance = slot_of_.size() -
               tree_prefix(static_cast<std::size_t>(it->second));
    tree_add(static_cast<std::size_t>(it->second), -1);
  }
  const std::uint64_t slot = next_slot_++;
  tree_add(static_cast<std::size_t>(slot), +1);
  if (it != slot_of_.end())
    it->second = slot;
  else
    slot_of_.emplace(page, slot);
  return distance;
}

std::vector<std::size_t> previous_accesses(const Trace& trace) {
  const std::size_t n = trace.size();
  std::vector<std::size_t> out(n, kNoPrevious);
  std::unordered_map<PageId, std::size_t> last_access;
  last_access.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [it, first] = last_access.try_emplace(trace[i], i);
    if (!first) {
      out[i] = it->second;
      it->second = i;
    }
  }
  return out;
}

std::vector<std::uint64_t> stack_distances(const Trace& trace) {
  return stack_distances(previous_accesses(trace));
}

std::vector<std::uint64_t> stack_distances(
    const std::vector<std::size_t>& previous) {
  return fenwick_distances<std::uint64_t>(previous);
}

std::vector<std::uint32_t> packed_stack_distances(const Trace& trace) {
  PPG_CHECK(trace.size() < kColdDistance);
  return fenwick_distances<std::uint32_t>(previous_accesses(trace));
}

std::vector<std::uint64_t> stack_distances_naive(const Trace& trace) {
  std::vector<std::uint64_t> out(trace.size(), kInfiniteDistance);
  std::vector<PageId> stack;  // MRU at back
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const PageId page = trace[i];
    const auto it = std::find(stack.rbegin(), stack.rend(), page);
    if (it != stack.rend()) {
      out[i] = static_cast<std::uint64_t>(it - stack.rbegin());
      stack.erase(std::next(it).base());
    }
    stack.push_back(page);
  }
  return out;
}

}  // namespace ppg
