#include "trace/stack_distance.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>

#include "util/assert.hpp"
#include "util/math_util.hpp"

namespace ppg {

namespace {

/// Fenwick (binary indexed) tree over [0, n) with point update and prefix
/// count queries; counts never exceed the trace length, so T only has to
/// hold that.
template <typename T>
class Fenwick {
 public:
  explicit Fenwick(std::size_t n) : tree_(n + 1, 0) {}

  void add(std::size_t pos, T count) {
    for (std::size_t i = pos + 1; i < tree_.size(); i += i & (~i + 1))
      tree_[i] += count;
  }

  void remove_one(std::size_t pos) {
    for (std::size_t i = pos + 1; i < tree_.size(); i += i & (~i + 1))
      --tree_[i];
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

/// Position of each page's latest access: open addressing on the PageId
/// with Fibonacci hashing (as LruFlatIndex), kInvalidPage as the empty
/// key, doubled whenever the distinct pages would fill more than half the
/// cells, so it holds O(distinct pages) whatever the trace length. A real
/// kInvalidPage request is kept outside the table.
class LastAccessTable {
 public:
  LastAccessTable() { resize(kInitialCells); }

  /// Records an access to `page` at `pos` and returns the position of the
  /// previous access to it, kNoPrevious if there is none.
  std::size_t exchange(PageId page, std::size_t pos) {
    if (page == kInvalidPage) return std::exchange(invalid_last_, pos);
    std::size_t i = home(page);
    for (;;) {
      Cell& cell = cells_[i];
      if (cell.page == page) return std::exchange(cell.last, pos);
      if (cell.page == kInvalidPage) break;
      i = (i + 1) & mask_;
    }
    cells_[i] = Cell{page, pos};
    if (2 * ++distinct_ > cells_.size()) resize(2 * cells_.size());
    return kNoPrevious;
  }

  /// True once a kInvalidPage request has been recorded.
  bool saw_invalid_page() const { return invalid_last_ != kNoPrevious; }

 private:
  static constexpr std::size_t kInitialCells = 64;

  struct Cell {
    PageId page = kInvalidPage;
    std::size_t last = kNoPrevious;
  };

  std::size_t home(PageId page) const {
    return static_cast<std::size_t>((page * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void resize(std::size_t cells) {
    const std::vector<Cell> old =
        std::exchange(cells_, std::vector<Cell>(cells));
    mask_ = cells - 1;
    shift_ = 64 - ilog2_floor(cells);
    for (const Cell& cell : old) {
      if (cell.page == kInvalidPage) continue;
      std::size_t i = home(cell.page);
      while (cells_[i].page != kInvalidPage) i = (i + 1) & mask_;
      cells_[i] = cell;
    }
  }

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  std::uint32_t shift_ = 64;
  std::size_t distinct_ = 0;
  std::size_t invalid_last_ = kNoPrevious;
};

/// Live markers in one 64-position word (SWAR: the build targets baseline
/// x86-64, where std::popcount is a library call).
inline unsigned live_count(std::uint64_t word) {
  word -= (word >> 1) & 0x5555555555555555ULL;
  word = (word & 0x3333333333333333ULL) + ((word >> 2) & 0x3333333333333333ULL);
  word = (word + (word >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<unsigned>((word * 0x0101010101010101ULL) >> 56);
}

constexpr std::size_t kGroupWords = 4;  // 64-bit words per counted group
constexpr std::size_t kGroupShift = 8;  // log2 of the positions per group
static_assert(std::size_t{64} * kGroupWords == std::size_t{1} << kGroupShift);
/// Groups counted word by word (the current one and those before it); the
/// older ones are committed to the group-count tree.
constexpr std::size_t kRecentGroups = 2;

/// Stack distances of an n-request trace, D's maximum for a first access;
/// previous_of(i) is called once for each i in order and returns the
/// position of the previous access to request i's page (kNoPrevious if
/// none). D must hold n.
///
/// One live-marker bit per position is set at the latest access of every
/// page seen so far, so the distance of request i is the number of live
/// markers in (prev, i).
/// When prev lies in the recent groups (at most 2 * kGroupWords words
/// back) that is a word-by-word count and moving the marker touches no
/// tree. Otherwise it is the rest of prev's word and group, plus the
/// committed groups after it (one prefix walk against their running
/// total), plus the running count of the recent groups, and the marker
/// leaves its committed group by one tree walk. A group is committed once,
/// by one walk, when it falls out of the recent window. So every request
/// costs O(kGroupWords) word counts and at most two walks over n / 256
/// groups.
template <typename D, typename PreviousOf>
std::vector<D> live_marker_distances(std::size_t n, PreviousOf previous_of) {
  std::vector<D> out(n, std::numeric_limits<D>::max());
  const std::size_t groups = (n >> kGroupShift) + 1;
  std::vector<std::uint64_t> live(groups * kGroupWords, 0);
  Fenwick<D> tree(groups);
  std::size_t committed = 0;  // groups [0, committed) are in the tree
  D committed_live = 0;       // their live markers
  D recent_live = 0;          // live markers at or after group `committed`
  for (std::size_t i = 0; i < n; ++i) {
    if ((i & ((std::size_t{1} << kGroupShift) - 1)) == 0 &&
        (i >> kGroupShift) >= committed + kRecentGroups) {
      D count = 0;
      for (std::size_t w = 0; w < kGroupWords; ++w)
        count += live_count(live[committed * kGroupWords + w]);
      tree.add(committed, count);
      committed_live += count;
      recent_live -= count;
      ++committed;
    }
    const std::size_t prev = previous_of(i);
    if (prev != kNoPrevious) {
      const std::size_t word = prev >> 6;
      const std::uint64_t bit = std::uint64_t{1} << (prev & 63);
      D distance = live_count(live[word] & (~std::uint64_t{1} << (prev & 63)));
      const std::size_t group = prev >> kGroupShift;
      if (group >= committed) {
        for (std::size_t w = word + 1; w <= (i >> 6); ++w)
          distance += live_count(live[w]);
        --recent_live;
      } else {
        for (std::size_t w = word + 1; w < (group + 1) * kGroupWords; ++w)
          distance += live_count(live[w]);
        distance += committed_live - tree.prefix(group) + recent_live;
        tree.remove_one(group);
        --committed_live;
      }
      live[word] &= ~bit;
      out[i] = distance;
    }
    live[i >> 6] |= std::uint64_t{1} << (i & 63);
    ++recent_live;
  }
  return out;
}

/// The fused pass: previous accesses from the flat table, distances from
/// the live markers, in one loop. Reports through `saw_invalid_page`
/// whether the trace holds kInvalidPage.
template <typename D>
std::vector<D> trace_distances(const Trace& trace, bool* saw_invalid_page) {
  LastAccessTable last;
  std::vector<D> out = live_marker_distances<D>(
      trace.size(),
      [&](std::size_t i) { return last.exchange(trace[i], i); });
  if (saw_invalid_page != nullptr) *saw_invalid_page = last.saw_invalid_page();
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
  std::vector<std::size_t> out(trace.size());
  LastAccessTable last;
  for (std::size_t i = 0; i < trace.size(); ++i)
    out[i] = last.exchange(trace[i], i);
  return out;
}

std::vector<std::uint64_t> stack_distances(const Trace& trace) {
  return trace_distances<std::uint64_t>(trace, nullptr);
}

std::vector<std::uint64_t> stack_distances(
    const std::vector<std::size_t>& previous) {
  return live_marker_distances<std::uint64_t>(
      previous.size(), [&](std::size_t i) { return previous[i]; });
}

std::vector<std::uint32_t> packed_stack_distances(const Trace& trace,
                                                  bool* saw_invalid_page) {
  PPG_CHECK(trace.size() < kColdDistance);
  return trace_distances<std::uint32_t>(trace, saw_invalid_page);
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
