// Concrete eviction policies: LRU, FIFO, CLOCK, RANDOM, LFU, BELADY.
#include <algorithm>
#include <deque>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "paging/eviction_policy.hpp"
#include "trace/stack_distance.hpp"
#include "util/assert.hpp"
#include "util/lru_set.hpp"

namespace ppg {

namespace {

class LruPolicy final : public EvictionPolicy {
 public:
  explicit LruPolicy(Height capacity) : set_(capacity) {}

  void insert(PageId page) override { set_.access(page); }
  void touch(PageId page) override { set_.access(page); }
  PageId evict() override {
    const PageId victim = set_.lru_page();
    PPG_CHECK_MSG(victim != kInvalidPage, "evict from empty LRU");
    set_.erase(victim);
    return victim;
  }
  void clear() override { set_.clear(); }
  bool contains(PageId page) const override { return set_.contains(page); }
  bool touch_if_resident(PageId page) override {
    return set_.try_touch(page);
  }
  const char* name() const override { return "LRU"; }

 private:
  LruSet set_;
};

class FifoPolicy final : public EvictionPolicy {
 public:
  void insert(PageId page) override {
    queue_.push_back(page);
    resident_.insert(page);
  }
  void touch(PageId) override {}  // FIFO ignores re-access
  PageId evict() override {
    PPG_CHECK_MSG(!queue_.empty(), "evict from empty FIFO");
    const PageId victim = queue_.front();
    queue_.pop_front();
    resident_.erase(victim);
    return victim;
  }
  void clear() override {
    queue_.clear();
    resident_.clear();
  }
  bool contains(PageId page) const override {
    return resident_.contains(page);
  }
  bool touch_if_resident(PageId page) override {
    return resident_.contains(page);  // touch is a no-op for FIFO
  }
  const char* name() const override { return "FIFO"; }

 private:
  std::deque<PageId> queue_;
  std::unordered_set<PageId> resident_;
};

// CLOCK (second chance): circular buffer of (page, referenced) pairs; the
// hand sweeps, clearing reference bits, and evicts the first unreferenced
// page it meets.
class ClockPolicy final : public EvictionPolicy {
 public:
  explicit ClockPolicy(Height capacity) { frames_.reserve(capacity); }

  void insert(PageId page) override {
    index_[page] = frames_.size();
    frames_.push_back(Frame{page, /*referenced=*/false});
  }
  void touch(PageId page) override {
    const auto it = index_.find(page);
    PPG_DCHECK(it != index_.end());
    frames_[it->second].referenced = true;
  }
  bool contains(PageId page) const override {
    return index_.contains(page);
  }
  bool touch_if_resident(PageId page) override {
    const auto it = index_.find(page);
    if (it == index_.end()) return false;
    frames_[it->second].referenced = true;
    return true;
  }
  PageId evict() override {
    PPG_CHECK_MSG(!frames_.empty(), "evict from empty CLOCK");
    for (;;) {
      if (hand_ >= frames_.size()) hand_ = 0;
      Frame& f = frames_[hand_];
      if (f.referenced) {
        f.referenced = false;
        ++hand_;
        continue;
      }
      const PageId victim = f.page;
      // Swap-remove; fix the index of the page moved into this slot.
      index_.erase(victim);
      f = frames_.back();
      frames_.pop_back();
      if (hand_ < frames_.size()) index_[frames_[hand_].page] = hand_;
      return victim;
    }
  }
  void clear() override {
    frames_.clear();
    index_.clear();
    hand_ = 0;
  }
  const char* name() const override { return "CLOCK"; }

 private:
  struct Frame {
    PageId page;
    bool referenced;
  };
  std::vector<Frame> frames_;
  std::unordered_map<PageId, std::size_t> index_;
  std::size_t hand_ = 0;
};

class RandomPolicy final : public EvictionPolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed) : rng_(seed) {}

  void insert(PageId page) override {
    index_[page] = pages_.size();
    pages_.push_back(page);
  }
  void touch(PageId) override {}
  bool contains(PageId page) const override {
    return index_.contains(page);
  }
  bool touch_if_resident(PageId page) override {
    return index_.contains(page);  // touch is a no-op for RANDOM
  }
  PageId evict() override {
    PPG_CHECK_MSG(!pages_.empty(), "evict from empty RANDOM");
    const std::size_t i = rng_.next_below(pages_.size());
    const PageId victim = pages_[i];
    index_.erase(victim);
    pages_[i] = pages_.back();
    pages_.pop_back();
    if (i < pages_.size()) index_[pages_[i]] = i;
    return victim;
  }
  void clear() override {
    pages_.clear();
    index_.clear();
  }
  const char* name() const override { return "RANDOM"; }

 private:
  Rng rng_;
  std::vector<PageId> pages_;
  std::unordered_map<PageId, std::size_t> index_;
};

// LFU with LRU tie-break: frequency map plus recency stamp; eviction scans
// resident pages. O(capacity) evictions — acceptable at simulator scales
// and avoids a heavyweight frequency-bucket structure.
class LfuPolicy final : public EvictionPolicy {
 public:
  void insert(PageId page) override {
    entries_[page] = Entry{1, stamp_++};
  }
  void touch(PageId page) override {
    auto it = entries_.find(page);
    PPG_DCHECK(it != entries_.end());
    ++it->second.frequency;
    it->second.last_use = stamp_++;
  }
  bool contains(PageId page) const override {
    return entries_.contains(page);
  }
  bool touch_if_resident(PageId page) override {
    auto it = entries_.find(page);
    if (it == entries_.end()) return false;
    ++it->second.frequency;
    it->second.last_use = stamp_++;
    return true;
  }
  PageId evict() override {
    PPG_CHECK_MSG(!entries_.empty(), "evict from empty LFU");
    auto best = entries_.begin();
    for (auto it = std::next(entries_.begin()); it != entries_.end(); ++it) {
      if (it->second.frequency < best->second.frequency ||
          (it->second.frequency == best->second.frequency &&
           it->second.last_use < best->second.last_use)) {
        best = it;
      }
    }
    const PageId victim = best->first;
    entries_.erase(best);
    return victim;
  }
  void clear() override {
    entries_.clear();
    stamp_ = 0;
  }
  const char* name() const override { return "LFU"; }

 private:
  struct Entry {
    std::uint64_t frequency;
    std::uint64_t last_use;
  };
  std::unordered_map<PageId, Entry> entries_;
  std::uint64_t stamp_ = 0;
};

// Belady's offline OPT: evict the resident page whose next use is farthest
// in the future. next_use_[i] = index of the next request for trace[i]'s
// page after i (kNever if none), inverted from previous_accesses(), which
// also rejects a trace holding kInvalidPage. A lazy max-heap of
// (next_use, page) entries is validated against next_of_ on pop.
class BeladyPolicy final : public EvictionPolicy {
 public:
  void prepare(const Trace& trace) override {
    const std::vector<std::size_t> previous = previous_accesses(trace);
    next_use_.assign(previous.size(), kNever);
    for (std::size_t i = 0; i < previous.size(); ++i)
      if (previous[i] != kNoPrevious) next_use_[previous[i]] = i;
  }

  void advance(std::size_t request_index) override { pos_ = request_index; }

  void insert(PageId page) override { note_use(page); }
  void touch(PageId page) override { note_use(page); }

  PageId evict() override {
    for (;;) {
      PPG_CHECK_MSG(!heap_.empty(), "evict from empty BELADY");
      const auto [next, page] = heap_.top();
      auto it = next_of_.find(page);
      if (it == next_of_.end() || it->second != next) {
        heap_.pop();  // stale entry
        continue;
      }
      heap_.pop();
      next_of_.erase(it);
      return page;
    }
  }

  void clear() override {
    next_of_.clear();
    heap_ = {};
    pos_ = 0;
  }

  bool contains(PageId page) const override {
    return next_of_.contains(page);
  }

  const char* name() const override { return "BELADY"; }

 private:
  static constexpr std::size_t kNever = SIZE_MAX;

  void note_use(PageId page) {
    PPG_CHECK_MSG(pos_ < next_use_.size(),
                  "Belady used without prepare()/advance()");
    const std::size_t next = next_use_[pos_];
    next_of_[page] = next;
    heap_.emplace(next, page);
  }

  std::vector<std::size_t> next_use_;
  std::unordered_map<PageId, std::size_t> next_of_;
  std::priority_queue<std::pair<std::size_t, PageId>> heap_;
  std::size_t pos_ = 0;
};

}  // namespace

const char* policy_kind_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kLru: return "LRU";
    case PolicyKind::kFifo: return "FIFO";
    case PolicyKind::kClock: return "CLOCK";
    case PolicyKind::kRandom: return "RANDOM";
    case PolicyKind::kLfu: return "LFU";
    case PolicyKind::kMru: return "MRU";
    case PolicyKind::kSlru: return "SLRU";
    case PolicyKind::kArc: return "ARC";
    case PolicyKind::kMarking: return "MARKING";
    case PolicyKind::kBelady: return "BELADY";
  }
  return "unknown";
}

std::vector<PolicyKind> all_policy_kinds() {
  return {PolicyKind::kLru,     PolicyKind::kFifo, PolicyKind::kClock,
          PolicyKind::kRandom,  PolicyKind::kLfu,  PolicyKind::kMru,
          PolicyKind::kSlru,    PolicyKind::kArc,  PolicyKind::kMarking,
          PolicyKind::kBelady};
}

std::unique_ptr<EvictionPolicy> make_policy(PolicyKind kind, Height capacity,
                                            std::uint64_t seed) {
  switch (kind) {
    case PolicyKind::kLru: return std::make_unique<LruPolicy>(capacity);
    case PolicyKind::kFifo: return std::make_unique<FifoPolicy>();
    case PolicyKind::kClock: return std::make_unique<ClockPolicy>(capacity);
    case PolicyKind::kRandom: return std::make_unique<RandomPolicy>(seed);
    case PolicyKind::kLfu: return std::make_unique<LfuPolicy>();
    case PolicyKind::kMru: return make_mru_policy(capacity);
    case PolicyKind::kSlru: return make_slru_policy(capacity);
    case PolicyKind::kArc: return make_arc_policy(capacity);
    case PolicyKind::kMarking: return make_marking_policy(capacity, seed);
    case PolicyKind::kBelady: return std::make_unique<BeladyPolicy>();
  }
  PPG_CHECK_MSG(false, "unknown policy kind");
  return nullptr;
}

}  // namespace ppg
