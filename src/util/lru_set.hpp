// LruSet: a fixed-capacity set of pages with least-recently-used eviction.
//
// This is the hot data structure of every simulator in the library: each
// compartmentalized box runs one LruSet, and the box runner touches it once
// per request. It has two representations, chosen by capacity whenever the
// capacity is set (construction and reset()); both are exact LRU, so every
// hit, miss and victim is the same whichever one serves a set.
//
//   - Array, for capacity <= kArrayCapacity: the pages sit in one inline
//     array in recency order, least recent first. A lookup is an
//     early-exit linear scan from the most recent end; a hit closes the
//     page's gap and appends it, an insert appends (dropping the first
//     entry when full). Nothing is allocated. Most boxes are this small
//     (DET-PAR's base height is 16 on the service path), open empty and
//     serve a few dozen requests, so they rarely fill: most inserts are a
//     plain append, and a scan over a few cache lines beats hashing.
//   - List, above it: an intrusive doubly-linked list over a slot vector
//     (recency order) with an open-addressing page->slot index
//     (LruFlatIndex), so all operations are O(1) expected and both the
//     recency links and the index probes walk flat arrays rather than
//     pointers. PageIds are arbitrary 64-bit values; the index's
//     multiplicative hash keeps a find to about one occupied cell even on
//     the structured ids the workloads emit (proc << 48 | local, polluter
//     locals counting up from 2^32). The index and the slot vector are
//     allocated only once the capacity first exceeds the array's.
//
// The hot path is the fused pair try_touch()/insert_absent(): a single
// lookup classifies hit vs miss, and the miss path never repeats it.
// The access() entry points are built on the fused pair for callers that
// don't need to peek the cost before committing.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/math_util.hpp"
#include "util/types.hpp"

namespace ppg {

inline constexpr std::uint32_t kLruNilSlot = UINT32_MAX;

/// Open-addressing page->slot index for arbitrary (sparse) PageIds: one
/// multiplicative hash, then a linear probe over a flat power-of-two table
/// at load factor <= 1/2. No per-node allocation, no bucket pointers — the
/// probe walks contiguous memory. Deletion backward-shifts displaced entries
/// instead of leaving tombstones, so probe lengths stay short however many
/// evictions a long box run performs. clear() is O(1): every cell carries
/// the epoch it was written in, and bumping the epoch empties the table —
/// critical because compartmentalized boxes reset the cache far more often
/// than they fill it. The epoch is 64-bit so it never wraps: a 32-bit one
/// would wrap after 2^32 clears (one per fresh box), and every never-used
/// cell (stamp 0) would then read as occupied.
class LruFlatIndex {
 public:
  /// An index with no table; on_reset() builds one. Nothing may be looked
  /// up before that.
  LruFlatIndex() = default;
  explicit LruFlatIndex(Height capacity) { rebuild(capacity); }

  std::uint32_t find(PageId page) const {
    std::size_t i = probe_start(page);
    while (occupied(i)) {
      if (pages_[i] == page) return slots_[i];
      i = (i + 1) & mask_;
    }
    return kLruNilSlot;
  }

  void set(PageId page, std::uint32_t slot) {
    std::size_t i = probe_start(page);
    while (occupied(i)) {
      if (pages_[i] == page) {
        slots_[i] = slot;
        return;
      }
      i = (i + 1) & mask_;
    }
    pages_[i] = page;
    slots_[i] = slot;
    epochs_[i] = epoch_;
  }

  void erase(PageId page) {
    std::size_t i = probe_start(page);
    for (;;) {
      if (!occupied(i)) return;
      if (pages_[i] == page) break;
      i = (i + 1) & mask_;
    }
    // Backward-shift deletion: pull every entry whose probe path crossed
    // the hole back over it, leaving the table tombstone-free.
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (!occupied(j)) break;
      const std::size_t home = probe_start(pages_[j]);
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        pages_[i] = pages_[j];
        slots_[i] = slots_[j];
        i = j;
      }
    }
    epochs_[i] = epoch_ - 1;  // any value != epoch_ marks the cell empty
  }

  void clear() { ++epoch_; }

  /// Cells past its home cell that find(page) walks before it stops: the
  /// displacement of a present page, the run length ahead of an absent
  /// one. A read-only diagnostic for the probe-length tests.
  std::size_t probe_distance(PageId page) const {
    const std::size_t home = probe_start(page);
    std::size_t i = home;
    while (occupied(i) && pages_[i] != page) i = (i + 1) & mask_;
    return (i - home) & mask_;
  }

  void on_reset(Height capacity) {
    if (static_cast<std::size_t>(capacity) * 2 > mask_ + 1) rebuild(capacity);
  }

 private:
  bool occupied(std::size_t i) const { return epochs_[i] == epoch_; }

  std::size_t probe_start(PageId page) const {
    // Fibonacci hashing: the top bits of page * 2^64/phi depend on every
    // bit of the page, so both halves of a structured id (proc << 48 |
    // local) spread, and runs of sequential locals or polluter ids fan out
    // across the table instead of clustering (DESIGN.md §6 has the
    // measured probe counts).
    return static_cast<std::size_t>((page * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void rebuild(Height capacity) {
    std::size_t size = 8;
    while (size < static_cast<std::size_t>(capacity) * 2) size <<= 1;
    pages_.assign(size, 0);
    slots_.assign(size, 0);
    epochs_.assign(size, 0);
    mask_ = size - 1;
    shift_ = 64 - ilog2_floor(size);
    epoch_ = 1;  // entries start stale (epochs_ filled with 0)
  }

  std::vector<PageId> pages_;
  std::vector<std::uint32_t> slots_;
  std::vector<std::uint64_t> epochs_;
  std::size_t mask_ = 0;
  std::uint32_t shift_ = 64;  ///< 64 - log2(table size).
  std::uint64_t epoch_ = 1;
};

class LruSet {
 public:
  /// Largest capacity served by the array representation, chosen by
  /// measurement (DESIGN.md §6): at 32 the array still beats the hash
  /// index, at 64 it ran boxes at two thirds of the index's speed.
  static constexpr Height kArrayCapacity = 32;

  /// Creates an empty set holding at most `capacity` pages (capacity >= 1).
  explicit LruSet(Height capacity) : capacity_(capacity) {
    PPG_CHECK(capacity >= 1);
    if (!on_array()) grow_list(capacity);
  }

  Height capacity() const { return capacity_; }
  Height size() const {
    if (on_array()) return array_size_;
    return static_cast<Height>(slots_.size() - free_.size());
  }
  bool full() const { return size() == capacity_; }
  bool empty() const { return size() == 0; }

  bool contains(PageId page) const {
    if (on_array()) {
      const auto end = array_.begin() + array_size_ + 1;
      return std::find(array_.begin() + 1, end, page) != end;
    }
    return index_.find(page) != kLruNilSlot;
  }

  /// Fused hot-path probe: one lookup. On a hit the page moves to the MRU
  /// position and the call returns true; on a miss the set is left
  /// untouched (call insert_absent to commit the fault).
  bool try_touch(PageId page) {
    if (on_array()) {
      const Height i = array_find(page);
      if (i == 0) return false;
      move_to_back(i, page);
      return true;
    }
    const std::uint32_t slot = index_.find(page);
    if (slot == kLruNilSlot) return false;
    touch(slot);
    return true;
  }

  /// Inserts a page known to be absent (e.g. try_touch just returned
  /// false); if the set was full, evicts and returns the LRU page,
  /// kInvalidPage otherwise.
  PageId insert_absent(PageId page) {
    PPG_DCHECK(!contains(page));
    if (on_array()) {
      if (array_size_ < capacity_) {
        array_[++array_size_] = page;
        return kInvalidPage;
      }
      const PageId evicted = array_[1];
      move_to_back(1, page);
      return evicted;
    }
    if (full()) {
      const std::uint32_t victim = lru_;
      const PageId evicted = slots_[victim].page;
      index_.erase(evicted);
      unlink(victim);
      slots_[victim].page = page;
      link_front(victim);
      index_.set(page, victim);
      return evicted;
    }
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      slots_[slot].page = page;
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{page, kLruNilSlot, kLruNilSlot});
    }
    link_front(slot);
    index_.set(page, slot);
    return kInvalidPage;
  }

  /// Records an access to `page`.
  /// Returns true on a hit (page was present; it is moved to MRU position).
  /// On a miss the page is inserted; if the set was full, the LRU page is
  /// evicted and reported through `evicted` (set to kInvalidPage otherwise).
  bool access(PageId page, PageId& evicted) {
    if (try_touch(page)) {
      evicted = kInvalidPage;
      return true;
    }
    evicted = insert_absent(page);
    return false;
  }

  /// Convenience overload when the caller does not care about the victim.
  bool access(PageId page) {
    PageId dummy;
    return access(page, dummy);
  }

  /// Removes a specific page; returns false if it was not present.
  bool erase(PageId page) {
    if (on_array()) {
      const Height i = array_find(page);
      if (i == 0) return false;
      std::copy(array_.begin() + i + 1, array_.begin() + array_size_ + 1,
                array_.begin() + i);
      --array_size_;
      return true;
    }
    const std::uint32_t slot = index_.find(page);
    if (slot == kLruNilSlot) return false;
    index_.erase(page);
    unlink(slot);
    free_.push_back(slot);
    return true;
  }

  /// Removes every page (compartmentalized box reset). The array empties
  /// by its count; the index clears in O(1) by an epoch bump.
  void clear() {
    array_size_ = 0;
    if (on_array()) return;
    index_.clear();
    slots_.clear();
    free_.clear();
    mru_ = kLruNilSlot;
    lru_ = kLruNilSlot;
  }

  /// clear() plus a capacity change, which also picks the representation.
  /// The index is rebuilt only when the new capacity outgrows its table —
  /// the box runner resizes compartments once per height switch and must
  /// not pay an index reallocation each time. The list state a set leaves
  /// behind when it drops onto the array is cleared when it next grows
  /// past it.
  void reset(Height capacity) {
    PPG_CHECK(capacity >= 1);
    capacity_ = capacity;
    clear();
    if (!on_array()) grow_list(capacity);
  }

  /// Page that would be evicted next, or kInvalidPage when empty.
  PageId lru_page() const {
    if (on_array()) return array_size_ == 0 ? kInvalidPage : array_[1];
    return lru_ == kLruNilSlot ? kInvalidPage : slots_[lru_].page;
  }

  /// Most recently used page, or kInvalidPage when empty.
  PageId mru_page() const {
    if (on_array())
      return array_size_ == 0 ? kInvalidPage : array_[array_size_];
    return mru_ == kLruNilSlot ? kInvalidPage : slots_[mru_].page;
  }

  /// Pages in most-recent-first order (for tests and diagnostics).
  std::vector<PageId> pages_mru_order() const {
    if (on_array())
      return std::vector<PageId>(array_.rend() - array_size_ - 1,
                                 array_.rend() - 1);
    std::vector<PageId> out;
    out.reserve(size());
    for (std::uint32_t cur = mru_; cur != kLruNilSlot; cur = slots_[cur].next)
      out.push_back(slots_[cur].page);
    return out;
  }

 private:
  struct Slot {
    PageId page;
    std::uint32_t prev;  // toward MRU
    std::uint32_t next;  // toward LRU
  };

  bool on_array() const { return capacity_ <= kArrayCapacity; }

  /// Array position of `page`, or 0 when absent. Scans from the MRU end,
  /// so a recently used page is found after few compares; the page is
  /// first written to the spare slot 0 as a sentinel, so the scan needs no
  /// bound check.
  Height array_find(PageId page) {
    array_[0] = page;
    Height i = array_size_;
    while (array_[i] != page) --i;
    return i;
  }

  /// Removes the array entry at `i` (>= 1), closes the gap, and writes
  /// `page` as the MRU entry; the count is unchanged.
  void move_to_back(Height i, PageId page) {
    std::copy(array_.begin() + i + 1, array_.begin() + array_size_ + 1,
              array_.begin() + i);
    array_[array_size_] = page;
  }

  /// Sizes the list representation for `capacity` (> kArrayCapacity).
  void grow_list(Height capacity) {
    slots_.reserve(capacity);
    index_.on_reset(capacity);
  }

  void link_front(std::uint32_t slot) {
    slots_[slot].prev = kLruNilSlot;
    slots_[slot].next = mru_;
    if (mru_ != kLruNilSlot) slots_[mru_].prev = slot;
    mru_ = slot;
    if (lru_ == kLruNilSlot) lru_ = slot;
  }

  void unlink(std::uint32_t slot) {
    const Slot& s = slots_[slot];
    if (s.prev != kLruNilSlot)
      slots_[s.prev].next = s.next;
    else
      mru_ = s.next;
    if (s.next != kLruNilSlot)
      slots_[s.next].prev = s.prev;
    else
      lru_ = s.prev;
  }

  void touch(std::uint32_t slot) {
    if (mru_ == slot) return;
    unlink(slot);
    link_front(slot);
  }

  Height capacity_;
  // Array representation: pages in [1, array_size_], least recent first;
  // slot 0 is array_find's sentinel.
  Height array_size_ = 0;
  std::array<PageId, kArrayCapacity + 1> array_{};
  // List representation: empty until the capacity first exceeds the
  // array's.
  LruFlatIndex index_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint32_t mru_ = kLruNilSlot;
  std::uint32_t lru_ = kLruNilSlot;
};

}  // namespace ppg
