// LruSet: a fixed-capacity set of pages with least-recently-used eviction.
//
// It is the only LRU structure in the library. The box runner's boxes
// that can fill run on it (a box that opens empty and lasts at most s*h
// never evicts, so the runner serves it by membership alone), and so do
// GLOBAL-LRU's shared cache, the LRU and MRU policies and the green-OPT
// brute-force oracle. It combines an intrusive doubly-linked list over a
// slot vector (recency order) with an open-addressing page->slot index
// (LruFlatIndex), so all operations are O(1) expected and both the recency
// links and the index probes walk flat arrays rather than pointers. PageIds
// are arbitrary 64-bit values; the index's multiplicative hash keeps a find
// to about one occupied cell even on the structured ids the workloads emit
// (proc << 48 | local, polluter locals counting up from 2^32).
//
// The hot path is the fused pair try_touch()/insert_absent(): a single
// index lookup classifies hit vs miss, and the miss path never repeats it.
// The access() entry points are built on the fused pair for callers that
// don't need to peek the cost before committing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/math_util.hpp"
#include "util/types.hpp"

namespace ppg {

inline constexpr std::uint32_t kLruNilSlot = UINT32_MAX;

/// Open-addressing page->slot index for arbitrary (sparse) PageIds: one
/// multiplicative hash, then a linear probe over a power-of-two range of
/// 16-byte cells (page, slot, epoch), so a probe reads one cache line. No
/// per-node allocation, no bucket pointers. Deletion backward-shifts
/// displaced entries instead of leaving tombstones, so probe lengths stay
/// short however many evictions a long box run performs. clear() is O(1):
/// every cell carries the epoch it was written in, and bumping the epoch
/// empties the index, which matters because compartmentalized boxes reset
/// the cache far more often than they fill it. The epoch is 32-bit to keep
/// a cell at 16 bytes; when it wraps (after 2^32 clears), every cell is
/// emptied once, since a never-used cell (epoch 0) would read as occupied.
///
/// reset(capacity) sizes the probe range for at most `capacity` pages:
/// 8 cells per page up to 512 cells (8 KiB), then 2 (load <= 1/8 for
/// small sets, <= 1/2 beyond). The cells grow to the largest range and never shrink,
/// so one index can serve sets of many sizes in turn: the box runner
/// shares one among an engine's runners, and a small box probes only the
/// first few cells, which stay hot whichever runner it belongs to.
class LruFlatIndex {
 public:
  /// An empty index for at most `capacity` pages whose clear counter
  /// starts at `epoch` (tests start it next to its wrap).
  explicit LruFlatIndex(Height capacity, std::uint32_t epoch = 1)
      : epoch_(epoch) {
    size_range(capacity);
  }

  std::uint32_t find(PageId page) const {
    const Cell& cell = probe(page);
    return occupied(cell) ? cell.slot : kLruNilSlot;
  }

  void set(PageId page, std::uint32_t slot) {
    probe(page) = Cell{page, slot, epoch_};
  }

  /// find() and, when `page` is absent, set(page, slot), with one probe:
  /// returns the slot of a present page, kLruNilSlot after an insert.
  std::uint32_t find_or_set(PageId page, std::uint32_t slot) {
    Cell& cell = probe(page);
    if (occupied(cell)) return cell.slot;
    cell = Cell{page, slot, epoch_};
    return kLruNilSlot;
  }

  void erase(PageId page) {
    std::size_t i = probe_start(page);
    for (;;) {
      if (!occupied(cells_[i])) return;
      if (cells_[i].page == page) break;
      i = (i + 1) & mask_;
    }
    // Backward-shift deletion: pull every entry whose probe path crossed
    // the hole back over it, leaving the table tombstone-free.
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (!occupied(cells_[j])) break;
      const std::size_t home = probe_start(cells_[j].page);
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        cells_[i] = cells_[j];
        i = j;
      }
    }
    cells_[i].epoch = epoch_ - 1;  // any value != epoch_ marks it empty
  }

  void clear() {
    if (++epoch_ != 0) return;
    for (Cell& cell : cells_) cell.epoch = 0;
    epoch_ = 1;
  }

  /// clear() plus a new capacity: sizes the probe range for it.
  void reset(Height capacity) {
    if (capacity != capacity_) size_range(capacity);
    clear();
  }

  /// Cells past its home cell that find(page) walks before it stops: the
  /// displacement of a present page, the run length ahead of an absent
  /// one. A read-only diagnostic for the probe-length tests.
  std::size_t probe_distance(PageId page) const {
    const std::size_t home = probe_start(page);
    return (static_cast<std::size_t>(&probe(page) - cells_.data()) - home) &
           mask_;
  }

 private:
  struct Cell {
    PageId page = 0;
    std::uint32_t slot = 0;
    std::uint32_t epoch = 0;  ///< Occupied iff equal to the index's.
  };

  bool occupied(const Cell& cell) const { return cell.epoch == epoch_; }

  std::size_t probe_start(PageId page) const {
    // Fibonacci hashing: the top bits of page * 2^64/phi depend on every
    // bit of the page, so both halves of a structured id (proc << 48 |
    // local) spread, and runs of sequential locals or polluter ids fan out
    // across the table instead of clustering (DESIGN.md §6 has the
    // measured probe counts).
    return static_cast<std::size_t>((page * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  /// The cell holding `page`, or else the empty cell where it goes.
  const Cell& probe(PageId page) const {
    std::size_t i = probe_start(page);
    while (occupied(cells_[i]) && cells_[i].page != page) i = (i + 1) & mask_;
    return cells_[i];
  }
  Cell& probe(PageId page) {
    return const_cast<Cell&>(std::as_const(*this).probe(page));
  }

  /// Call only on an empty index: a live entry would leave its range.
  void size_range(Height capacity) {
    constexpr std::uint64_t kSparseCells = 512;
    const std::uint64_t pages = std::max<Height>(capacity, 1);
    const std::uint32_t bits =
        ilog2_ceil(std::max(2 * pages, std::min(8 * pages, kSparseCells)));
    const std::size_t range = std::size_t{1} << bits;
    if (range > cells_.size()) cells_.assign(range, Cell{});
    mask_ = range - 1;
    shift_ = 64 - bits;
    capacity_ = capacity;
  }

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  std::uint32_t shift_ = 64;  ///< 64 - log2(probe range).
  std::uint32_t epoch_;
  Height capacity_ = 0;  ///< The capacity the probe range is sized for.
};

class LruSet {
 public:
  /// Creates an empty set holding at most `capacity` pages (capacity >= 1).
  explicit LruSet(Height capacity) : capacity_(capacity), index_(capacity) {
    PPG_CHECK(capacity >= 1);
    slots_.reserve(capacity);
  }

  Height capacity() const { return capacity_; }
  Height size() const {
    return static_cast<Height>(slots_.size() - free_.size());
  }
  bool full() const { return size() == capacity_; }
  bool empty() const { return size() == 0; }

  bool contains(PageId page) const {
    return index_.find(page) != kLruNilSlot;
  }

  /// Fused hot-path probe: one index lookup. On a hit the page moves to the
  /// MRU position and the call returns true; on a miss the set is left
  /// untouched (call insert_absent to commit the fault).
  bool try_touch(PageId page) {
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
    const std::uint32_t slot = index_.find(page);
    if (slot == kLruNilSlot) return false;
    index_.erase(page);
    unlink(slot);
    free_.push_back(slot);
    return true;
  }

  /// Removes every page (compartmentalized box reset); the index clears
  /// in O(1) by an epoch bump.
  void clear() {
    index_.clear();
    slots_.clear();
    free_.clear();
    mru_ = kLruNilSlot;
    lru_ = kLruNilSlot;
  }

  /// clear() plus a capacity change. The index's cells grow only when the
  /// new capacity outgrows them — the box runner resizes compartments once
  /// per height switch and must not pay an index reallocation each time.
  void reset(Height capacity) {
    PPG_CHECK(capacity >= 1);
    clear();
    capacity_ = capacity;
    slots_.reserve(capacity);
    index_.reset(capacity);
  }

  /// Page that would be evicted next, or kInvalidPage when empty.
  PageId lru_page() const {
    return lru_ == kLruNilSlot ? kInvalidPage : slots_[lru_].page;
  }

  /// Most recently used page, or kInvalidPage when empty.
  PageId mru_page() const {
    return mru_ == kLruNilSlot ? kInvalidPage : slots_[mru_].page;
  }

  /// Pages in most-recent-first order (for tests and diagnostics).
  std::vector<PageId> pages_mru_order() const {
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
  LruFlatIndex index_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint32_t mru_ = kLruNilSlot;
  std::uint32_t lru_ = kLruNilSlot;
};

}  // namespace ppg
