#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>
#include <vector>

#include "trace/trace.hpp"
#include "util/lru_set.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

TEST(LruSet, StartsEmpty) {
  LruSet set(4);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.full());
  EXPECT_EQ(set.lru_page(), kInvalidPage);
}

TEST(LruSet, MissThenHit) {
  LruSet set(2);
  PageId evicted;
  EXPECT_FALSE(set.access(1, evicted));
  EXPECT_EQ(evicted, kInvalidPage);
  EXPECT_TRUE(set.access(1, evicted));
  EXPECT_EQ(set.size(), 1u);
}

TEST(LruSet, EvictsLeastRecentlyUsed) {
  LruSet set(2);
  set.access(1);
  set.access(2);
  PageId evicted;
  EXPECT_FALSE(set.access(3, evicted));
  EXPECT_EQ(evicted, 1u);  // 1 is LRU
  EXPECT_TRUE(set.contains(2));
  EXPECT_TRUE(set.contains(3));
  EXPECT_FALSE(set.contains(1));
}

TEST(LruSet, TouchRefreshesRecency) {
  LruSet set(2);
  set.access(1);
  set.access(2);
  set.access(1);  // 1 becomes MRU; 2 is now LRU
  PageId evicted;
  set.access(3, evicted);
  EXPECT_EQ(evicted, 2u);
}

TEST(LruSet, MruOrderIsMaintained) {
  LruSet set(3);
  set.access(1);
  set.access(2);
  set.access(3);
  set.access(2);
  const std::vector<PageId> order = set.pages_mru_order();
  EXPECT_EQ(order, (std::vector<PageId>{2, 3, 1}));
  EXPECT_EQ(set.lru_page(), 1u);
}

TEST(LruSet, EraseRemovesPage) {
  LruSet set(3);
  set.access(1);
  set.access(2);
  EXPECT_TRUE(set.erase(1));
  EXPECT_FALSE(set.erase(1));
  EXPECT_FALSE(set.contains(1));
  EXPECT_EQ(set.size(), 1u);
  // Slot reuse after erase.
  set.access(3);
  set.access(4);
  EXPECT_EQ(set.size(), 3u);
}

TEST(LruSet, EraseLruUpdatesVictim) {
  LruSet set(3);
  set.access(1);
  set.access(2);
  set.access(3);
  set.erase(1);
  EXPECT_EQ(set.lru_page(), 2u);
}

TEST(LruSet, ClearEmptiesEverything) {
  LruSet set(3);
  set.access(1);
  set.access(2);
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains(1));
  set.access(5);
  EXPECT_TRUE(set.contains(5));
}

TEST(LruSet, CapacityOneAlwaysReplaces) {
  LruSet set(1);
  PageId evicted;
  set.access(1, evicted);
  set.access(2, evicted);
  EXPECT_EQ(evicted, 1u);
  set.access(3, evicted);
  EXPECT_EQ(evicted, 2u);
  EXPECT_EQ(set.size(), 1u);
}

// Cross-check against a straightforward reference implementation on random
// operation streams (access, the fused try_touch/insert_absent pair, and
// erase), for a sweep of capacities from 1 to 33. The sparse cases draw
// structured ids (proc << 48 | local), whose raw low bits collide under a
// power-of-two mask unless the index mixes them, and sprinkle clears and
// growing resets that force the index to rebuild mid-stream. The crossing
// cases reset back and forth between capacities of at most 32 and above
// it, so the set is re-entered, on a grown index or a kept one, with a
// differently sized set's leftovers behind it.
enum class ReferenceMode { kPlain, kSparse, kCrossing };

struct ReferenceCase {
  Height capacity;
  ReferenceMode mode;
};

// Plain cases print as their bare capacity, so their test names are the
// capacity alone; the others get a suffix.
void PrintTo(const ReferenceCase& c, std::ostream* os) {
  *os << c.capacity;
  if (c.mode == ReferenceMode::kSparse) *os << "_sparse";
  if (c.mode == ReferenceMode::kCrossing) *os << "_crossing";
}

class LruSetReference : public ::testing::TestWithParam<ReferenceCase> {};

TEST_P(LruSetReference, MatchesNaiveModel) {
  const auto [initial_capacity, mode] = GetParam();
  constexpr Height kThreshold = 32;
  Height capacity = initial_capacity;
  const PageId tag = mode == ReferenceMode::kSparse ? PageId{3} << 48 : 0;
  LruSet set(capacity);
  std::vector<PageId> model;  // MRU at front
  Rng rng(1234 + capacity + 1000 * static_cast<Height>(mode));

  for (int i = 0; i < 5000; ++i) {
    const PageId page = tag | rng.next_below(capacity * 3 + 1);
    const auto it = std::find(model.begin(), model.end(), page);
    const bool model_hit = it != model.end();
    const std::uint64_t op = rng.next_below(10);
    if (op == 0) {
      // Erase: present or not.
      if (model_hit) model.erase(it);
      ASSERT_EQ(set.erase(page), model_hit) << "iteration " << i;
    } else {
      PageId model_evicted = kInvalidPage;
      if (model_hit) {
        model.erase(it);
      } else if (model.size() == capacity) {
        model_evicted = model.back();
        model.pop_back();
      }
      model.insert(model.begin(), page);
      PageId evicted = kInvalidPage;
      bool hit = false;
      if (op < 6) {
        hit = set.access(page, evicted);
      } else {
        hit = set.try_touch(page);
        if (!hit) evicted = set.insert_absent(page);
      }
      ASSERT_EQ(hit, model_hit) << "iteration " << i;
      ASSERT_EQ(evicted, model_evicted) << "iteration " << i;
    }
    ASSERT_EQ(set.size(), model.size());
    ASSERT_EQ(set.pages_mru_order(), model);
    ASSERT_EQ(set.mru_page(), model.empty() ? kInvalidPage : model.front());
    ASSERT_EQ(set.lru_page(), model.empty() ? kInvalidPage : model.back());
    const PageId probe = tag | rng.next_below(capacity * 3 + 1);
    ASSERT_EQ(set.contains(probe),
              std::find(model.begin(), model.end(), probe) != model.end())
        << "iteration " << i;
    if (mode == ReferenceMode::kPlain) continue;
    if (mode == ReferenceMode::kSparse) {
      if (i % 701 == 700) {
        set.clear();
        model.clear();
      }
      if (i % 1301 != 1300) continue;
      // Up to twice the initial capacity: the index table must grow.
      capacity = 1 + (initial_capacity + static_cast<Height>(i)) %
                         (2 * initial_capacity);
    } else {
      if (i % 257 != 256) continue;
      // Alternate sides of 32: small -> large -> small ...
      capacity = capacity > kThreshold
                     ? static_cast<Height>(rng.next_in(1, kThreshold))
                     : static_cast<Height>(
                           rng.next_in(kThreshold + 1, 3 * kThreshold));
    }
    set.reset(capacity);
    model.clear();
    ASSERT_TRUE(set.empty());
    ASSERT_EQ(set.capacity(), capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, LruSetReference,
    ::testing::Values(
        ReferenceCase{1, ReferenceMode::kPlain},
        ReferenceCase{2, ReferenceMode::kPlain},
        ReferenceCase{3, ReferenceMode::kPlain},
        ReferenceCase{4, ReferenceMode::kPlain},
        ReferenceCase{7, ReferenceMode::kPlain},
        ReferenceCase{16, ReferenceMode::kPlain},
        ReferenceCase{31, ReferenceMode::kPlain},
        ReferenceCase{32, ReferenceMode::kPlain},
        ReferenceCase{33, ReferenceMode::kPlain},
        ReferenceCase{1, ReferenceMode::kSparse},
        ReferenceCase{2, ReferenceMode::kSparse},
        ReferenceCase{5, ReferenceMode::kSparse},
        ReferenceCase{16, ReferenceMode::kSparse},
        ReferenceCase{32, ReferenceMode::kSparse},
        ReferenceCase{33, ReferenceMode::kSparse},
        ReferenceCase{32, ReferenceMode::kCrossing},
        ReferenceCase{33, ReferenceMode::kCrossing}));

// Mean successful-probe length (cells a find inspects, 1 = home cell) of
// the keys live in an index kept at load 1/2: filled with `capacity` keys,
// then slid forward as a FIFO window so backward-shift deletions run too.
// A random hash gives 1.5 at this load; the structured ids the workloads
// emit (proc << 48 | local, polluter locals from 2^32, dense sequential
// ids) must do no worse, or every simulated request pays for clustering.
double mean_probe_length(Height capacity,
                         const std::function<PageId(std::uint64_t)>& key) {
  LruFlatIndex index(capacity);
  std::uint64_t next = 0;
  for (; next < capacity; ++next)
    index.set(key(next), static_cast<std::uint32_t>(next));
  for (; next < 3 * std::uint64_t{capacity}; ++next) {
    index.erase(key(next - capacity));
    index.set(key(next), static_cast<std::uint32_t>(next % capacity));
  }
  double total = 0;
  for (std::uint64_t i = next - capacity; i < next; ++i) {
    EXPECT_NE(index.find(key(i)), kLruNilSlot) << "key " << i;
    total += 1.0 + static_cast<double>(index.probe_distance(key(i)));
  }
  return total / capacity;
}

TEST(LruSet, StructuredKeysProbeShort) {
  constexpr ProcId kProcs = 128;
  const auto procs_locals = [](std::uint64_t i) {
    return make_page(static_cast<ProcId>(i % kProcs), i / kProcs);
  };
  const auto polluters = [](std::uint64_t i) {
    return (PageId{1} << 32) + i;
  };
  const auto sequential = [](std::uint64_t i) { return PageId{i}; };
  for (const Height capacity : {Height{1024}, Height{4096}}) {
    EXPECT_LE(mean_probe_length(capacity, procs_locals), 1.5)
        << "128 procs x sequential locals, capacity " << capacity;
    EXPECT_LE(mean_probe_length(capacity, polluters), 1.5)
        << "polluter ids, capacity " << capacity;
    EXPECT_LE(mean_probe_length(capacity, sequential), 1.5)
        << "sequential ids, capacity " << capacity;
  }
}

TEST(LruSet, FusedPairMatchesAccess) {
  // try_touch + insert_absent must be exactly access() split in two.
  LruSet fused(3);
  LruSet plain(3);
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    const PageId page = rng.next_below(10);
    PageId evicted = kInvalidPage;
    const bool hit = plain.access(page, evicted);
    if (fused.try_touch(page)) {
      ASSERT_TRUE(hit);
      ASSERT_EQ(evicted, kInvalidPage);
    } else {
      ASSERT_FALSE(hit);
      ASSERT_EQ(fused.insert_absent(page), evicted);
    }
    ASSERT_EQ(fused.pages_mru_order(), plain.pages_mru_order());
  }
}

TEST(LruSet, TryTouchMissLeavesSetUntouched) {
  LruSet set(2);
  set.access(1);
  set.access(2);
  EXPECT_FALSE(set.try_touch(9));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.pages_mru_order(), (std::vector<PageId>{2, 1}));
}

TEST(LruSet, MruPageTracksMostRecent) {
  LruSet set(3);
  EXPECT_EQ(set.mru_page(), kInvalidPage);
  set.access(1);
  set.access(2);
  EXPECT_EQ(set.mru_page(), 2u);
  set.access(1);
  EXPECT_EQ(set.mru_page(), 1u);
}

TEST(LruSet, ResetChangesCapacityAndEmpties) {
  LruSet set(2);
  set.access(1);
  set.access(2);
  set.reset(4);
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.capacity(), 4u);
  for (PageId p = 10; p < 14; ++p) set.access(p);
  EXPECT_TRUE(set.full());
  EXPECT_FALSE(set.contains(1));
}

TEST(LruSet, EraseBackwardShiftKeepsProbesFindable) {
  // Insert colliding keys, erase one from the middle of the cluster, and
  // verify the displaced keys remain findable (no tombstone holes).
  LruSet set(8);
  const std::vector<PageId> pages = {11, 22, 33, 44, 55, 66, 77, 88};
  for (const PageId p : pages) set.access(p);
  ASSERT_TRUE(set.full());
  EXPECT_TRUE(set.erase(44));
  EXPECT_FALSE(set.contains(44));
  for (const PageId p : pages) {
    if (p != 44) {
      EXPECT_TRUE(set.contains(p)) << p;
    }
  }
  // Eviction churn after the erase keeps the table consistent.
  for (PageId p = 100; p < 200; ++p) set.access(p);
  EXPECT_EQ(set.size(), 8u);
}

TEST(LruSet, ResetGrowsCapacityPastInitialTable) {
  LruSet set(2);
  set.reset(64);
  for (PageId p = 0; p < 64; ++p) {
    PageId evicted = kInvalidPage;
    set.access(p, evicted);
    ASSERT_EQ(evicted, kInvalidPage) << p;
  }
  EXPECT_TRUE(set.full());
  for (PageId p = 0; p < 64; ++p) ASSERT_TRUE(set.contains(p));
}

TEST(LruSet, ClearIsEpochBased) {
  LruSet set(4);
  for (PageId p = 0; p < 4; ++p) set.access(p);
  set.clear();
  EXPECT_TRUE(set.empty());
  for (PageId p = 0; p < 8; ++p) EXPECT_FALSE(set.contains(p));
  // Stale entries from before the clear must not resurrect.
  set.access(7);
  EXPECT_TRUE(set.contains(7));
  EXPECT_FALSE(set.contains(0));
  EXPECT_EQ(set.size(), 1u);
}

// Bumping the epoch past 2^32 - 1 must not make never-used cells (epoch 0)
// read as occupied: page 0 would then be found in every one of them.
TEST(LruFlatIndex, EpochWrapEmptiesTheIndex) {
  LruFlatIndex index(4, UINT32_MAX - 1);
  index.clear();  // epoch 2^32 - 1
  EXPECT_EQ(index.find(7), kLruNilSlot);
  index.set(7, 3);
  EXPECT_EQ(index.find(7), 3u);
  index.clear();  // wraps
  EXPECT_EQ(index.find(7), kLruNilSlot);
  EXPECT_EQ(index.find(0), kLruNilSlot);
  index.set(0, 5);
  EXPECT_EQ(index.find(0), 5u);
}

// One index serving sets of many sizes in turn, as the box runner's shared
// membership index does: reset() narrows and widens the probe range, and
// find_or_set inserts only an absent page.
TEST(LruFlatIndex, FindOrSetAcrossResets) {
  LruFlatIndex index(1);
  for (const Height capacity : {1u, 300u, 16u, 4096u, 2u, 64u}) {
    index.reset(capacity);
    for (std::uint32_t i = 0; i < capacity; ++i)
      ASSERT_EQ(index.find_or_set(make_page(1, i), i), kLruNilSlot) << i;
    for (std::uint32_t i = 0; i < capacity; ++i) {
      ASSERT_EQ(index.find_or_set(make_page(1, i), 0), i) << i;
      ASSERT_EQ(index.find(make_page(1, i)), i) << i;
    }
    EXPECT_EQ(index.find(make_page(2, 0)), kLruNilSlot);
    EXPECT_EQ(index.find(make_page(1, capacity)), kLruNilSlot);
  }
}

}  // namespace
}  // namespace ppg
