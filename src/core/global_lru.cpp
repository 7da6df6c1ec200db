#include "core/global_lru.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/lru_set.hpp"
#include "util/math_util.hpp"

namespace ppg {

namespace {

// Pages pulled per next_span call: one virtual call per span, 512 B of
// buffer per processor.
constexpr std::size_t kLaneSpan = 64;

/// Every processor's unserved requests, buffered kLaneSpan at a time by
/// next_span, so serving a request is a pointer bump. Every refill passes
/// the kInvalidPage screen (screen_span); its kCorruptTrace names the lane.
class Lanes {
 public:
  explicit Lanes(const MultiTraceSource& sources)
      : windows_(sources.num_procs()),
        buffers_(kLaneSpan * sources.num_procs()) {
    cursors_.reserve(sources.num_procs());
    for (ProcId i = 0; i < sources.num_procs(); ++i)
      cursors_.push_back(sources.source(i).cursor());
  }

  PageId take(ProcId proc) { return *windows_[proc].next++; }

  /// True once every request of `proc` has been taken.
  bool done(ProcId proc) {
    Window& w = windows_[proc];
    if (w.next != w.end) return false;
    PageId* buffer = buffers_.data() + kLaneSpan * proc;
    w.next = buffer;
    TraceCursor& cursor = *cursors_[proc];
    const std::size_t count = cursor.next_span(buffer, kLaneSpan);
    try {
      screen_span(buffer, count, cursor.position() - count);
    } catch (const PpgException& e) {
      Error error = e.error();
      error.proc = proc;
      throw PpgException(std::move(error));
    }
    w.end = buffer + count;
    return w.next == w.end;
  }

 private:
  struct Window {
    const PageId* next = nullptr;
    const PageId* end = nullptr;
  };

  std::vector<Window> windows_;
  std::vector<std::unique_ptr<TraceCursor>> cursors_;
  std::vector<PageId> buffers_;
};

}  // namespace

ParallelRunResult run_global_lru(const MultiTraceSource& sources,
                                 const GlobalLruConfig& config) {
  PPG_CHECK(config.cache_size >= 1);
  PPG_CHECK(config.miss_cost >= 1);
  const ProcId p = sources.num_procs();
  PPG_CHECK(p >= 1);
  const Time s = config.miss_cost;

  ParallelRunResult result;
  result.completion.assign(p, 0);

  LruSet cache(config.cache_size);
  Lanes lanes(sources);

  // The processors ready at tick `now` are two ascending runs: `hits`, the
  // ones that hit at now - 1, and the front of `misses`, the ones that
  // missed at now - s. Misses land in the order they were served, so the
  // ring `misses` holds (land time, proc) sorted; merging the two runs
  // serves requests in (time, proc) order, ties by processor id.
  struct Landing {
    Time time;
    ProcId proc;
  };
  std::vector<Landing> misses(p);  // ring: at most p pending
  std::size_t miss_head = 0;
  std::size_t miss_count = 0;
  std::vector<ProcId> hits;
  std::vector<ProcId> next_hits;
  hits.reserve(p);
  next_hits.reserve(p);
  for (ProcId i = 0; i < p; ++i)
    if (!lanes.done(i)) hits.push_back(i);

  Time now = 0;
  while (!hits.empty() || miss_count > 0) {
    if (hits.empty()) now = misses[miss_head].time;
    std::size_t h = 0;
    for (;;) {
      ProcId proc;
      const bool miss_ready = miss_count > 0 && misses[miss_head].time == now;
      if (h < hits.size() &&
          (!miss_ready || hits[h] < misses[miss_head].proc)) {
        proc = hits[h++];
      } else if (miss_ready) {
        proc = misses[miss_head].proc;
        if (++miss_head == p) miss_head = 0;
        --miss_count;
      } else {
        break;
      }
      const PageId page = lanes.take(proc);
      const bool hit = cache.try_touch(page);
      if (!hit) cache.insert_absent(page);
      const Time done = now + (hit ? 1 : s);
      if (hit)
        ++result.hits;
      else
        ++result.misses;
      if (lanes.done(proc)) {
        result.completion[proc] = done;
      } else if (hit) {
        next_hits.push_back(proc);
      } else {
        std::size_t tail = miss_head + miss_count;
        if (tail >= p) tail -= p;
        misses[tail] = {done, proc};
        ++miss_count;
      }
    }
    hits.swap(next_hits);
    next_hits.clear();
    ++now;
  }

  result.makespan =
      *std::max_element(result.completion.begin(), result.completion.end());
  result.mean_completion = mean_of(result.completion);
  result.peak_concurrent_height = config.cache_size;
  result.effective_augmentation = 1.0;
  result.total_impact =
      static_cast<Impact>(config.cache_size) * result.makespan;
  return result;
}

namespace {

class GlobalLruBoxFacade final : public BoxScheduler {
 public:
  void start(const SchedulerContext& ctx, const EngineView& view) override {
    (void)view;
    ctx_ = ctx;
    height_ = slice_height(ctx.num_procs);
    fresh_issued_.assign(ctx.num_procs, false);
  }

  void notify_arrived(ProcId proc, Time now, const EngineView& view) override {
    (void)now;
    // Grow the per-processor slice bookkeeping and re-slice the shared
    // pool across the new active count: subsequent boxes (for everyone)
    // use the updated height, mirroring how a real partitioned-LRU
    // service would rebalance on tenant arrival.
    if (proc >= fresh_issued_.size())
      fresh_issued_.resize(static_cast<std::size_t>(proc) + 1, false);
    height_ = slice_height(view.active_count());
  }

  BoxAssignment next_box(ProcId proc, Time now,
                         const EngineView& view) override {
    (void)view;
    BoxAssignment box;
    box.height = height_;
    box.start = now;
    box.end = now + ctx_.miss_cost * static_cast<Time>(ctx_.cache_size);
    // One shared pool per processor slice: the cache persists across box
    // boundaries (continuations), only the first box starts cold.
    box.fresh = !fresh_issued_[proc];
    fresh_issued_[proc] = true;
    return box;
  }

  const char* name() const override { return "GLOBAL-LRU(box)"; }

 private:
  Height slice_height(ProcId procs) const {
    return static_cast<Height>(std::max<std::uint64_t>(
        1, pow2_floor(ctx_.cache_size / std::max<ProcId>(1, procs))));
  }

  SchedulerContext ctx_;
  Height height_ = 1;
  std::vector<bool> fresh_issued_;
};

}  // namespace

std::unique_ptr<BoxScheduler> make_global_lru_box_facade() {
  return std::make_unique<GlobalLruBoxFacade>();
}

}  // namespace ppg
