#include "green/box_runner.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ppg {

namespace {
// Span-buffer size: large enough to amortize the next_span virtual call
// and any generator bookkeeping, small enough to stay resident in L1
// (256 * 8 B = 2 KiB) per active processor.
constexpr std::size_t kStreamSpan = 256;
}  // namespace

BoxRunner::BoxRunner(const TraceSource& source, Time miss_cost)
    : BoxRunner(source, miss_cost, nullptr) {}

BoxRunner::BoxRunner(const TraceSource& source, Time miss_cost,
                     LruFlatIndex& members)
    : BoxRunner(source, miss_cost, &members) {}

BoxRunner::BoxRunner(const TraceSource& source, Time miss_cost,
                     LruFlatIndex* members)
    : distances_(source.stack_distances()), index_(members),
      miss_cost_(miss_cost) {
  PPG_CHECK(miss_cost >= 1);
  if (distances_ != nullptr) return;
  cursor_ = source.cursor();
  PPG_CHECK(cursor_ != nullptr);
  span_.resize(kStreamSpan);
  if (index_ == nullptr) {
    owned_index_ = std::make_unique<LruFlatIndex>(1);
    index_ = owned_index_.get();
  }
}

BoxRunner::BoxRunner(const Trace& trace, Time miss_cost)
    : BoxRunner(*VectorTraceSource::view(trace), miss_cost) {}

BoxStepResult BoxRunner::run_box(Height height, Time duration, bool fresh) {
  PPG_CHECK(height >= 1);
  BoxStepResult step;
  // A height change is always a fresh compartment: the model has no
  // notion of carrying LRU state across differently-sized boxes.
  const bool opens = fresh || height != cache_height_;
  cache_height_ = height;
  Time remaining = duration;
  if (distances_ != nullptr) {
    if (opens) filled_ = 0;
    serve_distances(step, remaining);
  } else {
    Time afford = 0;  // s*h, the ticks of h misses; past 2^64, no box fills
    const bool overflow =
        __builtin_mul_overflow(miss_cost_, Time{height}, &afford);
    if (opens && (overflow || duration <= afford)) {
      index_->reset(height);
      if (members_capacity_ < height) {
        // Uninitialized: a tall box that takes few misses touches few.
        members_ = std::make_unique_for_overwrite<Member[]>(height);
        members_capacity_ = height;
      }
      member_count_ = 0;
      on_members_ = true;
      serve_members(step, remaining);
    } else {
      open_lru(opens);
      serve_lru(step, remaining);
    }
  }
  step.stall_time = remaining;
  step.finished = finished();
  total_hits_ += step.hits;
  total_misses_ += step.misses;
  return step;
}

void BoxRunner::serve_distances(BoxStepResult& step, Time& remaining) {
  const std::uint32_t* const distance = distances_->data();
  const std::size_t n = distances_->size();
  const Height height = cache_height_;
  Height filled = filled_;
  std::size_t i = next_;
  Time left = remaining;
  while (i < n && left > 0) {
    if (distance[i] < filled) {
      ++step.hits;  // a hit always fits: left >= 1 here
      --left;
    } else {
      if (miss_cost_ > left) break;  // stall; request i opens the next box
      ++step.misses;
      left -= miss_cost_;
      if (filled < height) ++filled;
    }
    ++i;
  }
  step.requests_completed = i - next_;
  step.busy_time = remaining - left;
  remaining = left;
  next_ = i;
  filled_ = filled;
}

void BoxRunner::open_lru(bool opens) {
  const Height height = cache_height_;
  if (cache_ == nullptr) cache_ = std::make_unique<LruSet>(height);
  if (opens) {
    cache_->reset(height);
  } else if (on_members_) {
    // A continuation of a membership box: at most h members, so the set
    // takes them all, least recently touched first, without evicting.
    cache_->reset(height);
    Member* const begin = members_.get();
    Member* const end = begin + member_count_;
    std::sort(begin, end, [](const Member& a, const Member& b) {
      return a.touch < b.touch;
    });
    for (const Member* it = begin; it != end; ++it)
      cache_->insert_absent(it->page);
  }
  on_members_ = false;
}

bool BoxRunner::refill() {
  span_len_ = cursor_->next_span(span_.data(), span_.size());
  span_pos_ = 0;
  if (span_len_ == 0) return false;  // source exhausted
  screen_span(span_.data(), span_len_, cursor_->position() - span_len_);
  return true;
}

void BoxRunner::serve_members(BoxStepResult& step, Time& remaining) {
  // Locals throughout: the stores into members would otherwise force the
  // runner's fields to be reloaded on every request. The clock counts
  // requests served, so it also gives the box's request count.
  LruFlatIndex& index = *index_;
  const PageId* const span = span_.data();
  const Time miss_cost = miss_cost_;
  Member* const members = members_.get();
  std::uint32_t count = member_count_;
  std::uint64_t clock = clock_;
  Time left = remaining;
  while (left > 0 && (span_pos_ < span_len_ || refill())) {
    const PageId* it = span + span_pos_;
    const PageId* const end = span + span_len_;
    bool stalled = false;
    for (; it != end && left > 0; ++it) {
      const PageId page = *it;
      // While a miss fits, one probe both answers and inserts.
      const std::uint32_t slot = miss_cost <= left
                                     ? index.find_or_set(page, count)
                                     : index.find(page);
      if (slot != kLruNilSlot) {
        members[slot].touch = clock++;
        --left;  // a hit always fits: left >= 1 here
      } else {
        if (miss_cost > left) {
          stalled = true;  // the request stays buffered for the next box
          break;
        }
        PPG_DCHECK(count < cache_height_);
        members[count++] = Member{page, clock++};
        left -= miss_cost;
      }
    }
    span_pos_ = static_cast<std::size_t>(it - span);
    if (stalled) break;
  }
  const std::uint64_t served = clock - clock_;
  const std::uint32_t misses = count - member_count_;
  step.requests_completed = served;
  step.misses = misses;
  step.hits = served - misses;
  step.busy_time = remaining - left;
  remaining = left;
  member_count_ = count;
  clock_ = clock;
}

void BoxRunner::serve_lru(BoxStepResult& step, Time& remaining) {
  while (remaining > 0 && (span_pos_ < span_len_ || refill()))
    if (!advance_lru(step, remaining)) break;  // stall to box end
}

bool BoxRunner::advance_lru(BoxStepResult& step, Time& remaining) {
  while (span_pos_ < span_len_ && remaining > 0) {
    const PageId page = span_[span_pos_];
    Time cost;
    if (cache_->try_touch(page)) {
      cost = 1;  // a hit always fits: remaining >= 1 here
      ++step.hits;
    } else {
      cost = miss_cost_;
      if (cost > remaining) return false;  // stall; request stays buffered
      cache_->insert_absent(page);
      ++step.misses;
    }
    remaining -= cost;
    step.busy_time += cost;
    ++span_pos_;
    ++step.requests_completed;
  }
  return true;
}

namespace {

ProfileRunResult run_profile_impl(BoxRunner& runner,
                                  const BoxProfile& profile) {
  ProfileRunResult result;
  for (const Box& box : profile) {
    if (runner.finished()) break;
    const BoxStepResult step = runner.run_box(box.height, box.duration);
    result.charge(box, step);
    if (step.finished) break;
  }
  PPG_CHECK_MSG(runner.finished(), "profile too short to finish trace");
  return result;
}

}  // namespace

ProfileRunResult run_profile(const Trace& trace, const BoxProfile& profile,
                             Time miss_cost) {
  BoxRunner runner(trace, miss_cost);
  return run_profile_impl(runner, profile);
}

ProfileRunResult run_profile(const TraceSource& source,
                             const BoxProfile& profile, Time miss_cost) {
  BoxRunner runner(source, miss_cost);
  return run_profile_impl(runner, profile);
}

}  // namespace ppg
