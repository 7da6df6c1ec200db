#include "green/box_runner.hpp"

#include <utility>

#include "util/assert.hpp"
#include "util/error.hpp"

namespace ppg {

namespace {
// Span-buffer size: large enough to amortize the next_span virtual call
// and any generator bookkeeping, small enough to stay resident in L1
// (256 * 8 B = 2 KiB) per active processor.
constexpr std::size_t kStreamSpan = 256;
}  // namespace

void screen_span(const PageId* pages, std::size_t count,
                 std::uint64_t first_position) {
  // One pass over an L1-resident span, branch never taken on clean traces.
  // File traces are also screened by trace_io; this screen covers every
  // source, generated and caller-materialized ones included.
  for (std::size_t i = 0; i < count; ++i) {
    if (pages[i] == kInvalidPage) {
      throw_error(ErrorCode::kCorruptTrace,
                  "hostile page id (reserved sentinel) in trace stream",
                  first_position + i);
    }
  }
}

BoxRunner::BoxRunner(std::unique_ptr<TraceCursor> cursor, Time miss_cost)
    : miss_cost_(miss_cost) {
  PPG_CHECK(miss_cost >= 1);
  open_cursor(std::move(cursor));
}

BoxRunner::BoxRunner(const TraceSource& source, Time miss_cost)
    : distances_(source.stack_distances()), miss_cost_(miss_cost) {
  PPG_CHECK(miss_cost >= 1);
  if (distances_ == nullptr) open_cursor(source.cursor());
}

BoxRunner::BoxRunner(const Trace& trace, Time miss_cost)
    : BoxRunner(VectorTraceSource::view(trace)->cursor(), miss_cost) {}

void BoxRunner::open_cursor(std::unique_ptr<TraceCursor> cursor) {
  PPG_CHECK(cursor != nullptr);
  cursor_ = std::move(cursor);
  cache_.emplace(1);
  span_.resize(kStreamSpan);
}

BoxStepResult BoxRunner::run_box(Height height, Time duration, bool fresh) {
  PPG_CHECK(height >= 1);
  BoxStepResult step;
  if (fresh || height != cache_height_) {
    // A height change is always a fresh compartment: the model has no
    // notion of carrying LRU state across differently-sized boxes.
    if (distances_ != nullptr)
      filled_ = 0;
    else
      cache_->reset(height);
    cache_height_ = height;
  }
  Time remaining = duration;
  if (distances_ != nullptr)
    serve_distances(step, remaining);
  else
    serve_lru(step, remaining);
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

void BoxRunner::serve_lru(BoxStepResult& step, Time& remaining) {
  while (remaining > 0) {
    if (span_pos_ >= span_len_) {
      span_len_ = cursor_->next_span(span_.data(), span_.size());
      span_pos_ = 0;
      if (span_len_ == 0) break;  // source exhausted
      screen_span(span_.data(), span_len_, cursor_->position() - span_len_);
    }
    if (!advance_span(step, remaining)) break;  // stall to box end
  }
}

bool BoxRunner::advance_span(BoxStepResult& step, Time& remaining) {
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
