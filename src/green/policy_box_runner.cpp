#include "green/policy_box_runner.hpp"

#include "util/assert.hpp"

namespace ppg {

namespace {
// Span-buffer size, as BoxRunner's: amortizes the next_span call and stays
// L1-resident.
constexpr std::size_t kSpan = 256;
}  // namespace

PolicyBoxRunner::PolicyBoxRunner(const TraceSource& source, Time miss_cost,
                                 PolicyKind kind, std::uint64_t seed)
    : cursor_(source.cursor()),
      span_(kSpan),
      miss_cost_(miss_cost),
      kind_(kind),
      seed_(seed) {
  PPG_CHECK(miss_cost >= 1);
  if (kind_ == PolicyKind::kBelady) {
    const Trace* trace = source.materialized();
    PPG_CHECK_MSG(trace != nullptr,
                  "Belady is clairvoyant and needs a materialized trace");
    // Belady ignores capacity and must keep its next-use table across
    // compartments; build it once from the whole trace.
    policy_ = make_policy(kind_, 1, seed_);
    policy_->prepare(*trace);
  }
}

PolicyBoxRunner::PolicyBoxRunner(const Trace& trace, Time miss_cost,
                                 PolicyKind kind, std::uint64_t seed)
    : PolicyBoxRunner(*VectorTraceSource::view(trace), miss_cost, kind,
                      seed) {}

void PolicyBoxRunner::reset_compartment(Height height) {
  resident_count_ = 0;
  if (kind_ == PolicyKind::kBelady) {
    policy_->clear();
  } else if (height != capacity_ || policy_ == nullptr) {
    // Capacity-aware policies (LRU/MRU/CLOCK/SLRU/ARC) size internal
    // structures by capacity; rebuild when the box height changes.
    policy_ = make_policy(kind_, height, seed_);
  } else {
    policy_->clear();
  }
  capacity_ = height;
}

BoxStepResult PolicyBoxRunner::run_box(Height height, Time duration,
                                       bool fresh) {
  PPG_CHECK(height >= 1);
  if (fresh || height != capacity_ || policy_ == nullptr)
    reset_compartment(height);

  BoxStepResult step;
  Time remaining = duration;
  while (remaining > 0) {
    if (span_pos_ >= span_len_) {
      span_len_ = cursor_->next_span(span_.data(), span_.size());
      span_pos_ = 0;
      if (span_len_ == 0) break;  // source exhausted
      screen_span(span_.data(), span_len_, cursor_->position() - span_len_);
    }
    const PageId page = span_[span_pos_];
    // advance() before the probe so offline policies see the request
    // index when the probe touches; repeating it after a stall retry is
    // harmless (it only records the position).
    policy_->advance(position());
    if (policy_->touch_if_resident(page)) {
      // A hit costs 1 tick and remaining >= 1 here, so it always fits.
      remaining -= 1;
      step.busy_time += 1;
      ++step.hits;
    } else {
      if (miss_cost_ > remaining) break;  // stall to box end
      if (resident_count_ == capacity_) {
        const PageId victim = policy_->evict();
        PPG_DCHECK(!policy_->contains(victim));
        (void)victim;
      } else {
        ++resident_count_;
      }
      policy_->insert(page);
      remaining -= miss_cost_;
      step.busy_time += miss_cost_;
      ++step.misses;
    }
    ++span_pos_;
    ++step.requests_completed;
  }
  step.stall_time = remaining;
  step.finished = finished();
  return step;
}

}  // namespace ppg
