#include "core/contract.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/assert.hpp"
#include "util/math_util.hpp"

namespace ppg {

const char* violation_kind_name(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kZeroHeight: return "zero-height";
    case ViolationKind::kEmptyBox: return "empty-box";
    case ViolationKind::kOversizedHeight: return "oversized-height";
    case ViolationKind::kNonPow2Height: return "non-pow2-height";
    case ViolationKind::kUndersizedHeight: return "undersized-height";
    case ViolationKind::kOverlappingBox: return "overlapping-box";
    case ViolationKind::kBackdatedStart: return "backdated-start";
    case ViolationKind::kExcessiveStall: return "excessive-stall";
    case ViolationKind::kBudgetOverflow: return "budget-overflow";
    case ViolationKind::kAssignedToFinished: return "assigned-to-finished";
  }
  return "unknown";
}

std::string ContractViolation::describe() const {
  std::ostringstream out;
  out << violation_kind_name(kind) << ": box{h=" << box.height << ", ["
      << box.start << ", " << box.end << ")" << (box.fresh ? "" : ", cont")
      << "} requested at t=" << now;
  switch (kind) {
    case ViolationKind::kBudgetOverflow:
      out << ", concurrent height " << detail;
      break;
    case ViolationKind::kExcessiveStall:
      out << ", stall " << detail;
      break;
    case ViolationKind::kOverlappingBox:
      out << ", previous box ended at " << detail;
      break;
    default:
      break;
  }
  return out.str();
}

Error ContractViolation::to_error() const {
  Error error;
  error.code = ErrorCode::kContractViolation;
  error.message = describe();
  error.proc = proc;
  error.time = now;
  return error;
}

ValidatingScheduler::ValidatingScheduler(std::unique_ptr<BoxScheduler> inner,
                                         ValidatorConfig config)
    : inner_(std::move(inner)), config_(config) {
  PPG_CHECK(inner_ != nullptr);
  name_ = std::string("VALIDATE(") + inner_->name() + ")";
}

void ValidatingScheduler::start(const SchedulerContext& ctx,
                                const EngineView& view) {
  ctx_ = ctx;
  budget_ = config_.max_augmentation > 0.0
                ? static_cast<std::uint64_t>(std::ceil(
                      config_.max_augmentation *
                      static_cast<double>(ctx.cache_size)))
                : 0;
  frontier_.assign(ctx.num_procs, 0);
  has_box_.assign(ctx.num_procs, false);
  running_.clear();
  pending_.clear();
  running_height_ = 0;
  observed_peak_ = 0;
  violations_.clear();
  inner_->start(ctx, view);
}

namespace {

// Heap orders (std::*_heap keep the largest element at the front, so
// "greater" comparators make min-heaps).
constexpr auto kEndsLater = [](const auto& a, const auto& b) {
  return a.end > b.end;
};
constexpr auto kStartsLater = [](const auto& a, const auto& b) {
  return a.start > b.start;
};

}  // namespace

void ValidatingScheduler::advance_ledger(Time now) {
  while (!pending_.empty() && pending_.front().start <= now) {
    std::pop_heap(pending_.begin(), pending_.end(), kStartsLater);
    running_height_ += pending_.back().height;
    running_.push_back(pending_.back());
    pending_.pop_back();
    std::push_heap(running_.begin(), running_.end(), kEndsLater);
  }
  // Boxes that ended at or before `now` can never overlap a later box
  // (next_box is only called with non-decreasing `now`).
  while (!running_.empty() && running_.front().end <= now) {
    running_height_ -= running_.front().height;
    std::pop_heap(running_.begin(), running_.end(), kEndsLater);
    running_.pop_back();
  }
}

std::uint64_t ValidatingScheduler::peak_concurrent(const BoxAssignment& box,
                                                   Time now) {
  advance_ledger(now);
  // Common case (every box unless RAND-PAR stalls between waves): the box
  // starts at the request time, so every running box is live at its
  // start, and no pending box starts inside its window to raise the sum.
  if (box.start == now &&
      (pending_.empty() || pending_.front().start >= box.end))
    return box.height + running_height_;

  // A stalled start: one pass over the live boxes sums the height live at
  // box.start and collects the window's later events: +height where a
  // live box starts after box.start, -height where one ends before
  // box.end. Only a later start can raise the sum, so without one the
  // peak is at box.start; otherwise one sorted sweep finds it. At equal
  // times ends sort first, as a box ending at t is not live at t.
  std::uint64_t at_start = 0;
  bool later_start = false;
  std::vector<std::pair<Time, std::int64_t>> events;
  const auto collect = [&](const LiveBox& b) {
    if (b.start >= box.end || b.end <= box.start) return;
    const auto height = static_cast<std::int64_t>(b.height);
    if (b.start <= box.start) {
      at_start += b.height;
    } else {
      later_start = true;
      events.emplace_back(b.start, height);
    }
    if (b.end < box.end) events.emplace_back(b.end, -height);
  };
  for (const LiveBox& b : running_) collect(b);
  for (const LiveBox& b : pending_) collect(b);
  std::uint64_t peak = at_start;
  if (later_start) {
    std::sort(events.begin(), events.end());
    auto current = static_cast<std::int64_t>(at_start);
    for (const auto& [t, delta] : events) {
      current += delta;
      peak = std::max(peak, static_cast<std::uint64_t>(current));
    }
  }
  return box.height + peak;
}

void ValidatingScheduler::report(ViolationKind kind, ProcId proc, Time now,
                                 const BoxAssignment& box,
                                 std::uint64_t detail) {
  ContractViolation violation;
  violation.kind = kind;
  violation.proc = proc;
  violation.now = now;
  violation.box = box;
  violation.detail = detail;
  violations_.push_back(violation);
  if (config_.throw_on_violation) throw PpgException(violation.to_error());
}

BoxAssignment ValidatingScheduler::next_box(ProcId proc, Time now,
                                            const EngineView& view) {
  if (!view.is_active(proc)) {
    // The inner scheduler was asked for a box for a finished processor;
    // report against an empty assignment without consulting it.
    report(ViolationKind::kAssignedToFinished, proc, now, BoxAssignment{}, 0);
    return BoxAssignment{1, now, now + 1};
  }
  const BoxAssignment box = inner_->next_box(proc, now, view);

  if (box.height == 0) {
    report(ViolationKind::kZeroHeight, proc, now, box, 0);
  } else if (box.end <= box.start) {
    report(ViolationKind::kEmptyBox, proc, now, box, 0);
  } else if (box.height > ctx_.cache_size) {
    report(ViolationKind::kOversizedHeight, proc, now, box, box.height);
  } else if (config_.require_pow2_heights && !is_pow2(box.height)) {
    report(ViolationKind::kNonPow2Height, proc, now, box, box.height);
  } else if (config_.min_height > 0 && box.height < config_.min_height) {
    report(ViolationKind::kUndersizedHeight, proc, now, box, box.height);
  } else if (has_box_[proc] && box.start < frontier_[proc]) {
    report(ViolationKind::kOverlappingBox, proc, now, box, frontier_[proc]);
  } else if (box.start < now) {
    report(ViolationKind::kBackdatedStart, proc, now, box, 0);
  } else if (config_.max_stall > 0 && box.start - now > config_.max_stall) {
    report(ViolationKind::kExcessiveStall, proc, now, box, box.start - now);
  } else {
    const std::uint64_t peak = peak_concurrent(box, now);
    observed_peak_ = std::max(observed_peak_, peak);
    if (budget_ > 0 && peak > budget_)
      report(ViolationKind::kBudgetOverflow, proc, now, box, peak);
  }

  // Track the box for overlap/budget checks on later calls (even in
  // record-only mode the engine will execute it as issued).
  if (box.end > box.start) {
    frontier_[proc] = std::max(frontier_[proc], box.end);
    has_box_[proc] = true;
    const LiveBox live{box.start, box.end, box.height};
    if (box.start <= now) {
      running_.push_back(live);
      std::push_heap(running_.begin(), running_.end(), kEndsLater);
      running_height_ += box.height;
    } else {
      pending_.push_back(live);
      std::push_heap(pending_.begin(), pending_.end(), kStartsLater);
    }
  }
  return box;
}

void ValidatingScheduler::notify_finished(ProcId proc, Time now,
                                          const EngineView& view) {
  inner_->notify_finished(proc, now, view);
}

void ValidatingScheduler::notify_arrived(ProcId proc, Time now,
                                         const EngineView& view) {
  if (proc >= frontier_.size()) {
    frontier_.resize(static_cast<std::size_t>(proc) + 1, 0);
    has_box_.resize(static_cast<std::size_t>(proc) + 1, false);
  }
  inner_->notify_arrived(proc, now, view);
}

void ValidatingScheduler::notify_departed(ProcId proc, Time now,
                                          const EngineView& view) {
  inner_->notify_departed(proc, now, view);
}

std::unique_ptr<ValidatingScheduler> make_validating(
    std::unique_ptr<BoxScheduler> inner, const ValidatorConfig& config) {
  return std::make_unique<ValidatingScheduler>(std::move(inner), config);
}

}  // namespace ppg
