// Online verification of the box-scheduler contract.
//
// The paper's guarantees (Theorem 2's phase/chunk schedule, DET-PAR's
// well-roundedness) rest on every scheduler honouring the BoxAssignment
// contract: boxes start at or after the request time, are non-empty, have
// sane heights (for the paper's schedulers: powers of two no larger than
// k), never overlap the same processor's previous box, keep the total
// concurrently allocated height within the augmentation budget, and are
// never issued to finished processors. ValidatingScheduler is a decorator
// that checks all of this online against *any* inner scheduler and reports
// structured ContractViolations instead of aborting — which makes the
// contract adversarially testable (see fault_injection.hpp).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/scheduler.hpp"
#include "util/error.hpp"

namespace ppg {

enum class ViolationKind : std::uint8_t {
  kZeroHeight,          ///< height == 0.
  kEmptyBox,            ///< end <= start.
  kOversizedHeight,     ///< height > k.
  kNonPow2Height,       ///< height not a power of two (when required).
  kUndersizedHeight,    ///< height < configured minimum (when required).
  kOverlappingBox,      ///< starts before the same processor's previous box ended.
  kBackdatedStart,      ///< starts before the request time `now`.
  kExcessiveStall,      ///< stall gap start - now exceeds the configured limit.
  kBudgetOverflow,      ///< concurrent allocated height exceeds the budget.
  kAssignedToFinished,  ///< box issued to an inactive processor.
};

const char* violation_kind_name(ViolationKind kind);

struct ContractViolation {
  ViolationKind kind{};
  ProcId proc = kInvalidProc;
  Time now = 0;       ///< Request time passed to next_box.
  BoxAssignment box;  ///< The offending assignment, verbatim.
  /// Kind-specific magnitude: concurrent height for kBudgetOverflow, stall
  /// length for kExcessiveStall, previous box end for kOverlappingBox.
  std::uint64_t detail = 0;

  std::string describe() const;
  /// As a structured error (code kContractViolation, proc/time filled in).
  Error to_error() const;
};

struct ValidatorConfig {
  /// Concurrent-height budget as a multiple of k; <= 0 disables the check.
  /// Default matches the loosest envelope the integration tests allow.
  double max_augmentation = 8.0;
  /// Require heights to be powers of two (true for RAND-PAR / DET-PAR and
  /// anything built on the paper's height ladder; STATIC and EQUI slice
  /// k/p exactly and need this off).
  bool require_pow2_heights = false;
  /// Reject heights below this (the paper grid's floor is k/p); 0 disables.
  Height min_height = 0;
  /// Reject stalls (box.start - now) longer than this; 0 disables. The
  /// engine's max_time watchdog still catches unbounded stalls when off.
  Time max_stall = 0;
  /// Throw PpgException on the first violation (the checked engine turns
  /// it into a RunStatus). When false, violations are recorded and the box
  /// is forwarded unchanged — for counting in tests.
  bool throw_on_violation = true;
};

/// Decorator; owns the inner scheduler. name() is "VALIDATE(<inner>)".
class ValidatingScheduler final : public BoxScheduler {
 public:
  ValidatingScheduler(std::unique_ptr<BoxScheduler> inner,
                      ValidatorConfig config);

  void start(const SchedulerContext& ctx, const EngineView& view) override;
  BoxAssignment next_box(ProcId proc, Time now,
                         const EngineView& view) override;
  void notify_finished(ProcId proc, Time now, const EngineView& view) override;
  /// Grows the per-processor frontier bookkeeping, then forwards — so the
  /// validator keeps checking overlap/stall invariants for processors that
  /// join mid-run (EngineStepper online arrivals).
  void notify_arrived(ProcId proc, Time now, const EngineView& view) override;
  void notify_departed(ProcId proc, Time now, const EngineView& view) override;
  const char* name() const override { return name_.c_str(); }

  const std::vector<ContractViolation>& violations() const {
    return violations_;
  }
  /// Largest concurrent allocated height observed at any box issuance
  /// (tracked even when the budget check is disabled — lets callers
  /// calibrate max_augmentation for a workload).
  std::uint64_t peak_concurrent_observed() const { return observed_peak_; }
  BoxScheduler& inner() { return *inner_; }

 private:
  void report(ViolationKind kind, ProcId proc, Time now,
              const BoxAssignment& box, std::uint64_t detail);
  /// Peak concurrent allocated height over [box.start, box.end) including
  /// `box` itself. O(1) plus the ledger's amortized O(log live) heap
  /// upkeep when the box starts at `now` and no pending box starts inside
  /// its window; otherwise a sorted sweep over the live boxes (a stalled
  /// start, e.g. RAND-PAR between waves).
  std::uint64_t peak_concurrent(const BoxAssignment& box, Time now);
  /// Moves pending boxes that have started by `now` into the running
  /// ledger and drops running boxes that ended at or before it.
  void advance_ledger(Time now);

  struct LiveBox {
    Time start;
    Time end;
    Height height;
  };

  std::unique_ptr<BoxScheduler> inner_;
  ValidatorConfig config_;
  std::string name_;
  SchedulerContext ctx_;
  std::uint64_t budget_ = 0;          ///< ceil(max_augmentation * k); 0 = off.
  std::vector<Time> frontier_;        ///< End of last box issued, per proc.
  std::vector<bool> has_box_;         ///< Whether any box was issued, per proc.
  /// The running ledger of issued boxes not yet known expired, split at
  /// the latest request time: boxes already started, a min-heap on end
  /// whose heights sum to running_height_, and boxes that start later, a
  /// min-heap on start.
  std::vector<LiveBox> running_;
  std::vector<LiveBox> pending_;
  std::uint64_t running_height_ = 0;
  std::uint64_t observed_peak_ = 0;
  std::vector<ContractViolation> violations_;
};

std::unique_ptr<ValidatingScheduler> make_validating(
    std::unique_ptr<BoxScheduler> inner, const ValidatorConfig& config = {});

}  // namespace ppg
