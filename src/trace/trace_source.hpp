// Pull-based streaming trace pipeline: the input language of the library.
//
// A TraceSource describes one processor's request sequence without requiring
// it to be resident in memory; a TraceCursor is a single independent pass
// over that sequence. Generators synthesize requests on demand from their
// seed, trace files are streamed chunk by chunk, and a materialized Trace
// vector is just the special case whose source is an adapter (see
// VectorTraceSource). Every simulator consumes cursors, so peak memory is
// O(active window) instead of O(total requests).
//
// Cursor contract: a cursor is a span stream, read strictly in order.
//   - next_span(out, max) consumes up to `max` requests into `out` and
//     returns how many it copied; position() counts the requests consumed
//     so far and done() turns true once all of them are.
//   - A return of 0 (for max > 0) before done() means one thing only: a
//     stalled stream (see the stall@N fault in fault_source.hpp), which
//     will produce nothing more. Single-pass drains (for_each_span,
//     materialize) report it as kCorruptTrace instead of spinning.
//   - Nothing rewinds. A box that stalls keeps the unserved request in its
//     own span buffer and the next box resumes from there; a second pass
//     takes a fresh cursor from the source.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace ppg {

/// Empty; kept only for the overrides in perfbench/src/layers.cpp (ROADMAP
/// item 5's benchmark change deletes it with the stubs below).
struct CursorCheckpoint {};

/// One independent, forward-only pass over a request sequence.
class TraceCursor {
 public:
  virtual ~TraceCursor() = default;

  /// Index of the next request to be emitted, in [0, num_requests].
  virtual std::uint64_t position() const = 0;

  /// True once every request has been consumed.
  virtual bool done() const = 0;

  /// Bulk pull: consumes up to `max` requests into `out` and returns the
  /// number copied; 0 only when done() or when the stream has stalled.
  /// One virtual call per span, which keeps the box runner's per-request
  /// cost down to one LRU probe.
  virtual std::size_t next_span(PageId* out, std::size_t max) = 0;

  // kInternal stub kept only for perfbench/src/layers.cpp (ROADMAP item 5).
  virtual PageId peek();
  // kInternal stub kept only for perfbench/src/layers.cpp (ROADMAP item 5).
  virtual void advance();
  // kInternal stub kept only for perfbench/src/layers.cpp (ROADMAP item 5).
  virtual CursorCheckpoint checkpoint() const;
  // kInternal stub kept only for perfbench/src/layers.cpp (ROADMAP item 5).
  virtual void rewind(const CursorCheckpoint& cp);
};

/// Size of the on-stack span for_each_span pulls through.
inline constexpr std::size_t kDrainSpan = 1024;

/// Throws kCorruptTrace for a stream that stalled at `position`.
[[noreturn]] void throw_stalled_stream(std::uint64_t position);

/// Throws kCorruptTrace at the position of the first kInvalidPage among
/// `count` pages whose first sits at `first_position`: the sentinel is
/// reserved by the cache layer and must never enter a cache.
void screen_span(const PageId* pages, std::size_t count,
                 std::uint64_t first_position);

/// Drains `cursor` span by span, calling `consume(const PageId* pages,
/// std::size_t count)` once per span. A stalled stream (next_span returns
/// 0 before done()) throws kCorruptTrace at the stall position.
template <typename Consume>
void for_each_span(TraceCursor& cursor, Consume&& consume) {
  PageId span[kDrainSpan];
  while (!cursor.done()) {
    const std::size_t count = cursor.next_span(span, kDrainSpan);
    if (count == 0) throw_stalled_stream(cursor.position());
    consume(static_cast<const PageId*>(span), count);
  }
}

/// Stack distance of a first access in a 32-bit distance array (see
/// TraceSource::stack_distances()).
inline constexpr std::uint32_t kColdDistance = UINT32_MAX;

/// A (re-)iterable request sequence of known length.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Total number of requests in the sequence.
  virtual std::uint64_t num_requests() const = 0;

  /// A fresh cursor positioned at the first request.
  virtual std::unique_ptr<TraceCursor> cursor() const = 0;

  /// If the whole sequence is resident in memory, the backing Trace. Null
  /// for lazy (generator / file) sources. Simulation never needs it (every
  /// runner reads through cursor()); only consumers that need the whole
  /// sequence at once use it: clairvoyant ones (Belady, green-OPT, the OPT
  /// bounds, the offline packer) and copies (replay dumps).
  virtual const Trace* materialized() const { return nullptr; }

  /// Per-request LRU stack distances of a materialized sequence, when
  /// with_stack_distances() attached them: entry i counts the distinct
  /// pages requested since the previous request for request i's page
  /// (kColdDistance for a first access). Null for every other source. The
  /// box runner serves boxes from them instead of replaying LRU, and the
  /// OPT bounds read them instead of recomputing them.
  virtual std::shared_ptr<const std::vector<std::uint32_t>> stack_distances()
      const {
    return nullptr;
  }
};

/// Drains a cursor into a materialized Trace. `size_hint` pre-reserves.
/// Throws kCorruptTrace if the stream stalls before its end.
Trace materialize(TraceCursor& cursor, std::size_t size_hint = 0);

/// Materializes a source (returns a copy of the backing vector when the
/// source is already materialized).
Trace materialize(const TraceSource& source);

/// Adapter over an existing Trace vector: the materialized special case.
class VectorTraceSource final : public TraceSource {
 public:
  /// Owning: moves the trace into shared storage.
  explicit VectorTraceSource(Trace trace)
      : trace_(std::make_shared<const Trace>(std::move(trace))) {}

  /// Shared: several sources/cursors may alias one trace.
  explicit VectorTraceSource(std::shared_ptr<const Trace> trace)
      : trace_(std::move(trace)) {
    PPG_CHECK(trace_ != nullptr);
  }

  /// Non-owning view; the caller guarantees `trace` outlives the source.
  static std::shared_ptr<const VectorTraceSource> view(const Trace& trace) {
    return std::make_shared<const VectorTraceSource>(
        std::shared_ptr<const Trace>(std::shared_ptr<const Trace>(), &trace));
  }

  std::uint64_t num_requests() const override { return trace_->size(); }
  std::unique_ptr<TraceCursor> cursor() const override;
  const Trace* materialized() const override { return trace_.get(); }

 private:
  std::shared_ptr<const Trace> trace_;
};

/// The p per-processor sources of a parallel-paging instance. Cheap to
/// copy (shared handles); cursors taken from it are independent passes.
class MultiTraceSource {
 public:
  MultiTraceSource() = default;
  explicit MultiTraceSource(
      std::vector<std::shared_ptr<const TraceSource>> sources)
      : sources_(std::move(sources)) {}

  /// Non-owning view over a materialized MultiTrace; the caller guarantees
  /// `traces` outlives the view and every cursor taken from it. Implicit,
  /// so every instance-level API takes a MultiTrace through its one
  /// MultiTraceSource signature.
  MultiTraceSource(const MultiTrace& traces);
  /// A temporary would leave the view dangling.
  MultiTraceSource(MultiTrace&&) = delete;

  /// Alias of the converting constructor, kept for perfbench/.
  static MultiTraceSource view_of(const MultiTrace& traces) { return traces; }

  ProcId num_procs() const { return static_cast<ProcId>(sources_.size()); }
  const TraceSource& source(ProcId i) const {
    PPG_DCHECK(i < sources_.size());
    return *sources_[i];
  }
  const std::shared_ptr<const TraceSource>& source_ptr(ProcId i) const {
    PPG_DCHECK(i < sources_.size());
    return sources_[i];
  }

  void add(std::shared_ptr<const TraceSource> source) {
    PPG_CHECK(source != nullptr);
    sources_.push_back(std::move(source));
  }

  std::uint64_t total_requests() const;

  /// True when every source is resident (materialized() is non-null).
  bool all_materialized() const;

  /// Drains every source into a materialized MultiTrace.
  MultiTrace materialize() const;

  /// A copy whose sources carry their stack distances (ppg::
  /// with_stack_distances applied to each): one distance pass per resident
  /// trace, 4 B per request held for as long as the copy lives. Meant for
  /// the span of one multi-run call (see bench_support/experiment.cpp);
  /// never cache it on a MultiTrace.
  MultiTraceSource with_stack_distances() const;

 private:
  std::vector<std::shared_ptr<const TraceSource>> sources_;
};

/// `source` decorated with its stack distances (packed_stack_distances in
/// trace/stack_distance.hpp), or `source` itself when it is lazy, already
/// carries them, holds the reserved kInvalidPage (the box runner's span
/// screen reports it as a corrupt trace) or is too long for 32-bit
/// distances. The decorator forwards materialized() and cursor(), so every
/// consumer but the two that read stack_distances() sees the undecorated
/// source.
std::shared_ptr<const TraceSource> with_stack_distances(
    std::shared_ptr<const TraceSource> source);

/// Concatenation of several sources, in order. Used by the adversarial
/// builder to chain prefix phases and the single-use suffix lazily.
std::shared_ptr<const TraceSource> concat_source(
    std::vector<std::shared_ptr<const TraceSource>> parts);

/// Streaming counterpart of gen::rebase_to_proc: remaps every page of
/// `inner` into processor `proc`'s disjoint id space, assigning compact
/// local ids in first-appearance order (byte-identical to the materialized
/// rebase). The remap table grows with the number of distinct pages, so
/// memory is O(distinct), not O(requests).
std::shared_ptr<const TraceSource> rebase_source(
    std::shared_ptr<const TraceSource> inner, ProcId proc);

}  // namespace ppg
