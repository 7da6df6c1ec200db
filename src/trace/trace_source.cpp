#include "trace/trace_source.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "trace/stack_distance.hpp"

namespace ppg {

namespace {

class VectorTraceCursor final : public TraceCursor {
 public:
  explicit VectorTraceCursor(std::shared_ptr<const Trace> trace)
      : trace_(std::move(trace)) {}

  std::uint64_t position() const override { return position_; }
  bool done() const override { return position_ >= trace_->size(); }
  PageId peek() override {
    PPG_DCHECK(!done());
    return (*trace_)[static_cast<std::size_t>(position_)];
  }
  void advance() override {
    PPG_DCHECK(!done());
    ++position_;
  }
  CursorCheckpoint checkpoint() const override {
    return CursorCheckpoint{position_, {}};
  }
  void rewind(const CursorCheckpoint& cp) override {
    PPG_CHECK(cp.position <= trace_->size());
    position_ = cp.position;
  }
  std::size_t next_span(PageId* out, std::size_t max) override {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(max, trace_->size() - position_));
    if (n != 0) {
      std::memcpy(out, trace_->requests().data() + position_,
                  n * sizeof(PageId));
      position_ += n;
    }
    return n;
  }

 private:
  std::shared_ptr<const Trace> trace_;
  std::uint64_t position_ = 0;
};

class ConcatCursor final : public TraceCursor {
 public:
  explicit ConcatCursor(std::vector<std::unique_ptr<TraceCursor>> parts)
      : parts_(std::move(parts)) {
    starts_.reserve(parts_.size());
    for (const auto& part : parts_) starts_.push_back(part->checkpoint());
    skip_finished();
  }

  std::uint64_t position() const override { return position_; }
  bool done() const override { return segment_ >= parts_.size(); }
  PageId peek() override {
    PPG_DCHECK(!done());
    return parts_[segment_]->peek();
  }
  void advance() override {
    PPG_DCHECK(!done());
    parts_[segment_]->advance();
    ++position_;
    skip_finished();
  }
  CursorCheckpoint checkpoint() const override {
    CursorCheckpoint cp;
    cp.position = position_;
    cp.words.push_back(segment_);
    if (segment_ < parts_.size()) {
      const CursorCheckpoint inner = parts_[segment_]->checkpoint();
      cp.words.push_back(inner.position);
      cp.words.insert(cp.words.end(), inner.words.begin(), inner.words.end());
    }
    return cp;
  }
  void rewind(const CursorCheckpoint& cp) override {
    PPG_CHECK(!cp.words.empty());
    const auto segment = static_cast<std::size_t>(cp.words[0]);
    PPG_CHECK(segment <= parts_.size());
    // Segments after the target may have been partially (or fully)
    // consumed; reset them to their start so they replay from scratch.
    for (std::size_t i = segment + 1; i < parts_.size(); ++i)
      parts_[i]->rewind(starts_[i]);
    if (segment < parts_.size()) {
      PPG_CHECK(cp.words.size() >= 2);
      CursorCheckpoint inner;
      inner.position = cp.words[1];
      inner.words.assign(cp.words.begin() + 2, cp.words.end());
      parts_[segment]->rewind(inner);
    }
    segment_ = segment;
    position_ = cp.position;
    skip_finished();
  }
  std::size_t next_span(PageId* out, std::size_t max) override {
    std::size_t n = 0;
    while (n < max && segment_ < parts_.size()) {
      n += parts_[segment_]->next_span(out + n, max - n);
      skip_finished();
    }
    position_ += n;
    return n;
  }

 private:
  void skip_finished() {
    while (segment_ < parts_.size() && parts_[segment_]->done()) ++segment_;
  }

  std::vector<std::unique_ptr<TraceCursor>> parts_;
  std::vector<CursorCheckpoint> starts_;
  std::size_t segment_ = 0;
  std::uint64_t position_ = 0;
};

class ConcatSource final : public TraceSource {
 public:
  explicit ConcatSource(std::vector<std::shared_ptr<const TraceSource>> parts)
      : parts_(std::move(parts)) {
    for (const auto& part : parts_) {
      PPG_CHECK(part != nullptr);
      total_ += part->num_requests();
    }
  }

  std::uint64_t num_requests() const override { return total_; }
  std::unique_ptr<TraceCursor> cursor() const override {
    std::vector<std::unique_ptr<TraceCursor>> cursors;
    cursors.reserve(parts_.size());
    for (const auto& part : parts_) cursors.push_back(part->cursor());
    return std::make_unique<ConcatCursor>(std::move(cursors));
  }

 private:
  std::vector<std::shared_ptr<const TraceSource>> parts_;
  std::uint64_t total_ = 0;
};

// Chunked read-ahead with two swap buffers (see read_ahead_source). The
// inner cursor always runs one chunk ahead of delivery: when the front
// buffer drains, the prefetched back buffer swaps in and the next chunk is
// pulled immediately, so the inner source's per-request work lands in
// bursts of `chunk` bulk requests. `front_start_` is the inner checkpoint
// for the first request of the front buffer — the anchor that makes
// checkpoints O(1) and rewind exact.
class ReadAheadCursor final : public TraceCursor {
 public:
  ReadAheadCursor(std::unique_ptr<TraceCursor> inner, std::size_t chunk)
      : inner_(std::move(inner)), chunk_(chunk) {
    PPG_CHECK(chunk_ >= 1);
    front_start_ = inner_->checkpoint();
    front_.resize(chunk_);
    front_.resize(inner_->next_span(front_.data(), chunk_));
    prefetch();
  }

  std::uint64_t position() const override {
    return front_start_.position + front_pos_;
  }
  bool done() const override { return front_pos_ >= front_.size(); }
  PageId peek() override {
    PPG_DCHECK(!done());
    return front_[front_pos_];
  }
  void advance() override {
    PPG_DCHECK(!done());
    ++front_pos_;
    if (front_pos_ >= front_.size() && !back_.empty()) swap_in_back();
  }
  std::size_t next_span(PageId* out, std::size_t max) override {
    std::size_t n = 0;
    while (n < max && !done()) {
      const std::size_t take =
          std::min(max - n, front_.size() - front_pos_);
      std::memcpy(out + n, front_.data() + front_pos_,
                  take * sizeof(PageId));
      front_pos_ += take;
      n += take;
      if (front_pos_ >= front_.size() && !back_.empty()) swap_in_back();
    }
    return n;
  }
  CursorCheckpoint checkpoint() const override {
    // [front-anchor position, front-anchor words...]; the in-chunk offset
    // is recoverable as position - anchor position.
    CursorCheckpoint cp;
    cp.position = position();
    cp.words.push_back(front_start_.position);
    cp.words.insert(cp.words.end(), front_start_.words.begin(),
                    front_start_.words.end());
    return cp;
  }
  void rewind(const CursorCheckpoint& cp) override {
    PPG_CHECK(!cp.words.empty());
    CursorCheckpoint anchor;
    anchor.position = cp.words[0];
    anchor.words.assign(cp.words.begin() + 1, cp.words.end());
    PPG_CHECK(cp.position >= anchor.position);
    inner_->rewind(anchor);
    front_start_ = anchor;
    front_.resize(chunk_);
    front_.resize(inner_->next_span(front_.data(), chunk_));
    front_pos_ = static_cast<std::size_t>(cp.position - anchor.position);
    PPG_CHECK(front_pos_ <= front_.size());
    prefetch();
    if (front_pos_ >= front_.size() && !back_.empty()) swap_in_back();
  }

 private:
  void prefetch() {
    back_start_ = inner_->checkpoint();
    back_.resize(chunk_);
    back_.resize(inner_->next_span(back_.data(), chunk_));
  }
  void swap_in_back() {
    front_start_ = back_start_;
    front_.swap(back_);
    front_pos_ = 0;
    prefetch();
  }

  std::unique_ptr<TraceCursor> inner_;
  std::size_t chunk_;
  std::vector<PageId> front_;
  std::size_t front_pos_ = 0;
  CursorCheckpoint front_start_;
  std::vector<PageId> back_;
  CursorCheckpoint back_start_;
};

class ReadAheadSource final : public TraceSource {
 public:
  ReadAheadSource(std::shared_ptr<const TraceSource> inner, std::size_t chunk)
      : inner_(std::move(inner)), chunk_(chunk) {
    PPG_CHECK(inner_ != nullptr);
    PPG_CHECK(chunk_ >= 1);
  }

  std::uint64_t num_requests() const override {
    return inner_->num_requests();
  }
  std::unique_ptr<TraceCursor> cursor() const override {
    return std::make_unique<ReadAheadCursor>(inner_->cursor(), chunk_);
  }
  // Deliberately no materialized() forwarding: decorating a materialized
  // source is legal but pointless, and consumers that need the whole trace
  // should take it from the undecorated original.

 private:
  std::shared_ptr<const TraceSource> inner_;
  std::size_t chunk_;
};

// Mirrors gen::rebase_to_proc: compact local ids assigned in
// first-appearance order. The remap table only ever grows, and ids are a
// pure function of the first-appearance order of the underlying stream, so
// mappings learned ahead of a rewind stay correct after it.
class RebaseCursor final : public TraceCursor {
 public:
  RebaseCursor(std::unique_ptr<TraceCursor> inner, ProcId proc)
      : inner_(std::move(inner)), proc_(proc), start_(inner_->checkpoint()) {}

  std::uint64_t position() const override { return inner_->position(); }
  bool done() const override { return inner_->done(); }
  PageId peek() override {
    if (!cached_) {
      current_ = make_page(proc_, local_id(inner_->peek()));
      cached_ = true;
      frontier_ = std::max(frontier_, inner_->position() + 1);
    }
    return current_;
  }
  void advance() override {
    // Ensure the mapping exists even if the caller never peeked, so later
    // first appearances still get the right compact id.
    (void)peek();
    inner_->advance();
    cached_ = false;
  }
  std::size_t next_span(PageId* out, std::size_t max) override {
    // Bulk path: pull a span from the inner cursor and remap in place —
    // one virtual call per span instead of a peek/advance pair (plus a
    // hash probe) per request. Id assignment order is identical to the
    // scalar path, so checkpoints and results cannot diverge.
    std::size_t n = 0;
    if (max == 0) return 0;
    if (cached_) {  // a peeked request is already remapped; emit it first
      out[n++] = current_;
      inner_->advance();
      cached_ = false;
    }
    if (n < max) {
      const std::size_t got = inner_->next_span(out + n, max - n);
      for (std::size_t i = 0; i < got; ++i)
        out[n + i] = make_page(proc_, local_id(out[n + i]));
      n += got;
      frontier_ = std::max(frontier_, inner_->position());
    }
    return n;
  }
  CursorCheckpoint checkpoint() const override { return inner_->checkpoint(); }
  void rewind(const CursorCheckpoint& cp) override {
    cached_ = false;
    if (cp.position <= frontier_) {
      // Every first appearance up to cp.position is already in the table;
      // the replayed suffix reuses the ids assigned on the first pass.
      inner_->rewind(cp);
      return;
    }
    // The checkpoint was taken on another cursor of the same source and
    // lies beyond anything this cursor has peeked. Replay the inner stream
    // from the start so the remap fills in first-appearance order — the id
    // assignment is a pure function of the stream, so this reproduces
    // exactly the table the originating cursor had (portable checkpoints
    // at O(position) rewind cost; boxes never take this path).
    inner_->rewind(start_);
    while (inner_->position() < cp.position) advance();
  }

 private:
  /// Pages below this go through a flat array (one load per request);
  /// larger ids fall back to the hash map. 2^16 entries caps the array at
  /// 512 KiB per cursor, and it only grows to the largest small id seen.
  static constexpr PageId kDenseLimit = PageId{1} << 16;
  static constexpr std::uint64_t kUnmapped = ~std::uint64_t{0};

  /// Compact local id for an inner page, assigned in first-appearance
  /// order across BOTH tiers (next_id_ is the single counter, so the ids
  /// are exactly those the one-map implementation would have assigned).
  std::uint64_t local_id(PageId page) {
    if (page < kDenseLimit) {
      if (page >= dense_.size())
        dense_.resize(std::max<std::size_t>(page + 1, dense_.size() * 2),
                      kUnmapped);
      std::uint64_t& slot = dense_[page];
      if (slot == kUnmapped) slot = next_id_++;
      return slot;
    }
    const auto [it, inserted] = sparse_.emplace(page, next_id_);
    if (inserted) ++next_id_;
    return it->second;
  }

  std::unique_ptr<TraceCursor> inner_;
  ProcId proc_;
  CursorCheckpoint start_;
  std::vector<std::uint64_t> dense_;
  std::unordered_map<PageId, std::uint64_t> sparse_;
  std::uint64_t next_id_ = 0;
  PageId current_ = kInvalidPage;
  bool cached_ = false;
  /// Positions [0, frontier_) have had their pages recorded in the remap.
  std::uint64_t frontier_ = 0;
};

class RebaseSource final : public TraceSource {
 public:
  RebaseSource(std::shared_ptr<const TraceSource> inner, ProcId proc)
      : inner_(std::move(inner)), proc_(proc) {
    PPG_CHECK(inner_ != nullptr);
  }

  std::uint64_t num_requests() const override {
    return inner_->num_requests();
  }
  std::unique_ptr<TraceCursor> cursor() const override {
    return std::make_unique<RebaseCursor>(inner_->cursor(), proc_);
  }

 private:
  std::shared_ptr<const TraceSource> inner_;
  ProcId proc_;
};

// A resident source plus its packed stack distances; everything else is
// forwarded, so cursors, checkpoints and materialized() are the inner
// source's own.
class StackDistanceSource final : public TraceSource {
 public:
  StackDistanceSource(std::shared_ptr<const TraceSource> inner,
                      std::vector<std::uint32_t> distances)
      : inner_(std::move(inner)),
        distances_(std::make_shared<const std::vector<std::uint32_t>>(
            std::move(distances))) {}

  std::uint64_t num_requests() const override {
    return inner_->num_requests();
  }
  std::unique_ptr<TraceCursor> cursor() const override {
    return inner_->cursor();
  }
  const Trace* materialized() const override { return inner_->materialized(); }
  std::shared_ptr<const std::vector<std::uint32_t>> stack_distances()
      const override {
    return distances_;
  }

 private:
  std::shared_ptr<const TraceSource> inner_;
  std::shared_ptr<const std::vector<std::uint32_t>> distances_;
};

}  // namespace

Trace materialize(TraceCursor& cursor, std::size_t size_hint) {
  std::vector<PageId> reqs;
  reqs.reserve(size_hint);
  while (!cursor.done()) {
    reqs.push_back(cursor.peek());
    cursor.advance();
  }
  return Trace(std::move(reqs));
}

Trace materialize(const TraceSource& source) {
  if (const Trace* trace = source.materialized()) return *trace;
  const auto cursor = source.cursor();
  return materialize(*cursor, static_cast<std::size_t>(source.num_requests()));
}

std::unique_ptr<TraceCursor> VectorTraceSource::cursor() const {
  return std::make_unique<VectorTraceCursor>(trace_);
}

MultiTraceSource::MultiTraceSource(const MultiTrace& traces) {
  sources_.reserve(traces.num_procs());
  for (ProcId i = 0; i < traces.num_procs(); ++i)
    sources_.push_back(VectorTraceSource::view(traces.trace(i)));
}

std::uint64_t MultiTraceSource::total_requests() const {
  std::uint64_t total = 0;
  for (const auto& source : sources_) total += source->num_requests();
  return total;
}

bool MultiTraceSource::all_materialized() const {
  return std::all_of(sources_.begin(), sources_.end(), [](const auto& source) {
    return source->materialized() != nullptr;
  });
}

MultiTrace MultiTraceSource::materialize() const {
  MultiTrace traces;
  for (const auto& source : sources_) traces.add(ppg::materialize(*source));
  return traces;
}

MultiTraceSource MultiTraceSource::with_stack_distances() const {
  MultiTraceSource out;
  out.sources_.reserve(sources_.size());
  for (const auto& source : sources_)
    out.sources_.push_back(ppg::with_stack_distances(source));
  return out;
}

std::shared_ptr<const TraceSource> with_stack_distances(
    std::shared_ptr<const TraceSource> source) {
  PPG_CHECK(source != nullptr);
  const Trace* trace = source->materialized();
  if (trace == nullptr || source->stack_distances() != nullptr ||
      trace->size() >= kColdDistance ||
      std::find(trace->begin(), trace->end(), kInvalidPage) != trace->end())
    return source;
  std::vector<std::uint32_t> distances = packed_stack_distances(*trace);
  return std::make_shared<StackDistanceSource>(std::move(source),
                                               std::move(distances));
}

std::shared_ptr<const TraceSource> concat_source(
    std::vector<std::shared_ptr<const TraceSource>> parts) {
  return std::make_shared<ConcatSource>(std::move(parts));
}

std::shared_ptr<const TraceSource> read_ahead_source(
    std::shared_ptr<const TraceSource> inner, std::size_t chunk) {
  return std::make_shared<ReadAheadSource>(std::move(inner), chunk);
}

std::shared_ptr<const TraceSource> rebase_source(
    std::shared_ptr<const TraceSource> inner, ProcId proc) {
  return std::make_shared<RebaseSource>(std::move(inner), proc);
}

}  // namespace ppg
