#include "trace/trace_source.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>

#include "trace/stack_distance.hpp"
#include "util/error.hpp"

namespace ppg {

namespace {

[[noreturn]] void unsupported(const char* what) {
  throw_error(ErrorCode::kInternal,
              std::string("TraceCursor::") + what +
                  " is not implemented: a cursor is a span stream");
}

class VectorTraceCursor final : public TraceCursor {
 public:
  explicit VectorTraceCursor(std::shared_ptr<const Trace> trace)
      : trace_(std::move(trace)) {}

  std::uint64_t position() const override { return position_; }
  bool done() const override { return position_ >= trace_->size(); }
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
    skip_finished();
  }

  std::uint64_t position() const override { return position_; }
  bool done() const override { return segment_ >= parts_.size(); }
  std::size_t next_span(PageId* out, std::size_t max) override {
    std::size_t n = 0;
    while (n < max && segment_ < parts_.size()) {
      const std::size_t got = parts_[segment_]->next_span(out + n, max - n);
      n += got;
      // The current part is never done() on entry, so 0 means it stalled:
      // end the span with what was gathered instead of spinning on it.
      if (got == 0) break;
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

// Mirrors gen::rebase_to_proc: compact local ids assigned in
// first-appearance order, remapped in place over each inner span.
class RebaseCursor final : public TraceCursor {
 public:
  RebaseCursor(std::unique_ptr<TraceCursor> inner, ProcId proc)
      : inner_(std::move(inner)), proc_(proc) {}

  std::uint64_t position() const override { return inner_->position(); }
  bool done() const override { return inner_->done(); }
  std::size_t next_span(PageId* out, std::size_t max) override {
    const std::size_t n = inner_->next_span(out, max);
    for (std::size_t i = 0; i < n; ++i)
      out[i] = make_page(proc_, local_id(out[i]));
    return n;
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
  std::vector<std::uint64_t> dense_;
  std::unordered_map<PageId, std::uint64_t> sparse_;
  std::uint64_t next_id_ = 0;
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
// forwarded, so cursors and materialized() are the inner source's own.
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

PageId TraceCursor::peek() { unsupported("peek"); }
void TraceCursor::advance() { unsupported("advance"); }
CursorCheckpoint TraceCursor::checkpoint() const { unsupported("checkpoint"); }
void TraceCursor::rewind(const CursorCheckpoint&) { unsupported("rewind"); }

void throw_stalled_stream(std::uint64_t position) {
  throw_error(ErrorCode::kCorruptTrace,
              "trace stream stalled before its declared end", position);
}

void screen_span(const PageId* pages, std::size_t count,
                 std::uint64_t first_position) {
  // One pass, branch never taken on clean traces. File traces are also
  // screened by trace_io; this screen covers every source, generated and
  // caller-materialized ones included.
  for (std::size_t i = 0; i < count; ++i) {
    if (pages[i] == kInvalidPage) {
      throw_error(ErrorCode::kCorruptTrace,
                  "hostile page id (reserved sentinel) in trace stream",
                  first_position + i);
    }
  }
}

Trace materialize(TraceCursor& cursor, std::size_t size_hint) {
  std::vector<PageId> reqs;
  reqs.reserve(size_hint);
  for_each_span(cursor, [&](const PageId* pages, std::size_t count) {
    reqs.insert(reqs.end(), pages, pages + count);
  });
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
      trace->size() >= kColdDistance)
    return source;
  bool holds_invalid_page = false;
  std::vector<std::uint32_t> distances =
      packed_stack_distances(*trace, &holds_invalid_page);
  if (holds_invalid_page) return source;
  return std::make_shared<StackDistanceSource>(std::move(source),
                                               std::move(distances));
}

std::shared_ptr<const TraceSource> concat_source(
    std::vector<std::shared_ptr<const TraceSource>> parts) {
  return std::make_shared<ConcatSource>(std::move(parts));
}

std::shared_ptr<const TraceSource> rebase_source(
    std::shared_ptr<const TraceSource> inner, ProcId proc) {
  return std::make_shared<RebaseSource>(std::move(inner), proc);
}

}  // namespace ppg
