#include "trace/fault_source.hpp"

#include <algorithm>
#include <charconv>
#include <utility>

#include "util/assert.hpp"
#include "util/error.hpp"

namespace ppg {

namespace {

const char* fault_class_name(TraceFaultClass fault) {
  switch (fault) {
    case TraceFaultClass::kFail: return "fail";
    case TraceFaultClass::kHostilePage: return "hostile-page";
    case TraceFaultClass::kTornSpan: return "torn-span";
    case TraceFaultClass::kStall: return "stall";
  }
  return "unknown";
}

class FaultCursor final : public TraceCursor {
 public:
  FaultCursor(std::unique_ptr<TraceCursor> inner, const TraceFaultSpec& spec)
      : inner_(std::move(inner)), spec_(spec) {}

  std::uint64_t position() const override { return inner_->position(); }

  bool done() const override {
    if (spec_.fault == TraceFaultClass::kTornSpan)
      return inner_->done() || inner_->position() >= spec_.at;
    return inner_->done();
  }

  PageId peek() override {
    if (spec_.fault == TraceFaultClass::kFail &&
        inner_->position() >= spec_.at) {
      throw_fault();
    }
    if (spec_.fault == TraceFaultClass::kHostilePage &&
        inner_->position() == spec_.at) {
      return kInvalidPage;
    }
    return inner_->peek();
  }

  void advance() override {
    switch (spec_.fault) {
      case TraceFaultClass::kFail:
        if (inner_->position() >= spec_.at) throw_fault();
        break;
      case TraceFaultClass::kStall:
        // The stream is stuck, silently: the request at the stall point is
        // never consumed and done() never turns true.
        if (inner_->position() >= spec_.at) return;
        break;
      case TraceFaultClass::kHostilePage:
      case TraceFaultClass::kTornSpan:
        break;
    }
    inner_->advance();
  }

  std::size_t next_span(PageId* out, std::size_t max) override {
    const std::uint64_t pos = inner_->position();
    switch (spec_.fault) {
      case TraceFaultClass::kFail:
        if (pos >= spec_.at) throw_fault();
        return inner_->next_span(
            out, std::min<std::uint64_t>(max, spec_.at - pos));
      case TraceFaultClass::kHostilePage: {
        const std::size_t n = inner_->next_span(out, max);
        if (spec_.at >= pos && spec_.at < pos + n)
          out[spec_.at - pos] = kInvalidPage;
        return n;
      }
      case TraceFaultClass::kTornSpan:
      case TraceFaultClass::kStall:
        if (pos >= spec_.at) return 0;
        return inner_->next_span(
            out, std::min<std::uint64_t>(max, spec_.at - pos));
    }
    return 0;
  }

  CursorCheckpoint checkpoint() const override {
    return inner_->checkpoint();
  }

  void rewind(const CursorCheckpoint& cp) override { inner_->rewind(cp); }

 private:
  [[noreturn]] void throw_fault() const {
    throw_error(ErrorCode::kCorruptTrace,
                "injected trace fault (fail@" + std::to_string(spec_.at) +
                    ")",
                spec_.at);
  }

  std::unique_ptr<TraceCursor> inner_;
  TraceFaultSpec spec_;
};

class FaultInjectingTraceSource final : public TraceSource {
 public:
  FaultInjectingTraceSource(std::shared_ptr<const TraceSource> inner,
                            const TraceFaultSpec& spec)
      : inner_(std::move(inner)), spec_(spec) {
    PPG_CHECK(inner_ != nullptr);
  }

  // Declared length is always the inner source's: for torn-span that lie
  // is the whole point (the stream ends early against its declaration).
  std::uint64_t num_requests() const override {
    return inner_->num_requests();
  }

  std::unique_ptr<TraceCursor> cursor() const override {
    return std::make_unique<FaultCursor>(inner_->cursor(), spec_);
  }

  // materialized() stays null (base default): faults must travel the
  // cursor pipeline and meet its validation, never a whole-trace shortcut.

 private:
  std::shared_ptr<const TraceSource> inner_;
  TraceFaultSpec spec_;
};

}  // namespace

std::optional<TraceFaultSpec> parse_trace_fault(const std::string& text) {
  const auto at_sign = text.find('@');
  if (at_sign == std::string::npos || at_sign + 1 == text.size())
    return std::nullopt;
  const std::string name = text.substr(0, at_sign);
  TraceFaultSpec spec;
  if (name == "fail") {
    spec.fault = TraceFaultClass::kFail;
  } else if (name == "hostile-page") {
    spec.fault = TraceFaultClass::kHostilePage;
  } else if (name == "torn-span") {
    spec.fault = TraceFaultClass::kTornSpan;
  } else if (name == "stall") {
    spec.fault = TraceFaultClass::kStall;
  } else {
    return std::nullopt;
  }
  const char* first = text.data() + at_sign + 1;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, spec.at);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return spec;
}

std::string trace_fault_to_string(const TraceFaultSpec& spec) {
  return std::string(fault_class_name(spec.fault)) + "@" +
         std::to_string(spec.at);
}

std::shared_ptr<const TraceSource> make_fault_injecting_source(
    std::shared_ptr<const TraceSource> inner, const TraceFaultSpec& spec) {
  return std::make_shared<FaultInjectingTraceSource>(std::move(inner), spec);
}

}  // namespace ppg
