#include "trace/generators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "util/assert.hpp"

namespace ppg::gen {

namespace {

// Shared scaffolding for generator cursors: generate-ahead-by-one, so
// peek() is a plain load and the total number of produce() calls (and thus
// RNG draws) equals the number of requests exactly — the same draw order
// the materialized loop performs. Checkpoints carry [current, extra...]
// after the position.
class GenCursor : public TraceCursor {
 public:
  explicit GenCursor(std::uint64_t num_requests)
      : num_requests_(num_requests) {}

  std::uint64_t position() const final { return position_; }
  bool done() const final { return position_ >= num_requests_; }
  PageId peek() final {
    PPG_DCHECK(!done());
    return current_;
  }
  void advance() final {
    PPG_DCHECK(!done());
    ++position_;
    if (position_ < num_requests_) current_ = produce();
  }
  CursorCheckpoint checkpoint() const final {
    CursorCheckpoint cp;
    cp.position = position_;
    cp.words.push_back(current_);
    save_extra(cp.words);
    return cp;
  }
  void rewind(const CursorCheckpoint& cp) final {
    PPG_CHECK(cp.position <= num_requests_ && !cp.words.empty());
    position_ = cp.position;
    current_ = cp.words[0];
    load_extra(cp.words.data() + 1, cp.words.size() - 1);
  }
  std::size_t next_span(PageId* out, std::size_t max) final {
    // Same produce() sequence as peek()/advance() pairs, but one virtual
    // produce_span() call per span instead of one produce() per request.
    if (max == 0 || position_ >= num_requests_) return 0;
    out[0] = current_;
    ++position_;
    const std::size_t extra = static_cast<std::size_t>(
        std::min<std::uint64_t>(max - 1, num_requests_ - position_));
    produce_span(out + 1, extra);
    if (position_ < num_requests_) current_ = produce();
    return 1 + extra;
  }

 protected:
  /// Derived constructors call this once their state is ready (produce()
  /// is virtual, so it cannot run from the base constructor).
  void prime() {
    if (!done()) current_ = produce();
  }
  /// Emits the request at position(); called exactly once per request.
  virtual PageId produce() = 0;
  /// Bulk produce(): emits `count` requests, advancing position_ past
  /// each — request p is generated with position_ == p, exactly as the
  /// scalar produce() path does, so RNG draw order (and thus checkpoints)
  /// cannot diverge between the two. Hot generators override this with
  /// non-virtual tight loops; the default is the scalar fallback.
  virtual void produce_span(PageId* out, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = produce();
      ++position_;
    }
  }
  virtual void save_extra(std::vector<std::uint64_t>& /*words*/) const {}
  virtual void load_extra(const std::uint64_t* /*words*/,
                          std::size_t /*count*/) {}

  std::uint64_t num_requests_;
  std::uint64_t position_ = 0;

 private:
  PageId current_ = kInvalidPage;
};

void save_rng(const Rng& rng, std::vector<std::uint64_t>& words) {
  for (std::uint64_t word : rng.save_state()) words.push_back(word);
}

void load_rng(Rng& rng, const std::uint64_t* words) {
  rng.restore_state({words[0], words[1], words[2], words[3]});
}

class CyclicCursor final : public GenCursor {
 public:
  CyclicCursor(std::uint64_t num_pages, std::uint64_t num_requests)
      : GenCursor(num_requests), num_pages_(num_pages) {
    PPG_CHECK(num_pages >= 1);
    prime();
  }

 protected:
  PageId produce() override { return position() % num_pages_; }
  void produce_span(PageId* out, std::size_t count) override {
    PageId page = position_ % num_pages_;
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = page;
      if (++page == num_pages_) page = 0;
    }
    position_ += count;
  }

 private:
  std::uint64_t num_pages_;
};

class SingleUseCursor final : public GenCursor {
 public:
  SingleUseCursor(std::uint64_t num_requests, std::uint64_t first_page)
      : GenCursor(num_requests), first_page_(first_page) {
    prime();
  }

 protected:
  PageId produce() override { return first_page_ + position(); }
  void produce_span(PageId* out, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) out[i] = first_page_ + position_ + i;
    position_ += count;
  }

 private:
  std::uint64_t first_page_;
};

class PollutedCycleCursor final : public GenCursor {
 public:
  PollutedCycleCursor(std::uint64_t num_repeaters, std::uint64_t num_requests,
                      std::uint64_t pollute_every, std::uint64_t repeater_base,
                      std::uint64_t polluter_base)
      : GenCursor(num_requests),
        num_repeaters_(num_repeaters),
        pollute_every_(pollute_every),
        repeater_base_(repeater_base),
        polluter_(polluter_base) {
    PPG_CHECK(num_repeaters >= 1);
    PPG_CHECK_MSG(repeater_base + num_repeaters <= polluter_base ||
                      polluter_base + num_requests <= repeater_base,
                  "repeater and polluter id ranges overlap");
    prime();
  }

 protected:
  PageId produce() override {
    const std::uint64_t i = position() + 1;  // 1-indexed within the stream
    if (pollute_every_ != 0 && i % pollute_every_ == 0) return polluter_++;
    const PageId page = repeater_base_ + cycle_pos_;
    cycle_pos_ = (cycle_pos_ + 1) % num_repeaters_;
    return page;
  }
  void produce_span(PageId* out, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t idx = position_ + 1;  // 1-indexed within stream
      ++position_;
      if (pollute_every_ != 0 && idx % pollute_every_ == 0) {
        out[i] = polluter_++;
        continue;
      }
      out[i] = repeater_base_ + cycle_pos_;
      if (++cycle_pos_ == num_repeaters_) cycle_pos_ = 0;
    }
  }
  void save_extra(std::vector<std::uint64_t>& words) const override {
    words.push_back(cycle_pos_);
    words.push_back(polluter_);
  }
  void load_extra(const std::uint64_t* words, std::size_t count) override {
    PPG_CHECK(count == 2);
    cycle_pos_ = words[0];
    polluter_ = words[1];
  }

 private:
  std::uint64_t num_repeaters_;
  std::uint64_t pollute_every_;
  std::uint64_t repeater_base_;
  std::uint64_t cycle_pos_ = 0;
  std::uint64_t polluter_;
};

class UniformCursor final : public GenCursor {
 public:
  UniformCursor(std::uint64_t num_pages, std::uint64_t num_requests,
                const Rng& rng)
      : GenCursor(num_requests), num_pages_(num_pages), rng_(rng) {
    PPG_CHECK(num_pages >= 1);
    prime();
  }

  const Rng& rng() const { return rng_; }

 protected:
  PageId produce() override { return rng_.next_below(num_pages_); }
  void produce_span(PageId* out, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) out[i] = rng_.next_below(num_pages_);
    position_ += count;
  }
  void save_extra(std::vector<std::uint64_t>& words) const override {
    save_rng(rng_, words);
  }
  void load_extra(const std::uint64_t* words, std::size_t count) override {
    PPG_CHECK(count == 4);
    load_rng(rng_, words);
  }

 private:
  std::uint64_t num_pages_;
  Rng rng_;
};

class ZipfCursor final : public GenCursor {
 public:
  ZipfCursor(std::shared_ptr<const std::vector<double>> cdf,
             std::uint64_t num_requests, const Rng& rng)
      : GenCursor(num_requests), sampler_(std::move(cdf)), rng_(rng) {
    prime();
  }

  const Rng& rng() const { return rng_; }

 protected:
  PageId produce() override { return sampler_.draw(rng_.next_double()); }
  void produce_span(PageId* out, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i)
      out[i] = sampler_.draw(rng_.next_double());
    position_ += count;
  }
  void save_extra(std::vector<std::uint64_t>& words) const override {
    save_rng(rng_, words);
  }
  void load_extra(const std::uint64_t* words, std::size_t count) override {
    PPG_CHECK(count == 4);
    load_rng(rng_, words);
  }

 private:
  // One guide table per cursor, not per source: source construction stays
  // a single O(n) CDF pass, and the guide is built only by cursors that
  // actually draw.
  ZipfSampler sampler_;
  Rng rng_;
};

std::uint64_t total_phase_length(const std::vector<WorkingSetPhase>& phases) {
  std::uint64_t total = 0;
  for (const auto& ph : phases) total += ph.length;
  return total;
}

class PhasedCursor final : public GenCursor {
 public:
  PhasedCursor(std::shared_ptr<const std::vector<WorkingSetPhase>> phases,
               const Rng& rng)
      : GenCursor(total_phase_length(*phases)),
        phases_(std::move(phases)),
        rng_(rng) {
    for (const auto& ph : *phases_) PPG_CHECK(ph.working_set_size >= 1);
    prime();
  }

  const Rng& rng() const { return rng_; }

 protected:
  PageId produce() override {
    while (in_phase_ == (*phases_)[phase_].length) {
      base_ += (*phases_)[phase_].working_set_size;  // fresh set each phase
      ++phase_;
      in_phase_ = 0;
    }
    const WorkingSetPhase& ph = (*phases_)[phase_];
    const std::uint64_t offset = ph.random_order
                                     ? rng_.next_below(ph.working_set_size)
                                     : in_phase_ % ph.working_set_size;
    ++in_phase_;
    return base_ + offset;
  }
  void produce_span(PageId* out, std::size_t count) override {
    // Phase lookup hoisted out of the per-request loop: requests are
    // emitted one phase segment at a time.
    std::size_t i = 0;
    while (i < count) {
      while (in_phase_ == (*phases_)[phase_].length) {
        base_ += (*phases_)[phase_].working_set_size;
        ++phase_;
        in_phase_ = 0;
      }
      const WorkingSetPhase& ph = (*phases_)[phase_];
      const std::size_t run = static_cast<std::size_t>(
          std::min<std::uint64_t>(count - i, ph.length - in_phase_));
      if (ph.random_order) {
        for (std::size_t j = 0; j < run; ++j)
          out[i + j] = base_ + rng_.next_below(ph.working_set_size);
      } else {
        for (std::size_t j = 0; j < run; ++j)
          out[i + j] = base_ + (in_phase_ + j) % ph.working_set_size;
      }
      in_phase_ += run;
      i += run;
    }
    position_ += count;
  }
  void save_extra(std::vector<std::uint64_t>& words) const override {
    words.push_back(phase_);
    words.push_back(in_phase_);
    words.push_back(base_);
    save_rng(rng_, words);
  }
  void load_extra(const std::uint64_t* words, std::size_t count) override {
    PPG_CHECK(count == 7);
    phase_ = static_cast<std::size_t>(words[0]);
    in_phase_ = words[1];
    base_ = words[2];
    load_rng(rng_, words + 3);
  }

 private:
  std::shared_ptr<const std::vector<WorkingSetPhase>> phases_;
  std::size_t phase_ = 0;
  std::uint64_t in_phase_ = 0;
  std::uint64_t base_ = 0;
  Rng rng_;
};

class CyclicSource final : public TraceSource {
 public:
  CyclicSource(std::uint64_t num_pages, std::uint64_t num_requests)
      : num_pages_(num_pages), num_requests_(num_requests) {
    PPG_CHECK(num_pages >= 1);
  }
  std::uint64_t num_requests() const override { return num_requests_; }
  std::unique_ptr<TraceCursor> cursor() const override {
    return std::make_unique<CyclicCursor>(num_pages_, num_requests_);
  }

 private:
  std::uint64_t num_pages_;
  std::uint64_t num_requests_;
};

class SingleUseSource final : public TraceSource {
 public:
  SingleUseSource(std::uint64_t num_requests, std::uint64_t first_page)
      : num_requests_(num_requests), first_page_(first_page) {}
  std::uint64_t num_requests() const override { return num_requests_; }
  std::unique_ptr<TraceCursor> cursor() const override {
    return std::make_unique<SingleUseCursor>(num_requests_, first_page_);
  }

 private:
  std::uint64_t num_requests_;
  std::uint64_t first_page_;
};

class PollutedCycleSource final : public TraceSource {
 public:
  PollutedCycleSource(std::uint64_t num_repeaters, std::uint64_t num_requests,
                      std::uint64_t pollute_every,
                      std::uint64_t repeater_base, std::uint64_t polluter_base)
      : num_repeaters_(num_repeaters),
        num_requests_(num_requests),
        pollute_every_(pollute_every),
        repeater_base_(repeater_base),
        polluter_base_(polluter_base) {}
  std::uint64_t num_requests() const override { return num_requests_; }
  std::unique_ptr<TraceCursor> cursor() const override {
    return std::make_unique<PollutedCycleCursor>(num_repeaters_, num_requests_,
                                                 pollute_every_,
                                                 repeater_base_,
                                                 polluter_base_);
  }

 private:
  std::uint64_t num_repeaters_;
  std::uint64_t num_requests_;
  std::uint64_t pollute_every_;
  std::uint64_t repeater_base_;
  std::uint64_t polluter_base_;
};

class UniformSource final : public TraceSource {
 public:
  UniformSource(std::uint64_t num_pages, std::uint64_t num_requests,
                const Rng& rng)
      : num_pages_(num_pages), num_requests_(num_requests), rng_(rng) {
    PPG_CHECK(num_pages >= 1);
  }
  std::uint64_t num_requests() const override { return num_requests_; }
  std::unique_ptr<TraceCursor> cursor() const override {
    return std::make_unique<UniformCursor>(num_pages_, num_requests_, rng_);
  }

 private:
  std::uint64_t num_pages_;
  std::uint64_t num_requests_;
  Rng rng_;
};

class ZipfSource final : public TraceSource {
 public:
  ZipfSource(std::uint64_t num_pages, std::uint64_t num_requests, double theta,
             const Rng& rng)
      : cdf_(make_zipf_cdf(num_pages, theta)),
        num_requests_(num_requests),
        rng_(rng) {}
  std::uint64_t num_requests() const override { return num_requests_; }
  std::unique_ptr<TraceCursor> cursor() const override {
    return std::make_unique<ZipfCursor>(cdf_, num_requests_, rng_);
  }

 private:
  std::shared_ptr<const std::vector<double>> cdf_;
  std::uint64_t num_requests_;
  Rng rng_;
};

class PhasedSource final : public TraceSource {
 public:
  PhasedSource(std::vector<WorkingSetPhase> phases, const Rng& rng)
      : phases_(std::make_shared<const std::vector<WorkingSetPhase>>(
            std::move(phases))),
        num_requests_(total_phase_length(*phases_)),
        rng_(rng) {
    for (const auto& ph : *phases_) PPG_CHECK(ph.working_set_size >= 1);
  }
  std::uint64_t num_requests() const override { return num_requests_; }
  std::unique_ptr<TraceCursor> cursor() const override {
    return std::make_unique<PhasedCursor>(phases_, rng_);
  }

 private:
  std::shared_ptr<const std::vector<WorkingSetPhase>> phases_;
  std::uint64_t num_requests_;
  Rng rng_;
};

std::vector<WorkingSetPhase> sawtooth_phases(std::uint64_t hot,
                                             std::uint64_t cold,
                                             std::size_t burst_len,
                                             std::size_t num_bursts) {
  std::vector<WorkingSetPhase> phases;
  phases.reserve(num_bursts);
  for (std::size_t b = 0; b < num_bursts; ++b) {
    const bool is_hot = (b % 2 == 0);
    phases.push_back(WorkingSetPhase{is_hot ? hot : cold, burst_len,
                                     /*random_order=*/is_hot});
  }
  return phases;
}

}  // namespace

std::shared_ptr<const std::vector<double>> make_zipf_cdf(
    std::uint64_t num_pages, double theta) {
  PPG_CHECK(num_pages >= 1);
  PPG_CHECK(theta >= 0.0);
  auto cdf = std::make_shared<std::vector<double>>(num_pages);
  double acc = 0.0;
  for (std::uint64_t r = 0; r < num_pages; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    (*cdf)[r] = acc;
  }
  for (auto& v : *cdf) v /= acc;
  return cdf;
}

ZipfSampler::ZipfSampler(std::shared_ptr<const std::vector<double>> cdf)
    : cdf_(std::move(cdf)) {
  PPG_CHECK(cdf_ != nullptr && !cdf_->empty());
  PPG_CHECK(cdf_->back() == 1.0);
  PPG_CHECK(cdf_->size() <= std::numeric_limits<std::uint32_t>::max());
  const std::vector<double>& values = *cdf_;
  guide_.resize(values.size());
  std::size_t r = 0;
  for (std::size_t b = 0; b < guide_.size(); ++b) {
    while (r + 1 < values.size() && bucket(values[r]) < b) ++r;
    guide_[b] = static_cast<std::uint32_t>(r);
  }
}

Trace cyclic(std::uint64_t num_pages, std::size_t num_requests) {
  CyclicCursor cursor(num_pages, num_requests);
  return materialize(cursor, num_requests);
}

Trace polluted_cycle(std::uint64_t num_repeaters, std::size_t num_requests,
                     std::uint64_t pollute_every, std::uint64_t repeater_base,
                     std::uint64_t polluter_base) {
  PollutedCycleCursor cursor(num_repeaters, num_requests, pollute_every,
                             repeater_base, polluter_base);
  return materialize(cursor, num_requests);
}

Trace single_use(std::size_t num_requests, std::uint64_t first_page) {
  SingleUseCursor cursor(num_requests, first_page);
  return materialize(cursor, num_requests);
}

Trace uniform_random(std::uint64_t num_pages, std::size_t num_requests,
                     Rng& rng) {
  UniformCursor cursor(num_pages, num_requests, rng);
  Trace trace = materialize(cursor, num_requests);
  rng = cursor.rng();  // leave the caller's generator advanced by n draws
  return trace;
}

Trace zipf(std::uint64_t num_pages, std::size_t num_requests, double theta,
           Rng& rng) {
  ZipfCursor cursor(make_zipf_cdf(num_pages, theta), num_requests, rng);
  Trace trace = materialize(cursor, num_requests);
  rng = cursor.rng();
  return trace;
}

Trace phased_working_set(const std::vector<WorkingSetPhase>& phases,
                         Rng& rng) {
  PhasedCursor cursor(
      std::make_shared<const std::vector<WorkingSetPhase>>(phases), rng);
  Trace trace = materialize(cursor, static_cast<std::size_t>(
                                        total_phase_length(phases)));
  rng = cursor.rng();
  return trace;
}

Trace sawtooth(std::uint64_t hot, std::uint64_t cold, std::size_t burst_len,
               std::size_t num_bursts, Rng& rng) {
  return phased_working_set(sawtooth_phases(hot, cold, burst_len, num_bursts),
                            rng);
}

Trace rebase_to_proc(const Trace& t, ProcId proc) {
  // Compact local ids first so the 48-bit local space is never an issue
  // even for traces built from sparse id ranges.
  std::unordered_map<PageId, std::uint64_t> remap;
  remap.reserve(t.size());
  std::vector<PageId> reqs;
  reqs.reserve(t.size());
  for (PageId page : t) {
    auto [it, inserted] = remap.emplace(page, remap.size());
    reqs.push_back(make_page(proc, it->second));
  }
  return Trace(std::move(reqs));
}

std::shared_ptr<const TraceSource> cyclic_source(std::uint64_t num_pages,
                                                 std::size_t num_requests) {
  return std::make_shared<CyclicSource>(num_pages, num_requests);
}

std::shared_ptr<const TraceSource> polluted_cycle_source(
    std::uint64_t num_repeaters, std::size_t num_requests,
    std::uint64_t pollute_every, std::uint64_t repeater_base,
    std::uint64_t polluter_base) {
  return std::make_shared<PollutedCycleSource>(num_repeaters, num_requests,
                                               pollute_every, repeater_base,
                                               polluter_base);
}

std::shared_ptr<const TraceSource> single_use_source(std::size_t num_requests,
                                                     std::uint64_t first_page) {
  return std::make_shared<SingleUseSource>(num_requests, first_page);
}

std::shared_ptr<const TraceSource> uniform_random_source(
    std::uint64_t num_pages, std::size_t num_requests, const Rng& rng) {
  return std::make_shared<UniformSource>(num_pages, num_requests, rng);
}

std::shared_ptr<const TraceSource> zipf_source(std::uint64_t num_pages,
                                               std::size_t num_requests,
                                               double theta, const Rng& rng) {
  return std::make_shared<ZipfSource>(num_pages, num_requests, theta, rng);
}

std::shared_ptr<const TraceSource> phased_working_set_source(
    std::vector<WorkingSetPhase> phases, const Rng& rng) {
  return std::make_shared<PhasedSource>(std::move(phases), rng);
}

std::shared_ptr<const TraceSource> sawtooth_source(std::uint64_t hot,
                                                   std::uint64_t cold,
                                                   std::size_t burst_len,
                                                   std::size_t num_bursts,
                                                   const Rng& rng) {
  return std::make_shared<PhasedSource>(
      sawtooth_phases(hot, cold, burst_len, num_bursts), rng);
}

}  // namespace ppg::gen
