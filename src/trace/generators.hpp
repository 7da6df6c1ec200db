// Synthetic workload generators.
//
// These realize the access patterns the paper's analysis is built around —
// cyclic "repeater" reuse, single-use "polluter" streams, and their mixes —
// plus standard locality models (Zipf, phased working sets, uniform) used to
// exercise the schedulers on non-adversarial inputs. Every generator is
// deterministic given its Rng, and emits processor-local page numbers; use
// Workload (workload.hpp) or rebase_to_proc() to build disjoint MultiTraces.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "trace/trace.hpp"
#include "trace/trace_source.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ppg::gen {

/// Round-robin cycle over `num_pages` pages: 0,1,...,m-1,0,1,...
/// The canonical LRU-worst-case / large-working-set pattern.
Trace cyclic(std::uint64_t num_pages, std::size_t num_requests);

/// Cycle over `num_repeaters` pages where every `pollute_every`-th request
/// (1-indexed within the emitted stream) is replaced by a fresh never-reused
/// "polluter" page. This is the paper's prefix phase sigma^j with
/// pollute_every = p / 2^j. Polluter local ids start at `polluter_base`
/// and count up, so callers can concatenate phases without collisions.
/// pollute_every == 0 means no pollution.
Trace polluted_cycle(std::uint64_t num_repeaters, std::size_t num_requests,
                     std::uint64_t pollute_every,
                     std::uint64_t repeater_base = 0,
                     std::uint64_t polluter_base = std::uint64_t{1} << 32);

/// Every request is a fresh page (the paper's suffix pattern): no reuse at
/// all, so any cache size makes the same progress.
Trace single_use(std::size_t num_requests, std::uint64_t first_page = 0);

/// Independent uniform draws over [0, num_pages).
Trace uniform_random(std::uint64_t num_pages, std::size_t num_requests,
                     Rng& rng);

/// Independent Zipf(theta) draws over [0, num_pages): page r+1 has
/// probability proportional to 1/(r+1)^theta. theta = 0 is uniform; theta
/// around 0.8-1.2 models typical skewed reuse.
Trace zipf(std::uint64_t num_pages, std::size_t num_requests, double theta,
           Rng& rng);

/// Normalized Zipf(theta) CDF over [0, num_pages): entry r is the
/// probability of a page at rank <= r, and the last entry is exactly 1.
std::shared_ptr<const std::vector<double>> make_zipf_cdf(
    std::uint64_t num_pages, double theta);

/// Inverse-transform sampler over a CDF whose last entry is 1: draw(u),
/// for u in [0, 1), returns the first rank r with cdf[r] >= u, exactly the
/// rank std::lower_bound finds, through a guide table in O(1) expected
/// steps instead of O(log n). The guide has B = bit_ceil(4n) buckets, and
/// bucket(u) = floor(u*B) is exact because B is a power of two (so u < 1
/// never reaches B). guide[b] is the first rank whose CDF value lies in
/// bucket b or later. The bucket map is monotone in u, so every rank before
/// guide[bucket(u)] has a CDF value in a lower bucket, hence below u, and
/// the forward scan from there stops at the lower_bound rank. Building the
/// guide is one O(n + B) merge of the CDF against the bucket edges; it
/// holds 4-8 entries of 4 bytes per page.
class ZipfSampler {
 public:
  explicit ZipfSampler(std::shared_ptr<const std::vector<double>> cdf);

  std::uint64_t draw(double u) const {
    PPG_DCHECK(u >= 0.0 && u < 1.0);
    const double* cdf = cdf_->data();
    std::size_t r = guide_[static_cast<std::size_t>(u * buckets_)];
    while (cdf[r] < u) ++r;
    return r;
  }

 private:
  std::shared_ptr<const std::vector<double>> cdf_;
  double buckets_;  ///< B, the guide's size, a power of two.
  std::vector<std::uint32_t> guide_;
};

/// One phase of a phased-working-set workload.
struct WorkingSetPhase {
  std::uint64_t working_set_size;  ///< Distinct pages touched in the phase.
  std::size_t length;              ///< Requests in the phase.
  bool random_order = true;        ///< Uniform within the set vs. cyclic.
};

/// Sawtooth locality: each phase touches a fresh working set of the given
/// size. This produces the non-monotonic marginal-benefit behaviour the
/// paper's introduction describes (a processor's useful cache size jumps
/// between phases).
Trace phased_working_set(const std::vector<WorkingSetPhase>& phases, Rng& rng);

/// Sequence of `num_bursts` phases alternating between a small hot set of
/// size `hot` and a large scan set of size `cold`, each lasting
/// `burst_len` requests. A compact standard mix for scheduler stress.
Trace sawtooth(std::uint64_t hot, std::uint64_t cold, std::size_t burst_len,
               std::size_t num_bursts, Rng& rng);

/// Rewrites every page id in `t` into processor `proc`'s disjoint id space.
Trace rebase_to_proc(const Trace& t, ProcId proc);

// ---------------------------------------------------------------------------
// Lazy streaming counterparts. Each *_source returns a TraceSource whose
// cursors synthesize the exact same request stream as the materialized
// function above it, on demand, in O(1) memory per cursor. The RNG-driven
// sources take the generator state by value (a snapshot): unlike the
// materialized functions they do not advance the caller's Rng, because every
// cursor replays its draws from the snapshot. The materialized functions are
// implemented by draining one cursor, so equivalence holds by construction.
// ---------------------------------------------------------------------------

std::shared_ptr<const TraceSource> cyclic_source(std::uint64_t num_pages,
                                                 std::size_t num_requests);

std::shared_ptr<const TraceSource> polluted_cycle_source(
    std::uint64_t num_repeaters, std::size_t num_requests,
    std::uint64_t pollute_every, std::uint64_t repeater_base = 0,
    std::uint64_t polluter_base = std::uint64_t{1} << 32);

std::shared_ptr<const TraceSource> single_use_source(
    std::size_t num_requests, std::uint64_t first_page = 0);

std::shared_ptr<const TraceSource> uniform_random_source(
    std::uint64_t num_pages, std::size_t num_requests, const Rng& rng);

std::shared_ptr<const TraceSource> zipf_source(std::uint64_t num_pages,
                                               std::size_t num_requests,
                                               double theta, const Rng& rng);

std::shared_ptr<const TraceSource> phased_working_set_source(
    std::vector<WorkingSetPhase> phases, const Rng& rng);

std::shared_ptr<const TraceSource> sawtooth_source(std::uint64_t hot,
                                                   std::uint64_t cold,
                                                   std::size_t burst_len,
                                                   std::size_t num_bursts,
                                                   const Rng& rng);

}  // namespace ppg::gen
