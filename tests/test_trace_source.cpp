// Cursor-contract and streaming-equivalence suite for the trace pipeline.
//
// Every lazy source must synthesize exactly the stream its materialized
// counterpart produces, and every cursor must honour the span contract:
// position() counts what next_span consumed, the stream does not depend on
// how it is split into spans, and done() turns true exactly at the end.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "test_helpers.hpp"
#include "trace/adversarial.hpp"
#include "trace/fault_source.hpp"
#include "trace/generators.hpp"
#include "trace/stack_distance.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_source.hpp"
#include "trace/trace_spec.hpp"
#include "trace/trace_stats.hpp"
#include "trace/workload.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ppg {
namespace {

/// Drains `cursor` through next_span calls of at most `span` pages.
std::vector<PageId> drain_spans(TraceCursor& cursor, std::size_t span) {
  std::vector<PageId> out;
  std::vector<PageId> buffer(span);
  for (;;) {
    const std::size_t n = cursor.next_span(buffer.data(), span);
    if (n == 0) break;
    out.insert(out.end(), buffer.begin(),
               buffer.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return out;
}

/// Exercises the cursor contract against the source's materialized
/// reference stream: one request per next_span call, position() tracking
/// every one, an empty pull consuming nothing, and a finished cursor that
/// stays finished.
void check_cursor_contract(const TraceSource& source) {
  const Trace reference = materialize(source);
  ASSERT_EQ(reference.size(), source.num_requests());

  auto cursor = source.cursor();
  PageId page = kInvalidPage;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_FALSE(cursor->done());
    ASSERT_EQ(cursor->position(), i);
    ASSERT_EQ(cursor->next_span(&page, 0), 0u);
    ASSERT_EQ(cursor->position(), i) << "an empty pull consumed at " << i;
    ASSERT_EQ(cursor->next_span(&page, 1), 1u);
    ASSERT_EQ(page, reference[i]) << "diverged at " << i;
  }
  ASSERT_TRUE(cursor->done());
  ASSERT_EQ(cursor->position(), reference.size());
  ASSERT_EQ(cursor->next_span(&page, 1), 0u);
  ASSERT_EQ(cursor->position(), reference.size());
}

TEST(TraceSource, VectorSourceContract) {
  const Trace t = test::make_trace({5, 6, 5, 7, 7, 6, 5, 8, 9, 5, 6});
  const auto view = VectorTraceSource::view(t);
  ASSERT_NE(view->materialized(), nullptr);
  EXPECT_EQ(*view->materialized(), t);
  check_cursor_contract(*view);
  EXPECT_EQ(materialize(*view), t);
}

TEST(TraceSource, OwningVectorSourceSharesStorage) {
  VectorTraceSource owning(test::make_trace({1, 2, 3}));
  auto c1 = owning.cursor();
  auto c2 = owning.cursor();
  EXPECT_EQ(drain_spans(*c1, 2), drain_spans(*c2, 2));
}

TEST(TraceSource, EmptySource) {
  const Trace empty;
  const auto view = VectorTraceSource::view(empty);
  EXPECT_EQ(view->num_requests(), 0u);
  auto cursor = view->cursor();
  EXPECT_TRUE(cursor->done());
  EXPECT_EQ(cursor->position(), 0u);
}

TEST(TraceSource, CyclicSourceMatchesMaterialized) {
  const auto source = gen::cyclic_source(7, 40);
  EXPECT_EQ(materialize(*source), gen::cyclic(7, 40));
  check_cursor_contract(*source);
}

TEST(TraceSource, PollutedCycleSourceMatchesMaterialized) {
  const auto source = gen::polluted_cycle_source(5, 60, 4, 10, 1000);
  EXPECT_EQ(materialize(*source), gen::polluted_cycle(5, 60, 4, 10, 1000));
  check_cursor_contract(*source);

  // pollute_every == 0: no pollution.
  const auto pure = gen::polluted_cycle_source(5, 20, 0);
  EXPECT_EQ(materialize(*pure), gen::polluted_cycle(5, 20, 0));
}

TEST(TraceSource, SingleUseSourceMatchesMaterialized) {
  const auto source = gen::single_use_source(30, 17);
  EXPECT_EQ(materialize(*source), gen::single_use(30, 17));
  check_cursor_contract(*source);
}

TEST(TraceSource, UniformSourceMatchesMaterializedAndAdvancesRng) {
  Rng rng(42);
  const auto source = gen::uniform_random_source(11, 50, rng);
  // The source snapshots rng; the materialized call consumes the same draws.
  const Trace reference = gen::uniform_random(11, 50, rng);
  EXPECT_EQ(materialize(*source), reference);
  check_cursor_contract(*source);

  // The materialized function advanced the caller's rng past exactly its
  // 50 draws: a second call produces a different trace, while the
  // snapshot-backed source keeps replaying the first.
  Rng rng2(42);
  Trace second = gen::uniform_random(11, 50, rng2);
  EXPECT_EQ(second, reference);
  Rng expected(42);
  for (int i = 0; i < 50; ++i) expected.next_below(11);
  EXPECT_EQ(rng2(), expected());
  second = gen::uniform_random(11, 50, rng2);
  EXPECT_NE(second, reference);
  EXPECT_EQ(materialize(*source), reference);

  // The same for the other RNG-driven generators: zipf draws one double
  // per request, the phased generators one bounded draw per random-order
  // request.
  Rng zipf_rng(43);
  gen::zipf(20, 30, 0.9, zipf_rng);
  Rng zipf_expected(43);
  for (int i = 0; i < 30; ++i) zipf_expected.next_double();
  EXPECT_EQ(zipf_rng(), zipf_expected());
  Rng saw_rng(44);
  gen::sawtooth(4, 30, 20, 3, saw_rng);  // hot, cold, hot: 40 random draws
  Rng saw_expected(44);
  for (int i = 0; i < 40; ++i) saw_expected.next_below(4);
  EXPECT_EQ(saw_rng(), saw_expected());
}

TEST(TraceSource, ZipfSourceMatchesMaterialized) {
  Rng rng(7);
  const auto source = gen::zipf_source(20, 80, 0.9, rng);
  EXPECT_EQ(materialize(*source), gen::zipf(20, 80, 0.9, rng));
  check_cursor_contract(*source);
}

TEST(TraceSource, PhasedWorkingSetSourceMatchesMaterialized) {
  const std::vector<gen::WorkingSetPhase> phases{
      {6, 25, true}, {3, 10, false}, {9, 30, true}};
  Rng rng(99);
  const auto source = gen::phased_working_set_source(phases, rng);
  EXPECT_EQ(materialize(*source), gen::phased_working_set(phases, rng));
  check_cursor_contract(*source);
}

TEST(TraceSource, SawtoothSourceMatchesMaterialized) {
  Rng rng(5);
  const auto source = gen::sawtooth_source(4, 30, 20, 3, rng);
  EXPECT_EQ(materialize(*source), gen::sawtooth(4, 30, 20, 3, rng));
  check_cursor_contract(*source);
}

TEST(TraceSource, ConcatSourceMatchesAppendedTraces) {
  Rng rng(3);
  const auto source = concat_source({gen::cyclic_source(4, 11),
                                     gen::single_use_source(7, 100),
                                     gen::uniform_random_source(5, 13, rng)});
  Trace expected = gen::cyclic(4, 11);
  expected.append(gen::single_use(7, 100));
  expected.append(gen::uniform_random(5, 13, rng));
  EXPECT_EQ(materialize(*source), expected);
  check_cursor_contract(*source);
}

TEST(TraceSource, ConcatSourceWithEmptyParts) {
  const auto source = concat_source(
      {gen::single_use_source(0), gen::cyclic_source(3, 5),
       gen::single_use_source(0)});
  EXPECT_EQ(materialize(*source), gen::cyclic(3, 5));
  check_cursor_contract(*source);
}

TEST(TraceSource, RebaseSourceMatchesRebaseToProc) {
  Rng rng(21);
  const Trace inner = gen::zipf(15, 70, 1.1, rng);
  Rng rng2(21);
  const auto source =
      rebase_source(gen::zipf_source(15, 70, 1.1, rng2), /*proc=*/3);
  EXPECT_EQ(materialize(*source), gen::rebase_to_proc(inner, 3));
  check_cursor_contract(*source);
}

TEST(TraceSource, MultiTraceSourceViewAndMaterialize) {
  MultiTrace mt;
  mt.add(test::make_trace({1, 2, 1}));
  mt.add(test::make_trace({9, 9, 8, 7}));
  const MultiTraceSource view = MultiTraceSource::view_of(mt);
  ASSERT_EQ(view.num_procs(), 2u);
  EXPECT_EQ(view.total_requests(), 7u);
  EXPECT_TRUE(view.materialize().traces() == mt.traces());
  EXPECT_EQ(view.source(1).num_requests(), 4u);
  // A MultiTrace converts implicitly to a non-owning view of the same
  // vectors; a temporary cannot be bound, so no view can dangle.
  static_assert(std::is_convertible_v<const MultiTrace&, MultiTraceSource>);
  static_assert(!std::is_constructible_v<MultiTraceSource, MultiTrace&&>);
  const MultiTraceSource implicit = mt;
  EXPECT_EQ(implicit.source(1).materialized(), &mt.trace(1));
}

TEST(TraceSource, WorkloadSourceMatchesMakeWorkload) {
  for (const WorkloadKind kind : all_workload_kinds()) {
    WorkloadParams wp;
    wp.num_procs = 3;
    wp.cache_size = 12;
    wp.requests_per_proc = 300;
    wp.seed = 77;
    const MultiTrace expected = make_workload(kind, wp);
    const MultiTraceSource sources = make_workload_source(kind, wp);
    ASSERT_EQ(sources.num_procs(), expected.num_procs());
    for (ProcId i = 0; i < sources.num_procs(); ++i) {
      EXPECT_EQ(materialize(sources.source(i)), expected.trace(i))
          << workload_kind_name(kind) << " proc " << i;
    }
  }
}

TEST(TraceSource, WorkloadSourceCursorContract) {
  WorkloadParams wp;
  wp.num_procs = 2;
  wp.cache_size = 8;
  wp.requests_per_proc = 120;
  wp.seed = 5;
  const MultiTraceSource sources =
      make_workload_source(WorkloadKind::kHeterogeneousMix, wp);
  for (ProcId i = 0; i < sources.num_procs(); ++i)
    check_cursor_contract(sources.source(i));
}

TEST(TraceSource, AdversarialSourceMatchesInstance) {
  AdversarialParams ap;
  ap.ell = 2;
  ap.alpha = 0.02;
  ap.suffix_phase_factor = 1.0;
  const AdversarialInstance expected = make_adversarial_instance(ap);
  const AdversarialSourceInstance lazy = make_adversarial_source(ap);
  ASSERT_EQ(lazy.sources.num_procs(), expected.traces.num_procs());
  ASSERT_TRUE(lazy.info.size() == expected.info.size());
  for (ProcId i = 0; i < lazy.sources.num_procs(); ++i) {
    EXPECT_EQ(materialize(lazy.sources.source(i)), expected.traces.trace(i))
        << "proc " << i;
    EXPECT_EQ(lazy.info[i].prefixed, expected.info[i].prefixed);
    EXPECT_EQ(lazy.info[i].prefix_requests, expected.info[i].prefix_requests);
  }
  check_cursor_contract(lazy.sources.source(0));
}

TEST(TraceSource, WorkloadSpecRoundTrips) {
  WorkloadParams wp;
  wp.num_procs = 3;
  wp.cache_size = 24;
  wp.requests_per_proc = 200;
  wp.seed = 13;
  wp.miss_cost = 4;
  const std::string spec =
      workload_trace_spec(WorkloadKind::kPollutedCycles, wp);
  const MultiTraceSource rebuilt = make_source_from_trace_spec(spec);
  const MultiTrace expected =
      make_workload(WorkloadKind::kPollutedCycles, wp);
  EXPECT_TRUE(rebuilt.materialize().traces() == expected.traces());
}

TEST(TraceSource, AdversarialSpecRoundTrips) {
  AdversarialParams ap;
  ap.ell = 2;
  ap.alpha = 0.02;
  ap.suffix_phase_factor = 1.0;
  const std::string spec = adversarial_trace_spec(ap);
  const MultiTraceSource rebuilt = make_source_from_trace_spec(spec);
  const AdversarialInstance expected = make_adversarial_instance(ap);
  EXPECT_TRUE(rebuilt.materialize().traces() == expected.traces.traces());
}

TEST(TraceSource, MalformedSpecThrowsBadInput) {
  for (const char* bad :
       {"", "nonsense", "workload(kind=no-such-kind,p=2,k=8,n=10,seed=1,s=2)",
        "workload(p=2)", "workload(kind=zipf,p=2,k=8,n=10,seed=1,s=2",
        "adversarial(ell=not-a-number)"}) {
    try {
      make_source_from_trace_spec(bad);
      FAIL() << "accepted spec: '" << bad << "'";
    } catch (const PpgException& e) {
      EXPECT_EQ(e.error().code, ErrorCode::kBadInput) << bad;
    }
  }
}

TEST(TraceSource, FileSourceStreamsChunks) {
  MultiTrace mt;
  mt.add(gen::cyclic(5, 37));   // Deliberately not a multiple of the chunk.
  mt.add(gen::single_use(16));  // Exactly chunk-aligned length.
  mt.add(Trace{});              // Empty trace.
  const std::string path = test::unique_temp_path("file_source.ppgtrace");
  save_multitrace(path, mt);

  // Tiny chunks force many refills; behaviour must be invisible.
  const MultiTraceSource sources =
      open_multitrace_source(path, /*chunk_requests=*/4);
  ASSERT_EQ(sources.num_procs(), 3u);
  for (ProcId i = 0; i < 3; ++i) {
    EXPECT_EQ(materialize(sources.source(i)), mt.trace(i)) << "proc " << i;
    check_cursor_contract(sources.source(i));
  }
  EXPECT_TRUE(sources.materialize().traces() == mt.traces());
  std::remove(path.c_str());
}

// --- Span-size independence and stalled streams ---------------------------

TEST(TraceSource, NextSpanIsIndependentOfSpanSize) {
  MultiTrace file_traces;
  file_traces.add(gen::cyclic(5, 37));
  const std::string path = test::unique_temp_path("span_sizes.ppgtrace");
  save_multitrace(path, file_traces);
  const std::vector<std::shared_ptr<const TraceSource>> sources = {
      std::make_shared<VectorTraceSource>(
          test::make_trace({5, 6, 5, 7, 7, 6, 5, 8, 9, 5, 6})),
      gen::cyclic_source(5, 37),
      gen::polluted_cycle_source(6, 100, 7),
      gen::single_use_source(29, 3),
      gen::uniform_random_source(9, 150, Rng(11)),
      // RNG draws cross span boundaries mid-sequence in these two.
      gen::zipf_source(64, 333, 1.1, Rng(17)),
      gen::phased_working_set_source(
          {{6, 25, true}, {3, 10, false}, {9, 30, true}}, Rng(99)),
      gen::sawtooth_source(4, 24, 50, 4, Rng(29)),
      rebase_source(gen::zipf_source(15, 70, 1.1, Rng(21)), /*proc=*/3),
      concat_source({gen::cyclic_source(3, 10), gen::single_use_source(7),
                     gen::cyclic_source(4, 5)}),
      open_multitrace_source(path, /*chunk_requests=*/4).source_ptr(0),
      make_fault_injecting_source(gen::cyclic_source(5, 40),
                                  {TraceFaultClass::kHostilePage, 17}),
  };
  for (std::size_t k = 0; k < sources.size(); ++k) {
    const Trace reference = materialize(*sources[k]);
    ASSERT_EQ(reference.size(), sources[k]->num_requests()) << "source " << k;
    // Odd span sizes cross every internal boundary (chunk, segment, phase).
    for (const std::size_t span : {std::size_t{1}, std::size_t{3},
                                   std::size_t{16}, std::size_t{1000}}) {
      auto cursor = sources[k]->cursor();
      EXPECT_EQ(drain_spans(*cursor, span), reference.requests())
          << "source " << k << " span=" << span;
      EXPECT_TRUE(cursor->done());
      EXPECT_EQ(cursor->position(), reference.size());
    }
  }
  std::remove(path.c_str());
}

TEST(TraceSource, ConcatStopsOnStalledPart) {
  // A part that stalls ends the span with what was gathered; the concat
  // then reports the stall (0 before done()) instead of spinning on it.
  const auto cyclic = gen::cyclic_source(4, 20);
  const auto source = concat_source(
      {make_fault_injecting_source(cyclic, {TraceFaultClass::kStall, 3}),
       cyclic});
  auto cursor = source->cursor();
  std::vector<PageId> buffer(100);
  EXPECT_EQ(cursor->next_span(buffer.data(), buffer.size()), 3u);
  EXPECT_EQ(cursor->next_span(buffer.data(), buffer.size()), 0u);
  EXPECT_FALSE(cursor->done());
  EXPECT_EQ(cursor->position(), 3u);
}

TEST(TraceSource, DrainsReportAStalledStreamAsCorrupt) {
  const auto source = make_fault_injecting_source(
      gen::cyclic_source(4, 20), {TraceFaultClass::kStall, 7});
  const auto expect_stall = [](auto&& drain) {
    try {
      drain();
      FAIL() << "a stalled stream drained without error";
    } catch (const PpgException& e) {
      EXPECT_EQ(e.error().code, ErrorCode::kCorruptTrace);
      EXPECT_EQ(e.error().byte_offset, 7u);
    }
  };
  expect_stall([&] { materialize(*source); });
  expect_stall([&] {
    auto cursor = source->cursor();
    compute_trace_stats(*cursor);
  });
  expect_stall([&] {
    auto cursor = source->cursor();
    working_set_profile(*cursor, 4);
  });
}

// --- Streaming one-pass consumers -----------------------------------------

TEST(OnlineStackDistanceTest, MatchesNaiveWithCompaction) {
  // 2000 requests over 40 pages: the compact slot space (~2m+2 = 82 slots)
  // overflows every ~42 accesses, exercising renumbering continuously.
  Rng rng(31);
  const Trace trace = gen::zipf(40, 2000, 0.8, rng);
  const std::vector<std::uint64_t> expected = stack_distances_naive(trace);
  OnlineStackDistance online;
  for (std::size_t i = 0; i < trace.size(); ++i)
    ASSERT_EQ(online.access(trace[i]), expected[i]) << "request " << i;
  EXPECT_EQ(online.num_distinct(), trace.distinct_pages());
}

TEST(StreamingConsumers, ProfileStatsAndWorkingSetMatchMaterialized) {
  Rng rng(17);
  const auto source = gen::sawtooth_source(6, 40, 50, 4, rng);
  const Trace trace = materialize(*source);

  {
    auto cursor = source->cursor();
    const TraceStats streamed = compute_trace_stats(*cursor, 8);
    const TraceStats direct = compute_trace_stats(trace, 8);
    EXPECT_EQ(streamed.num_requests, direct.num_requests);
    EXPECT_EQ(streamed.distinct_pages, direct.distinct_pages);
    EXPECT_EQ(streamed.median_stack_distance, direct.median_stack_distance);
    EXPECT_EQ(streamed.lru_fault_curve, direct.lru_fault_curve);
  }
  {
    auto cursor = source->cursor();
    EXPECT_EQ(working_set_profile(*cursor, 32),
              working_set_profile(trace, 32));
  }
}

}  // namespace
}  // namespace ppg
