// Cursor-contract and streaming-equivalence suite for the trace pipeline.
//
// Every lazy source must synthesize exactly the stream its materialized
// counterpart produces, and every cursor must honour the checkpoint/rewind
// contract: a rewound cursor replays a byte-identical suffix, and a
// checkpoint taken on one cursor restores correctly on any cursor of the
// same source.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "test_helpers.hpp"
#include "trace/adversarial.hpp"
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

std::vector<PageId> drain(TraceCursor& cursor) {
  std::vector<PageId> out;
  while (!cursor.done()) {
    out.push_back(cursor.peek());
    cursor.advance();
  }
  return out;
}

/// Exercises the full cursor contract against the source's materialized
/// reference stream: peek repeatability, position bookkeeping, rewind from
/// every 7th position, and checkpoint portability across cursors.
void check_cursor_contract(const TraceSource& source) {
  const Trace reference = materialize(source);
  ASSERT_EQ(reference.size(), source.num_requests());

  // Pass 1: peek is repeatable and position tracks consumption.
  auto cursor = source.cursor();
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_FALSE(cursor->done());
    ASSERT_EQ(cursor->position(), i);
    const PageId first = cursor->peek();
    ASSERT_EQ(cursor->peek(), first) << "peek not repeatable at " << i;
    ASSERT_EQ(first, reference[i]);
    cursor->advance();
  }
  ASSERT_TRUE(cursor->done());
  ASSERT_EQ(cursor->position(), reference.size());

  // Pass 2: checkpoints taken mid-stream rewind to a byte-identical suffix,
  // both on the same cursor and on a fresh cursor of the same source.
  auto walker = source.cursor();
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (i % 7 == 0) {
      const CursorCheckpoint cp = walker->checkpoint();
      ASSERT_EQ(cp.position, i);

      // Run the walker a few steps ahead, then rewind it.
      for (std::size_t j = i; j < std::min(i + 5, reference.size()); ++j)
        walker->advance();
      walker->rewind(cp);
      ASSERT_EQ(walker->position(), i);
      if (i < reference.size()) {
        ASSERT_EQ(walker->peek(), reference[i]);
      }

      // Portability: the same checkpoint restores a fresh cursor.
      auto fresh = source.cursor();
      fresh->rewind(cp);
      for (std::size_t j = i; j < reference.size(); ++j) {
        ASSERT_EQ(fresh->peek(), reference[j]) << "diverged at " << j
                                               << " after rewind to " << i;
        fresh->advance();
      }
      ASSERT_TRUE(fresh->done());
    }
    walker->advance();
  }
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
  EXPECT_EQ(drain(*c1), drain(*c2));
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

  // The materialized function advanced the caller's rng past its draws: a
  // second call produces a different trace, while the snapshot-backed
  // source keeps replaying the first.
  Rng rng2(42);
  Trace second = gen::uniform_random(11, 50, rng2);
  EXPECT_EQ(second, reference);
  second = gen::uniform_random(11, 50, rng2);
  EXPECT_NE(second, reference);
  EXPECT_EQ(materialize(*source), reference);
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
  // Rewind must preserve the first-appearance id assignment: the remap
  // table is keyed by page, not by position, so a replayed suffix reuses
  // the ids assigned on the first pass.
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

TEST(TraceSource, FileSourceStreamsChunksAndRewinds) {
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

// --- Bulk spans and read-ahead ---------------------------------------------

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

TEST(TraceSource, NextSpanMatchesPeekAdvance) {
  const std::vector<std::shared_ptr<const TraceSource>> sources = {
      std::make_shared<VectorTraceSource>(
          test::make_trace({5, 6, 5, 7, 7, 6, 5, 8, 9, 5, 6})),
      gen::cyclic_source(5, 37),
      gen::zipf_source(64, 333, 1.1, Rng(17)),
      gen::sawtooth_source(4, 24, 50, 4, Rng(29)),
      gen::polluted_cycle_source(6, 100, 7),
      rebase_source(gen::zipf_source(15, 70, 1.1, Rng(21)), /*proc=*/3),
      concat_source({gen::cyclic_source(3, 10), gen::single_use_source(7),
                     gen::cyclic_source(4, 5)}),
  };
  for (const auto& source : sources) {
    const Trace reference = materialize(*source);
    // Odd span sizes cross every internal boundary (chunk, segment).
    for (const std::size_t span : {std::size_t{1}, std::size_t{3},
                                   std::size_t{16}, std::size_t{1000}}) {
      auto cursor = source->cursor();
      EXPECT_EQ(drain_spans(*cursor, span), reference.requests())
          << "span=" << span;
      EXPECT_TRUE(cursor->done());
      EXPECT_EQ(cursor->position(), reference.size());
    }
  }
}

TEST(TraceSource, NextSpanLeavesIdenticalCursorState) {
  // A cursor advanced by next_span must be indistinguishable — position,
  // checkpoint words (incl. RNG state), and remaining stream — from one
  // advanced request by request.
  const auto source = gen::zipf_source(64, 200, 1.1, Rng(23));
  auto bulk = source->cursor();
  auto stepper = source->cursor();
  std::vector<PageId> buffer(13);
  const std::size_t n = bulk->next_span(buffer.data(), buffer.size());
  ASSERT_EQ(n, buffer.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(stepper->peek(), buffer[i]);
    stepper->advance();
  }
  const CursorCheckpoint a = bulk->checkpoint();
  const CursorCheckpoint b = stepper->checkpoint();
  EXPECT_EQ(a.position, b.position);
  EXPECT_EQ(a.words, b.words);
  EXPECT_EQ(drain(*bulk), drain(*stepper));
}

TEST(TraceSource, NextSpanAfterPeekEmitsPeekedRequestFirst) {
  // Decorators that cache the peeked request (rebase) must hand it out at
  // the head of the next bulk span, not drop or double-emit it.
  const auto source =
      rebase_source(gen::zipf_source(15, 70, 1.1, Rng(21)), /*proc=*/3);
  const Trace reference = materialize(*source);
  auto cursor = source->cursor();
  std::vector<PageId> got;
  std::vector<PageId> buffer(9);
  while (!cursor->done()) {
    const PageId peeked = cursor->peek();
    const std::size_t n = cursor->next_span(buffer.data(), buffer.size());
    ASSERT_GE(n, 1u);
    ASSERT_EQ(buffer[0], peeked);
    got.insert(got.end(), buffer.begin(),
               buffer.begin() + static_cast<std::ptrdiff_t>(n));
  }
  EXPECT_EQ(got, reference.requests());
}

TEST(TraceSource, ReadAheadSourceHonoursCursorContract) {
  // Chunk sizes around the stream length force every buffer shape: many
  // swaps, one partial chunk, and a single oversized chunk.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{16}, std::size_t{4096}}) {
    const auto inner = gen::zipf_source(32, 100, 1.2, Rng(9));
    const auto decorated = read_ahead_source(inner, chunk);
    ASSERT_EQ(decorated->num_requests(), inner->num_requests());
    EXPECT_EQ(materialize(*decorated), materialize(*inner))
        << "chunk=" << chunk;
    check_cursor_contract(*decorated);
  }
}

TEST(TraceSource, ReadAheadSourceBulkAndConcatCompose) {
  const auto inner = concat_source(
      {gen::cyclic_source(5, 37), gen::single_use_source(16)});
  const auto decorated = read_ahead_source(inner, 8);
  const Trace reference = materialize(*inner);
  auto cursor = decorated->cursor();
  EXPECT_EQ(drain_spans(*cursor, 11), reference.requests());
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
    const StackDistanceProfile streamed =
        stack_distance_profile(*cursor, /*max_tracked=*/64);
    const StackDistanceProfile direct = stack_distance_profile(trace, 64);
    EXPECT_EQ(streamed.counts, direct.counts);
    EXPECT_EQ(streamed.cold_misses, direct.cold_misses);
    EXPECT_EQ(streamed.far, direct.far);
  }
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
