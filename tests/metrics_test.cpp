// Counter, Accumulator, IntervalTracker and the Registry.
#include <gtest/gtest.h>

#include <cstring>

#include "metrics/counters.hpp"
#include "metrics/registry.hpp"

namespace rr::metrics {
namespace {

TEST(Counter, StartsAtZeroAndAdds) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Accumulator, EmptyIsZeroed) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(Accumulator, TracksMoments) {
  Accumulator a;
  a.record(2.0);
  a.record(4.0);
  a.record(6.0);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 12.0);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 6.0);
}

TEST(Accumulator, RecordDuration) {
  Accumulator a;
  a.record_duration(milliseconds(3));
  EXPECT_DOUBLE_EQ(a.mean(), 3e6);
}

TEST(IntervalTracker, AccumulatesClosedIntervals) {
  IntervalTracker t;
  t.begin(100);
  t.end(150);
  t.begin(200);
  t.end(230);
  EXPECT_EQ(t.total(1000), 80);
  EXPECT_EQ(t.episodes(), 2u);
  EXPECT_FALSE(t.open());
}

TEST(IntervalTracker, OpenIntervalCountsUpToNow) {
  IntervalTracker t;
  t.begin(100);
  EXPECT_TRUE(t.open());
  EXPECT_EQ(t.total(180), 80);
  EXPECT_EQ(t.total_closed(), 0);
}

TEST(IntervalTracker, NestedBeginsCollapse) {
  IntervalTracker t;
  t.begin(10);
  t.begin(20);  // no-op
  t.end(30);
  EXPECT_EQ(t.total(100), 20);
  EXPECT_EQ(t.episodes(), 1u);
}

TEST(IntervalTracker, EndWithoutBeginIsNoop) {
  IntervalTracker t;
  t.end(50);
  EXPECT_EQ(t.total(100), 0);
  EXPECT_EQ(t.episodes(), 0u);
}

// A crash closes the victim's open interval at the crash instant (see
// Node::crash): the blocked time charged is exactly [begin, crash), and the
// tracker is reusable for the next incarnation without carrying the old
// open state.
TEST(IntervalTracker, IntervalOpenAtCrashTimeChargesUpToCrash) {
  IntervalTracker t;
  t.begin(100);
  t.end(140);  // crash at t=140 while blocked
  EXPECT_FALSE(t.open());
  EXPECT_EQ(t.total_closed(), 40);
  // Post-restart queries must not keep accruing.
  EXPECT_EQ(t.total(10'000), 40);
  t.begin(200);  // next incarnation blocks again
  EXPECT_EQ(t.total(250), 90);
  EXPECT_EQ(t.episodes(), 2u);
}

TEST(IntervalTracker, ZeroLengthIntervalCountsEpisodeNotTime) {
  IntervalTracker t;
  t.begin(70);
  t.end(70);
  EXPECT_EQ(t.total(100), 0);
  EXPECT_EQ(t.total_closed(), 0);
  EXPECT_EQ(t.episodes(), 1u);
  EXPECT_FALSE(t.open());
}

TEST(IntervalTracker, ResetWhileOpenDropsTheOpenInterval) {
  IntervalTracker t;
  t.begin(10);
  t.end(30);
  t.begin(50);
  EXPECT_TRUE(t.open());
  t.reset();
  EXPECT_FALSE(t.open());
  EXPECT_EQ(t.total(100), 0);
  EXPECT_EQ(t.episodes(), 0u);
  // end() after reset is a plain no-op, not a resurrection of the dropped
  // interval.
  t.end(90);
  EXPECT_EQ(t.total(100), 0);
  EXPECT_EQ(t.episodes(), 0u);
}

TEST(Histogram, EmptyIsZeroed) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
}

TEST(Histogram, QuantilesBoundValuesWithinBucketResolution) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(1000.0);  // all in [512, 1024) ... bucket of 1000
  // p50/p99 report the bucket's upper bound: within 2x of the true value.
  EXPECT_GE(h.p50(), 1000.0);
  EXPECT_LE(h.p50(), 2048.0);
  EXPECT_EQ(h.p50(), h.p99());
  EXPECT_DOUBLE_EQ(h.mean(), 1000.0);
}

TEST(Histogram, TailQuantileSeparatesFromMedian) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.record(100.0);
  for (int i = 0; i < 10; ++i) h.record(1'000'000.0);
  EXPECT_LT(h.p50(), 300.0);
  EXPECT_GT(h.p99(), 500'000.0);
  EXPECT_LT(h.p90(), h.p99() + 1);  // monotone
}

TEST(Histogram, SubUnitValuesLandInFirstBucket) {
  Histogram h;
  h.record(0.0);
  h.record(0.5);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_LE(h.p99(), 2.0);
}

TEST(Histogram, RecordDurationMatchesRecord) {
  Histogram a, b;
  a.record_duration(milliseconds(3));
  b.record(3e6);
  EXPECT_DOUBLE_EQ(a.p50(), b.p50());
}

TEST(Histogram, MergeAddsCountsAndBuckets) {
  Histogram a, b;
  for (int i = 0; i < 90; ++i) a.record(100.0);
  for (int i = 0; i < 10; ++i) b.record(1'000'000.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_DOUBLE_EQ(a.mean(), (90 * 100.0 + 10 * 1'000'000.0) / 100.0);
  // The merged distribution has b's values as its tail.
  EXPECT_LT(a.p50(), 300.0);
  EXPECT_GT(a.p99(), 500'000.0);
}

TEST(Histogram, MergeEmptyIsIdentity) {
  Histogram a, empty;
  a.record(42.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  Histogram fresh;
  fresh.merge(a);
  EXPECT_EQ(fresh.count(), 1u);
  EXPECT_DOUBLE_EQ(fresh.p50(), a.p50());
}

// Merging the same parts in the same (canonical) order twice is
// bit-identical — the guarantee harness::merge_histograms relies on for
// jobs-parity of the parallel bench path.
TEST(Histogram, MergeInCanonicalOrderIsDeterministic) {
  Histogram parts[3];
  parts[0].record(0.1);
  parts[0].record(7.0);
  parts[1].record(1e9);
  parts[2].record(3.5);
  Histogram x, y;
  for (const auto& p : parts) x.merge(p);
  for (const auto& p : parts) y.merge(p);
  EXPECT_EQ(x.count(), y.count());
  EXPECT_EQ(std::memcmp(&x, &y, sizeof(Histogram)), 0);
}

TEST(Registry, HistogramsCreatedOnFirstUse) {
  Registry r;
  EXPECT_EQ(r.find_histogram("missing"), nullptr);
  r.histogram("lat").record(100.0);
  ASSERT_NE(r.find_histogram("lat"), nullptr);
  EXPECT_EQ(r.find_histogram("lat")->count(), 1u);
  EXPECT_EQ(r.histogram_names(), std::vector<std::string>{"lat"});
  EXPECT_NE(r.dump().find("p99"), std::string::npos);
}

TEST(Registry, CountersCreatedOnFirstUse) {
  Registry r;
  EXPECT_EQ(r.counter_value("never.touched"), 0u);
  r.counter("a.b").add(3);
  EXPECT_EQ(r.counter_value("a.b"), 3u);
}

TEST(Registry, AccumulatorLookup) {
  Registry r;
  EXPECT_EQ(r.find_accum("missing"), nullptr);
  r.accum("lat").record(5.0);
  ASSERT_NE(r.find_accum("lat"), nullptr);
  EXPECT_DOUBLE_EQ(r.find_accum("lat")->mean(), 5.0);
}

TEST(Registry, FindCounterDoesNotCreate) {
  Registry r;
  EXPECT_EQ(r.find_counter("missing"), nullptr);
  EXPECT_TRUE(r.counter_names().empty());
  r.counter("hits").add(3);
  const Counter* c = r.find_counter("hits");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 3u);
  EXPECT_EQ(r.counter_value("hits"), 3u);
  EXPECT_EQ(r.counter_value("missing"), 0u);
  EXPECT_EQ(r.counter_names(), std::vector<std::string>{"hits"});
}

TEST(Registry, CounterHandleCreatesOnFirstAddAndSharesTheCell) {
  Registry r;
  CounterHandle sent(r, "app.sent");
  EXPECT_TRUE(r.counter_names().empty());  // nothing registered yet
  sent.add();
  sent.add(4);
  r.counter("app.sent").add(2);  // lookups by name reach the same cell
  for (int i = 0; i < 50; ++i) r.counter("filler." + std::to_string(i));
  sent.add();  // the kept cell survives later insertions
  EXPECT_EQ(r.counter_value("app.sent"), 8u);
}

TEST(Registry, NamesSorted) {
  Registry r;
  r.counter("z");
  r.counter("a");
  r.counter("m");
  EXPECT_EQ(r.counter_names(), (std::vector<std::string>{"a", "m", "z"}));
}

TEST(Registry, ResetClearsEverything) {
  Registry r;
  r.counter("x").add();
  r.accum("y").record(1);
  r.reset();
  EXPECT_TRUE(r.counter_names().empty());
  EXPECT_TRUE(r.accum_names().empty());
}

TEST(Registry, DumpMentionsEveryName) {
  Registry r;
  r.counter("net.bytes").add(10);
  r.accum("lat.ns").record(2.5);
  const std::string dump = r.dump();
  EXPECT_NE(dump.find("net.bytes"), std::string::npos);
  EXPECT_NE(dump.find("lat.ns"), std::string::npos);
}

}  // namespace
}  // namespace rr::metrics
