// Unit and property tests for continu::util.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "net/bucket_ring.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/event_queue.hpp"
#include "util/bitwindow.hpp"
#include "util/block_pool.hpp"
#include "util/csv.hpp"
#include "util/hash.hpp"
#include "util/ring_math.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace continu::util {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowZeroIsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextBelowOneIsZero) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextDoubleMeanNearHalf) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(15);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ParetoAboveScale) {
  Rng rng(21);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.next_pareto(3.0, 2.0), 3.0);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(25);
  const auto picks = rng.sample_indices(100, 10);
  ASSERT_EQ(picks.size(), 10u);
  std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const auto p : picks) EXPECT_LT(p, 100u);
}

TEST(Rng, SampleIndicesAllWhenKTooLarge) {
  Rng rng(27);
  const auto picks = rng.sample_indices(5, 50);
  EXPECT_EQ(picks.size(), 5u);
}

TEST(Rng, ForkIndependence) {
  Rng a(31);
  Rng child = a.fork();
  // The child should not replay the parent's stream.
  EXPECT_NE(child.next_u64(), a.next_u64());
}

// ---------------------------------------------------------------------------
// Ring math
// ---------------------------------------------------------------------------

TEST(RingMath, ClockwiseDistanceBasics) {
  EXPECT_EQ(clockwise_distance(0, 5, 16), 5u);
  EXPECT_EQ(clockwise_distance(5, 0, 16), 11u);
  EXPECT_EQ(clockwise_distance(7, 7, 16), 0u);
}

TEST(RingMath, DistanceSumsToRing) {
  // cw(a,b) + cw(b,a) == n for a != b.
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      if (a == b) continue;
      EXPECT_EQ(clockwise_distance(a, b, 16) + clockwise_distance(b, a, 16), 16u);
    }
  }
}

TEST(RingMath, CounterClockwiseMirrorsClockwise) {
  EXPECT_EQ(counter_clockwise_distance(3, 10, 16), clockwise_distance(10, 3, 16));
}

TEST(RingMath, ArcMembership) {
  EXPECT_TRUE(in_clockwise_arc(5, 3, 8, 16));
  EXPECT_FALSE(in_clockwise_arc(8, 3, 8, 16));  // hi is exclusive
  EXPECT_TRUE(in_clockwise_arc(3, 3, 8, 16));   // lo is inclusive
  EXPECT_FALSE(in_clockwise_arc(9, 3, 8, 16));
}

TEST(RingMath, ArcMembershipWrapping) {
  // Arc [14, 2) on a 16-ring covers 14, 15, 0, 1.
  EXPECT_TRUE(in_clockwise_arc(14, 14, 2, 16));
  EXPECT_TRUE(in_clockwise_arc(15, 14, 2, 16));
  EXPECT_TRUE(in_clockwise_arc(0, 14, 2, 16));
  EXPECT_TRUE(in_clockwise_arc(1, 14, 2, 16));
  EXPECT_FALSE(in_clockwise_arc(2, 14, 2, 16));
  EXPECT_FALSE(in_clockwise_arc(13, 14, 2, 16));
}

TEST(RingMath, DegenerateArcIsFullRing) {
  for (std::uint64_t x = 0; x < 16; ++x) {
    EXPECT_TRUE(in_clockwise_arc(x, 6, 6, 16));
  }
}

TEST(RingMath, RingAddSub) {
  EXPECT_EQ(ring_add(15, 3, 16), 2u);
  EXPECT_EQ(ring_sub(2, 3, 16), 15u);
  EXPECT_EQ(ring_add(0, 0, 16), 0u);
  EXPECT_EQ(ring_sub(0, 0, 16), 0u);
}

TEST(RingMath, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(8), 3u);
  EXPECT_EQ(floor_log2(8192), 13u);
  EXPECT_EQ(floor_log2(0), 0u);
  EXPECT_EQ(floor_log2(~std::uint64_t{0}), 63u);
}

TEST(RingMath, PowerOfTwoDetection) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(8192));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(12));
}

// Property sweep: every x on small rings is in exactly one of the two
// complementary arcs [lo, hi) and [hi, lo).
class RingArcPartition : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RingArcPartition, ComplementaryArcsPartitionRing) {
  const std::uint64_t n = GetParam();
  for (std::uint64_t lo = 0; lo < n; ++lo) {
    const std::uint64_t hi = (lo + n / 3 + 1) % n;
    if (lo == hi) continue;
    for (std::uint64_t x = 0; x < n; ++x) {
      const bool in_first = in_clockwise_arc(x, lo, hi, n);
      const bool in_second = in_clockwise_arc(x, hi, lo, n);
      EXPECT_NE(in_first, in_second) << "x=" << x << " lo=" << lo << " hi=" << hi;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rings, RingArcPartition, ::testing::Values(4u, 8u, 16u, 32u, 64u));

// ---------------------------------------------------------------------------
// Hash
// ---------------------------------------------------------------------------

TEST(Hash, Deterministic) {
  EXPECT_EQ(mix64(42), mix64(42));
}

TEST(Hash, AvalancheOnLowBit) {
  int differing_bits = 0;
  for (std::uint64_t x = 0; x < 64; ++x) {
    const std::uint64_t d = mix64(x) ^ mix64(x ^ 1);
    differing_bits += __builtin_popcountll(d);
  }
  // Average should be near 32 bits flipped per 1-bit input change.
  EXPECT_GT(differing_bits / 64, 24);
}

TEST(Hash, BackupTargetsWithinSpace) {
  for (SegmentId id = 0; id < 100; ++id) {
    for (unsigned r = 1; r <= 4; ++r) {
      EXPECT_LT(backup_target(id, r, 8192), 8192u);
    }
  }
}

TEST(Hash, ReplicasDisperse) {
  // The k replica targets of a single segment should rarely collide.
  int collisions = 0;
  for (SegmentId id = 0; id < 500; ++id) {
    std::set<std::uint64_t> targets;
    for (unsigned r = 1; r <= 4; ++r) {
      targets.insert(backup_target(id, r, 8192));
    }
    if (targets.size() < 4) ++collisions;
  }
  EXPECT_LT(collisions, 10);
}

TEST(Hash, ConsecutiveSegmentsDisperse) {
  // Consecutive ids must not aggregate on the same node — this is the
  // paper's reason for hashing id*i rather than id+i.
  std::set<std::uint64_t> targets;
  for (SegmentId id = 1000; id < 1100; ++id) {
    targets.insert(backup_target(id, 1, 8192));
  }
  EXPECT_GT(targets.size(), 90u);
}

TEST(Hash, TargetsRoughlyUniform) {
  // Chi-square-ish check over 16 coarse bins.
  constexpr int kBins = 16;
  std::array<int, kBins> bins{};
  const int n = 16000;
  for (SegmentId id = 0; id < n / 4; ++id) {
    for (unsigned r = 1; r <= 4; ++r) {
      const auto t = backup_target(id, r, 8192);
      ++bins[t * kBins / 8192];
    }
  }
  for (const int count : bins) {
    EXPECT_NEAR(count, n / kBins, n / kBins * 0.25);
  }
}

// ---------------------------------------------------------------------------
// BitWindow
// ---------------------------------------------------------------------------

TEST(BitWindow, StartsEmpty) {
  BitWindow w(600, 0);
  EXPECT_EQ(w.count(), 0u);
  EXPECT_EQ(w.head(), 0);
  EXPECT_EQ(w.end(), 600);
}

TEST(BitWindow, RejectsZeroCapacity) {
  EXPECT_THROW(BitWindow(0), std::invalid_argument);
}

TEST(BitWindow, SetTestReset) {
  BitWindow w(128, 100);
  EXPECT_TRUE(w.set(150));
  EXPECT_TRUE(w.test(150));
  w.reset(150);
  EXPECT_FALSE(w.test(150));
}

TEST(BitWindow, OutOfRangeSetFails) {
  BitWindow w(128, 100);
  EXPECT_FALSE(w.set(99));
  EXPECT_FALSE(w.set(228));
  EXPECT_TRUE(w.set(227));
}

TEST(BitWindow, OutOfRangeReadsAbsent) {
  BitWindow w(64, 10);
  EXPECT_FALSE(w.test(9));
  EXPECT_FALSE(w.test(74));
}

TEST(BitWindow, SlidePreservesSurvivors) {
  BitWindow w(64, 0);
  for (SegmentId id = 0; id < 64; id += 3) w.set(id);
  w.slide_to(10);
  EXPECT_EQ(w.head(), 10);
  for (SegmentId id = 10; id < 64; ++id) {
    EXPECT_EQ(w.test(id), id % 3 == 0) << id;
  }
  for (SegmentId id = 64; id < 74; ++id) {
    EXPECT_FALSE(w.test(id));
  }
}

TEST(BitWindow, SlidePastEverythingClears) {
  BitWindow w(64, 0);
  w.set(5);
  w.slide_to(200);
  EXPECT_EQ(w.count(), 0u);
  EXPECT_EQ(w.head(), 200);
}

TEST(BitWindow, SlideBackwardIsNoOp) {
  BitWindow w(64, 50);
  w.set(60);
  w.slide_to(40);
  EXPECT_EQ(w.head(), 50);
  EXPECT_TRUE(w.test(60));
}

TEST(BitWindow, CountBelow) {
  BitWindow w(64, 0);
  w.set(1);
  w.set(5);
  w.set(40);
  EXPECT_EQ(w.count_below(0), 0u);
  EXPECT_EQ(w.count_below(2), 1u);
  EXPECT_EQ(w.count_below(6), 2u);
  EXPECT_EQ(w.count_below(64), 3u);
  EXPECT_EQ(w.count_below(1000), 3u);
}

TEST(BitWindow, MissingIn) {
  BitWindow w(16, 0);
  w.set(0);
  w.set(2);
  w.set(3);
  std::vector<SegmentId> missing{99};
  w.missing_in(0, 6, missing);  // appends after what the caller holds
  EXPECT_EQ(missing, (std::vector<SegmentId>{99, 1, 4, 5}));
}

TEST(BitWindow, MissingInClipsToWindow) {
  BitWindow w(8, 10);
  std::vector<SegmentId> missing;
  w.missing_in(0, 100, missing);
  ASSERT_EQ(missing.size(), 8u);
  EXPECT_EQ(missing.front(), 10);
  EXPECT_EQ(missing.back(), 17);
}

TEST(BitWindow, PresentListsAscending) {
  BitWindow w(128, 5);
  w.set(7);
  w.set(70);
  w.set(130);
  EXPECT_EQ(w.present(), (std::vector<SegmentId>{7, 70, 130}));
}

TEST(BitWindow, LowestHighest) {
  BitWindow w(128, 5);
  EXPECT_FALSE(w.lowest().has_value());
  EXPECT_FALSE(w.highest().has_value());
  w.set(100);
  w.set(20);
  w.set(64);
  EXPECT_EQ(w.lowest().value(), 20);
  EXPECT_EQ(w.highest().value(), 100);
}

TEST(BitWindow, FromWordsRoundtrip) {
  BitWindow w(100, 42);
  for (SegmentId id = 42; id < 142; id += 7) w.set(id);
  const auto rebuilt = BitWindow::from_words(100, 42, w.words());
  for (SegmentId id = 42; id < 142; ++id) {
    EXPECT_EQ(rebuilt.test(id), w.test(id));
  }
}

TEST(BitWindow, FromWordsValidatesSize) {
  EXPECT_THROW(BitWindow::from_words(100, 0, {}), std::invalid_argument);
}

// word_at against test(), bit by bit: at a capacity with a partial last
// word (620 = 9 words + 44 bits) and at exactly one word, for every
// `from` from a word before the head to a word past the end, before and
// after slides.
TEST(BitWindow, WordAtMatchesTestForEveryBit) {
  for (const std::size_t capacity : {std::size_t{620}, std::size_t{64}}) {
    Rng rng(capacity);
    for (int trial = 0; trial < 20; ++trial) {
      const auto start = static_cast<SegmentId>(rng.next_below(200));
      BitWindow w(capacity, start);
      for (int slide = 0; slide < 4; ++slide) {
        const auto cap = static_cast<SegmentId>(capacity);
        const int fills = static_cast<int>(rng.next_below(capacity + 1));
        for (int k = 0; k < fills; ++k) {
          w.set(w.head() + static_cast<SegmentId>(rng.next_below(capacity)));
        }
        for (SegmentId from = w.head() - 70; from < w.end() + 70; ++from) {
          const std::uint64_t word = w.word_at(from);
          for (int b = 0; b < 64; ++b) {
            ASSERT_EQ((word >> b) & 1U, w.test(from + b) ? 1U : 0U)
                << "capacity " << capacity << " head " << w.head() << " from "
                << from << " bit " << b;
          }
        }
        w.slide_to(w.head() + static_cast<SegmentId>(rng.next_below(cap + cap / 2)));
      }
    }
  }
}

// Property sweep: random fill then slide, invariants hold.
class BitWindowSlideProperty : public ::testing::TestWithParam<int> {};

TEST_P(BitWindowSlideProperty, RandomSlidesKeepConsistentCounts) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  BitWindow w(600, 0);
  std::set<SegmentId> model;
  SegmentId head = 0;
  for (int step = 0; step < 200; ++step) {
    const auto id = head + static_cast<SegmentId>(rng.next_below(600));
    if (w.set(id)) model.insert(id);
    model.insert(id);
    if (rng.next_bool(0.2)) {
      head += static_cast<SegmentId>(rng.next_below(50));
      w.slide_to(head);
      for (auto it = model.begin(); it != model.end();) {
        it = (*it < head) ? model.erase(it) : std::next(it);
      }
    }
    ASSERT_EQ(w.count(), model.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitWindowSlideProperty, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  Rng rng(99);
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.next_range(-5, 20);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(3.0);
  RunningStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(Percentile, Median) {
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 0.5), 3.0);
}

TEST(Percentile, Interpolates) {
  EXPECT_DOUBLE_EQ(percentile({0, 10}, 0.25), 2.5);
}

TEST(Percentile, Extremes) {
  EXPECT_DOUBLE_EQ(percentile({5, 1, 9}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({5, 1, 9}, 1.0), 9.0);
}

TEST(Percentile, ThrowsOnEmpty) {
  EXPECT_THROW((void)percentile({}, 0.5), std::invalid_argument);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-100.0);  // clamps to first
  h.add(100.0);   // clamps to last
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, BucketMid) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.bucket_mid(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bucket_mid(9), 9.5);
}

TEST(Histogram, RejectsBadArguments) {
  EXPECT_THROW(Histogram(0.0, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Table / CSV
// ---------------------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const auto out = t.render();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(1.0, 4), "1.0000");
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/continu_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.add_row({"1", "2"});
    csv.add_row({"va,lue", "qu\"ote"});
    EXPECT_EQ(csv.rows(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "\"va,lue\",\"qu\"\"ote\"");
}

TEST(Csv, RejectsArityMismatch) {
  const std::string path = ::testing::TempDir() + "/continu_csv_arity.csv";
  CsvWriter csv(path, {"a"});
  EXPECT_THROW(csv.add_row({"1", "2"}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// BlockPool / ChunkRing
// ---------------------------------------------------------------------------

/// Four entries per chunk, four chunks per block, 128 slots (two bitmap
/// words).
using SmallRing = ChunkRing<std::uint64_t, 4, 8, 2, 128>;

/// Files the values first, first + 1, ..., first + n - 1 into `list`.
void file_values(SmallRing& ring, SmallRing::List& list, std::uint64_t first, std::uint64_t n) {
  for (std::uint64_t v = first; v < first + n; ++v) ::new (ring.append(list)) std::uint64_t(v);
}

TEST(BlockPool, FreeListIsLifoAndGrowthStopsAtTheLimit) {
  BlockPool<int, std::uint32_t, 1, 5> pool;  // two items per block, indices 0-4
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(pool.acquire(), i);
  EXPECT_THROW((void)pool.acquire(), std::length_error);
  EXPECT_EQ(pool.size(), 5u);
  pool.release(1);
  pool.release(3);
  EXPECT_EQ(pool.free_head(), 3u);
  EXPECT_EQ(pool.link(3), 1u) << "a free item's link word is the free list's";
  EXPECT_EQ(pool.acquire(), 3u);
  EXPECT_EQ(pool.acquire(), 1u);
  EXPECT_EQ(pool.free_head(), decltype(pool)::kNone);
}

TEST(ChunkRing, ListsKeepFilingOrderAcrossChunkBoundaries) {
  SmallRing ring;
  SmallRing::List list;
  file_values(ring, list, 0, 11);  // chunks of 4, 4 and 3 entries
  EXPECT_EQ(list.count, 11u);
  std::vector<std::uint64_t*> order;
  ring.filing_order(list, order);
  ASSERT_EQ(order.size(), 11u);
  for (std::uint64_t i = 0; i < 11; ++i) EXPECT_EQ(*order[i], i);
  EXPECT_EQ(ring.live_bytes(), 3 * SmallRing::kChunkBytes);

  // drain visits the chunks newest first, the head chunk partly filled.
  std::vector<std::vector<std::uint64_t>> chunks;
  ring.drain(list, [&chunks](std::uint64_t* entries, std::uint32_t n) {
    chunks.emplace_back(entries, entries + n);
  });
  const std::vector<std::vector<std::uint64_t>> expected = {
      {8, 9, 10}, {4, 5, 6, 7}, {0, 1, 2, 3}};
  EXPECT_EQ(chunks, expected);
  EXPECT_EQ(list.count, 0u);
  EXPECT_EQ(list.head, SmallRing::kNoChunk);
  EXPECT_EQ(ring.live_bytes(), 0u);
}

TEST(ChunkRing, ReleasedChunksAreReusedLastInFirstOut) {
  SmallRing ring;
  SmallRing::List a;
  file_values(ring, a, 0, 12);  // three full chunks
  std::vector<std::uint64_t*> order;
  ring.filing_order(a, order);
  const std::size_t bytes = ring.capacity_bytes();
  ring.release(a);
  EXPECT_EQ(a.count, 0u);
  EXPECT_EQ(ring.live_bytes(), 0u);

  // Release goes newest first, so the oldest chunk is reused first.
  SmallRing::List b;
  file_values(ring, b, 100, 12);
  std::vector<std::uint64_t*> reused;
  ring.filing_order(b, reused);
  for (std::size_t chunk = 0; chunk < 3; ++chunk) {
    EXPECT_EQ(reused[chunk * 4], order[chunk * 4]) << "chunk " << chunk;
  }
  EXPECT_EQ(ring.capacity_bytes(), bytes) << "reuse must not grow the pool";
  ring.release(b);
}

TEST(ChunkRing, OccupancyScanCrossesTheWrapAndStopsAtEnd) {
  SmallRing ring;
  // A span of the full 128 slots from absolute index 100: slots 100-127
  // are word 1's top, then the scan wraps through word 0 and reads
  // word 1 again for indices 192-227.
  EXPECT_EQ(ring.next_occupied(100, 228), 228u) << "empty ring";
  ring.mark(130);  // slot 2: past the wrap
  EXPECT_EQ(ring.next_occupied(100, 228), 130u);
  ring.mark(100);
  EXPECT_EQ(ring.next_occupied(100, 228), 100u) << "from itself counts";
  EXPECT_EQ(ring.next_occupied(101, 229), 130u);
  ring.unmark(100);
  ring.unmark(130);
  ring.mark(227);  // slot 99: below `from` in the first word read
  EXPECT_EQ(ring.next_occupied(100, 228), 227u) << "the first word is read again at the end";
  EXPECT_EQ(ring.next_occupied(100, 227), 227u) << "end itself is outside";
  EXPECT_EQ(ring.next_occupied(100, 200), 200u) << "a mark past end in the last word";
  EXPECT_EQ(ring.next_occupied(150, 150), 150u) << "empty span";
  EXPECT_EQ(ring.slot(227).count, 0u);
  EXPECT_EQ(&ring.slot(227), &ring.slot(99)) << "slot k mod kSlots";
}

TEST(ChunkRing, StoreWithoutSlotsHoldsNoSlotMemory) {
  SmallRing store(false);
  EXPECT_EQ(store.capacity_bytes(), 0u);
  SmallRing::List list;
  file_values(store, list, 0, 1);
  EXPECT_GT(store.capacity_bytes(), 0u);
  store.release(list);
}

TEST(BlockPool, ContainerCapacitiesKeepTheirBlockLayouts) {
  // Block table: one pointer per block slot, grown by push_back.
  constexpr std::size_t kPtr = sizeof(void*);

  // Event queue slots: 512 per block, each a 64-byte action line plus
  // an 8-byte id word.
  sim::EventQueue::SlotPool slots;
  EXPECT_EQ(slots.capacity_bytes(), 0u);
  (void)slots.grow();
  EXPECT_EQ(slots.capacity_bytes(), 1 * kPtr + 1 * 512 * (64 + 8));
  for (int i = 0; i < 512; ++i) (void)slots.grow();
  EXPECT_EQ(slots.capacity_bytes(), 2 * kPtr + 2 * 512 * (64 + 8));
  EXPECT_EQ(sim::EventQueue::kSlotBytes, 72u);

  // Calendar ring: 1024 bucket heads of 8 bytes, 16 bitmap words, and
  // 256 chunks per block, each 128 bytes (8 entries of 16, 64-aligned)
  // plus a 4-byte link.
  sim::CalendarQueue::Ring calendar;
  EXPECT_EQ(calendar.capacity_bytes(), 1024 * 8 + 16 * 8);
  sim::CalendarQueue::Ring::List bucket;
  ::new (calendar.append(bucket)) sim::QuadHeap::Entry{};
  EXPECT_EQ(calendar.capacity_bytes(), 1024 * 8 + 16 * 8 + 1 * kPtr + 256 * (128 + 4));
  EXPECT_EQ(sim::CalendarQueue::Ring::kChunkBytes, 128u);
  calendar.release(bucket);

  // Delivery buckets: 4096 slot heads of 8 bytes, 64 bitmap words, and
  // 128 chunks per block, each two 72-byte entries plus a 4-byte link.
  static_assert(sizeof(net::HandoffEntry) == 72, "a hand-off entry is 72 bytes");
  net::BucketRing::Store buckets;
  EXPECT_EQ(buckets.capacity_bytes(), 4096 * 8 + 64 * 8);
  net::BucketRing::Store::List slot;
  ::new (buckets.append(slot)) net::HandoffEntry{};  // empty action: nothing to destroy
  EXPECT_EQ(buckets.capacity_bytes(), 4096 * 8 + 64 * 8 + 1 * kPtr + 128 * (144 + 4));
  EXPECT_EQ(net::BucketRing::Store::kChunkBytes, 144u);
  buckets.release(slot);
  EXPECT_EQ(net::BucketRing::Store(false).capacity_bytes(), 0u);
}

}  // namespace
}  // namespace continu::util
