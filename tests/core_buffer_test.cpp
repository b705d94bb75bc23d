// Unit tests for the stream buffer, the buffer-map wire codec, the rate
// controller and the urgent line.

#include <gtest/gtest.h>

#include "core/buffer_map.hpp"
#include "core/rate_controller.hpp"
#include "core/stream_buffer.hpp"
#include "core/urgent_line.hpp"
#include "util/rng.hpp"

namespace continu::core {
namespace {

/// The segments that come due by `now`.
std::vector<DueSegment> advance(StreamBuffer& buf, SimTime now) {
  std::vector<DueSegment> due;
  buf.advance_playback(now, due);
  return due;
}

// ---------------------------------------------------------------------------
// StreamBuffer
// ---------------------------------------------------------------------------

TEST(StreamBuffer, InsertFreshAndDuplicate) {
  StreamBuffer buf(600, 10);
  EXPECT_TRUE(buf.insert(5));
  EXPECT_FALSE(buf.insert(5));
  EXPECT_TRUE(buf.has(5));
  EXPECT_EQ(buf.held(), 1u);
}

TEST(StreamBuffer, RejectsStaleSegments) {
  StreamBuffer buf(100, 10);
  buf.insert(150);  // slides window to [51, 151)
  EXPECT_FALSE(buf.insert(10));
  EXPECT_FALSE(buf.has(10));
}

TEST(StreamBuffer, FarAheadInsertSlidesWindow) {
  StreamBuffer buf(100, 10);
  buf.insert(0);
  buf.insert(500);
  EXPECT_TRUE(buf.has(500));
  EXPECT_FALSE(buf.has(0));  // fell off the FIFO window
  EXPECT_EQ(buf.window_head(), 401);
}

TEST(StreamBuffer, NewestAndStartupPosition) {
  StreamBuffer buf(100, 10);
  EXPECT_FALSE(buf.newest().has_value());
  buf.insert(7);
  buf.insert(42);
  buf.insert(13);
  EXPECT_EQ(buf.newest().value(), 42);
  EXPECT_EQ(buf.startup_position().value(), 7);
}

TEST(StreamBuffer, StartupReadiness) {
  StreamBuffer buf(100, 10);
  for (SegmentId id = 0; id < 19; ++id) buf.insert(id);
  EXPECT_FALSE(buf.startup_ready(20));
  buf.insert(19);
  EXPECT_TRUE(buf.startup_ready(20));
}

TEST(StreamBuffer, PlaybackDeadlines) {
  StreamBuffer buf(100, 10);
  buf.insert(0);
  buf.start_playback(0, /*now=*/5.0);
  EXPECT_TRUE(buf.started());
  // Segment s deadline: 5.0 + (s + 1)/10.
  EXPECT_DOUBLE_EQ(buf.deadline(0), 5.1);
  EXPECT_DOUBLE_EQ(buf.deadline(9), 6.0);
}

TEST(StreamBuffer, PlayPointAdvances) {
  StreamBuffer buf(100, 10);
  buf.start_playback(100, /*now=*/0.0);
  EXPECT_EQ(buf.play_point(0.0), 99);    // nothing due yet
  EXPECT_EQ(buf.play_point(0.1), 100);   // first segment played
  EXPECT_EQ(buf.play_point(1.0), 109);
  EXPECT_EQ(buf.play_point(2.35), 122);  // 23 deadlines passed
}

TEST(StreamBuffer, AdvancePlaybackReportsPresence) {
  StreamBuffer buf(100, 10);
  buf.insert(0);
  buf.insert(2);  // 1 missing
  buf.start_playback(0, 0.0);
  const auto due = advance(buf, 0.35);  // deadlines 0.1, 0.2, 0.3
  // Segment 0 plays; the missing segment 1 triggers a rebuffering stall
  // (the player waits for it rather than skipping).
  ASSERT_EQ(due.size(), 2u);
  EXPECT_TRUE(due[0].present);
  EXPECT_DOUBLE_EQ(due[0].deadline, 0.1);
  EXPECT_FALSE(due[1].present);
  EXPECT_TRUE(due[1].stalled);
}

TEST(StreamBuffer, PlayedSegmentsStayAvailable) {
  // Eviction is FIFO over ARRIVAL (capacity-driven), not playback-driven:
  // played segments keep serving neighbors until the window slides.
  StreamBuffer buf(100, 10);
  for (SegmentId id = 0; id < 10; ++id) buf.insert(id);
  buf.start_playback(0, 0.0);
  (void)advance(buf, 0.55);  // plays 0..4
  EXPECT_EQ(buf.window_head(), 0);
  EXPECT_TRUE(buf.has(4));
  EXPECT_TRUE(buf.has(5));
}

TEST(StreamBuffer, CapacityEvictionDropsOldest) {
  StreamBuffer buf(100, 10);
  buf.insert(0);
  buf.insert(99);
  EXPECT_TRUE(buf.has(0));
  buf.insert(100);  // window slides to [1, 101)
  EXPECT_FALSE(buf.has(0));
  EXPECT_TRUE(buf.has(99));
  EXPECT_TRUE(buf.has(100));
}

TEST(StreamBuffer, AdvanceTwiceCoversDisjointRanges) {
  StreamBuffer buf(100, 10);
  for (SegmentId id = 0; id < 20; ++id) buf.insert(id);
  buf.start_playback(0, 0.0);
  const auto first = advance(buf, 0.5);
  const auto second = advance(buf, 1.0);
  EXPECT_EQ(first.size(), 5u);
  EXPECT_EQ(second.size(), 5u);
  EXPECT_EQ(first.back().id + 1, second.front().id);
}

TEST(StreamBuffer, DoubleStartThrows) {
  StreamBuffer buf(100, 10);
  buf.start_playback(0, 0.0);
  EXPECT_THROW(buf.start_playback(1, 1.0), std::logic_error);
}

TEST(StreamBuffer, AdvanceBeforeStartThrows) {
  StreamBuffer buf(100, 10);
  EXPECT_THROW((void)advance(buf, 1.0), std::logic_error);
}

TEST(StreamBuffer, LateArrivalForPlayedSegmentStillStored) {
  // A segment arriving after its deadline passed is useless for local
  // playback but still enters the window — it can serve neighbors.
  StreamBuffer buf(100, 10);
  buf.insert(20);
  buf.start_playback(20, 0.0);
  (void)advance(buf, 1.05);
  EXPECT_TRUE(buf.insert(25));
  EXPECT_TRUE(buf.has(25));
}

TEST(StreamBuffer, StallWhenNothingAhead) {
  StreamBuffer buf(100, 10);
  buf.insert(0);
  buf.start_playback(0, 0.0);
  (void)advance(buf, 0.15);  // plays 0
  // Nothing held at/after segment 1: the player must stall, not skip.
  const auto due = advance(buf, 1.0);
  ASSERT_FALSE(due.empty());
  EXPECT_TRUE(due.back().stalled);
  EXPECT_EQ(buf.stall_count(), 1u);
  // The schedule shifted: segment 1 is now due one period after t=1.0.
  EXPECT_NEAR(buf.deadline(1), 1.1, 1e-9);
}

TEST(StreamBuffer, HoleStallsThenSkipsAfterPatience) {
  StreamBuffer buf(100, 10, /*stall_patience=*/0.5);
  buf.insert(0);
  buf.insert(2);  // 1 is a hole
  buf.start_playback(0, 0.0);
  // Within the patience window the player waits on segment 1.
  auto due = advance(buf, 0.35);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_TRUE(due[1].stalled);
  EXPECT_GE(buf.stall_count(), 1u);
  // After 0.5 s of waiting the hole is skipped as a miss and playback
  // proceeds to segment 2.
  due = advance(buf, 1.2);
  bool skipped_one = false;
  bool played_two = false;
  for (const auto& d : due) {
    if (d.id == 1 && !d.present && !d.stalled) skipped_one = true;
    if (d.id == 2 && d.present) played_two = true;
  }
  EXPECT_TRUE(skipped_one);
  EXPECT_TRUE(played_two);
}

TEST(StreamBuffer, StallEndsWhenSegmentArrives) {
  StreamBuffer buf(100, 10, /*stall_patience=*/5.0);
  buf.insert(0);
  buf.insert(2);
  buf.start_playback(0, 0.0);
  (void)advance(buf, 0.35);  // waiting on 1
  buf.insert(1);
  const auto due = advance(buf, 1.0);
  ASSERT_FALSE(due.empty());
  EXPECT_EQ(due[0].id, 1);
  EXPECT_TRUE(due[0].present);
}

TEST(StreamBuffer, RejectsNegativePatience) {
  EXPECT_THROW(StreamBuffer(100, 10, -1.0), std::invalid_argument);
}

TEST(StreamBuffer, StallResumesWhenDataArrives) {
  StreamBuffer buf(100, 10);
  buf.insert(0);
  buf.start_playback(0, 0.0);
  (void)advance(buf, 1.0);  // plays 0, stalls on 1
  buf.insert(1);
  buf.insert(2);
  const auto due = advance(buf, 2.25);
  EXPECT_GE(due.size(), 2u);
  EXPECT_TRUE(due[0].present);
  EXPECT_EQ(due[0].id, 1);
}

// ---------------------------------------------------------------------------
// Buffer-map codec
// ---------------------------------------------------------------------------

TEST(BufferMap, BitBudgetMatchesPaper) {
  EXPECT_EQ(buffer_map_bits(600), 620u);
}

TEST(BufferMap, EncodeSizeExact) {
  util::BitWindow window(600, 1234);
  const auto image = encode_buffer_map(window);
  EXPECT_EQ(image.bit_count, 620u);
  EXPECT_EQ(image.bytes.size(), (620u + 7) / 8);
}

TEST(BufferMap, RoundtripPreservesBits) {
  util::Rng rng(5);
  util::BitWindow window(600, 98765);
  for (int i = 0; i < 200; ++i) {
    window.set(98765 + static_cast<SegmentId>(rng.next_below(600)));
  }
  const auto image = encode_buffer_map(window);
  const auto decoded = decode_buffer_map(image, 600, /*reference_head=*/98000);
  EXPECT_EQ(decoded.head(), window.head());
  for (SegmentId id = window.head(); id < window.end(); ++id) {
    EXPECT_EQ(decoded.test(id), window.test(id)) << id;
  }
}

TEST(BufferMap, HeadRecoveredAcrossModulus) {
  // Head ids beyond 2^20 wrap in the 20-bit field but are recovered
  // against a nearby reference.
  const SegmentId head = (1 << 20) + 777;
  util::BitWindow window(600, head);
  window.set(head + 3);
  const auto image = encode_buffer_map(window);
  const auto decoded = decode_buffer_map(image, 600, head - 500);
  EXPECT_EQ(decoded.head(), head);
  EXPECT_TRUE(decoded.test(head + 3));
}

TEST(BufferMap, RejectsSizeMismatch) {
  util::BitWindow window(600, 0);
  const auto image = encode_buffer_map(window);
  EXPECT_THROW(decode_buffer_map(image, 500, 0), std::invalid_argument);
}

class BufferMapRoundtrip : public ::testing::TestWithParam<int> {};

TEST_P(BufferMapRoundtrip, RandomWindows) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const SegmentId head = static_cast<SegmentId>(rng.next_below(1u << 19));
  util::BitWindow window(600, head);
  for (int i = 0; i < 300; ++i) {
    window.set(head + static_cast<SegmentId>(rng.next_below(600)));
  }
  const auto decoded =
      decode_buffer_map(encode_buffer_map(window), 600,
                        head + static_cast<SegmentId>(rng.next_int(-400, 400)));
  ASSERT_EQ(decoded.head(), head);
  EXPECT_EQ(decoded.count(), window.count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferMapRoundtrip, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// RateController
// ---------------------------------------------------------------------------

TEST(RateController, UnknownNeighborUsesInitialRate) {
  RateController rates(10.0);
  EXPECT_DOUBLE_EQ(rates.estimate(42), 10.0);
}

TEST(RateController, ThroughputSamplesConverge) {
  RateController rates(10.0, 0.5);
  // Transfers taking 0.25 s each: throughput 4 segments/s.
  for (int i = 0; i < 20; ++i) rates.on_transfer_complete(1, 0.25);
  EXPECT_NEAR(rates.estimate(1), 4.0, 0.1);
}

TEST(RateController, FailuresDecayEstimate) {
  RateController rates(10.0, 0.5);
  const double before = rates.estimate(1);
  rates.on_transfer_failed(1);
  EXPECT_LT(rates.estimate(1), before);
}

TEST(RateController, EstimateFlooredForProbing) {
  RateController rates(10.0, 0.5);
  for (int i = 0; i < 100; ++i) rates.on_transfer_failed(1);
  // Never freezes a supplier out entirely: 1/floor < tau.
  EXPECT_DOUBLE_EQ(rates.estimate(1), RateController::kFloorRate);
}

TEST(RateController, EstimateCeilingBoundsSpikes) {
  RateController rates(10.0, 1.0);  // no smoothing
  rates.on_transfer_complete(1, 1e-9);  // absurdly fast sample
  EXPECT_LE(rates.estimate(1), RateController::kCeilingRate);
}

TEST(RateController, ForgetResets) {
  RateController rates(10.0, 0.5);
  rates.on_transfer_complete(1, 0.05);
  rates.forget(1);
  EXPECT_DOUBLE_EQ(rates.estimate(1), 10.0);
}

TEST(RateController, RejectsBadArguments) {
  EXPECT_THROW(RateController(0.0), std::invalid_argument);
  EXPECT_THROW(RateController(1.0, 0.0), std::invalid_argument);
  RateController ok(10.0);
  EXPECT_THROW(ok.on_transfer_complete(1, -1.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// UrgentLine
// ---------------------------------------------------------------------------

UrgentLineConfig paper_config() {
  UrgentLineConfig config;
  config.playback_rate = 10;
  config.buffer_capacity = 600;
  config.scheduling_period = 1.0;
  config.t_fetch = 0.4;   // the paper's estimate for n = 1000
  config.t_hop = 0.05;
  return config;
}

TEST(UrgentLine, InitialAlphaMatchesEq9) {
  const UrgentLine line(paper_config());
  // alpha = p/B * max(tau, t_fetch) = 10/600 * 1.0 = 1/60.
  EXPECT_NEAR(line.alpha(), 1.0 / 60.0, 1e-12);
  EXPECT_NEAR(line.lower_bound(), 1.0 / 60.0, 1e-12);
}

TEST(UrgentLine, TFetchDominatesWhenLarger) {
  auto config = paper_config();
  config.t_fetch = 2.5;
  const UrgentLine line(config);
  EXPECT_NEAR(line.alpha(), 10.0 / 600.0 * 2.5, 1e-12);
}

TEST(UrgentLine, UrgentIdOffset) {
  const UrgentLine line(paper_config());
  // alpha*B = 10 segments past the head.
  EXPECT_EQ(line.urgent_id(1000), 1010);
}

TEST(UrgentLine, StepIsPTHopOverB) {
  const UrgentLine line(paper_config());
  EXPECT_NEAR(line.step(), 10.0 * 0.05 / 600.0, 1e-12);
}

TEST(UrgentLine, OverdueGrowsAlpha) {
  UrgentLine line(paper_config());
  const double before = line.alpha();
  line.on_overdue_prefetch();
  EXPECT_NEAR(line.alpha(), before + line.step(), 1e-12);
  EXPECT_EQ(line.overdue_events(), 1u);
}

TEST(UrgentLine, RepeatedShrinksButNotBelowLowerBound) {
  UrgentLine line(paper_config());
  for (int i = 0; i < 100; ++i) line.on_repeated_prefetch();
  EXPECT_DOUBLE_EQ(line.alpha(), line.lower_bound());
  EXPECT_EQ(line.repeated_events(), 100u);
}

TEST(UrgentLine, AlphaCappedAtOne) {
  UrgentLine line(paper_config());
  for (int i = 0; i < 100000; ++i) line.on_overdue_prefetch();
  EXPECT_DOUBLE_EQ(line.alpha(), 1.0);
}

TEST(UrgentLine, AdaptationIsReversible) {
  UrgentLine line(paper_config());
  for (int i = 0; i < 10; ++i) line.on_overdue_prefetch();
  for (int i = 0; i < 10; ++i) line.on_repeated_prefetch();
  EXPECT_NEAR(line.alpha(), line.lower_bound(), 1e-9);
}

TEST(UrgentLine, RejectsBadConfig) {
  auto config = paper_config();
  config.buffer_capacity = 0;
  EXPECT_THROW(UrgentLine line(config), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Pre-fetch trigger (Section 4.3 cases)
// ---------------------------------------------------------------------------

TEST(PrefetchQuota, CaseZeroMissed) {
  EXPECT_EQ(prefetch_quota(0, 5), 0u);
}

TEST(PrefetchQuota, CaseWithinLimit) {
  EXPECT_EQ(prefetch_quota(1, 5), 1u);
  EXPECT_EQ(prefetch_quota(5, 5), 5u);
}

TEST(PrefetchQuota, CaseOverLimitSuppressed) {
  // N_miss > l: not triggered at all, to avoid pre-fetch storms.
  EXPECT_EQ(prefetch_quota(6, 5), 0u);
  EXPECT_EQ(prefetch_quota(100, 5), 0u);
}

}  // namespace
}  // namespace continu::core
