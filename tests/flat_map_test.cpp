// Property and regression tests for the open-addressed flat containers
// (util/flat_map.hpp) that back the per-node hot-path bookkeeping.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace continu::util {
namespace {

// ---------------------------------------------------------------------------
// FlatMap basics
// ---------------------------------------------------------------------------

TEST(FlatMap, StartsEmptyWithoutHeap) {
  FlatMap<std::int64_t, int> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(map.approx_bytes(), 0u);
  EXPECT_EQ(map.find(7), map.end());
  EXPECT_EQ(map.count(7), 0u);
  EXPECT_EQ(map.erase(7), 0u);
}

TEST(FlatMap, TryEmplaceInsertsOnce) {
  FlatMap<std::int64_t, int> map;
  auto [it, inserted] = map.try_emplace(5, 50);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->first, 5);
  EXPECT_EQ(it->second, 50);

  auto [it2, inserted2] = map.try_emplace(5, 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(it2->second, 50) << "try_emplace must not overwrite";
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, SubscriptDefaultConstructsAndAssigns) {
  FlatMap<std::int64_t, int> map;
  EXPECT_EQ(map[3], 0);
  map[3] = 42;
  EXPECT_EQ(map[3], 42);
  map[4] += 7;
  EXPECT_EQ(map.at(4), 7);
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatMap, InsertOrAssignOverwrites) {
  FlatMap<std::int64_t, std::string> map;
  map.insert_or_assign(1, std::string("a"));
  map.insert_or_assign(1, std::string("b"));
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.at(1), "b");
}

TEST(FlatMap, EraseByKeyAndBackwardShiftKeepsLookupsWorking) {
  FlatMap<std::int64_t, int> map;
  for (std::int64_t k = 0; k < 100; ++k) map.try_emplace(k, static_cast<int>(k));
  for (std::int64_t k = 0; k < 100; k += 2) EXPECT_EQ(map.erase(k), 1u);
  EXPECT_EQ(map.size(), 50u);
  for (std::int64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(map.count(k), (k % 2 == 0) ? 0u : 1u) << k;
    if (k % 2 == 1) {
      EXPECT_EQ(map.at(k), static_cast<int>(k));
    }
  }
}

TEST(FlatMap, NonTrivialValuesSurviveGrowthAndErase) {
  FlatMap<std::uint32_t, std::vector<std::int64_t>> map;
  for (std::uint32_t k = 0; k < 64; ++k) {
    map[k].push_back(static_cast<std::int64_t>(k) * 10);
    map[k].push_back(static_cast<std::int64_t>(k) * 10 + 1);
  }
  for (std::uint32_t k = 0; k < 64; k += 3) map.erase(k);
  for (std::uint32_t k = 0; k < 64; ++k) {
    if (k % 3 == 0) {
      EXPECT_FALSE(map.contains(k));
    } else {
      ASSERT_EQ(map.at(k).size(), 2u) << k;
      EXPECT_EQ(map.at(k)[1], static_cast<std::int64_t>(k) * 10 + 1);
    }
  }
}

TEST(FlatMap, CopyAndMoveSemantics) {
  FlatMap<std::int64_t, int> map;
  for (std::int64_t k = 0; k < 20; ++k) map.try_emplace(k, static_cast<int>(k * 2));

  FlatMap<std::int64_t, int> copy(map);
  EXPECT_EQ(copy.size(), 20u);
  copy.erase(3);
  EXPECT_TRUE(map.contains(3)) << "copies must be independent";

  FlatMap<std::int64_t, int> moved(std::move(copy));
  EXPECT_EQ(moved.size(), 19u);
  EXPECT_EQ(copy.size(), 0u);  // NOLINT(bugprone-use-after-move): spec check

  map = moved;  // copy assign
  EXPECT_FALSE(map.contains(3));
  map = FlatMap<std::int64_t, int>();  // move assign empties
  EXPECT_TRUE(map.empty());
}

// ---------------------------------------------------------------------------
// Randomized property test against a std::unordered_map reference model
// ---------------------------------------------------------------------------

TEST(FlatMapProperty, MatchesUnorderedMapReferenceModel) {
  // >= 100 independent trials of mixed insert/erase/find/iterate
  // against the reference model, with a key universe small enough to
  // force frequent collisions, duplicate inserts and misses.
  constexpr int kTrials = 120;
  constexpr int kOpsPerTrial = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(0x9e3779b9u + static_cast<std::uint64_t>(trial));
    FlatMap<std::int64_t, std::uint64_t> map;
    std::unordered_map<std::int64_t, std::uint64_t> ref;
    const std::int64_t universe = 16 + static_cast<std::int64_t>(rng.next_below(64));

    for (int op = 0; op < kOpsPerTrial; ++op) {
      const auto key = static_cast<std::int64_t>(rng.next_below(
          static_cast<std::uint64_t>(universe)));
      switch (rng.next_below(5)) {
        case 0:
        case 1: {  // insert
          const std::uint64_t value = rng.next_u64();
          const bool inserted = map.try_emplace(key, value).second;
          const bool ref_inserted = ref.try_emplace(key, value).second;
          ASSERT_EQ(inserted, ref_inserted);
          break;
        }
        case 2: {  // erase
          ASSERT_EQ(map.erase(key), ref.erase(key));
          break;
        }
        case 3: {  // find
          const auto it = map.find(key);
          const auto rit = ref.find(key);
          ASSERT_EQ(it != map.end(), rit != ref.end());
          if (rit != ref.end()) {
            ASSERT_EQ(it->second, rit->second);
          }
          break;
        }
        default: {  // mutate through operator[]
          map[key] += 1;
          ref[key] += 1;
          break;
        }
      }
      ASSERT_EQ(map.size(), ref.size());
    }

    // Full iteration agreement: same key set, same values.
    std::vector<std::pair<std::int64_t, std::uint64_t>> flat(map.begin(), map.end());
    ASSERT_EQ(flat.size(), ref.size());
    for (const auto& [key, value] : flat) {
      const auto rit = ref.find(key);
      ASSERT_NE(rit, ref.end()) << "flat map holds a key the model lacks";
      ASSERT_EQ(value, rit->second);
    }
  }
}

TEST(FlatSetProperty, MatchesUnorderedSetReferenceModel) {
  constexpr int kTrials = 100;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(0xabcdef + static_cast<std::uint64_t>(trial));
    FlatSet<std::int64_t> set;
    std::unordered_set<std::int64_t> ref;
    for (int op = 0; op < 300; ++op) {
      const auto key = static_cast<std::int64_t>(rng.next_below(80));
      if (rng.next_bool(0.6)) {
        ASSERT_EQ(set.insert(key).second, ref.insert(key).second);
      } else {
        ASSERT_EQ(set.erase(key), ref.erase(key));
      }
      ASSERT_EQ(set.size(), ref.size());
      ASSERT_EQ(set.contains(key), ref.count(key) != 0);
    }
    std::vector<std::int64_t> contents(set.begin(), set.end());
    ASSERT_EQ(contents.size(), ref.size());
    for (const auto key : contents) ASSERT_TRUE(ref.count(key) != 0);
  }
}

// ---------------------------------------------------------------------------
// Erase-during-iteration regression
// ---------------------------------------------------------------------------

TEST(FlatMap, EraseDuringIterationDropsExactlyThePredicate) {
  // The contract: `it = map.erase(it)` never skips a live element; an
  // element displaced across the wrap point may be revisited, so the
  // predicate must be idempotent. Verify over many random tables that
  // an expire-style sweep removes exactly the matching keys.
  for (int trial = 0; trial < 100; ++trial) {
    Rng rng(7777 + static_cast<std::uint64_t>(trial));
    FlatMap<std::int64_t, int> map;
    std::unordered_map<std::int64_t, int> ref;
    const int n = 1 + static_cast<int>(rng.next_below(200));
    for (int i = 0; i < n; ++i) {
      const auto key = static_cast<std::int64_t>(rng.next_u64() % 1000);
      map.try_emplace(key, static_cast<int>(key));
      ref.try_emplace(key, static_cast<int>(key));
    }
    const std::int64_t horizon = static_cast<std::int64_t>(rng.next_below(1000));

    for (auto it = map.begin(); it != map.end();) {
      if (it->first < horizon) {
        it = map.erase(it);
      } else {
        ++it;
      }
    }

    std::size_t expected = 0;
    for (const auto& [key, value] : ref) {
      if (key >= horizon) {
        ++expected;
        ASSERT_TRUE(map.contains(key)) << "survivor lost (key " << key << ")";
        ASSERT_EQ(map.at(key), value);
      } else {
        ASSERT_FALSE(map.contains(key)) << "expired key survived: " << key;
      }
    }
    ASSERT_EQ(map.size(), expected);
  }
}

TEST(FlatMap, EraseReturnsIteratorCoveringShiftedElement) {
  FlatMap<std::int64_t, int> map;
  for (std::int64_t k = 0; k < 40; ++k) map.try_emplace(k, 1);
  // Erase everything via the iterator protocol; every element must be
  // seen (revisits are fine, the erase makes the predicate idempotent).
  std::size_t erased = 0;
  for (auto it = map.begin(); it != map.end();) {
    it = map.erase(it);
    ++erased;
  }
  EXPECT_EQ(erased, 40u);
  EXPECT_TRUE(map.empty());
}

// ---------------------------------------------------------------------------
// Deterministic iteration / capacity growth regressions
// ---------------------------------------------------------------------------

TEST(FlatMap, IterationOrderIsAFunctionOfOperationHistory) {
  // Two tables fed the identical operation sequence must iterate
  // identically — this is what keeps scenario fingerprints
  // thread-invariant when per-node tables feed event emission order.
  for (int trial = 0; trial < 20; ++trial) {
    FlatMap<std::uint32_t, int> a;
    FlatMap<std::uint32_t, int> b;
    Rng rng_a(42 + static_cast<std::uint64_t>(trial));
    Rng rng_b(42 + static_cast<std::uint64_t>(trial));
    auto drive = [](FlatMap<std::uint32_t, int>& map, Rng& rng) {
      for (int op = 0; op < 500; ++op) {
        const auto key = static_cast<std::uint32_t>(rng.next_below(128));
        if (rng.next_bool(0.7)) {
          map.try_emplace(key, op);
        } else {
          map.erase(key);
        }
      }
    };
    drive(a, rng_a);
    drive(b, rng_b);
    ASSERT_EQ(a.size(), b.size());
    std::vector<std::pair<std::uint32_t, int>> order_a(a.begin(), a.end());
    std::vector<std::pair<std::uint32_t, int>> order_b(b.begin(), b.end());
    ASSERT_EQ(order_a, order_b);
  }
}

TEST(FlatMap, GrowthKeepsPowerOfTwoCapacityAndSevenEighthsLoad) {
  FlatMap<std::int64_t, int> map;
  for (std::int64_t k = 0; k < 10000; ++k) {
    map.try_emplace(k, 0);
    const std::size_t cap = map.capacity();
    ASSERT_NE(cap, 0u);
    ASSERT_EQ(cap & (cap - 1), 0u) << "capacity must stay a power of two";
    ASSERT_LE(map.size() * 8, cap * 7) << "load factor above 7/8";
  }
  EXPECT_EQ(map.size(), 10000u);
  for (std::int64_t k = 0; k < 10000; ++k) ASSERT_TRUE(map.contains(k));
}

TEST(FlatMap, MaybeShrinkReturnsBurstCapacity) {
  FlatMap<std::int64_t, int> map;
  for (std::int64_t k = 0; k < 1000; ++k) map.try_emplace(k, 0);
  const std::size_t burst_cap = map.capacity();
  for (std::int64_t k = 0; k < 990; ++k) map.erase(k);
  map.maybe_shrink();
  EXPECT_LT(map.capacity(), burst_cap);
  for (std::int64_t k = 990; k < 1000; ++k) {
    EXPECT_TRUE(map.contains(k)) << "shrink lost key " << k;
  }
  // Draining entirely releases the heap.
  for (std::int64_t k = 990; k < 1000; ++k) map.erase(k);
  map.maybe_shrink();
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(map.approx_bytes(), 0u);
  // And the table is still usable afterwards.
  map.try_emplace(1, 2);
  EXPECT_EQ(map.at(1), 2);
}

TEST(FlatMap, ShrinkDoesNotThrashSteadyState) {
  FlatMap<std::int64_t, int> map;
  for (std::int64_t k = 0; k < 12; ++k) map.try_emplace(k, 0);
  const std::size_t cap = map.capacity();
  map.maybe_shrink();  // 12 of 16: above the 1/4 threshold
  EXPECT_EQ(map.capacity(), cap);
}

TEST(FlatMap, ApproxBytesChargesCapacity) {
  FlatMap<std::int64_t, double> map;
  map.try_emplace(1, 1.0);
  const std::size_t slot = sizeof(std::pair<std::int64_t, double>) + 1;
  EXPECT_EQ(map.approx_bytes(), map.capacity() * slot);
}

TEST(FlatMap, ReserveAvoidsLaterGrowth) {
  FlatMap<std::int64_t, int> map;
  map.reserve(100);
  const std::size_t cap = map.capacity();
  ASSERT_GE(cap * 7, 100u * 8);
  for (std::int64_t k = 0; k < 100; ++k) map.try_emplace(k, 0);
  EXPECT_EQ(map.capacity(), cap);
}

TEST(ReusableFlatSet, IteratesLikeAFreshFlatMapAfterEveryClear) {
  // Keys of a pull request's suppliers: small sets, drawn from ids that
  // hash all over the table, with duplicates. After each clear() the
  // reused set must iterate exactly as a newly built FlatMap fed the
  // same insertions (its growth history included), across every size
  // and in any order of sizes.
  Rng rng(5);
  ReusableFlatSet<std::uint32_t> reused;
  for (int round = 0; round < 3000; ++round) {
    const std::size_t inserts = rng.next_below(round % 10 == 0 ? 200 : 24);
    FlatMap<std::uint32_t, int> fresh;
    reused.clear();
    for (std::size_t i = 0; i < inserts; ++i) {
      const auto key = static_cast<std::uint32_t>(rng.next_below(64));
      const bool absent = fresh.find(key) == fresh.end();
      fresh[key] = 1;
      EXPECT_EQ(reused.insert(key), absent);
    }
    std::vector<std::uint32_t> expected;
    for (const auto& [key, value] : fresh) expected.push_back(key);
    const std::vector<std::uint32_t> got(reused.begin(), reused.end());
    ASSERT_EQ(got, expected) << "round " << round << ", " << inserts << " inserts";
    EXPECT_EQ(reused.size(), fresh.size());
  }
}

}  // namespace
}  // namespace continu::util
