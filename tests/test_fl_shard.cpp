// fl::ShardedAggregator: the bit-identity contract of the sharded
// parameter-server pipeline (DESIGN.md §17) — partition alignment, the
// index-order collect barrier, exact scalar-pass parity with the serial
// helpers, range-fan-out aggregation equal to aggregate_updates for every
// rule at every shard count, and checkpointable per-shard counters.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "fl/robust_agg.h"
#include "fl/shard.h"
#include "tensor/kernels.h"
#include "util/rng.h"

namespace cmfl::fl {
namespace {

std::vector<std::vector<float>> make_updates(std::size_t count,
                                             std::size_t dim,
                                             std::uint64_t seed = 77) {
  std::vector<std::vector<float>> updates(count);
  for (std::size_t i = 0; i < count; ++i) {
    util::Rng rng(seed + i);
    updates[i].resize(dim);
    for (auto& x : updates[i]) x = rng.uniform_f(-1.0f, 1.0f);
  }
  return updates;
}

std::vector<std::span<const float>> views_of(
    const std::vector<std::vector<float>>& updates) {
  return {updates.begin(), updates.end()};
}

ShardOptions shard_opts(std::size_t s) {
  ShardOptions so;
  so.shards = s;
  return so;
}

TEST(ShardPartition, CoversDimWithAlignedBoundaries) {
  for (const std::size_t dim : {1u, 63u, 64u, 65u, 100u, 1000u, 4113u}) {
    for (const std::size_t shards : {1u, 2u, 4u, 8u, 13u}) {
      const auto ranges = shard_partition(dim, shards);
      ASSERT_EQ(ranges.size(), shards);
      EXPECT_EQ(ranges.front().lo, 0u);
      EXPECT_EQ(ranges.back().hi, dim);
      std::size_t min_size = std::numeric_limits<std::size_t>::max();
      std::size_t max_size = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        EXPECT_LE(ranges[s].lo, ranges[s].hi);
        if (s > 0) {
          EXPECT_EQ(ranges[s].lo, ranges[s - 1].hi);
          // Interior boundaries sit on SignPack word boundaries.
          EXPECT_EQ(ranges[s].lo % 64, 0u)
              << "dim " << dim << " shards " << shards << " s " << s;
        }
        min_size = std::min(min_size, ranges[s].size());
        max_size = std::max(max_size, ranges[s].size());
      }
      // Near-even deal: each ideal cut rounds down by < 64, so sizes differ
      // by at most two rounding errors (empty trailing shards excepted when
      // dim < 64 * shards).
      if (dim >= 64 * shards) EXPECT_LE(max_size - min_size, 128u);
    }
  }
  EXPECT_THROW(shard_partition(128, 0), std::invalid_argument);
}

TEST(ShardedAggregator, ScalarPassMatchesSerialHelpers) {
  const std::size_t dim = 777;
  const auto updates = make_updates(9, dim);
  tensor::SignPack estimate;
  {
    util::Rng rng(5);
    std::vector<float> est(dim);
    for (auto& x : est) x = rng.uniform_f(-1.0f, 1.0f);
    estimate.assign(est);
  }

  for (const std::size_t s : {1u, 2u, 4u, 8u}) {
    ShardedAggregator agg(dim, shard_opts(s));
    agg.begin_batch(updates.size());
    // Submit in reverse order: collect must still return index order.
    for (std::size_t i = updates.size(); i-- > 0;) {
      agg.submit_update(i, updates[i], &estimate, 100 + i, true);
    }
    const auto results = agg.collect(updates.size());
    ASSERT_EQ(results.size(), updates.size());
    for (std::size_t i = 0; i < updates.size(); ++i) {
      EXPECT_FALSE(results[i].error);
      EXPECT_EQ(results[i].scalars.finite, update_all_finite(updates[i]));
      // Bit-exact: the shard worker runs the same serial reduction.
      EXPECT_EQ(results[i].scalars.norm, update_l2_norm(updates[i]));
      EXPECT_EQ(results[i].sign_matches,
                tensor::count_sign_matches(updates[i], estimate));
    }
  }
}

TEST(ShardedAggregator, ScalarPassFlagsNonFiniteUploads) {
  const std::size_t dim = 256;
  auto updates = make_updates(4, dim);
  updates[2][100] = std::numeric_limits<float>::quiet_NaN();

  ShardedAggregator agg(dim, shard_opts(2));
  agg.begin_batch(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    agg.submit_update(i, updates[i], nullptr, 0, true);
  }
  const auto results = agg.collect(updates.size());
  EXPECT_TRUE(results[0].scalars.finite);
  EXPECT_FALSE(results[2].scalars.finite);
}

TEST(ShardedAggregator, JobErrorsAreCapturedPerUpload) {
  ShardedAggregator agg(128, shard_opts(4));
  agg.begin_batch(3);
  agg.submit(0, 0, [] {
    ShardedAggregator::UploadResult r;
    r.scalars.norm = 1.0;
    return r;
  });
  agg.submit(1, 0, []() -> ShardedAggregator::UploadResult {
    throw std::runtime_error("decode failed");
  });
  agg.submit(2, 0, [] {
    ShardedAggregator::UploadResult r;
    r.scalars.norm = 3.0;
    return r;
  });
  const auto results = agg.collect(3);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].error);
  EXPECT_EQ(results[0].scalars.norm, 1.0);
  ASSERT_TRUE(results[1].error);
  EXPECT_THROW(std::rethrow_exception(results[1].error), std::runtime_error);
  EXPECT_FALSE(results[2].error);
  EXPECT_EQ(results[2].scalars.norm, 3.0);
}

TEST(ShardedAggregator, AggregateBitIdenticalToSerialForEveryRule) {
  // The acceptance criterion: at S in {1, 2, 4, 8} every rule's sharded
  // output equals the single-master aggregate_updates byte-for-byte, on
  // dims that do and do not divide into 64-float blocks.
  const std::size_t count = 7;
  RobustAggOptions ropt;
  ropt.trim_fraction = 0.2;
  for (const std::size_t dim : {64u, 100u, 1000u, 4113u}) {
    const auto updates = make_updates(count, dim);
    const auto views = views_of(updates);
    std::vector<float> weights(count);
    for (std::size_t i = 0; i < count; ++i) {
      weights[i] = static_cast<float>(i + 1);
    }
    const float wsum = std::accumulate(weights.begin(), weights.end(), 0.0f);
    for (auto& w : weights) w /= wsum;
    std::vector<double> norms(count);
    for (std::size_t i = 0; i < count; ++i) {
      norms[i] = update_l2_norm(updates[i]);
    }

    for (const Aggregation rule :
         {Aggregation::kUniformMean, Aggregation::kSampleWeighted,
          Aggregation::kMedian, Aggregation::kTrimmedMean,
          Aggregation::kNormClippedMean}) {
      std::vector<float> serial(dim);
      aggregate_updates(rule, views, weights, ropt, serial);
      for (const std::size_t s : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("dim " + std::to_string(dim) + " rule " +
                     aggregation_name(rule) + " shards " + std::to_string(s));
        ShardedAggregator agg(dim, shard_opts(s));
        std::vector<float> sharded(dim);
        agg.aggregate(rule, views, weights, ropt,
                      rule == Aggregation::kNormClippedMean
                          ? std::span<const double>(norms)
                          : std::span<const double>(),
                      sharded);
        EXPECT_EQ(sharded, serial);
      }
    }
  }
}

// The scalar pass computes a norm only when the round reads one
// (reads_upload_norms).  Sharded screening over those scalars must still
// give the serial validator's verdicts and report, round after round, and
// every norm-reading policy must still reject an exploded update.
TEST(ShardedAggregator, ScreeningMatchesSerialUnderEveryNormReader) {
  const std::size_t dim = 1000;
  const std::size_t count = 6;
  auto updates = make_updates(count, dim);
  for (auto& x : updates[1]) x *= 100.0f;  // exploded
  updates[4][17] = std::numeric_limits<float>::quiet_NaN();
  const auto views = views_of(updates);
  const std::vector<std::size_t> clients = {0, 1, 2, 3, 4, 5};

  struct Case {
    const char* name;
    ValidationPolicy policy;
    Aggregation rule;
    bool reads_norms;       // what reads_upload_norms must say
    bool rejects_exploded;  // whether screening reads a norm bound
  };
  ValidationPolicy absolute;
  absolute.max_norm = 100.0;
  ValidationPolicy relative;
  relative.norm_multiple = 3.0;
  const Case cases[] = {
      {"default/mean", ValidationPolicy{}, Aggregation::kUniformMean, false,
       false},
      {"max_norm/mean", absolute, Aggregation::kUniformMean, true, true},
      {"norm_multiple/mean", relative, Aggregation::kUniformMean, true, true},
      {"default/clipped", ValidationPolicy{}, Aggregation::kNormClippedMean,
       true, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const bool with_norm = reads_upload_norms(c.policy, c.rule);
    EXPECT_EQ(with_norm, c.reads_norms);
    UpdateValidator serial(count, c.policy);
    UpdateValidator sharded(count, c.policy);
    ShardedAggregator agg(dim, shard_opts(4));
    // Enough rounds for the repeat offenders to be quarantined.
    for (int round = 0; round < 4; ++round) {
      agg.begin_batch(count);
      for (std::size_t i = 0; i < count; ++i) {
        agg.submit_update(i, views[i], nullptr, 0, with_norm);
      }
      std::vector<UpdateValidator::UploadScalars> pre;
      for (const auto& r : agg.collect(count)) {
        ASSERT_FALSE(r.error);
        pre.push_back(r.scalars);
      }
      const auto want = serial.screen_round(clients, views);
      EXPECT_EQ(sharded.screen_round(clients, pre), want);
      EXPECT_EQ(sharded.report(), serial.report());
      if (round == 0) {
        EXPECT_EQ(want[4], Verdict::kNonFinite);
        EXPECT_EQ(want[1], c.rejects_exploded ? Verdict::kNormExploded
                                              : Verdict::kAccept);
      }
      for (std::size_t i = 0; i < count; ++i) {  // bits: update 4's is NaN
        EXPECT_EQ(std::bit_cast<std::uint64_t>(pre[i].norm),
                  std::bit_cast<std::uint64_t>(
                      with_norm ? update_l2_norm(updates[i]) : 0.0));
      }
      // The clipped rule aggregates with the scalar-pass norms.
      if (c.rule == Aggregation::kNormClippedMean) {
        const std::vector<std::span<const float>> finite = {
            views[0], views[1], views[2], views[3], views[5]};
        const std::vector<double> norms = {pre[0].norm, pre[1].norm,
                                           pre[2].norm, pre[3].norm,
                                           pre[5].norm};
        std::vector<float> want_out(dim), got_out(dim);
        aggregate_updates(c.rule, finite, {}, RobustAggOptions{}, want_out);
        agg.aggregate(c.rule, finite, {}, RobustAggOptions{}, norms, got_out);
        EXPECT_EQ(got_out, want_out);
      }
    }
    EXPECT_GT(serial.report().quarantined_count(), 0u);
  }
}

TEST(ShardedAggregator, CountSignMatchesEqualsFullVectorScan) {
  const std::size_t dim = 4113;  // not a multiple of 64
  const auto updates = make_updates(1, dim);
  util::Rng rng(9);
  std::vector<float> est(dim);
  for (auto& x : est) x = rng.uniform_f(-1.0f, 1.0f);
  tensor::SignPack estimate(est);

  const std::size_t expected = tensor::count_sign_matches(updates[0], estimate);
  for (const std::size_t s : {1u, 2u, 4u, 8u}) {
    ShardedAggregator agg(dim, shard_opts(s));
    EXPECT_EQ(agg.count_sign_matches(updates[0], estimate), expected);
  }
}

TEST(ShardedAggregator, StatsAccumulateDeterministicallyAndRoundTrip) {
  const std::size_t dim = 512;
  const auto updates = make_updates(6, dim);
  ShardedAggregator agg(dim, shard_opts(3));
  agg.begin_batch(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    agg.submit_update(i, updates[i], nullptr, 10 * (i + 1), false);
  }
  agg.collect(updates.size());

  const auto stats = agg.stats();
  ASSERT_EQ(stats.size(), 3u);
  // index-mod-S routing: shard 0 got uploads {0, 3}, shard 1 {1, 4}, ...
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(stats[s].uploads, 2u);
    EXPECT_EQ(stats[s].bytes, 10u * (s + 1) + 10u * (s + 4));
  }

  const auto words = agg.stats_words();
  ASSERT_EQ(words.size(), 9u);
  ShardedAggregator fresh(dim, shard_opts(3));
  fresh.restore_stats_words(words);
  EXPECT_EQ(fresh.stats_words(), words);
  EXPECT_EQ(fresh.stats(), stats);

  // Word count must be 3 * shards.
  ShardedAggregator other(dim, shard_opts(2));
  EXPECT_THROW(other.restore_stats_words(words), std::invalid_argument);
}

TEST(ShardedAggregator, RejectsZeroShards) {
  EXPECT_THROW(ShardedAggregator(128, shard_opts(0)), std::invalid_argument);
}

}  // namespace
}  // namespace cmfl::fl
