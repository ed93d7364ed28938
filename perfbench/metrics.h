// Metric schema and the reductions from trials to metrics.
//
// end_to_end() reduces a set of untraced trials to the nine user-visible
// metrics; per_layer() reduces traced trials plus the server-side replays to
// the per-layer metrics.  The names, units and directions here are the ones
// BENCHMARK.json declares (test_perfbench.cpp checks that they agree).
#pragma once

#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "higher" | "lower"
};

const std::vector<MetricDef>& end_to_end_defs();
const std::vector<MetricDef>& per_layer_defs();

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Layers hidden inside the runtimes, timed by replaying their public
/// functions on data captured from a traced trial.  Times are medians, in
/// microseconds per call.
struct Replays {
  double screen_us = 0.0;             // UpdateValidator::screen_round
  double aggregate_us = 0.0;          // aggregate_updates
  double shard_aggregate_us = 0.0;    // ShardedAggregator::aggregate, S >= 1
  double checkpoint_encode_us = 0.0;  // encode_checkpoint
  double checkpoint_write_us = 0.0;   // save_checkpoint_file (sealed, fsync)
  double codec_encode_us = 0.0;  // per upload, make_update_codec(spec)
  double codec_decode_us = 0.0;
  double codec_wire_bytes = 0.0;
  double broadcast_encode_us = 0.0;  // net::encode + seal_frame
  double broadcast_decode_us = 0.0;  // open_frame + net::decode
  double upload_frame_encode_us = 0.0;
  double upload_frame_decode_us = 0.0;
};

/// Runs every replay on `traced` (a kFull trial of `spec`).  Throws
/// std::runtime_error when the trial captured nothing to replay.
Replays replay(const WorkloadSpec& spec, const Trial& traced,
               const std::string& workdir);

/// The nine end-to-end metrics over untraced trials.  Timings are medians
/// over all trials (set-up also over the set-up-only samples); per-seed
/// outputs are averaged over the distinct seeds.  `peak_rss_mb` is the
/// process's getrusage high-water mark.
std::vector<Metric> end_to_end(const std::vector<Trial>& trials,
                               const std::vector<Trial>& setups,
                               double peak_rss_mb);

/// Per-layer metrics: counts and busy times from the median-wall traced
/// trial, overhead from the traced/untraced wall ratio.
std::vector<Metric> per_layer(const WorkloadSpec& spec,
                              const std::vector<Trial>& untraced,
                              const std::vector<Trial>& traced,
                              const Replays& replays);

/// The traced trial whose run() wall is the median of `traced`.
const Trial& median_trial(const std::vector<Trial>& traced);

/// |client + server + edge - wall| / wall of one traced trial.
double tiling_error(const TraceSummary& s);

}  // namespace perfbench
