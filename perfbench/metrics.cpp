#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <numeric>
#include <span>
#include <stdexcept>

#include "codec/codec.h"
#include "fl/checkpoint.h"
#include "fl/robust_agg.h"
#include "fl/shard.h"
#include "net/message.h"
#include "net/wire.h"

namespace perfbench {

namespace cf = cmfl::fl;
namespace cn = cmfl::net;

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower"},
      {"rounds_per_s", "1/s", "higher"},
      {"uploads_per_s", "1/s", "higher"},
      {"round_p50_ms", "ms", "lower"},
      {"round_p90_ms", "ms", "lower"},
      {"peak_rss_mb", "MiB", "lower"},
      {"uplink_bytes_per_round", "B", "lower"},
      {"final_accuracy", "fraction", "higher"},
      {"ok_frac", "fraction", "higher"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = {
      {"nn.train_calls", "count", "higher"},
      {"nn.train_busy_s", "s", "lower"},
      {"nn.train_p50_ms", "ms", "lower"},
      {"nn.train_p99_ms", "ms", "lower"},
      {"fl.install_busy_s", "s", "lower"},
      {"fl.readback_busy_s", "s", "lower"},
      {"fl.eval_calls", "count", "higher"},
      {"fl.eval_busy_s", "s", "lower"},
      {"fl.client_phase_s", "s", "lower"},
      {"fl.server_phase_s", "s", "lower"},
      {"fl.edge_s", "s", "lower"},
      {"fl.server_phase_p50_ms", "ms", "lower"},
      {"fl.server_phase_p90_ms", "ms", "lower"},
      {"fl.screen_us", "us", "lower"},
      {"fl.aggregate_us", "us", "lower"},
      {"fl.shard_aggregate_us", "us", "lower"},
      {"fl.checkpoint_encode_us", "us", "lower"},
      {"core.filter_calls", "count", "higher"},
      {"core.filter_busy_s", "s", "lower"},
      {"core.upload_ratio", "fraction", "lower"},
      {"codec.encode_us", "us", "lower"},
      {"codec.decode_us", "us", "lower"},
      {"codec.wire_bytes", "B", "lower"},
      {"codec.decode_share", "fraction", "lower"},
      {"sched.materializations", "count", "lower"},
      {"sched.materialize_busy_s", "s", "lower"},
      {"sched.warm_hit_ratio", "fraction", "higher"},
      {"sched.evictions", "count", "lower"},
      {"sched.steals", "count", "higher"},
      {"sched.discarded_stragglers", "count", "lower"},
      {"sched.peak_resident_clients", "count", "lower"},
      {"net.frame_encode_us", "us", "lower"},
      {"net.frame_decode_us", "us", "lower"},
      {"util.checkpoint_write_us", "us", "lower"},
      {"data.synth_s", "s", "lower"},
      {"trace.overhead_frac", "fraction", "lower"},
      {"trace.unattributed_frac", "fraction", "lower"},
  };
  return defs;
}

namespace {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Median wall time of `fn` in microseconds: at least 5 calls, then more
/// until 40 ms have passed (at most 200).
template <typename Fn>
double median_us(Fn&& fn) {
  std::vector<double> us;
  const std::int64_t begin = now_ns();
  while (us.size() < 5 ||
         (us.size() < 200 && now_ns() - begin < 40'000'000)) {
    const std::int64_t t0 = now_ns();
    fn();
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return median(std::move(us));
}

std::vector<Metric> in_schema_order(const std::vector<MetricDef>& defs,
                                    const std::map<std::string, double>& v) {
  if (v.size() != defs.size()) {
    throw std::logic_error("metrics: computed set does not match the schema");
  }
  std::vector<Metric> out;
  for (const MetricDef& d : defs) {
    const auto it = v.find(d.name);
    if (it == v.end()) {
      throw std::logic_error(std::string("metrics: missing ") + d.name);
    }
    out.push_back({d.name, d.unit, it->second});
  }
  return out;
}

}  // namespace

std::vector<Metric> end_to_end(const std::vector<Trial>& trials,
                               const std::vector<Trial>& setups,
                               double peak_rss_mb) {
  std::vector<double> setup, rps, ups, periods;
  std::map<std::uint64_t, const Outcome*> per_seed;
  std::uint64_t attempted = 0, failed = 0;
  for (const Trial& t : setups) setup.push_back(t.setup_s);
  for (const Trial& t : trials) {
    attempted += t.attempted;
    failed += t.failed;
    setup.push_back(t.setup_s);
    if (t.threw) continue;
    per_seed.emplace(t.seed, &t.outcome);
    rps.push_back(static_cast<double>(t.outcome.rounds) / t.run_s);
    ups.push_back(static_cast<double>(t.outcome.uploads) / t.run_s);
    periods.insert(periods.end(), t.periods_ms.begin(), t.periods_ms.end());
  }
  if (per_seed.empty()) throw std::runtime_error("metrics: every trial threw");
  double bytes_per_round = 0.0, accuracy = 0.0;
  for (const auto& [seed, o] : per_seed) {
    bytes_per_round += static_cast<double>(o->uploaded_bytes) /
                       static_cast<double>(std::max<std::size_t>(o->rounds, 1));
    accuracy += o->final_accuracy;
  }
  const auto seeds = static_cast<double>(per_seed.size());
  std::map<std::string, double> v;
  v["setup_s"] = median(setup);
  v["rounds_per_s"] = median(rps);
  v["uploads_per_s"] = median(ups);
  v["round_p50_ms"] = quantile(periods, 0.50);
  v["round_p90_ms"] = quantile(periods, 0.90);
  v["peak_rss_mb"] = peak_rss_mb;
  v["uplink_bytes_per_round"] = bytes_per_round / seeds;
  v["final_accuracy"] = accuracy / seeds;
  v["ok_frac"] = attempted == 0 ? 0.0
                                : static_cast<double>(attempted - failed) /
                                      static_cast<double>(attempted);
  return in_schema_order(end_to_end_defs(), v);
}

const Trial& median_trial(const std::vector<Trial>& traced) {
  std::vector<const Trial*> ok;
  for (const Trial& t : traced) {
    if (!t.threw && t.trace) ok.push_back(&t);
  }
  if (ok.empty()) throw std::runtime_error("metrics: no traced trial");
  std::sort(ok.begin(), ok.end(),
            [](const Trial* a, const Trial* b) { return a->run_s < b->run_s; });
  return *ok[(ok.size() - 1) / 2];
}

double tiling_error(const TraceSummary& s) {
  if (s.wall_s <= 0.0) return 0.0;
  return std::abs(s.client_phase_s + s.server_phase_s + s.edge_s - s.wall_s) /
         s.wall_s;
}

Replays replay(const WorkloadSpec& spec, const Trial& t,
               const std::string& workdir) {
  if (t.captured_sample.empty() || t.captured_global.empty()) {
    throw std::runtime_error("replay: the traced trial captured no update");
  }
  Replays r;
  const std::size_t dim = t.captured_sample.size();
  std::vector<std::span<const float>> views(t.captured_uploads.begin(),
                                            t.captured_uploads.end());
  // A round with no committed upload still has a representative update.
  if (views.empty()) views.emplace_back(t.captured_sample);
  std::vector<std::size_t> ids(views.size());
  std::iota(ids.begin(), ids.end(), std::size_t{0});

  // --- server step: screen, aggregate (serial and sharded) ---
  r.screen_us = median_us([&] {
    cf::UpdateValidator validator(ids.size(), cf::ValidationPolicy{});
    const auto verdicts = validator.screen_round(ids, views);
    if (verdicts.size() != views.size()) throw std::logic_error("screen");
  });
  std::vector<float> out(dim);
  const cf::RobustAggOptions ropt;
  r.aggregate_us = median_us([&] {
    cf::aggregate_updates(cf::Aggregation::kUniformMean, views, {}, ropt, out);
  });
  {
    cf::ShardOptions so;
    so.shards = std::max<std::size_t>(spec.shards, 1);
    cf::ShardedAggregator agg(dim, so);
    r.shard_aggregate_us = median_us([&] {
      agg.aggregate(cf::Aggregation::kUniformMean, views, {}, ropt, {}, out);
    });
  }

  // --- checkpoint: one assembled from the run's final state ---
  cf::TrainerCheckpoint ck;
  ck.iteration = t.history.size();
  ck.global_params = t.final_params;
  ck.estimator_estimate = t.captured_estimate;
  ck.estimator_observed = true;
  ck.prev_global_update = t.captured_estimate;
  ck.cumulative_rounds = t.outcome.uploads;
  ck.uploaded_bytes = t.outcome.uploaded_bytes;
  ck.history = t.history;
  std::vector<std::byte> ck_bytes;
  r.checkpoint_encode_us =
      median_us([&] { ck_bytes = cf::encode_checkpoint(ck); });
  std::filesystem::create_directories(workdir);
  const std::string ck_path = workdir + "/replay.ckpt";
  r.checkpoint_write_us =
      median_us([&] { cf::save_checkpoint_file(ck_path, ck); });
  std::filesystem::remove(ck_path);

  // --- codec: encode/decode every captured upload in turn ---
  auto codec = cmfl::codec::make_update_codec(spec.codec, 9000);
  std::size_t next = 0;
  cmfl::codec::EncodedUpdate enc;
  r.codec_encode_us =
      median_us([&] { enc = codec->encode(views[next++ % views.size()]); });
  double wire = 0.0;
  std::vector<std::vector<std::byte>> payloads;
  for (const auto& v : views) {
    payloads.push_back(codec->encode(v).payload);
    wire += static_cast<double>(payloads.back().size());
  }
  r.codec_wire_bytes = wire / static_cast<double>(views.size());
  next = 0;
  r.codec_decode_us = median_us([&] {
    const auto dec = codec->decode(payloads[next++ % payloads.size()]);
    if (dec.size() != dim) throw std::logic_error("codec decode size");
  });

  // --- wire frames: one broadcast and one upload of this workload's size ---
  cn::BroadcastMsg bc;
  bc.seq = 1;
  bc.iteration = t.outcome.rounds;
  bc.global_params = t.captured_global;
  bc.global_update = t.captured_estimate;
  bc.learning_rate = 0.1f;
  bc.codec_id = codec->id();
  const cn::Message broadcast = std::move(bc);
  cn::Message upload;
  if (cmfl::codec::is_dense_spec(spec.codec)) {
    cn::UpdateUploadMsg up;
    up.update = t.captured_sample;
    upload = std::move(up);
  } else {
    cn::CodecUploadMsg up;
    up.codec_id = codec->id();
    up.payload = codec->encode(t.captured_sample).payload;
    upload = std::move(up);
  }
  const auto frame_times = [](const cn::Message& msg, double& enc_us,
                              double& dec_us) {
    std::vector<std::byte> frame;
    enc_us = median_us([&] {
      frame = cn::encode(msg);
      cn::seal_frame(frame);
    });
    dec_us = median_us([&] {
      const cn::Message m = cn::decode(cn::open_frame(frame));
      if (m.index() != msg.index()) throw std::logic_error("frame type");
    });
  };
  frame_times(broadcast, r.broadcast_encode_us, r.broadcast_decode_us);
  frame_times(upload, r.upload_frame_encode_us, r.upload_frame_decode_us);
  return r;
}

std::vector<Metric> per_layer(const WorkloadSpec& spec,
                              const std::vector<Trial>& untraced,
                              const std::vector<Trial>& traced,
                              const Replays& rp) {
  const Trial& t = median_trial(traced);
  const TraceSummary& s = *t.trace;
  const cmfl::sched::ScheduleReport& c = t.sched;
  const double rounds =
      static_cast<double>(std::max<std::size_t>(t.outcome.rounds, 1));
  const double uploads = static_cast<double>(t.outcome.uploads);
  const bool dense = cmfl::codec::is_dense_spec(spec.codec);

  std::vector<double> walls_traced, walls_plain, synth;
  for (const Trial& x : traced) {
    if (!x.threw) walls_traced.push_back(x.run_s);
    synth.push_back(x.synth_s);
  }
  for (const Trial& x : untraced) {
    if (!x.threw) walls_plain.push_back(x.run_s);
    synth.push_back(x.synth_s);
  }

  // What the replays account for inside the server phases: the eval calls
  // there, one screen + aggregate per round boundary and the server-side
  // codec work per upload.
  const double boundaries = s.rounds > 0 ? static_cast<double>(s.rounds - 1) : 0;
  const double per_round_us =
      rp.screen_us + (spec.shards > 0 ? rp.shard_aggregate_us : rp.aggregate_us);
  double per_upload_us = dense ? 0.0 : rp.codec_decode_us;
  if (spec.runtime == Runtime::kEngine && !dense) {
    per_upload_us += rp.codec_encode_us;  // the engine encodes server-side
  }
  const double covered_s =
      s.eval_in_server_s + boundaries * per_round_us * 1e-6 +
      uploads * (boundaries / rounds) * per_upload_us * 1e-6;

  std::map<std::string, double> v;
  v["nn.train_calls"] = static_cast<double>(s.train_calls);
  v["nn.train_busy_s"] = s.train_busy_s;
  v["nn.train_p50_ms"] = s.train_p50_ms;
  v["nn.train_p99_ms"] = s.train_p99_ms;
  v["fl.install_busy_s"] = s.install_busy_s;
  v["fl.readback_busy_s"] = s.readback_busy_s;
  v["fl.eval_calls"] = static_cast<double>(s.eval_calls);
  v["fl.eval_busy_s"] = s.eval_busy_s;
  v["fl.client_phase_s"] = s.client_phase_s;
  v["fl.server_phase_s"] = s.server_phase_s;
  v["fl.edge_s"] = s.edge_s;
  v["fl.server_phase_p50_ms"] = quantile(s.server_phases_ms, 0.50);
  v["fl.server_phase_p90_ms"] = quantile(s.server_phases_ms, 0.90);
  v["fl.screen_us"] = rp.screen_us;
  v["fl.aggregate_us"] = rp.aggregate_us;
  v["fl.shard_aggregate_us"] = rp.shard_aggregate_us;
  v["fl.checkpoint_encode_us"] = rp.checkpoint_encode_us;
  v["core.filter_calls"] = static_cast<double>(s.filter_calls);
  v["core.filter_busy_s"] = s.filter_busy_s;
  v["core.upload_ratio"] =
      s.filter_calls == 0 ? 0.0
                          : static_cast<double>(s.filter_accepts) /
                                static_cast<double>(s.filter_calls);
  v["codec.encode_us"] = rp.codec_encode_us;
  v["codec.decode_us"] = rp.codec_decode_us;
  v["codec.wire_bytes"] = rp.codec_wire_bytes;
  v["codec.decode_share"] =
      s.server_phase_s > 0.0
          ? rp.codec_decode_us * 1e-6 * uploads / s.server_phase_s
          : 0.0;
  v["sched.materializations"] = static_cast<double>(c.materializations);
  v["sched.materialize_busy_s"] = s.materialize_busy_s;
  v["sched.warm_hit_ratio"] =
      c.invited == 0 ? 0.0
                     : 1.0 - static_cast<double>(c.materializations) /
                                 static_cast<double>(c.invited);
  v["sched.evictions"] = static_cast<double>(c.evictions);
  v["sched.steals"] = static_cast<double>(c.steals);
  v["sched.discarded_stragglers"] =
      static_cast<double>(c.discarded_stragglers);
  v["sched.peak_resident_clients"] =
      static_cast<double>(c.peak_resident_clients);
  v["net.frame_encode_us"] = rp.broadcast_encode_us + rp.upload_frame_encode_us;
  v["net.frame_decode_us"] = rp.broadcast_decode_us + rp.upload_frame_decode_us;
  v["util.checkpoint_write_us"] = rp.checkpoint_write_us;
  v["data.synth_s"] = median(synth);
  v["trace.overhead_frac"] =
      walls_plain.empty() ? 0.0
                          : median(walls_traced) / median(walls_plain) - 1.0;
  v["trace.unattributed_frac"] =
      s.server_phase_s > 0.0 ? 1.0 - covered_s / s.server_phase_s : 0.0;
  return in_schema_order(per_layer_defs(), v);
}

}  // namespace perfbench
