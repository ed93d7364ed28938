#include "sched/round_engine.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <unordered_set>

#include "codec/codec.h"
#include "core/estimator.h"
#include "fl/checkpoint.h"
#include "fl/shard.h"
#include "sched/work_pool.h"
#include "tensor/kernels.h"
#include "tensor/vector_ops.h"

namespace cmfl::sched {

namespace {

// fl::SchedInFlightReport::kind values.
constexpr std::uint8_t kKindElimination = 0;
constexpr std::uint8_t kKindUpload = 1;
constexpr std::uint8_t kKindDropout = 2;

/// Min-heap order on (arrival, device): earliest report pops first, device
/// id breaking virtual-time ties deterministically.
bool heap_later(const fl::SchedInFlightReport& a,
                const fl::SchedInFlightReport& b) {
  if (a.arrival != b.arrival) return a.arrival > b.arrival;
  return a.device > b.device;
}

}  // namespace

/// One invited device's training outcome, before the round decides what to
/// do with it (commit, discard as straggler, lose to a mid-round dropout).
struct RoundEngine::Trained {
  std::uint64_t device = 0;
  double latency = 0.0;  // virtual seconds from invitation to report
  bool dropped = false;  // trained but never reports
  core::FilterDecision decision;
  double train_loss = 0.0;
  std::uint64_t local_samples = 0;
  /// The trained delta; replaced by the codec reconstruction the server
  /// receives once the upload is encoded.
  std::vector<float> update;
  std::uint64_t wire_bytes = 0;  // encoded upload size, once encoded
};

struct RoundEngine::Ctx {
  core::GlobalUpdateEstimator estimator;
  fl::UpdateValidator validator;
  util::Rng engine_rng;
  std::unique_ptr<WorkStealingPool> pool;
  // Sharded ingest + aggregation pipeline (options.sharding); null keeps
  // the legacy single-master path.
  std::unique_ptr<fl::ShardedAggregator> shards;

  std::vector<float> global;
  std::vector<float> prev_global_update;
  fl::SimulationResult sim;
  ScheduleReport sched;
  std::size_t cumulative_rounds = 0;
  std::uint64_t invite_counter = 0;

  // Buffered-async state (version doubles as the aggregation count).
  std::uint64_t version = 0;
  double virtual_now = 0.0;
  std::vector<fl::SchedInFlightReport> heap;  // std::*_heap via heap_later
  std::unordered_set<std::uint64_t> in_flight;

  // Sync-mode resume point; async resumes from `version` instead.
  std::uint64_t start_round = 1;

  // Per-device codecs, materialized on a device's first upload (an ordered
  // map so snapshots serialize the sparse state sorted by device id).
  // Codec streams are per device, and exactly one job encodes each device
  // per train phase (a device is invited at most once per phase), so byte
  // counts and codec streams are independent of the thread count.  Slots
  // are created under codecs_mu; a codec object is then used lock-free by
  // the one job that owns its device.
  std::map<std::uint64_t, std::unique_ptr<codec::UpdateCodec>> codecs;
  std::mutex codecs_mu;

  // Shared read-only by every client's relevance check within a broadcast.
  tensor::SignPack estimate_pack;

  Ctx(std::size_t dim, std::uint64_t devices,
      const fl::SimulationOptions& options)
      : estimator(dim, options.estimator_ema),
        validator(static_cast<std::size_t>(devices), options.validation),
        engine_rng(options.seed) {}
};

RoundEngine::RoundEngine(Population& population,
                         std::unique_ptr<core::UpdateFilter> filter,
                         fl::GlobalEvaluator evaluator,
                         const fl::SimulationOptions& options)
    : population_(population),
      filter_(std::move(filter)),
      evaluator_(std::move(evaluator)),
      options_(options) {
  if (!filter_) {
    throw std::invalid_argument("RoundEngine: null filter");
  }
  if (!evaluator_) {
    throw std::invalid_argument("RoundEngine: null evaluator");
  }
  if (options_.max_iterations == 0) {
    throw std::invalid_argument("RoundEngine: max_iterations must be positive");
  }
  options_.schedule.validate();
  if (options_.schedule.sample_size > population_.size()) {
    throw std::invalid_argument(
        "RoundEngine: schedule.sample_size exceeds the population");
  }
  // Validate the codec spec eagerly (typos must not fail mid-run); codec
  // objects themselves are materialized per device on first upload.
  codec::make_update_codec(options_.codec.spec, options_.codec.seed_salt);
  use_codec_ = !codec::is_dense_spec(options_.codec.spec);
  if (options_.capture_client_params) {
    throw std::invalid_argument(
        "RoundEngine: capture_client_params needs the in-process "
        "FederatedSimulation");
  }

  fl::FlClient& probe = population_.acquire(0);
  dim_ = probe.param_count();
  population_.release(0);
  // Exact wire footprint of one dense upload — the dense codec's size
  // depends only on the dimension, so one probe encode prices every upload
  // on the dense fast path.
  codec::DenseCodec dense;
  upload_wire_bytes_ = dense.encode(std::vector<float>(dim_)).wire_bytes();
}

codec::UpdateCodec& RoundEngine::codec_for(Ctx& ctx, std::uint64_t device) {
  std::lock_guard lock(ctx.codecs_mu);
  auto& slot = ctx.codecs[device];
  if (!slot) {
    slot = codec::make_update_codec(options_.codec.spec,
                                    options_.codec.seed_salt + device);
  }
  return *slot;
}

std::uint64_t RoundEngine::encode_upload(Ctx& ctx, std::uint64_t device,
                                         std::vector<float>& update) {
  if (!use_codec_) return upload_wire_bytes_;
  codec::UpdateCodec& codec = codec_for(ctx, device);
  const codec::EncodedUpdate enc = codec.encode(update);
  // The server aggregates the reconstruction — exactly what a real wire
  // transfer would deliver — decoded over the update's own buffer.
  codec.decode_into(enc.payload, update);
  return enc.wire_bytes();
}

EngineResult RoundEngine::run() { return run_internal(nullptr); }

EngineResult RoundEngine::resume(const fl::TrainerCheckpoint& checkpoint) {
  return run_internal(&checkpoint);
}

EngineResult RoundEngine::run_internal(
    const fl::TrainerCheckpoint* resume_from) {
  Ctx ctx(dim_, population_.size(), options_);
  const auto devices = static_cast<std::size_t>(population_.size());
  ctx.sim.eliminations_per_client.assign(devices, 0);
  ctx.sim.uploads_per_client.assign(devices, 0);
  ctx.sim.history.reserve(options_.max_iterations);
  if (options_.parallel) {
    ctx.pool = std::make_unique<WorkStealingPool>();
  }
  if (options_.sharding.enabled()) {
    ctx.shards = std::make_unique<fl::ShardedAggregator>(dim_,
                                                         options_.sharding);
  }

  ctx.global.resize(dim_);
  {
    fl::FlClient& c0 = population_.acquire(0);
    c0.get_params(ctx.global);
    population_.release(0);
  }

  if (resume_from != nullptr) {
    const fl::TrainerCheckpoint& ck = *resume_from;
    if (ck.sched.engaged == 0) {
      throw std::invalid_argument(
          "RoundEngine: checkpoint was not written by a scheduler run");
    }
    if (ck.global_params.size() != dim_) {
      throw std::invalid_argument(
          "RoundEngine: checkpoint parameter dimension mismatch");
    }
    if (ck.eliminations_per_client.size() != devices ||
        ck.uploads_per_client.size() != devices) {
      throw std::invalid_argument(
          "RoundEngine: checkpoint population size mismatch");
    }
    ctx.global = ck.global_params;
    ctx.estimator.restore(ck.estimator_estimate, ck.estimator_observed);
    ctx.validator.restore(ck.validation);
    ctx.prev_global_update = ck.prev_global_update;
    ctx.cumulative_rounds = static_cast<std::size_t>(ck.cumulative_rounds);
    ctx.sim.uploaded_bytes = ck.uploaded_bytes;
    ctx.sim.history = ck.history;
    for (std::size_t k = 0; k < devices; ++k) {
      ctx.sim.eliminations_per_client[k] =
          static_cast<std::size_t>(ck.eliminations_per_client[k]);
      ctx.sim.uploads_per_client[k] =
          static_cast<std::size_t>(ck.uploads_per_client[k]);
    }
    util::restore_rng_state(ctx.engine_rng, ck.sched.engine_rng);
    ctx.invite_counter = ck.sched.invite_counter;
    ctx.version = ck.sched.version;
    ctx.virtual_now = ck.sched.virtual_now;
    ctx.heap = ck.sched.in_flight;  // snapshotted verbatim: still a heap
    for (const auto& f : ctx.heap) ctx.in_flight.insert(f.device);
    population_.restore_state_words(ck.sched.population_state);
    ctx.sched.invited = ck.sched.invited;
    ctx.sched.reported = ck.sched.reported;
    ctx.sched.unavailable_invited = ck.sched.unavailable_invited;
    ctx.sched.mid_round_dropouts = ck.sched.mid_round_dropouts;
    ctx.sched.discarded_stragglers = ck.sched.discarded_stragglers;
    ctx.sched.stale_discarded = ck.sched.stale_discarded;
    if (ck.sched.codec_devices.size() != ck.sched.codec_state.size()) {
      throw std::invalid_argument(
          "RoundEngine: checkpoint codec device/state count mismatch");
    }
    for (std::size_t i = 0; i < ck.sched.codec_devices.size(); ++i) {
      codec_for(ctx, ck.sched.codec_devices[i])
          .restore_mutable_state(ck.sched.codec_state[i]);
    }
    if (!ck.sched.shard_stats.empty()) {
      if (!ctx.shards) {
        throw std::invalid_argument(
            "RoundEngine: checkpoint has shard stats but sharding is "
            "disabled");
      }
      // Validates the count against options_.sharding.shards, so a resume
      // under a different shard count fails loudly instead of mis-merging.
      ctx.shards->restore_stats_words(ck.sched.shard_stats);
    }
    ctx.start_round = ck.iteration + 1;
  }

  if (options_.schedule.mode == RoundMode::kBufferedAsync) {
    run_buffered_async(ctx);
  } else {
    run_sync_rounds(ctx);
  }

  ctx.sim.total_rounds = ctx.cumulative_rounds;
  ctx.sim.final_params = std::move(ctx.global);
  ctx.sim.validation = ctx.validator.report();
  for (auto it = ctx.sim.history.rbegin(); it != ctx.sim.history.rend();
       ++it) {
    if (!std::isnan(it->accuracy)) {
      ctx.sim.final_accuracy = it->accuracy;
      break;
    }
  }
  ctx.sched.materializations = population_.materializations();
  ctx.sched.peak_resident_clients = population_.peak_resident();
  ctx.sched.evictions = population_.evictions();
  ctx.sched.steals = ctx.pool ? ctx.pool->steals() : 0;
  return {std::move(ctx.sim), ctx.sched};
}

std::vector<RoundEngine::Trained> RoundEngine::train_cohort(
    Ctx& ctx, const std::vector<std::uint64_t>& devices,
    const std::vector<std::uint64_t>& seqs, std::uint64_t round,
    std::size_t filter_iteration, float lr) {
  std::vector<Trained> out(devices.size());
  if (devices.empty()) return out;

  core::FilterContext fctx;
  fctx.global_model = ctx.global;
  fctx.estimated_global_update = ctx.estimator.estimate();
  ctx.estimate_pack.assign(fctx.estimated_global_update);
  fctx.estimated_global_update_pack = &ctx.estimate_pack;
  fctx.iteration = filter_iteration;

  // Each job materializes its own client (Population runs the factory
  // outside its lock, so materializations overlap), trains, and parks the
  // client back in the warm pool under the device's invitation sequence.
  // Releases defer eviction to the trim barrier below, which evicts in
  // ascending (seq, device) order — invitation sequences increase in
  // device order within a round, so the warm pool after the phase is the
  // one the serial walk would have left, regardless of which thread ran
  // what.  Peak resident client state is therefore bounded by the cohort
  // size plus the warm pool, never the population.
  const auto train_one = [&](std::size_t i) {
    Trained& r = out[i];
    r.device = devices[i];
    r.latency = population_.draw_latency(r.device, seqs[i]);
    r.dropped = population_.drops_mid_round(r.device, round);
    fl::FlClient& c = population_.acquire(devices[i]);
    c.set_params(ctx.global);
    r.train_loss =
        c.train_local(options_.local_epochs, options_.batch_size, lr);
    r.local_samples = c.local_samples();
    r.update.resize(dim_);
    c.get_params(r.update);
    // u = trained local params − broadcast global params.
    for (std::size_t j = 0; j < dim_; ++j) r.update[j] -= ctx.global[j];
    r.decision = filter_->decide(r.update, fctx);
    population_.release(devices[i], seqs[i]);
    // An accepted report crosses the wire here, in the device's own job:
    // committed and straggling ones alike (the device cannot know the
    // round's outcome), never a dropout's.  Only uploads forced by
    // min_uploads are encoded later, on the engine thread.
    if (!r.dropped && r.decision.upload) {
      r.wire_bytes = encode_upload(ctx, r.device, r.update);
    }
  };
  if (ctx.pool && devices.size() > 1) {
    ctx.pool->run(devices.size(), train_one);
  } else {
    for (std::size_t i = 0; i < devices.size(); ++i) train_one(i);
  }
  population_.trim_warm();
  return out;
}

void RoundEngine::commit_uploads(Ctx& ctx,
                                 const std::vector<std::size_t>& devices,
                                 const std::vector<std::span<const float>>&
                                     views,
                                 const std::vector<double>& raw_weights,
                                 bool staleness_weighted,
                                 fl::IterationRecord& rec) {
  // Sharded path: the per-upload structural scalars (finiteness, and the
  // exact L2 norm when screening or the clipped rule reads it) are computed
  // concurrently on the shard workers and collected in index order, so
  // screening sees exactly what the serial scan produces.
  std::vector<fl::UpdateValidator::UploadScalars> pre;
  if (ctx.shards) {
    const bool with_norm = fl::reads_upload_norms(ctx.validator.policy(),
                                                  options_.aggregation);
    ctx.shards->begin_batch(views.size());
    for (std::size_t i = 0; i < views.size(); ++i) {
      ctx.shards->submit_update(
          i, views[i], nullptr,
          static_cast<std::uint64_t>(views[i].size() * sizeof(float)),
          with_norm);
    }
    std::vector<fl::ShardedAggregator::UploadResult> results =
        ctx.shards->collect(views.size());
    pre.reserve(results.size());
    for (fl::ShardedAggregator::UploadResult& r : results) {
      if (r.error) std::rethrow_exception(r.error);
      pre.push_back(r.scalars);
    }
  }
  const std::vector<fl::Verdict> verdicts =
      ctx.shards ? ctx.validator.screen_round(devices, pre)
                 : ctx.validator.screen_round(devices, views);
  std::vector<std::size_t> accepted;
  accepted.reserve(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    if (verdicts[i] == fl::Verdict::kAccept) {
      accepted.push_back(i);
    } else {
      ++rec.rejected;
    }
  }
  if (accepted.empty()) return;

  fl::Aggregation rule = options_.aggregation;
  const bool weighted =
      rule == fl::Aggregation::kSampleWeighted ||
      (staleness_weighted && rule == fl::Aggregation::kUniformMean);
  std::vector<float> weights;
  if (weighted) {
    if (raw_weights.size() != views.size()) {
      throw std::logic_error("RoundEngine: missing per-upload weights");
    }
    rule = fl::Aggregation::kSampleWeighted;
    double total = 0.0;
    for (std::size_t i : accepted) total += raw_weights[i];
    weights.reserve(accepted.size());
    for (std::size_t i : accepted) {
      weights.push_back(static_cast<float>(raw_weights[i] / total));
    }
  }
  std::vector<std::span<const float>> accepted_views;
  accepted_views.reserve(accepted.size());
  for (std::size_t i : accepted) accepted_views.push_back(views[i]);

  std::vector<float> global_update(dim_);
  if (ctx.shards) {
    // The clipped rule's cross-upload plan reuses the scalar-pass norms
    // (same serial accumulation — bit-identical to recomputing them).
    std::vector<double> norms;
    if (rule == fl::Aggregation::kNormClippedMean) {
      norms.reserve(accepted.size());
      for (std::size_t i : accepted) norms.push_back(pre[i].norm);
    }
    ctx.shards->aggregate(rule, accepted_views, weights,
                          options_.robust_aggregation, norms, global_update);
  } else {
    fl::aggregate_updates(rule, accepted_views, weights,
                          options_.robust_aggregation, global_update);
  }
  tensor::add(ctx.global, global_update, ctx.global);
  if (!ctx.prev_global_update.empty()) {
    rec.delta_update = core::normalized_update_difference(
        ctx.prev_global_update, global_update);
  }
  ctx.estimator.observe(global_update);
  ctx.prev_global_update = std::move(global_update);
}

fl::TrainerCheckpoint RoundEngine::snapshot(Ctx& ctx,
                                            std::uint64_t iteration) {
  fl::TrainerCheckpoint ck;
  ck.iteration = iteration;
  ck.global_params = ctx.global;
  const std::span<const float> est = ctx.estimator.estimate();
  ck.estimator_estimate.assign(est.begin(), est.end());
  ck.estimator_observed = ctx.estimator.has_observation();
  ck.prev_global_update = ctx.prev_global_update;
  ck.cumulative_rounds = ctx.cumulative_rounds;
  ck.uploaded_bytes = ctx.sim.uploaded_bytes;
  ck.history = ctx.sim.history;
  ck.eliminations_per_client.assign(ctx.sim.eliminations_per_client.begin(),
                                    ctx.sim.eliminations_per_client.end());
  ck.uploads_per_client.assign(ctx.sim.uploads_per_client.begin(),
                               ctx.sim.uploads_per_client.end());
  ck.validation = ctx.validator.report();

  fl::SchedulerCheckpoint& s = ck.sched;
  s.engaged = 1;
  s.version = ctx.version;
  s.virtual_now = ctx.virtual_now;
  s.invite_counter = ctx.invite_counter;
  s.engine_rng = util::rng_state_words(ctx.engine_rng);
  s.in_flight = ctx.heap;
  s.population_state = population_.state_words();
  s.invited = ctx.sched.invited;
  s.reported = ctx.sched.reported;
  s.unavailable_invited = ctx.sched.unavailable_invited;
  s.mid_round_dropouts = ctx.sched.mid_round_dropouts;
  s.discarded_stragglers = ctx.sched.discarded_stragglers;
  s.stale_discarded = ctx.sched.stale_discarded;
  for (const auto& [device, codec] : ctx.codecs) {  // map: sorted by device
    s.codec_devices.push_back(device);
    s.codec_state.push_back(codec->mutable_state());
  }
  // Shard counters are deterministic (index-mod-S routing), so a resumed
  // run reports the same ingest totals as an uninterrupted one.
  if (ctx.shards) s.shard_stats = ctx.shards->stats_words();
  return ck;
}

void RoundEngine::run_sync_rounds(Ctx& ctx) {
  const ScheduleOptions& sch = options_.schedule;
  const bool over_select = sch.mode == RoundMode::kOverSelect;
  const auto quarantined = [&](std::uint64_t id) {
    return ctx.validator.quarantined(static_cast<std::size_t>(id));
  };

  for (std::uint64_t t = ctx.start_round; t <= options_.max_iterations; ++t) {
    const auto lr = static_cast<float>(options_.learning_rate.at(t));

    // --- Invitations: draw this round's cohort from the population ---
    std::vector<std::uint64_t> invited;
    if (sch.sample_size == 0) {
      // Full participation (kSync): enumerate, skipping the quarantined.
      invited.reserve(static_cast<std::size_t>(population_.size()));
      for (std::uint64_t id = 0; id < population_.size(); ++id) {
        if (!quarantined(id)) invited.push_back(id);
      }
    } else {
      invited = population_.sample(t, sch.sample_size, sch.selection,
                                   ctx.engine_rng, quarantined);
    }

    // kUniform selection may waste invitations on offline devices; the
    // availability-aware policy never does (nor does it waste the seq —
    // but the counter advances either way so both policies stay seeded
    // identically per invitation).
    std::vector<std::uint64_t> active;
    std::vector<std::uint64_t> seqs;
    active.reserve(invited.size());
    seqs.reserve(invited.size());
    for (const std::uint64_t id : invited) {
      ++ctx.sched.invited;
      const std::uint64_t seq = ctx.invite_counter++;
      if (!population_.available(id, t)) {
        ++ctx.sched.unavailable_invited;
        continue;  // never trains, never reports
      }
      active.push_back(id);
      seqs.push_back(seq);
    }

    std::vector<Trained> trained = train_cohort(ctx, active, seqs, t, t, lr);

    // Mid-round dropouts spent the energy (their RNG streams advanced)
    // but their report never reaches the server.
    std::vector<Trained*> reports;
    reports.reserve(trained.size());
    for (Trained& r : trained) {
      if (r.dropped) {
        ++ctx.sched.mid_round_dropouts;
        continue;
      }
      reports.push_back(&r);
    }

    if (over_select) {
      // Commit on the first K reporters in virtual-arrival order,
      // optionally bounded by the round deadline; the rest are stragglers.
      std::sort(reports.begin(), reports.end(),
                [](const Trained* a, const Trained* b) {
                  if (a->latency != b->latency) return a->latency < b->latency;
                  return a->device < b->device;
                });
      std::size_t in_time = reports.size();
      if (sch.round_deadline_s > 0.0) {
        in_time = 0;
        while (in_time < reports.size() &&
               reports[in_time]->latency <= sch.round_deadline_s) {
          ++in_time;
        }
      }
      const std::size_t keep =
          std::min(in_time, sch.resolved_target_reports());
      // A straggler's upload still crossed the uplink — the device cannot
      // know the round already committed — so its bytes are real cost (its
      // codec state advanced in train_cohort) even though its update never
      // reaches the aggregator.
      for (std::size_t i = keep; i < reports.size(); ++i) {
        ++ctx.sched.discarded_stragglers;
        if (reports[i]->decision.upload) {
          ++ctx.sim.uploads_per_client[reports[i]->device];
          ctx.sim.uploaded_bytes += reports[i]->wire_bytes;
        }
      }
      reports.resize(keep);
      // The server processes the committed batch in device order — the
      // same deterministic order the synchronous path uses.
      std::sort(reports.begin(), reports.end(),
                [](const Trained* a, const Trained* b) {
                  return a->device < b->device;
                });
    }

    fl::IterationRecord rec;
    rec.iteration = static_cast<std::size_t>(t);
    rec.participants = reports.size();
    ctx.sched.reported += reports.size();

    // --- Collect relevant updates S_t over the committed reports ---
    std::vector<Trained*> uploads;
    uploads.reserve(reports.size());
    for (Trained* r : reports) {
      if (r->decision.upload) {
        uploads.push_back(r);
      } else {
        ++ctx.sim.eliminations_per_client[r->device];
      }
    }
    if (uploads.empty() && options_.min_uploads > 0 && !reports.empty()) {
      std::vector<Trained*> order = reports;
      std::sort(order.begin(), order.end(),
                [](const Trained* a, const Trained* b) {
                  return a->decision.score > b->decision.score;
                });
      const std::size_t forced = std::min(options_.min_uploads, order.size());
      for (std::size_t i = 0; i < forced; ++i) {
        uploads.push_back(order[i]);
        --ctx.sim.eliminations_per_client[order[i]->device];
        // The filter eliminated this report, so train_cohort did not encode
        // it: the forced upload crosses the wire here, on the engine thread.
        order[i]->wire_bytes =
            encode_upload(ctx, order[i]->device, order[i]->update);
      }
    }

    rec.uploads = uploads.size();
    ctx.cumulative_rounds += uploads.size();
    rec.cumulative_rounds = ctx.cumulative_rounds;
    if (!reports.empty()) {
      double score_sum = 0.0;
      double loss_sum = 0.0;
      for (const Trained* r : reports) {
        score_sum += r->decision.score;
        loss_sum += r->train_loss;
      }
      rec.mean_score = score_sum / static_cast<double>(reports.size());
      rec.mean_train_loss = loss_sum / static_cast<double>(reports.size());
    }

    // --- GlobalOptimization over the committed uploads ---
    // Every upload is already encoded; the aggregator sees the decoded
    // reconstructions.
    for (Trained* r : uploads) {
      ++ctx.sim.uploads_per_client[r->device];
      ctx.sim.uploaded_bytes += r->wire_bytes;
    }
    if (!uploads.empty()) {
      std::vector<std::size_t> devices;
      std::vector<std::span<const float>> views;
      std::vector<double> raw_weights;
      devices.reserve(uploads.size());
      views.reserve(uploads.size());
      for (const Trained* r : uploads) {
        devices.push_back(static_cast<std::size_t>(r->device));
        views.emplace_back(r->update);
      }
      if (options_.aggregation == fl::Aggregation::kSampleWeighted) {
        raw_weights.reserve(uploads.size());
        for (const Trained* r : uploads) {
          raw_weights.push_back(static_cast<double>(r->local_samples));
        }
      }
      commit_uploads(ctx, devices, views, raw_weights,
                     /*staleness_weighted=*/false, rec);
    }
    rec.cumulative_upload_bytes = ctx.sim.uploaded_bytes;

    // --- Periodic evaluation and checkpointing ---
    const bool last = t == options_.max_iterations;
    bool stop_at_target = false;
    if (options_.eval_every > 0 &&
        (t % options_.eval_every == 0 || last)) {
      const nn::EvalResult eval = evaluator_(ctx.global);
      rec.accuracy = eval.accuracy;
      rec.loss = eval.loss;
      stop_at_target = options_.target_accuracy > 0.0 &&
                       std::isfinite(eval.loss) &&
                       eval.accuracy >= options_.target_accuracy;
    }
    ctx.sim.history.push_back(rec);

    if (options_.checkpoint_every > 0 && !options_.checkpoint_path.empty() &&
        (t % options_.checkpoint_every == 0 || last || stop_at_target)) {
      fl::save_checkpoint_file(options_.checkpoint_path, snapshot(ctx, t));
    }
    if (stop_at_target) break;
  }
}

void RoundEngine::run_buffered_async(Ctx& ctx) {
  const ScheduleOptions& sch = options_.schedule;

  // Per-aggregation accumulators.  All zero whenever a checkpoint is
  // written: snapshots happen only immediately after an aggregation, so
  // none of this transient state needs to live in the checkpoint.
  std::vector<fl::SchedInFlightReport> buffer;
  std::size_t arrivals = 0;         // reports since the last aggregation
  std::size_t uploads_arrived = 0;  // including stale-discarded ones
  double score_sum = 0.0;
  double loss_sum = 0.0;

  // Invites + eagerly trains replacements until sample_size devices are in
  // flight (or the eligible population is exhausted).  Training happens at
  // invitation on the *current* (x, ū): the report carries the model
  // version it trained against — versioned-ū CMFL semantics — and its
  // relevance score is fixed then, exactly as a real device that computes
  // its check before a slow upload.
  const auto flush_invites = [&]() {
    std::unordered_set<std::uint64_t> wasted;  // offline picks this flush
    const auto lr =
        static_cast<float>(options_.learning_rate.at(ctx.version + 1));
    const auto excluded = [&](std::uint64_t id) {
      return ctx.in_flight.contains(id) || wasted.contains(id) ||
             ctx.validator.quarantined(static_cast<std::size_t>(id));
    };
    while (ctx.in_flight.size() < sch.sample_size) {
      const std::size_t need = sch.sample_size - ctx.in_flight.size();
      const std::vector<std::uint64_t> picked = population_.sample(
          ctx.version + 1, need, sch.selection, ctx.engine_rng, excluded);
      if (picked.empty()) return;  // eligible population exhausted
      std::vector<std::uint64_t> active;
      std::vector<std::uint64_t> seqs;
      active.reserve(picked.size());
      seqs.reserve(picked.size());
      for (const std::uint64_t id : picked) {
        ++ctx.sched.invited;
        const std::uint64_t seq = ctx.invite_counter++;
        if (!population_.available(id, ctx.version + 1)) {
          ++ctx.sched.unavailable_invited;
          wasted.insert(id);  // don't re-pick it within this flush
          continue;
        }
        active.push_back(id);
        seqs.push_back(seq);
      }
      std::vector<Trained> trained = train_cohort(
          ctx, active, seqs, ctx.version + 1, ctx.version + 1, lr);
      for (Trained& r : trained) {
        fl::SchedInFlightReport f;
        f.device = r.device;
        f.version = ctx.version;
        f.arrival = ctx.virtual_now + r.latency;
        f.score = r.decision.score;
        f.train_loss = r.train_loss;
        f.local_samples = r.local_samples;
        if (r.dropped) {
          f.kind = kKindDropout;
        } else if (r.decision.upload) {
          f.kind = kKindUpload;
          // Encoded when the report entered flight, in train_cohort (the
          // device transmits as soon as it finishes): the codec state
          // advanced exactly once per upload, the in-flight report carries
          // the decoded reconstruction plus its real wire size, and a
          // checkpoint taken while the report is airborne resumes without
          // re-encoding.
          f.wire_bytes = r.wire_bytes;
          f.update = std::move(r.update);
        } else {
          f.kind = kKindElimination;
        }
        ctx.in_flight.insert(f.device);
        ctx.heap.push_back(std::move(f));
        std::push_heap(ctx.heap.begin(), ctx.heap.end(), heap_later);
      }
    }
  };

  // Checkpoints are written *before* the post-aggregation invite flush, so
  // a fresh run and a resumed one start identically: both flush here with
  // the same RNG, clock and population state.  (Snapshotting after the
  // flush would make a run killed at its final iteration — which never
  // flushes — write a different checkpoint than the uninterrupted run's
  // mid-run one, breaking the bit-identity invariant.)
  flush_invites();

  while (ctx.version < options_.max_iterations && !ctx.heap.empty()) {
    std::pop_heap(ctx.heap.begin(), ctx.heap.end(), heap_later);
    fl::SchedInFlightReport e = std::move(ctx.heap.back());
    ctx.heap.pop_back();
    ctx.virtual_now = e.arrival;
    ctx.in_flight.erase(e.device);

    switch (e.kind) {
      case kKindDropout:
        ++ctx.sched.mid_round_dropouts;
        break;
      case kKindElimination:
        ++ctx.sched.reported;
        ++ctx.sim.eliminations_per_client[static_cast<std::size_t>(e.device)];
        ++arrivals;
        score_sum += e.score;
        loss_sum += e.train_loss;
        break;
      case kKindUpload: {
        ++ctx.sched.reported;
        ++arrivals;
        score_sum += e.score;
        loss_sum += e.train_loss;
        ++uploads_arrived;
        ++ctx.sim.uploads_per_client[static_cast<std::size_t>(e.device)];
        ctx.sim.uploaded_bytes += e.wire_bytes;
        const std::uint64_t staleness = ctx.version - e.version;
        if (sch.max_staleness > 0 && staleness > sch.max_staleness) {
          ++ctx.sched.stale_discarded;  // arrived too late to be useful
        } else {
          buffer.push_back(std::move(e));
        }
        break;
      }
      default:
        throw std::logic_error("RoundEngine: unknown in-flight report kind");
    }

    if (buffer.size() >= sch.async_buffer) {
      // --- One buffered-async "round": aggregate, advance the version ---
      ++ctx.version;
      const std::uint64_t v = ctx.version;
      fl::IterationRecord rec;
      rec.iteration = static_cast<std::size_t>(v);
      rec.uploads = uploads_arrived;
      rec.participants = arrivals;
      ctx.cumulative_rounds += uploads_arrived;
      rec.cumulative_rounds = ctx.cumulative_rounds;
      if (arrivals > 0) {
        rec.mean_score = score_sum / static_cast<double>(arrivals);
        rec.mean_train_loss = loss_sum / static_cast<double>(arrivals);
      }

      std::vector<std::size_t> devices;
      std::vector<std::span<const float>> views;
      std::vector<double> raw_weights;
      devices.reserve(buffer.size());
      views.reserve(buffer.size());
      raw_weights.reserve(buffer.size());
      double stale_sum = 0.0;
      std::size_t stale_max = 0;
      for (const fl::SchedInFlightReport& f : buffer) {
        devices.push_back(static_cast<std::size_t>(f.device));
        views.emplace_back(f.update);
        const std::uint64_t s = (v - 1) - f.version;
        stale_sum += static_cast<double>(s);
        stale_max = std::max(stale_max, static_cast<std::size_t>(s));
        double w = std::pow(1.0 + static_cast<double>(s),
                            -sch.staleness_exponent);
        if (options_.aggregation == fl::Aggregation::kSampleWeighted) {
          w *= static_cast<double>(f.local_samples);
        }
        raw_weights.push_back(w);
      }
      rec.staleness_mean = stale_sum / static_cast<double>(buffer.size());
      rec.staleness_max = stale_max;
      commit_uploads(ctx, devices, views, raw_weights,
                     /*staleness_weighted=*/true, rec);
      rec.cumulative_upload_bytes = ctx.sim.uploaded_bytes;

      buffer.clear();
      arrivals = 0;
      uploads_arrived = 0;
      score_sum = 0.0;
      loss_sum = 0.0;

      const bool last = v == options_.max_iterations;
      bool stop_at_target = false;
      if (options_.eval_every > 0 &&
          (v % options_.eval_every == 0 || last)) {
        const nn::EvalResult eval = evaluator_(ctx.global);
        rec.accuracy = eval.accuracy;
        rec.loss = eval.loss;
        stop_at_target = options_.target_accuracy > 0.0 &&
                         std::isfinite(eval.loss) &&
                         eval.accuracy >= options_.target_accuracy;
      }
      ctx.sim.history.push_back(rec);

      if (options_.checkpoint_every > 0 &&
          !options_.checkpoint_path.empty() &&
          (v % options_.checkpoint_every == 0 || last || stop_at_target)) {
        fl::save_checkpoint_file(options_.checkpoint_path, snapshot(ctx, v));
      }
      if (stop_at_target) break;
      if (!last) flush_invites();
    } else if (ctx.heap.empty()) {
      // The cohort drained without filling the buffer (eliminations or
      // dropouts all round) — replace it so progress continues.
      flush_invites();
    }
  }
}

}  // namespace cmfl::sched
