#include "fl/simulation.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "codec/codec.h"
#include "fl/checkpoint.h"
#include "tensor/kernels.h"
#include "tensor/vector_ops.h"

namespace cmfl::fl {

std::optional<std::size_t> SimulationResult::rounds_to_accuracy(
    double a) const {
  for (const auto& rec : history) {
    if (rec.evaluated() && rec.accuracy >= a) return rec.cumulative_rounds;
  }
  return std::nullopt;
}

std::optional<std::size_t> SimulationResult::iterations_to_accuracy(
    double a) const {
  for (const auto& rec : history) {
    if (rec.evaluated() && rec.accuracy >= a) return rec.iteration;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> SimulationResult::bytes_to_accuracy(
    double a) const {
  for (const auto& rec : history) {
    if (rec.evaluated() && rec.accuracy >= a) {
      return rec.cumulative_upload_bytes;
    }
  }
  return std::nullopt;
}

FederatedSimulation::FederatedSimulation(
    std::vector<std::unique_ptr<FlClient>> clients,
    std::unique_ptr<core::UpdateFilter> filter, GlobalEvaluator evaluator,
    const SimulationOptions& options)
    : clients_(std::move(clients)),
      filter_(std::move(filter)),
      evaluator_(std::move(evaluator)),
      options_(options) {
  if (clients_.empty()) {
    throw std::invalid_argument("FederatedSimulation: no clients");
  }
  if (!filter_) {
    throw std::invalid_argument("FederatedSimulation: null filter");
  }
  if (!evaluator_) {
    throw std::invalid_argument("FederatedSimulation: null evaluator");
  }
  if (options_.max_iterations == 0) {
    throw std::invalid_argument(
        "FederatedSimulation: max_iterations must be positive");
  }
  options_.schedule.validate();
  // Validate the codec spec eagerly: a typo must fail at construction, not
  // miles into a run on the first upload.
  codec::make_update_codec(options_.codec.spec, options_.codec.seed_salt);
  if (options_.schedule.mode != sched::RoundMode::kSync) {
    throw std::invalid_argument(
        "FederatedSimulation: only schedule.mode == kSync runs in-process; "
        "over-selection and buffered-async rounds need sched::RoundEngine");
  }
  dim_ = clients_.front()->param_count();
  for (const auto& c : clients_) {
    if (c->param_count() != dim_) {
      throw std::invalid_argument(
          "FederatedSimulation: clients disagree on parameter count");
    }
  }
}

SimulationResult FederatedSimulation::run() { return run_internal(nullptr); }

SimulationResult FederatedSimulation::resume(
    const TrainerCheckpoint& checkpoint) {
  return run_internal(&checkpoint);
}

SimulationResult FederatedSimulation::run_internal(
    const TrainerCheckpoint* resume_from) {
  const std::size_t num_clients = clients_.size();
  std::vector<float> global(dim_);
  clients_.front()->get_params(global);

  core::GlobalUpdateEstimator estimator(dim_, options_.estimator_ema);
  UpdateValidator validator(num_clients, options_.validation);
  SimulationResult result;
  result.eliminations_per_client.assign(num_clients, 0);
  result.uploads_per_client.assign(num_clients, 0);
  result.history.reserve(options_.max_iterations);

  // Per-client scratch buffers reused across iterations.  Update buffers
  // are sized lazily on a client's first participation, so a mostly-idle
  // population (small sample_size / participation) costs memory only for
  // the clients that actually train.
  std::vector<std::vector<float>> updates(num_clients);
  std::vector<core::FilterDecision> decisions(num_clients);
  std::vector<double> train_losses(num_clients, 0.0);

  std::unique_ptr<util::ThreadPool> pool;
  if (options_.parallel && num_clients > 1) {
    pool = util::make_caller_assisted_pool();
  }

  // Per-client codecs (stateful: RNG streams, error-feedback residuals,
  // codebook caches), materialized on first upload.  Construction draws
  // nothing from any stream, so lazy materialization is bit-identical to
  // eager.
  std::vector<std::unique_ptr<codec::UpdateCodec>> codecs(num_clients);
  const auto codec_for = [&](std::size_t k) -> codec::UpdateCodec& {
    if (!codecs[k]) {
      codecs[k] = codec::make_update_codec(options_.codec.spec,
                                           options_.codec.seed_salt + k);
    }
    return *codecs[k];
  };

  std::vector<float> prev_global_update;
  std::size_t cumulative_rounds = 0;
  util::Rng server_rng(options_.seed);
  if (options_.participation <= 0.0 || options_.participation > 1.0) {
    throw std::invalid_argument(
        "FederatedSimulation: participation must be in (0, 1]");
  }

  std::size_t start_t = 1;
  if (resume_from != nullptr) {
    const TrainerCheckpoint& ck = *resume_from;
    if (ck.global_params.size() != dim_) {
      throw std::invalid_argument(
          "FederatedSimulation: checkpoint parameter dimension mismatch");
    }
    if (ck.client_state.size() != num_clients ||
        ck.compressor_state.size() != num_clients ||
        ck.eliminations_per_client.size() != num_clients ||
        ck.uploads_per_client.size() != num_clients) {
      throw std::invalid_argument(
          "FederatedSimulation: checkpoint client count mismatch");
    }
    global = ck.global_params;
    estimator.restore(ck.estimator_estimate, ck.estimator_observed);
    validator.restore(ck.validation);
    prev_global_update = ck.prev_global_update;
    cumulative_rounds = static_cast<std::size_t>(ck.cumulative_rounds);
    result.uploaded_bytes = ck.uploaded_bytes;
    result.history = ck.history;
    for (std::size_t k = 0; k < num_clients; ++k) {
      result.eliminations_per_client[k] =
          static_cast<std::size_t>(ck.eliminations_per_client[k]);
      result.uploads_per_client[k] =
          static_cast<std::size_t>(ck.uploads_per_client[k]);
      clients_[k]->restore_mutable_state(ck.client_state[k]);
      codec_for(k).restore_mutable_state(ck.compressor_state[k]);
    }
    util::restore_rng_state(server_rng, ck.server_rng);
    start_t = static_cast<std::size_t>(ck.iteration) + 1;
  }

  // Captures every piece of state the loop mutates, so a resumed run
  // replays the remaining iterations bit-identically.
  const auto snapshot = [&](std::size_t t) {
    TrainerCheckpoint ck;
    ck.iteration = t;
    ck.global_params = global;
    const std::span<const float> est = estimator.estimate();
    ck.estimator_estimate.assign(est.begin(), est.end());
    ck.estimator_observed = estimator.has_observation();
    ck.prev_global_update = prev_global_update;
    ck.cumulative_rounds = cumulative_rounds;
    ck.uploaded_bytes = result.uploaded_bytes;
    ck.history = result.history;
    ck.eliminations_per_client.assign(result.eliminations_per_client.begin(),
                                      result.eliminations_per_client.end());
    ck.uploads_per_client.assign(result.uploads_per_client.begin(),
                                 result.uploads_per_client.end());
    ck.server_rng = util::rng_state_words(server_rng);
    ck.validation = validator.report();
    ck.client_state.reserve(num_clients);
    ck.compressor_state.reserve(num_clients);
    for (std::size_t k = 0; k < num_clients; ++k) {
      ck.client_state.push_back(clients_[k]->mutable_state());
      ck.compressor_state.push_back(codec_for(k).mutable_state());
    }
    return ck;
  };

  // Bit-packed signs of ū, rebuilt once per broadcast and shared read-only
  // by every client's relevance check (tensor::SignPack in kernels.h).
  tensor::SignPack estimate_pack;

  for (std::size_t t = start_t; t <= options_.max_iterations; ++t) {
    const auto lr = static_cast<float>(options_.learning_rate.at(t));
    core::FilterContext ctx;
    ctx.global_model = global;
    ctx.estimated_global_update = estimator.estimate();
    estimate_pack.assign(ctx.estimated_global_update);
    ctx.estimated_global_update_pack = &estimate_pack;
    ctx.iteration = t;

    // --- Client sampling (FedAvg's C; 1.0 = the paper's full sync) ---
    // Quarantined clients are excluded before sampling: the server no
    // longer broadcasts to or trains them.
    std::vector<std::size_t> participants;
    participants.reserve(num_clients);
    for (std::size_t k = 0; k < num_clients; ++k) {
      if (!validator.quarantined(k)) participants.push_back(k);
    }
    if (participants.empty()) break;  // every client quarantined
    if (options_.schedule.sample_size > 0) {
      // Absolute per-round cohort size (sched::ScheduleOptions).
      if (options_.schedule.sample_size < participants.size()) {
        server_rng.shuffle(participants);
        participants.resize(options_.schedule.sample_size);
        std::sort(participants.begin(), participants.end());
      }
    } else if (options_.participation < 1.0) {
      server_rng.shuffle(participants);
      const auto count = std::max<std::size_t>(
          1, static_cast<std::size_t>(options_.participation *
                                      static_cast<double>(num_clients)));
      participants.resize(std::min(count, participants.size()));
      std::sort(participants.begin(), participants.end());
    }

    // --- LocalUpdate on every participating client (Alg. 1, 10-16) ---
    // Only the sampled participants touch their model or data: an
    // unsampled client runs no local training, is never asked for a filter
    // decision, and its scratch buffer is never even allocated (see the
    // per-client step-counter regression test in test_fl_simulation.cpp).
    auto train_one = [&](std::size_t p) {
      const std::size_t k = participants[p];
      updates[k].resize(dim_);
      clients_[k]->set_params(global);
      train_losses[k] = clients_[k]->train_local(
          options_.local_epochs, options_.batch_size, lr);
      auto& u = updates[k];
      clients_[k]->get_params(u);
      // u_{k,t} = trained local params − broadcast global params.
      for (std::size_t i = 0; i < dim_; ++i) u[i] -= global[i];
      decisions[k] = filter_->decide(u, ctx);
    };
    if (pool) {
      pool->parallel_for(participants.size(), train_one);
    } else {
      for (std::size_t p = 0; p < participants.size(); ++p) train_one(p);
    }

    // Snapshot the clients' local models while `global` is still x_{t-1}
    // (the local model is x_{t-1} + u_{k,t}).  Overwritten every iteration
    // so the result holds the final round's snapshot.
    if (options_.capture_client_params && participants.size() == num_clients) {
      result.client_params.resize(num_clients);
      for (std::size_t k = 0; k < num_clients; ++k) {
        result.client_params[k].resize(dim_);
        tensor::add(global, updates[k], result.client_params[k]);
      }
    }

    // --- Collect relevant updates S_t ---
    std::vector<std::size_t> uploaded;
    for (std::size_t k : participants) {
      if (decisions[k].upload) {
        uploaded.push_back(k);
      } else {
        ++result.eliminations_per_client[k];
      }
    }
    if (uploaded.empty() && options_.min_uploads > 0) {
      // Force the highest-scoring participants to upload so the round is
      // not wasted entirely; their eliminations are rolled back.
      std::vector<std::size_t> order = participants;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return decisions[a].score > decisions[b].score;
      });
      const std::size_t forced =
          std::min(options_.min_uploads, order.size());
      for (std::size_t i = 0; i < forced; ++i) {
        uploaded.push_back(order[i]);
        --result.eliminations_per_client[order[i]];
      }
    }

    IterationRecord rec;
    rec.iteration = t;
    rec.uploads = uploaded.size();
    rec.participants = participants.size();
    cumulative_rounds += uploaded.size();
    rec.cumulative_rounds = cumulative_rounds;
    double score_sum = 0.0;
    for (std::size_t k : participants) score_sum += decisions[k].score;
    rec.mean_score = score_sum / static_cast<double>(participants.size());
    double loss_sum = 0.0;
    for (std::size_t k : participants) loss_sum += train_losses[k];
    rec.mean_train_loss =
        loss_sum / static_cast<double>(participants.size());

    // --- GlobalOptimization (Algorithm 1, lines 7-9) ---
    for (std::size_t k : uploaded) ++result.uploads_per_client[k];
    if (!uploaded.empty()) {
      // Encode exactly what crosses the wire; the server aggregates the
      // reconstructions.
      for (std::size_t k : uploaded) {
        codec::UpdateCodec& codec = codec_for(k);
        const codec::EncodedUpdate enc = codec.encode(updates[k]);
        result.uploaded_bytes += enc.wire_bytes();
        codec.decode_into(enc.payload, updates[k]);
      }
      // Server-side validation screens what was *received* — the decoded
      // reconstruction, which is exactly what would reach the model.
      std::vector<std::span<const float>> received;
      received.reserve(uploaded.size());
      for (std::size_t k : uploaded) received.emplace_back(updates[k]);
      const std::vector<Verdict> verdicts =
          validator.screen_round(uploaded, received);
      std::vector<std::size_t> accepted;
      accepted.reserve(uploaded.size());
      for (std::size_t i = 0; i < uploaded.size(); ++i) {
        if (verdicts[i] == Verdict::kAccept) {
          accepted.push_back(uploaded[i]);
        } else {
          ++rec.rejected;
        }
      }

      if (!accepted.empty()) {
        std::vector<float> global_update(dim_);
        std::vector<std::span<const float>> views;
        views.reserve(accepted.size());
        for (std::size_t k : accepted) views.emplace_back(updates[k]);
        std::vector<float> weights;
        if (options_.aggregation == Aggregation::kSampleWeighted) {
          double total_weight = 0.0;
          for (std::size_t k : accepted) {
            total_weight += static_cast<double>(clients_[k]->local_samples());
          }
          weights.reserve(accepted.size());
          for (std::size_t k : accepted) {
            weights.push_back(static_cast<float>(
                static_cast<double>(clients_[k]->local_samples()) /
                total_weight));
          }
        }
        aggregate_updates(options_.aggregation, views, weights,
                          options_.robust_aggregation, global_update);
        tensor::add(global, global_update, global);

        if (!prev_global_update.empty()) {
          rec.delta_update = core::normalized_update_difference(
              prev_global_update, global_update);
        }
        prev_global_update = global_update;
        estimator.observe(global_update);
      }
    }
    rec.cumulative_upload_bytes = result.uploaded_bytes;

    // --- Periodic evaluation ---
    const bool last_iteration = t == options_.max_iterations;
    bool stop_at_target = false;
    if (options_.eval_every > 0 &&
        (t % options_.eval_every == 0 || last_iteration)) {
      const nn::EvalResult eval = evaluator_(global);
      rec.accuracy = eval.accuracy;
      rec.loss = eval.loss;
      // A round with a non-finite loss never satisfies the target: the
      // model may be numerically diverged despite a plausible accuracy.
      stop_at_target = options_.target_accuracy > 0.0 &&
                       std::isfinite(eval.loss) &&
                       eval.accuracy >= options_.target_accuracy;
    }
    result.history.push_back(rec);

    if (options_.checkpoint_every > 0 && !options_.checkpoint_path.empty() &&
        (t % options_.checkpoint_every == 0 || last_iteration ||
         stop_at_target)) {
      save_checkpoint_file(options_.checkpoint_path, snapshot(t));
    }
    if (stop_at_target) break;
  }

  // Final bookkeeping.
  result.total_rounds = cumulative_rounds;
  result.final_params = std::move(global);
  result.validation = validator.report();
  for (auto it = result.history.rbegin(); it != result.history.rend(); ++it) {
    if (!std::isnan(it->accuracy)) {
      result.final_accuracy = it->accuracy;
      break;
    }
  }
  return result;
}

}  // namespace cmfl::fl
