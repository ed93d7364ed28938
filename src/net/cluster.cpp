#include "net/cluster.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "codec/codec.h"
#include "core/estimator.h"
#include "fl/checkpoint.h"
#include "fl/shard.h"
#include "net/raft.h"
#include "net/replicated_master.h"
#include "tensor/vector_ops.h"

namespace cmfl::net {

namespace {

using Clock = std::chrono::steady_clock;

/// One worker's endpoint: an inbox it reads and the shared master inbox it
/// writes, with byte meters on both directions.
struct WorkerEndpoint {
  Channel inbox;
};

Clock::duration seconds_to_duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// The fields common to all reply frame types.
struct ReplyView {
  std::uint64_t iteration = 0;
  std::uint32_t client_id = 0;
  double score = 0.0;
  const UpdateUploadMsg* upload = nullptr;       // dense uploads
  const CodecUploadMsg* codec_upload = nullptr;  // encoded uploads
};

/// One accepted upload: decoded update plus the wire size of the frame that
/// carried it (feeds the per-shard byte meters on the sharded path).
struct ReceivedUpload {
  std::uint32_t id = 0;
  std::vector<float> update;
  std::uint64_t frame_bytes = 0;
};

}  // namespace

FlCluster::FlCluster(std::vector<std::unique_ptr<fl::FlClient>> clients,
                     std::unique_ptr<core::UpdateFilter> filter,
                     fl::GlobalEvaluator evaluator,
                     const ClusterOptions& options)
    : clients_(std::move(clients)),
      filter_(std::move(filter)),
      evaluator_(std::move(evaluator)),
      options_(options) {
  if (clients_.empty()) throw std::invalid_argument("FlCluster: no clients");
  if (!filter_) throw std::invalid_argument("FlCluster: null filter");
  if (!evaluator_) throw std::invalid_argument("FlCluster: null evaluator");
  dim_ = clients_.front()->param_count();
  for (const auto& c : clients_) {
    if (c->param_count() != dim_) {
      throw std::invalid_argument(
          "FlCluster: clients disagree on parameter count");
    }
  }
  options_.fault.validate(clients_.size());
  const RecoveryOptions& rec = options_.recovery;
  if (rec.round_timeout_s < 0.0) {
    throw std::invalid_argument("FlCluster: negative round deadline");
  }
  if (rec.max_attempts < 1) {
    throw std::invalid_argument("FlCluster: max_attempts must be >= 1");
  }
  if (rec.backoff < 1.0) {
    throw std::invalid_argument("FlCluster: backoff must be >= 1");
  }
  if (!(rec.quorum > 0.0 && rec.quorum <= 1.0)) {
    throw std::invalid_argument("FlCluster: quorum must lie in (0, 1]");
  }
  if (rec.suspect_after_stale_rounds < 0) {
    throw std::invalid_argument(
        "FlCluster: suspect_after_stale_rounds must be >= 0");
  }
  if (rec.backoff_jitter < 0.0) {
    throw std::invalid_argument("FlCluster: backoff_jitter must be >= 0");
  }
  if (options_.fault.enabled() && rec.round_timeout_s <= 0.0) {
    throw std::invalid_argument(
        "FlCluster: fault injection requires a positive recovery "
        "round_timeout_s (a dropped frame would hang the round forever)");
  }
  // Validate the codec spec eagerly, before any thread exists.
  const auto codec_probe = codec::make_update_codec(
      options_.fl.codec.spec, options_.fl.codec.seed_salt);
  const ReplicationOptions& rep = options_.replication;
  if (rep.replicas > 0 && codec_probe->stateful_decode()) {
    throw std::invalid_argument(
        "FlCluster: replicated mode requires a stateless-decode codec — "
        "after a failover any replica must be able to decode any payload, "
        "which a decoder-side codebook cache cannot guarantee");
  }
  if (rep.replicas == 0) {
    if (!options_.fault.leader_crash.empty() ||
        !options_.fault.replica_restart.empty() ||
        !options_.fault.replica_partition.empty()) {
      throw std::invalid_argument(
          "FlCluster: leader-crash / restart / partition schedules need "
          "replication.replicas >= 3");
    }
    return;
  }
  if (rep.replicas < 3) {
    throw std::invalid_argument(
        "FlCluster: replication needs >= 3 replicas (a majority must "
        "survive one crash)");
  }
  if (rec.quorum != 1.0 || rec.first_k_reports != 0 ||
      rec.suspect_after_stale_rounds != 0) {
    throw std::invalid_argument(
        "FlCluster: replicated mode supports quorum 1.0 only (no "
        "first_k_reports / staleness suspicion): the committed cohort must "
        "be a pure function of replicated state");
  }
  if (options_.fl.sharding.enabled()) {
    throw std::invalid_argument(
        "FlCluster: sharded aggregation is not supported with a replicated "
        "control plane (the replicated master applies uploads through its "
        "Raft-ordered state machine)");
  }
  if (rep.tick_interval_s <= 0.0) {
    throw std::invalid_argument(
        "FlCluster: replication tick_interval_s must be positive");
  }
  RaftConfig raft_check;
  raft_check.cluster_size = static_cast<std::uint32_t>(rep.replicas);
  raft_check.heartbeat_ticks = rep.heartbeat_ticks;
  raft_check.election_timeout_min_ticks = rep.election_timeout_min_ticks;
  raft_check.election_timeout_max_ticks = rep.election_timeout_max_ticks;
  raft_check.validate();
  for (const auto& [r, _] : options_.fault.replica_partition) {
    if (r >= static_cast<std::uint32_t>(rep.replicas)) {
      throw std::invalid_argument(
          "FlCluster: replica_partition id out of range");
    }
  }
  if (options_.fault.leader_crash.size() >
      static_cast<std::size_t>(rep.replicas - 1) / 2) {
    throw std::invalid_argument(
        "FlCluster: leader_crash schedule may kill at most a minority of "
        "replicas (each entry fires once)");
  }
  if (!options_.fault.replica_restart.empty() && rep.storage_dir.empty()) {
    throw std::invalid_argument(
        "FlCluster: replica_restart schedules need "
        "replication.storage_dir (a restarted replica recovers from its "
        "durable Raft storage)");
  }
}

ClusterResult FlCluster::run() { return run_internal(nullptr); }

ClusterResult FlCluster::resume(const fl::TrainerCheckpoint& checkpoint) {
  return run_internal(&checkpoint);
}

ClusterResult FlCluster::run_internal(
    const fl::TrainerCheckpoint* resume_from) {
  if (options_.replication.replicas > 0) {
    return run_replicated_cluster(clients_, *filter_, evaluator_, options_,
                                  dim_, resume_from);
  }
  const std::size_t num_workers = clients_.size();
  std::vector<WorkerEndpoint> endpoints(num_workers);
  Channel master_inbox;
  ByteMeter uplink_meter;
  ByteMeter downlink_meter;
  // Sharded ingest pipeline (options.fl.sharding): the per-upload scalar
  // screening pass and the aggregation apply pass fan out across shard
  // worker threads, with one cache-line-aligned ByteMeter per shard
  // accounting the upload bytes that shard ingested.  Null/empty keeps the
  // single-master commit path.
  std::unique_ptr<fl::ShardedAggregator> shard_agg;
  std::vector<ByteMeter> shard_meters;
  if (options_.fl.sharding.enabled()) {
    shard_agg = std::make_unique<fl::ShardedAggregator>(dim_,
                                                        options_.fl.sharding);
    shard_meters = std::vector<ByteMeter>(options_.fl.sharding.shards);
  }
  FaultStats fault_stats;
  std::atomic<std::uint64_t> upload_frames{0};
  std::atomic<std::uint64_t> elimination_frames{0};
  // Receiver-side accounting on the worker threads.
  std::atomic<std::uint64_t> worker_corrupt_rejected{0};
  std::atomic<std::uint64_t> worker_redundant{0};
  std::atomic<std::uint64_t> worker_retransmits{0};

  const int local_epochs = options_.fl.local_epochs;
  const std::size_t batch_size = options_.fl.batch_size;

  ClusterResult result;
  result.sim.eliminations_per_client.assign(num_workers, 0);
  result.sim.uploads_per_client.assign(num_workers, 0);
  result.faults.max_staleness_per_client.assign(num_workers, 0);
  std::vector<float> global(dim_);
  clients_.front()->get_params(global);  // pre-thread-start? see note below
  // NOTE: clients_.front() is also owned by worker thread k=0, but workers
  // only touch clients after receiving a frame; reading initial params here
  // happens-before the first send.
  core::GlobalUpdateEstimator estimator(dim_, options_.fl.estimator_ema);
  fl::UpdateValidator validator(num_workers, options_.fl.validation);
  std::vector<float> prev_global_update;
  std::size_t cumulative_rounds = 0;
  std::vector<std::uint64_t> last_acked(num_workers, 0);
  // Consecutive *deadline-expired* rounds a worker was invited to but did
  // not answer.  Deliberately not `t - last_acked`: a worker that answers
  // slowly and keeps losing first_k_reports races is late, not crashed, so
  // K-committed rounds never count as misses (see RecoveryOptions).
  std::vector<std::uint64_t> stale_misses(num_workers, 0);
  std::size_t start_t = 1;

  // Immutable per-worker sample counts, snapshotted before the worker
  // threads take ownership of the clients (needed by kSampleWeighted).
  std::vector<std::size_t> local_samples(num_workers, 0);
  for (std::size_t k = 0; k < num_workers; ++k) {
    local_samples[k] = clients_[k]->local_samples();
  }

  // Per-worker codecs, shared between each worker thread (encode) and the
  // master (decode).  Safe without locks: a worker touches its codec only
  // between receiving a broadcast and sending its reply, and the master
  // decodes worker k's payload only after receiving that reply — the
  // channel provides the happens-before edge — while late/duplicate/stale
  // frames are discarded by the seq/iteration/pending checks *before* any
  // decode, so codec state advances exactly once per accepted upload.
  const bool use_codec = !codec::is_dense_spec(options_.fl.codec.spec);
  std::vector<std::unique_ptr<codec::UpdateCodec>> codecs;
  std::uint8_t codec_id = 0;       // negotiated at round start via the
  std::uint8_t codec_version = 1;  // broadcast's codec_id/codec_version
  if (use_codec) {
    codecs.reserve(num_workers);
    for (std::size_t k = 0; k < num_workers; ++k) {
      codecs.push_back(codec::make_update_codec(
          options_.fl.codec.spec, options_.fl.codec.seed_salt + k));
    }
    codec_id = codecs.front()->id();
    codec_version = codecs.front()->version();
  }

  // --- Resume: restore all mutable state before any worker thread starts
  // (no happens-before subtleties: the threads do not exist yet) ---
  if (resume_from != nullptr) {
    const fl::TrainerCheckpoint& ck = *resume_from;
    if (ck.global_params.size() != dim_) {
      throw std::invalid_argument(
          "FlCluster: checkpoint parameter dimension mismatch");
    }
    if (ck.client_state.size() != num_workers ||
        ck.eliminations_per_client.size() != num_workers ||
        ck.uploads_per_client.size() != num_workers) {
      throw std::invalid_argument(
          "FlCluster: checkpoint worker count mismatch");
    }
    global = ck.global_params;
    estimator.restore(ck.estimator_estimate, ck.estimator_observed);
    validator.restore(ck.validation);
    prev_global_update = ck.prev_global_update;
    cumulative_rounds = static_cast<std::size_t>(ck.cumulative_rounds);
    result.sim.history = ck.history;
    result.sim.uploaded_bytes = ck.uploaded_bytes;
    for (std::size_t k = 0; k < num_workers; ++k) {
      result.sim.eliminations_per_client[k] =
          static_cast<std::size_t>(ck.eliminations_per_client[k]);
      result.sim.uploads_per_client[k] =
          static_cast<std::size_t>(ck.uploads_per_client[k]);
      clients_[k]->restore_mutable_state(ck.client_state[k]);
      // A resumed worker has trivially "answered" every round up to the
      // checkpoint — without this, staleness suspicion would fire on the
      // first resumed rounds.
      last_acked[k] = ck.iteration;
    }
    if (use_codec) {
      if (ck.compressor_state.size() != num_workers) {
        throw std::invalid_argument(
            "FlCluster: checkpoint codec state count mismatch");
      }
      for (std::size_t k = 0; k < num_workers; ++k) {
        codecs[k]->restore_mutable_state(ck.compressor_state[k]);
      }
    }
    const fl::ClusterMeterState& m = ck.meters;
    uplink_meter.restore(m.uplink_bytes, m.uplink_messages,
                         m.uplink_retransmitted);
    downlink_meter.restore(m.downlink_bytes, m.downlink_messages,
                           m.downlink_retransmitted);
    upload_frames.store(m.upload_messages, std::memory_order_relaxed);
    elimination_frames.store(m.elimination_messages,
                             std::memory_order_relaxed);
    result.simulated_transfer_seconds = m.simulated_transfer_seconds;
    result.footprint.reserve(m.footprint.size());
    for (const auto& p : m.footprint) {
      result.footprint.push_back({static_cast<std::size_t>(p.iteration),
                                  p.accuracy, p.uplink_bytes});
    }
    start_t = static_cast<std::size_t>(ck.iteration) + 1;
  }

  // --- Worker threads: the "slaves" of the paper's implementation ---
  std::vector<std::thread> workers;
  workers.reserve(num_workers);
  for (std::size_t k = 0; k < num_workers; ++k) {
    workers.emplace_back([&, k] {
      fl::FlClient& client = *clients_[k];
      FaultyChannel uplink(master_inbox, options_.fault.uplink_for(k),
                           options_.fault.link_rng(k, /*is_uplink=*/true),
                           &fault_stats);
      const auto crash_at = options_.fault.crash_iteration_for(k);
      const double straggle_s = options_.fault.straggler_delay_for(k);
      std::vector<float> update(dim_);
      std::uint32_t last_seq = 0;  // broadcast seq numbers start at 1
      std::vector<std::byte> cached_reply;
      for (;;) {
        auto frame = endpoints[k].inbox.recv();
        if (!frame) return;
        const auto payload = try_open_frame(*frame);
        if (!payload) {
          // Corrupted in transit; the master's round deadline will expire
          // and the broadcast will be retransmitted.
          worker_corrupt_rejected.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        Message msg;
        try {
          msg = decode(*payload);
        } catch (const std::exception&) {
          worker_corrupt_rejected.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (std::holds_alternative<ShutdownMsg>(msg)) return;
        const auto& bc = std::get<BroadcastMsg>(msg);
        if (bc.global_params.size() != dim_) {
          throw std::runtime_error("worker: broadcast size mismatch");
        }
        if (bc.codec_id != codec_id || bc.codec_version != codec_version) {
          throw std::runtime_error("worker: codec negotiation mismatch");
        }
        if (bc.seq == last_seq && !cached_reply.empty()) {
          // Already-processed round, seen again: either the master did not
          // get our reply and retransmitted, or the network duplicated the
          // frame.  Re-send the cached reply instead of retraining — this
          // is what makes retransmission idempotent.
          worker_redundant.fetch_add(1, std::memory_order_relaxed);
          worker_retransmits.fetch_add(1, std::memory_order_relaxed);
          uplink_meter.record_retransmit(cached_reply.size());
          uplink.send(cached_reply);
          continue;
        }
        if (bc.seq < last_seq) {  // stale duplicate of an older round
          worker_redundant.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (crash_at && bc.iteration >= *crash_at) return;  // crash-stop
        if (straggle_s > 0.0) {
          std::this_thread::sleep_for(seconds_to_duration(straggle_s));
        }

        client.set_params(bc.global_params);
        client.train_local(local_epochs, batch_size, bc.learning_rate);
        client.get_params(update);
        for (std::size_t i = 0; i < dim_; ++i) {
          update[i] -= bc.global_params[i];
        }

        core::FilterContext ctx;
        ctx.global_model = bc.global_params;
        ctx.estimated_global_update = bc.global_update;
        ctx.iteration = bc.iteration;
        const core::FilterDecision decision = filter_->decide(update, ctx);

        Message reply;
        if (decision.upload) {
          if (use_codec) {
            CodecUploadMsg up;
            up.seq = bc.seq;
            up.iteration = bc.iteration;
            up.client_id = static_cast<std::uint32_t>(k);
            up.score = decision.score;
            up.codec_id = codec_id;
            up.codec_version = codec_version;
            up.payload = codecs[k]->encode(update).payload;
            reply = std::move(up);
          } else {
            UpdateUploadMsg up;
            up.seq = bc.seq;
            up.iteration = bc.iteration;
            up.client_id = static_cast<std::uint32_t>(k);
            up.update = update;
            up.score = decision.score;
            reply = std::move(up);
          }
          upload_frames.fetch_add(1, std::memory_order_relaxed);
        } else {
          EliminationMsg el;
          el.seq = bc.seq;
          el.iteration = bc.iteration;
          el.client_id = static_cast<std::uint32_t>(k);
          el.score = decision.score;
          reply = el;
          elimination_frames.fetch_add(1, std::memory_order_relaxed);
        }
        auto bytes = encode(reply);
        seal_frame(bytes);
        uplink_meter.record(bytes.size());
        cached_reply = bytes;
        last_seq = bc.seq;
        uplink.send(std::move(bytes));
      }
    });
  }

  // --- Master loop (Algorithm 1 GlobalOptimization over the wire) ---
  const RecoveryOptions& rec_opt = options_.recovery;
  const bool bounded = rec_opt.round_timeout_s > 0.0;
  // Backoff-jitter stream: salted far outside the link_rng namespace
  // (worker*2 + dir) so it never collides with a fault stream.
  util::Rng jitter_rng = util::Rng(options_.fault.seed).split(0x6a177e5ULL);
  std::vector<FaultyChannel> downlinks;
  downlinks.reserve(num_workers);
  for (std::size_t k = 0; k < num_workers; ++k) {
    downlinks.emplace_back(endpoints[k].inbox, options_.fault.downlink_for(k),
                           options_.fault.link_rng(k, /*is_uplink=*/false),
                           &fault_stats);
  }
  std::vector<char> alive(num_workers, 1);
  std::vector<std::uint32_t> seq(num_workers, 0);
  std::size_t live_count = num_workers;
  std::uint64_t master_redundant = 0;
  std::uint64_t master_corrupt = 0;
  std::uint64_t master_retransmits = 0;

  const auto declare_dead = [&](std::size_t k) {
    alive[k] = 0;
    --live_count;
    result.faults.crashed_workers.push_back(static_cast<std::uint32_t>(k));
  };

  // Serializes every piece of trainer state the master owns or — because
  // the round is quiesced — may safely read from the workers.
  const auto snapshot = [&](std::size_t t) {
    fl::TrainerCheckpoint ck;
    ck.iteration = t;
    ck.global_params = global;
    const std::span<const float> est = estimator.estimate();
    ck.estimator_estimate.assign(est.begin(), est.end());
    ck.estimator_observed = estimator.has_observation();
    ck.prev_global_update = prev_global_update;
    ck.cumulative_rounds = cumulative_rounds;
    ck.uploaded_bytes = result.sim.uploaded_bytes;
    ck.history = result.sim.history;
    ck.eliminations_per_client.assign(
        result.sim.eliminations_per_client.begin(),
        result.sim.eliminations_per_client.end());
    ck.uploads_per_client.assign(result.sim.uploads_per_client.begin(),
                                 result.sim.uploads_per_client.end());
    ck.validation = validator.report();
    ck.client_state.reserve(num_workers);
    for (std::size_t k = 0; k < num_workers; ++k) {
      ck.client_state.push_back(clients_[k]->mutable_state());
    }
    // Quiesced (see the checkpoint call site): every worker replied this
    // round, so reading its codec is ordered after its last encode.
    ck.compressor_state.reserve(num_workers);
    for (std::size_t k = 0; k < num_workers; ++k) {
      ck.compressor_state.push_back(use_codec ? codecs[k]->mutable_state()
                                              : std::vector<std::uint64_t>{});
    }
    fl::ClusterMeterState& m = ck.meters;
    m.uplink_bytes = uplink_meter.total_bytes();
    m.uplink_messages = uplink_meter.messages();
    m.uplink_retransmitted = uplink_meter.retransmitted_bytes();
    m.downlink_bytes = downlink_meter.total_bytes();
    m.downlink_messages = downlink_meter.messages();
    m.downlink_retransmitted = downlink_meter.retransmitted_bytes();
    m.upload_messages = upload_frames.load(std::memory_order_relaxed);
    m.elimination_messages =
        elimination_frames.load(std::memory_order_relaxed);
    m.simulated_transfer_seconds = result.simulated_transfer_seconds;
    m.footprint.reserve(result.footprint.size());
    for (const auto& p : result.footprint) {
      m.footprint.push_back({p.iteration, p.accuracy, p.uplink_bytes});
    }
    return ck;
  };

  for (std::size_t t = start_t; t <= options_.fl.max_iterations; ++t) {
    // Active = alive and not quarantined: the master no longer broadcasts
    // to quarantined workers, so they stop training (and stop costing
    // downlink bytes) the moment they are tripped.
    std::size_t active_count = 0;
    for (std::size_t k = 0; k < num_workers; ++k) {
      if (alive[k] && !validator.quarantined(k)) ++active_count;
    }
    if (active_count == 0) break;

    const auto lr = static_cast<float>(options_.fl.learning_rate.at(t));
    BroadcastMsg bc;
    bc.iteration = t;
    bc.learning_rate = lr;
    bc.codec_id = codec_id;
    bc.codec_version = codec_version;
    bc.global_params = global;
    bc.global_update.assign(estimator.estimate().begin(),
                            estimator.estimate().end());

    std::vector<char> pending(num_workers, 0);
    std::size_t pending_count = 0;
    for (std::size_t k = 0; k < num_workers; ++k) {
      if (alive[k] && !validator.quarantined(k)) {
        pending[k] = 1;
        ++pending_count;
        ++seq[k];  // fresh sequence number; retransmissions reuse it
      }
    }
    const std::vector<char> invited = pending;
    const auto quorum_needed = std::max<std::size_t>(
        1,
        static_cast<std::size_t>(
            std::ceil(rec_opt.quorum * static_cast<double>(active_count))));

    std::vector<char> answered(num_workers, 0);
    std::vector<double> scores(num_workers, 0.0);
    std::vector<ReceivedUpload> uploads;
    std::size_t accepted = 0;
    double round_transfer = 0.0;
    double max_upload_transfer = 0.0;
    bool round_timed_out = false;
    bool k_committed = false;
    std::size_t round_missing = 0;

    int attempt = 0;
    for (;;) {
      // (Re)transmit this round's broadcast to every unanswered worker.
      for (std::size_t k = 0; k < num_workers; ++k) {
        if (!pending[k]) continue;
        bc.seq = seq[k];
        auto frame = encode(Message(bc));
        seal_frame(frame);
        if (attempt == 0) {
          downlink_meter.record(frame.size());
        } else {
          downlink_meter.record_retransmit(frame.size());
          ++master_retransmits;
        }
        round_transfer = std::max(
            round_transfer, options_.downlink.transfer_seconds(frame.size()));
        downlinks[k].send(std::move(frame));
      }

      // Gather replies until every pending worker answered or — in the
      // bounded regime — the attempt deadline expires.
      double deadline_scale = std::pow(rec_opt.backoff, attempt);
      if (rec_opt.backoff_jitter > 0.0) {
        deadline_scale *= 1.0 + rec_opt.backoff_jitter * jitter_rng.uniform();
      }
      const auto deadline =
          Clock::now() +
          seconds_to_duration(rec_opt.round_timeout_s * deadline_scale);
      while (pending_count > 0) {
        std::optional<std::vector<std::byte>> reply_frame;
        if (bounded) {
          const auto now = Clock::now();
          if (now >= deadline) break;
          reply_frame = master_inbox.recv_for(deadline - now);
          if (!reply_frame) break;  // deadline expired
        } else {
          reply_frame = master_inbox.recv();
          if (!reply_frame) {
            throw std::runtime_error("FlCluster: master inbox closed early");
          }
        }
        max_upload_transfer =
            std::max(max_upload_transfer,
                     options_.uplink.transfer_seconds(reply_frame->size()));
        const auto payload = try_open_frame(*reply_frame);
        if (!payload) {
          ++master_corrupt;
          continue;
        }
        Message reply;
        try {
          reply = decode(*payload);
        } catch (const std::exception&) {
          ++master_corrupt;
          continue;
        }
        ReplyView view;
        if (const auto* up = std::get_if<UpdateUploadMsg>(&reply)) {
          view = {up->iteration, up->client_id, up->score, up, nullptr};
        } else if (const auto* cu = std::get_if<CodecUploadMsg>(&reply)) {
          view = {cu->iteration, cu->client_id, cu->score, nullptr, cu};
        } else if (const auto* el = std::get_if<EliminationMsg>(&reply)) {
          view = {el->iteration, el->client_id, el->score, nullptr, nullptr};
        } else {
          throw std::runtime_error("FlCluster: unexpected frame from worker");
        }
        if (view.client_id >= num_workers || view.iteration > t) {
          throw std::runtime_error("FlCluster: malformed reply frame");
        }
        if (view.codec_upload &&
            (!use_codec || view.codec_upload->codec_id != codec_id ||
             view.codec_upload->codec_version != codec_version)) {
          throw std::runtime_error(
              "FlCluster: reply codec does not match the negotiated one");
        }
        if (view.upload && use_codec) {
          throw std::runtime_error(
              "FlCluster: dense upload on a codec-negotiated round");
        }
        if (view.iteration < t || !pending[view.client_id]) {
          // A late reply to an already-committed round, or a duplicate of
          // one accepted this round — idempotently discarded (and, for
          // codec frames, discarded *before* any decode touches state).
          ++master_redundant;
          continue;
        }
        if (view.upload && view.upload->update.size() != dim_) {
          throw std::runtime_error("FlCluster: bad update size");
        }
        const std::size_t k = view.client_id;
        pending[k] = 0;
        --pending_count;
        answered[k] = 1;
        last_acked[k] = t;
        ++accepted;
        scores[k] = view.score;
        if (view.upload) {
          uploads.push_back({view.client_id, view.upload->update,
                             static_cast<std::uint64_t>(reply_frame->size())});
        } else if (view.codec_upload) {
          // The frame CRC already vouched for transit integrity; a payload
          // the codec rejects here is a protocol bug, so decode errors
          // propagate loudly instead of being counted as corruption.
          std::vector<float> decoded =
              codecs[k]->decode(view.codec_upload->payload);
          if (decoded.size() != dim_) {
            throw std::runtime_error("FlCluster: bad decoded update size");
          }
          uploads.push_back({view.client_id, std::move(decoded),
                             static_cast<std::uint64_t>(reply_frame->size())});
        } else {
          ++result.sim.eliminations_per_client[k];
        }
        if (rec_opt.first_k_reports > 0 &&
            accepted >= rec_opt.first_k_reports && pending_count > 0) {
          // Over-selection: the Kth reply commits the round right now.
          // The stragglers' late replies carry this round's iteration and
          // are discarded idempotently by the `view.iteration < t` check
          // once the next round is underway.
          k_committed = true;
          break;
        }
      }
      if (k_committed) {
        round_missing = pending_count;
        ++result.faults.over_select_commits;
        break;
      }
      if (pending_count == 0) break;  // every live worker answered

      round_timed_out = true;
      if (accepted >= quorum_needed) {
        // Quorum reached: commit now; the unanswered workers are late for
        // this round and will re-sync on the next broadcast.
        round_missing = pending_count;
        break;
      }
      if (attempt + 1 >= rec_opt.max_attempts) {
        // Retransmit budget exhausted below quorum: the silent workers are
        // declared crashed (crash-stop suspicion) and the round commits
        // with whatever answered.
        round_missing = pending_count;
        for (std::size_t k = 0; k < num_workers; ++k) {
          if (pending[k]) {
            pending[k] = 0;
            declare_dead(k);
          }
        }
        pending_count = 0;
        break;
      }
      ++attempt;
    }

    if (round_timed_out) ++result.faults.timed_out_rounds;
    if (round_missing > 0 && !k_committed) ++result.faults.quorum_rounds;
    for (std::size_t k = 0; k < num_workers; ++k) {
      if (validator.quarantined(k)) continue;  // legitimately excluded
      const std::uint64_t staleness = t - last_acked[k];
      result.faults.max_staleness_per_client[k] =
          std::max(result.faults.max_staleness_per_client[k], staleness);
    }
    for (std::size_t k = 0; k < num_workers; ++k) {
      if (!invited[k]) continue;
      if (answered[k]) {
        stale_misses[k] = 0;
      } else if (!k_committed) {
        ++stale_misses[k];
      }
      // Losing an over-selected race leaves the counter untouched: only a
      // deadline the worker actually blew is evidence towards a crash.
    }
    if (rec_opt.suspect_after_stale_rounds > 0) {
      for (std::size_t k = 0; k < num_workers; ++k) {
        if (alive[k] && !validator.quarantined(k) &&
            stale_misses[k] >= static_cast<std::uint64_t>(
                                   rec_opt.suspect_after_stale_rounds)) {
          declare_dead(k);
        }
      }
    }
    result.simulated_transfer_seconds += round_transfer + max_upload_transfer;

    fl::IterationRecord rec;
    rec.iteration = t;
    rec.uploads = uploads.size();
    rec.participants = accepted;
    cumulative_rounds += uploads.size();
    rec.cumulative_rounds = cumulative_rounds;
    double score_sum = 0.0;
    for (std::size_t k = 0; k < num_workers; ++k) {
      if (answered[k]) score_sum += scores[k];  // fixed id order: see note
    }
    // Scores are summed in client-id order (not arrival order) so the mean
    // is bit-reproducible across runs regardless of reply interleaving.
    rec.mean_score =
        accepted > 0 ? score_sum / static_cast<double>(accepted) : 0.0;

    for (const auto& up : uploads) {
      ++result.sim.uploads_per_client[up.id];
    }
    if (!uploads.empty()) {
      std::sort(uploads.begin(), uploads.end(),
                [](const auto& a, const auto& b) { return a.id < b.id; });
      // Server-side validation of the received updates: non-finite or
      // norm-exploded uploads must never touch the model, whatever the
      // aggregation rule.
      std::vector<std::size_t> upload_ids;
      std::vector<std::span<const float>> received;
      upload_ids.reserve(uploads.size());
      received.reserve(uploads.size());
      for (const auto& up : uploads) {
        upload_ids.push_back(up.id);
        received.emplace_back(up.update);
      }
      // Sharded path: the screening scalars (finiteness, and the exact L2
      // norm when screening or the clipped rule reads it) are computed
      // concurrently on the shard workers — upload i on shard (i mod S) —
      // and collected in index order, so the validator sees exactly the
      // sequence the serial scan produces.
      std::vector<fl::UpdateValidator::UploadScalars> pre;
      if (shard_agg) {
        const bool with_norm = fl::reads_upload_norms(
            options_.fl.validation, options_.fl.aggregation);
        shard_agg->begin_batch(received.size());
        for (std::size_t i = 0; i < received.size(); ++i) {
          shard_agg->submit_update(i, received[i], nullptr,
                                   uploads[i].frame_bytes, with_norm);
          shard_meters[i % shard_meters.size()].record(
              static_cast<std::size_t>(uploads[i].frame_bytes));
        }
        std::vector<fl::ShardedAggregator::UploadResult> shard_results =
            shard_agg->collect(received.size());
        pre.reserve(shard_results.size());
        for (fl::ShardedAggregator::UploadResult& r : shard_results) {
          if (r.error) std::rethrow_exception(r.error);
          pre.push_back(r.scalars);
        }
      }
      const std::vector<fl::Verdict> verdicts =
          shard_agg ? validator.screen_round(upload_ids, pre)
                    : validator.screen_round(upload_ids, received);
      std::vector<std::span<const float>> views;
      std::vector<std::size_t> accepted_ids;
      views.reserve(uploads.size());
      for (std::size_t i = 0; i < uploads.size(); ++i) {
        if (verdicts[i] == fl::Verdict::kAccept) {
          views.push_back(received[i]);
          accepted_ids.push_back(upload_ids[i]);
        } else {
          ++rec.rejected;
        }
      }

      if (!views.empty()) {
        std::vector<float> global_update(dim_, 0.0f);
        std::vector<float> weights;
        if (options_.fl.aggregation == fl::Aggregation::kSampleWeighted) {
          double total_weight = 0.0;
          for (std::size_t id : accepted_ids) {
            total_weight += static_cast<double>(local_samples[id]);
          }
          weights.reserve(accepted_ids.size());
          for (std::size_t id : accepted_ids) {
            weights.push_back(static_cast<float>(
                static_cast<double>(local_samples[id]) / total_weight));
          }
        }
        if (shard_agg) {
          // The clipped rule's cross-upload plan reuses the scalar-pass
          // norms (same serial accumulation — bit-identical to recomputing).
          std::vector<double> norms;
          if (options_.fl.aggregation == fl::Aggregation::kNormClippedMean) {
            norms.reserve(views.size());
            for (std::size_t i = 0; i < uploads.size(); ++i) {
              if (verdicts[i] == fl::Verdict::kAccept) {
                norms.push_back(pre[i].norm);
              }
            }
          }
          shard_agg->aggregate(options_.fl.aggregation, views, weights,
                               options_.fl.robust_aggregation, norms,
                               global_update);
        } else {
          fl::aggregate_updates(options_.fl.aggregation, views, weights,
                                options_.fl.robust_aggregation, global_update);
        }
        tensor::add(global, global_update, global);
        if (!prev_global_update.empty()) {
          rec.delta_update = core::normalized_update_difference(
              prev_global_update, global_update);
        }
        prev_global_update = global_update;
        estimator.observe(global_update);
      }
    }
    // Byte-valued Φ: in cluster runs "uploaded bytes" is what actually
    // crossed the uplink — update frames, elimination frames, retransmits.
    result.sim.uploaded_bytes = uplink_meter.total_bytes();
    rec.cumulative_upload_bytes = result.sim.uploaded_bytes;

    const bool last = t == options_.fl.max_iterations;
    bool stop_at_target = false;
    if (options_.fl.eval_every > 0 &&
        (t % options_.fl.eval_every == 0 || last)) {
      const nn::EvalResult eval = evaluator_(global);
      rec.accuracy = eval.accuracy;
      rec.loss = eval.loss;
      result.footprint.push_back(
          {t, eval.accuracy, uplink_meter.total_bytes()});
      stop_at_target = options_.fl.target_accuracy > 0.0 &&
                       std::isfinite(eval.loss) &&
                       eval.accuracy >= options_.fl.target_accuracy;
    }
    result.sim.history.push_back(rec);

    // Checkpoint only when the round is quiesced: every worker this round
    // answered (each reply happens-before this point via the channel), and
    // no worker was ever declared crashed (a suspected worker's thread may
    // still be running, so its client state cannot be read safely).
    const bool quiesced =
        round_missing == 0 && result.faults.crashed_workers.empty();
    if (options_.fl.checkpoint_every > 0 &&
        !options_.fl.checkpoint_path.empty() && quiesced &&
        (t % options_.fl.checkpoint_every == 0 || last || stop_at_target)) {
      fl::save_checkpoint_file(options_.fl.checkpoint_path, snapshot(t));
    }
    if (stop_at_target) break;
  }

  // Drain stray frames (late replies, injected duplicates) so the
  // receiver-side accounting covers every frame that was delivered — this
  // is what keeps the counters reproducible for a fixed seed.
  while (auto stray = master_inbox.recv_for(Clock::duration::zero())) {
    if (try_open_frame(*stray)) {
      ++master_redundant;
    } else {
      ++master_corrupt;
    }
  }

  // --- Shutdown (management plane: bypasses fault injection so workers
  // always terminate) ---
  auto shutdown = encode(Message(ShutdownMsg{}));
  seal_frame(shutdown);
  for (auto& ep : endpoints) ep.inbox.send(shutdown);
  for (auto& w : workers) w.join();

  result.sim.total_rounds = cumulative_rounds;
  result.sim.final_params = std::move(global);
  result.sim.validation = validator.report();
  for (auto it = result.sim.history.rbegin();
       it != result.sim.history.rend(); ++it) {
    if (!std::isnan(it->accuracy)) {
      result.sim.final_accuracy = it->accuracy;
      break;
    }
  }
  result.uplink_bytes = uplink_meter.total_bytes();
  result.downlink_bytes = downlink_meter.total_bytes();
  result.uplink_retransmitted_bytes = uplink_meter.retransmitted_bytes();
  result.downlink_retransmitted_bytes = downlink_meter.retransmitted_bytes();
  result.upload_messages = upload_frames.load();
  result.elimination_messages = elimination_frames.load();
  if (shard_agg) {
    const std::vector<fl::ShardStats> sstats = shard_agg->stats();
    result.shard_uplink_bytes.reserve(shard_meters.size());
    result.shard_uploads.reserve(shard_meters.size());
    for (std::size_t s = 0; s < shard_meters.size(); ++s) {
      result.shard_uplink_bytes.push_back(shard_meters[s].total_bytes());
      result.shard_uploads.push_back(sstats[s].uploads);
    }
  }
  result.faults.frames_dropped = fault_stats.frames_dropped.load();
  result.faults.frames_corrupted = fault_stats.frames_corrupted.load();
  result.faults.frames_duplicated = fault_stats.frames_duplicated.load();
  result.faults.corrupt_rejected =
      master_corrupt + worker_corrupt_rejected.load();
  result.faults.redundant_frames = master_redundant + worker_redundant.load();
  result.faults.retransmits = master_retransmits + worker_retransmits.load();
  return result;
}

}  // namespace cmfl::net
