// Federated clients: a local model bound to a private data shard.
//
// The simulation drives clients through a minimal interface — download the
// global model, train E local epochs, read back the trained parameters.
// Update construction (trained − global) and the upload decision live in the
// simulation/filter layer, mirroring Algorithm 1's split between
// LocalUpdate and CheckRelevance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "data/batcher.h"
#include "data/dataset.h"
#include "nn/feed_forward.h"
#include "nn/lstm_lm.h"
#include "util/rng.h"

namespace cmfl::fl {

class FlClient {
 public:
  virtual ~FlClient() = default;

  virtual std::size_t param_count() = 0;
  virtual std::size_t local_samples() const = 0;

  /// Installs the global model x_{t-1}.
  virtual void set_params(std::span<const float> params) = 0;

  /// Reads the current (post-training) local parameters.
  virtual void get_params(std::span<float> out) = 0;

  /// Runs `epochs` passes of mini-batch SGD (batch size `batch_size`,
  /// learning rate `lr`) over the client's shard.  Returns the mean
  /// training loss of the final epoch.
  virtual double train_local(int epochs, std::size_t batch_size,
                             float lr) = 0;

  /// Total optimization steps this client instance has ever run (SGD
  /// batches for the learning clients, gradient steps for the convex one).
  /// A process-lifetime observation, deliberately excluded from
  /// mutable_state(): it exists so tests can assert that unsampled clients
  /// did no local work (the lazy-participation contract of the simulation
  /// and the scheduler), not to survive checkpoints.
  virtual std::uint64_t lifetime_steps() const { return 0; }

  /// The device goes idle: a client may give back what the next
  /// set_params or train_local can take again (DenseClient returns its
  /// model to its pool).  mutable_state() and lifetime_steps() are kept;
  /// the parameters are the broadcast's to set again, and until then a
  /// parked DenseClient reports its initial ones.  Must not throw.
  virtual void park() noexcept {}

  /// Mutable stochastic state (batch-shuffle / noise RNG streams) as opaque
  /// u64 words.  Model parameters are deliberately excluded: the broadcast
  /// overwrites them every round, so the RNG streams are the only per-client
  /// state a crash-consistent checkpoint must carry for a resumed run to
  /// retrace the uninterrupted trajectory bit-identically.
  virtual std::vector<std::uint64_t> mutable_state() const { return {}; }

  /// Restores a state captured by mutable_state(); throws
  /// std::invalid_argument on a malformed blob.
  virtual void restore_mutable_state(std::span<const std::uint64_t> state);
};

/// The models the DenseClients of one workload lease: a mutex-guarded free
/// list, a builder for when it is empty, and the parameters every device
/// starts from.  A leased model carries nothing across leases that training
/// reads: the lessee overwrites every parameter (set_params or a copy of
/// initial()) and a train step zeroes the gradients before it accumulates,
/// so only capacity-keeping workspaces survive.  Live models therefore
/// number the clients holding one at the same time plus the free list,
/// never the devices.
class ModelPool {
 public:
  /// Builds a model of the workload's architecture; `initial` is offered
  /// for builders that can copy it instead of drawing weights.
  using Builder = std::function<nn::FeedForward(std::span<const float> initial)>;

  /// `build` must return models with initial.size() parameters.
  ModelPool(Builder build, std::vector<float> initial);

  std::span<const float> initial() const noexcept { return initial_; }
  /// A free model, or a newly built one; its parameters are unspecified.
  nn::FeedForward take();
  /// Returns a model to the free list; drops it if the push fails.
  void give(nn::FeedForward&& model) noexcept;
  /// Models built since construction: the pool's whole footprint.
  std::size_t models_built() const;

 private:
  Builder build_;
  const std::vector<float> initial_;
  mutable std::mutex mu_;
  std::vector<nn::FeedForward> free_;
  std::size_t built_ = 0;
};

/// FeedForward model over a DenseDataset shard (CNN and MLP workloads).
/// The client itself is device state (shard, RNG, step count); it leases a
/// model from its pool when it first needs one and returns it in park().
/// Unbound (before its first set_params or train_local, and after park) it
/// reports the pool's initial parameters, as a newly built device does.
class DenseClient final : public FlClient {
 public:
  /// The dataset must outlive the client; `shard` indexes into it.
  DenseClient(std::shared_ptr<ModelPool> models,
              const data::DenseDataset* dataset,
              std::vector<std::size_t> shard, util::Rng rng);

  std::size_t param_count() override { return models_->initial().size(); }
  std::size_t local_samples() const override { return shard_.size(); }
  /// Leases a model first if unbound (no initial copy: `params` overwrite
  /// it).
  void set_params(std::span<const float> params) override;
  /// Unbound: copies the initial parameters and leases nothing.
  void get_params(std::span<float> out) override;
  /// Unbound: leases a model holding the initial parameters first.
  double train_local(int epochs, std::size_t batch_size, float lr) override;
  void park() noexcept override;
  std::uint64_t lifetime_steps() const override { return lifetime_steps_; }
  std::vector<std::uint64_t> mutable_state() const override;
  void restore_mutable_state(std::span<const std::uint64_t> state) override;

 private:
  std::shared_ptr<ModelPool> models_;
  std::optional<nn::FeedForward> model_;  // the lease, if bound
  const data::DenseDataset* dataset_;
  std::vector<std::size_t> shard_;
  util::Rng rng_;
  std::uint64_t lifetime_steps_ = 0;
};

/// LstmLm over a SequenceDataset shard (the NWP workload).
class SequenceClient final : public FlClient {
 public:
  SequenceClient(nn::LstmLm model, const data::SequenceDataset* dataset,
                 std::vector<std::size_t> shard, util::Rng rng);

  std::size_t param_count() override { return model_.param_count(); }
  std::size_t local_samples() const override { return shard_.size(); }
  void set_params(std::span<const float> params) override;
  void get_params(std::span<float> out) override;
  double train_local(int epochs, std::size_t batch_size, float lr) override;
  std::uint64_t lifetime_steps() const override { return lifetime_steps_; }
  std::vector<std::uint64_t> mutable_state() const override;
  void restore_mutable_state(std::span<const std::uint64_t> state) override;

 private:
  nn::LstmLm model_;
  const data::SequenceDataset* dataset_;
  std::vector<std::size_t> shard_;
  util::Rng rng_;
  std::uint64_t lifetime_steps_ = 0;
};

}  // namespace cmfl::fl
