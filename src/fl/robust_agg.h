// Server-side update validation and Byzantine-resilient aggregation.
//
// The paper's §V-C outlier experiment shows CMFL's relevance filter rejects
// misbehaving clients as a side effect of its communication test.  This
// module supplies the complementary server-side defenses for clients that
// upload anyway: a validator that quarantines senders of non-finite or
// norm-exploded updates (they must never reach the model), and robust
// aggregation rules — coordinate-wise median, trimmed mean, norm-clipped
// mean — that bound the influence of any single update even when it passes
// validation.  Both the in-process FederatedSimulation and the net cluster
// route their GlobalOptimization step through aggregate_updates(), so every
// execution mode shares one hardened aggregation path.  See DESIGN.md §10.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace cmfl::fl {

/// How the server combines uploaded updates.
enum class Aggregation {
  kUniformMean,     // Algorithm 1: ū = (1/|S|) Σ u  (the paper's rule)
  kSampleWeighted,  // FedAvg: weight each update by its client's |P_k|
  kMedian,          // coordinate-wise median (ignores weights)
  kTrimmedMean,     // coordinate-wise mean after trimming extremes
  kNormClippedMean, // uniform mean of norm-clipped updates
};

/// "mean" | "weighted" | "median" | "trimmed" | "clipped" — for examples
/// and sweep tooling.  Throws std::invalid_argument on an unknown name.
Aggregation parse_aggregation(const std::string& name);
std::string aggregation_name(Aggregation rule);

/// Knobs of the robust rules (ignored by the two mean rules).
struct RobustAggOptions {
  /// kTrimmedMean: fraction of updates trimmed from *each* end per
  /// coordinate (0.1 with 10 updates drops the min and the max).  Clamped
  /// so at least one update always survives.
  double trim_fraction = 0.1;
  /// kNormClippedMean: updates with L2 norm above this radius are scaled
  /// down onto it.  0 = auto: clip to the median norm of the round's
  /// updates (scale-free, adapts as training converges).
  double clip_norm = 0.0;
};

/// Aggregates `updates` into `out` (all spans sized alike).  `weights` is
/// consulted only by kSampleWeighted and must then match updates.size() and
/// sum to 1.  Throws std::invalid_argument on empty input or size mismatch.
void aggregate_updates(Aggregation rule,
                       std::span<const std::span<const float>> updates,
                       std::span<const float> weights,
                       const RobustAggOptions& options, std::span<float> out);

// ---------------------------------------------------------------------------
// Sharded-pipeline entry points (fl/shard.h)
//
// The sharded parameter server splits aggregation across range-partitioned
// shard threads.  Full-vector reductions (L2 norms, the clipped rule's
// median radius) are NOT range-splittable without changing double summation
// order, so the pipeline computes them upload-parallel with the exact serial
// helpers below, then applies the per-coordinate work range-parallel.  Every
// function here is the byte-identical building block the legacy serial path
// itself is expressed in terms of — sharded and single-master trajectories
// therefore agree bit-for-bit by construction.
// ---------------------------------------------------------------------------

/// Serial double-accumulation L2 norm of one update — the exact reduction
/// the validator and the clipped rule use.  Exposed so shard workers can
/// compute norms upload-parallel with unchanged per-upload bits.
double update_l2_norm(std::span<const float> v);

/// True when every coordinate is finite (no NaN/±inf).  One branch-free
/// pass over the whole vector.
bool update_all_finite(std::span<const float> v);

/// Per-update mean coefficients of kNormClippedMean, computed from the
/// full-vector norms (norms[i] = update_l2_norm(updates[i])): clip scale to
/// the radius (options.clip_norm, or the median norm when <= 0) divided by
/// the update count.  The legacy rule is plan (this) + apply (one axpy per
/// update, in order); splitting the two lets shards apply disjoint ranges
/// concurrently after a single cross-upload plan step.
std::vector<float> clipped_mean_coefficients(std::span<const double> norms,
                                             const RobustAggOptions& options);

/// Range form of aggregate_updates: writes only out[lo, hi) and reads only
/// that range of every update, producing bits equal to the same elements of
/// the full-vector call.  `norms` is consulted only by kNormClippedMean and
/// must then hold update_l2_norm of each update (full-vector — pass empty
/// for every other rule).  Disjoint ranges may run concurrently.
void aggregate_updates_range(Aggregation rule,
                             std::span<const std::span<const float>> updates,
                             std::span<const float> weights,
                             const RobustAggOptions& options,
                             std::span<const double> norms, std::span<float> out,
                             std::size_t lo, std::size_t hi);

/// What the validator decided about one uploaded update.
enum class Verdict : std::uint8_t {
  kAccept = 0,
  kNonFinite = 1,     // contains NaN or ±inf
  kNormExploded = 2,  // L2 norm beyond the configured bound
  kQuarantined = 3,   // sender already quarantined; update discarded unseen
};

/// Server-side admission rules for uploaded updates.
struct ValidationPolicy {
  /// Reject updates containing NaN/±inf.  On by default: a single
  /// non-finite coordinate poisons the whole model irreversibly.
  bool reject_nonfinite = true;
  /// Absolute L2 norm bound (0 disables).
  double max_norm = 0.0;
  /// Relative bound: reject updates whose norm exceeds this multiple of the
  /// round's median update norm (0 disables).  Needs >= 3 updates in the
  /// round to be meaningful; fewer are always admitted by this rule.
  double norm_multiple = 0.0;
  /// Quarantine a client after this many rejected updates; quarantined
  /// clients are excluded from every later round (0 = never quarantine).
  std::uint32_t quarantine_after = 3;

  /// True when screening reads an upload's L2 norm (either norm bound set).
  bool reads_norm() const noexcept {
    return max_norm > 0.0 || norm_multiple > 0.0;
  }
};

/// True when a round screened under `policy` and aggregated under `rule`
/// reads the uploads' L2 norms — a norm bound, or the clipped rule's
/// radius.  The scalar pass skips the O(dim) norm otherwise; the finiteness
/// scan always runs.
bool reads_upload_norms(const ValidationPolicy& policy, Aggregation rule);

/// Validation outcome counters plus per-client quarantine state; carried in
/// results and checkpoints.
struct ValidationReport {
  std::uint64_t rejected_nonfinite = 0;
  std::uint64_t rejected_norm = 0;
  std::uint64_t discarded_quarantined = 0;  // uploads from quarantined clients
  std::vector<std::uint32_t> strikes;       // rejected-update count per client
  std::vector<std::uint8_t> quarantined;    // 1 = permanently quarantined

  std::uint64_t total_rejected() const noexcept {
    return rejected_nonfinite + rejected_norm + discarded_quarantined;
  }
  std::size_t quarantined_count() const noexcept;

  bool operator==(const ValidationReport&) const = default;
};

/// Stateful per-run validator: screens each round's uploads, accumulates
/// per-client strikes, and trips permanent quarantine.  Deterministic —
/// verdicts depend only on the updates and the policy.
class UpdateValidator {
 public:
  UpdateValidator(std::size_t num_clients, const ValidationPolicy& policy);

  /// Precomputed structural scalars of one upload, produced by shard workers
  /// (update_all_finite / update_l2_norm on the full vector) so screening
  /// itself needs no O(dim) pass.  `norm` is left 0 when the round reads no
  /// norm (reads_upload_norms).
  struct UploadScalars {
    bool finite = true;
    double norm = 0.0;
  };

  /// Screens one round.  `clients[i]` is the uploader of `updates[i]`.
  /// Returns one verdict per update; strike/quarantine state advances as a
  /// side effect.  The round-median norm for the relative rule is computed
  /// over this call's finite-norm updates only.  Norms are computed only
  /// when the policy reads them.
  std::vector<Verdict> screen_round(std::span<const std::size_t> clients,
                                    std::span<const std::span<const float>>
                                        updates);

  /// Sharded-pipeline form: identical verdicts and state evolution, with the
  /// per-upload O(dim) scans replaced by scalars the shard workers already
  /// computed.  `pre[i]` must equal {update_all_finite(updates[i]),
  /// update_l2_norm(updates[i])} for the verdicts to match the span overload;
  /// the norm may be left 0 when policy().reads_norm() is false.
  std::vector<Verdict> screen_round(std::span<const std::size_t> clients,
                                    std::span<const UploadScalars> pre);

  bool quarantined(std::size_t client) const;
  const ValidationPolicy& policy() const noexcept { return policy_; }
  const ValidationReport& report() const noexcept { return report_; }

  /// Checkpoint support: restores counters and quarantine state captured
  /// from report().  Throws std::invalid_argument on client-count mismatch.
  void restore(const ValidationReport& report);

 private:
  ValidationPolicy policy_;
  ValidationReport report_;
};

}  // namespace cmfl::fl
