// Outside-in tracing for the benchmark: decorators around the public
// interfaces the runtimes call (fl::FlClient, core::UpdateFilter,
// fl::GlobalEvaluator, sched::ClientFactory).  Nothing here reaches into a
// runtime; every timestamp is taken at a call boundary the runtime already
// crosses, so a decorated run must stay bit-identical to an undecorated one.
//
// Two recording depths:
//   * RoundClock — the untraced run.  One steady-clock stamp per round, taken
//     at the first filter call of that round (FilterContext::iteration).
//   * Recorder — the traced run.  Every decorated call becomes a span
//     (kind, start, end, round); summarize() turns the spans into per-layer
//     busy times, call counts and the client/server/edge phase tiling.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/filter.h"
#include "fl/client.h"
#include "fl/simulation.h"
#include "sched/population.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since a fixed per-process origin (taken on first use).
std::int64_t now_ns() noexcept;

/// One stamp per round: the first filter call carrying that iteration.
/// Lock-free; safe from concurrent worker threads.
class RoundClock {
 public:
  explicit RoundClock(std::size_t max_rounds);

  void mark(std::size_t iteration) noexcept;

  /// Wall time between consecutive marked rounds, in milliseconds.
  std::vector<double> periods_ms() const;

 private:
  std::unique_ptr<std::atomic<std::int64_t>[]> first_ns_;
  std::size_t size_;
};

enum class SpanKind : std::uint8_t {
  kInstall,      // FlClient::set_params
  kTrain,        // FlClient::train_local
  kReadback,     // FlClient::get_params
  kFilter,       // UpdateFilter::decide
  kEval,         // GlobalEvaluator
  kMaterialize,  // sched::ClientFactory
};

struct Span {
  SpanKind kind = SpanKind::kInstall;
  bool upload = false;     // kFilter: the decision
  std::size_t round = 0;   // kFilter: FilterContext::iteration
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-layer numbers derived from one traced run.
struct TraceSummary {
  std::size_t train_calls = 0;
  double train_busy_s = 0.0;
  double train_p50_ms = 0.0;
  double train_p99_ms = 0.0;
  double install_busy_s = 0.0;
  double readback_busy_s = 0.0;
  std::size_t eval_calls = 0;
  double eval_busy_s = 0.0;
  /// Eval time that fell inside server phases (the final eval sits in the
  /// trailing edge).
  double eval_in_server_s = 0.0;
  std::size_t filter_calls = 0;
  std::size_t filter_accepts = 0;
  double filter_busy_s = 0.0;
  std::size_t materializations = 0;
  double materialize_busy_s = 0.0;
  // Phase tiling of the run() wall.
  std::size_t rounds = 0;
  double wall_s = 0.0;
  double client_phase_s = 0.0;
  double server_phase_s = 0.0;
  double edge_s = 0.0;
  std::vector<double> server_phases_ms;  // one per round boundary
};

/// Collects spans from every decorated call.  Thread-safe.
class Recorder {
 public:
  void add(const Span& span);
  /// Tiles [run_start_ns, run_end_ns] into phases using the recorded spans.
  /// Throws std::logic_error when the spans are out of order (a round whose
  /// first install precedes the previous round's last filter call).
  TraceSummary summarize(std::int64_t run_start_ns,
                         std::int64_t run_end_ns) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Updates the filter saw in one round, kept for the server-side replays.
struct Capture {
  std::size_t round = 0;  // the round to keep (0 = capture nothing)
  std::mutex mu;
  std::vector<std::vector<float>> uploads;  // updates the filter accepted
  std::vector<float> sample;  // the round's first update, accepted or not
  std::vector<float> global_model;
  std::vector<float> estimate;
};

/// Forwards every call to the wrapped client; times install, train and
/// readback into the recorder.
class TracedClient final : public cmfl::fl::FlClient {
 public:
  TracedClient(std::unique_ptr<cmfl::fl::FlClient> inner, Recorder& recorder);

  std::size_t param_count() override;
  std::size_t local_samples() const override;
  void set_params(std::span<const float> params) override;
  void get_params(std::span<float> out) override;
  double train_local(int epochs, std::size_t batch_size, float lr) override;
  std::uint64_t lifetime_steps() const override;
  std::vector<std::uint64_t> mutable_state() const override;
  void restore_mutable_state(std::span<const std::uint64_t> state) override;

 private:
  std::unique_ptr<cmfl::fl::FlClient> inner_;
  Recorder& recorder_;
};

/// Marks round boundaries on `clock`; with a recorder also times each
/// decision, and with a capture keeps the uploads of capture->round.
class TracedFilter final : public cmfl::core::UpdateFilter {
 public:
  TracedFilter(std::unique_ptr<cmfl::core::UpdateFilter> inner,
               RoundClock& clock, Recorder* recorder, Capture* capture);

  std::string name() const override;
  cmfl::core::FilterDecision decide(
      std::span<const float> update,
      const cmfl::core::FilterContext& ctx) const override;

 private:
  std::unique_ptr<cmfl::core::UpdateFilter> inner_;
  RoundClock& clock_;
  Recorder* recorder_;
  Capture* capture_;
};

cmfl::fl::GlobalEvaluator traced_evaluator(cmfl::fl::GlobalEvaluator inner,
                                           Recorder& recorder);

/// Times the factory call and wraps the client it returns in TracedClient.
cmfl::sched::ClientFactory traced_factory(cmfl::sched::ClientFactory inner,
                                          Recorder& recorder);

std::vector<std::unique_ptr<cmfl::fl::FlClient>> traced_clients(
    std::vector<std::unique_ptr<cmfl::fl::FlClient>> clients,
    Recorder& recorder);

/// q-quantile (0..1) by linear interpolation; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

}  // namespace perfbench
