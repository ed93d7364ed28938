#include "trace.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

namespace perfbench {

namespace cf = cmfl::fl;

std::int64_t now_ns() noexcept {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

// Stamps are stored +1 so that 0 can mean "not yet marked".
RoundClock::RoundClock(std::size_t max_rounds)
    : first_ns_(new std::atomic<std::int64_t>[max_rounds + 2]),
      size_(max_rounds + 2) {
  for (std::size_t i = 0; i < size_; ++i) first_ns_[i].store(0);
}

void RoundClock::mark(std::size_t iteration) noexcept {
  if (iteration >= size_) return;
  auto& slot = first_ns_[iteration];
  if (slot.load(std::memory_order_relaxed) != 0) return;
  std::int64_t expected = 0;
  slot.compare_exchange_strong(expected, now_ns() + 1,
                               std::memory_order_relaxed);
}

std::vector<double> RoundClock::periods_ms() const {
  std::vector<double> out;
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    const std::int64_t t = first_ns_[i].load(std::memory_order_relaxed);
    if (t == 0) continue;
    if (prev != 0) out.push_back(static_cast<double>(t - prev) / 1e6);
    prev = t;
  }
  return out;
}

void Recorder::add(const Span& span) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

namespace {

double seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

}  // namespace

TraceSummary Recorder::summarize(std::int64_t run_start_ns,
                                 std::int64_t run_end_ns) const {
  const std::lock_guard<std::mutex> lock(mu_);
  TraceSummary s;
  s.wall_s = seconds(run_end_ns - run_start_ns);

  std::vector<double> train_ms;
  std::vector<std::int64_t> install_starts;
  std::map<std::size_t, std::int64_t> last_filter_end;  // round -> stamp
  for (const Span& sp : spans_) {
    const std::int64_t d = sp.end_ns - sp.start_ns;
    switch (sp.kind) {
      case SpanKind::kInstall:
        s.install_busy_s += seconds(d);
        install_starts.push_back(sp.start_ns);
        break;
      case SpanKind::kTrain:
        ++s.train_calls;
        s.train_busy_s += seconds(d);
        train_ms.push_back(static_cast<double>(d) / 1e6);
        break;
      case SpanKind::kReadback:
        s.readback_busy_s += seconds(d);
        break;
      case SpanKind::kFilter: {
        ++s.filter_calls;
        if (sp.upload) ++s.filter_accepts;
        s.filter_busy_s += seconds(d);
        auto [it, fresh] = last_filter_end.emplace(sp.round, sp.end_ns);
        if (!fresh) it->second = std::max(it->second, sp.end_ns);
        break;
      }
      case SpanKind::kEval:
        ++s.eval_calls;
        s.eval_busy_s += seconds(d);
        break;
      case SpanKind::kMaterialize:
        ++s.materializations;
        s.materialize_busy_s += seconds(d);
        break;
    }
  }
  s.train_p50_ms = quantile(train_ms, 0.50);
  s.train_p99_ms = quantile(train_ms, 0.99);
  if (last_filter_end.empty()) {
    s.edge_s = s.wall_s;
    return s;
  }

  // Round t's client phase runs from its first install (the first install
  // after round t-1's last filter call) to its own last filter call.
  std::sort(install_starts.begin(), install_starts.end());
  std::int64_t prev_end = run_start_ns;
  std::int64_t first_install_1 = 0;
  std::int64_t last_install = 0;
  bool first = true;
  for (const auto& [round, end] : last_filter_end) {
    const auto it = std::upper_bound(install_starts.begin(),
                                     install_starts.end(), prev_end);
    if (it == install_starts.end() || *it > end) {
      throw std::logic_error("trace: round " + std::to_string(round) +
                             " has no install before its last filter call");
    }
    if (first) {
      first_install_1 = *it;
      first = false;
    } else {
      s.server_phases_ms.push_back(static_cast<double>(*it - prev_end) / 1e6);
      s.server_phase_s += seconds(*it - prev_end);
    }
    s.client_phase_s += seconds(end - *it);
    last_install = *it;
    prev_end = end;
    ++s.rounds;
  }
  s.edge_s = seconds(first_install_1 - run_start_ns) +
             seconds(run_end_ns - prev_end);

  const std::int64_t first_round_end = last_filter_end.begin()->second;
  for (const Span& sp : spans_) {
    if (sp.kind == SpanKind::kEval && sp.start_ns >= first_round_end &&
        sp.end_ns <= last_install) {
      s.eval_in_server_s += seconds(sp.end_ns - sp.start_ns);
    }
  }
  return s;
}

// ----------------------------------------------------------------- clients

TracedClient::TracedClient(std::unique_ptr<cf::FlClient> inner,
                           Recorder& recorder)
    : inner_(std::move(inner)), recorder_(recorder) {}

std::size_t TracedClient::param_count() { return inner_->param_count(); }

std::size_t TracedClient::local_samples() const {
  return inner_->local_samples();
}

void TracedClient::set_params(std::span<const float> params) {
  const std::int64_t t0 = now_ns();
  inner_->set_params(params);
  recorder_.add({SpanKind::kInstall, false, 0, t0, now_ns()});
}

void TracedClient::get_params(std::span<float> out) {
  const std::int64_t t0 = now_ns();
  inner_->get_params(out);
  recorder_.add({SpanKind::kReadback, false, 0, t0, now_ns()});
}

double TracedClient::train_local(int epochs, std::size_t batch_size,
                                 float lr) {
  const std::int64_t t0 = now_ns();
  const double loss = inner_->train_local(epochs, batch_size, lr);
  recorder_.add({SpanKind::kTrain, false, 0, t0, now_ns()});
  return loss;
}

std::uint64_t TracedClient::lifetime_steps() const {
  return inner_->lifetime_steps();
}

std::vector<std::uint64_t> TracedClient::mutable_state() const {
  return inner_->mutable_state();
}

void TracedClient::restore_mutable_state(
    std::span<const std::uint64_t> state) {
  inner_->restore_mutable_state(state);
}

// ------------------------------------------------------------------ filter

TracedFilter::TracedFilter(std::unique_ptr<cmfl::core::UpdateFilter> inner,
                           RoundClock& clock, Recorder* recorder,
                           Capture* capture)
    : inner_(std::move(inner)),
      clock_(clock),
      recorder_(recorder),
      capture_(capture) {}

std::string TracedFilter::name() const { return inner_->name(); }

cmfl::core::FilterDecision TracedFilter::decide(
    std::span<const float> update,
    const cmfl::core::FilterContext& ctx) const {
  clock_.mark(ctx.iteration);
  if (recorder_ == nullptr) return inner_->decide(update, ctx);
  const std::int64_t t0 = now_ns();
  const cmfl::core::FilterDecision d = inner_->decide(update, ctx);
  recorder_->add({SpanKind::kFilter, d.upload, ctx.iteration, t0, now_ns()});
  if (capture_ != nullptr && ctx.iteration == capture_->round) {
    const std::lock_guard<std::mutex> lock(capture_->mu);
    if (capture_->sample.empty()) {
      capture_->sample.assign(update.begin(), update.end());
      capture_->global_model.assign(ctx.global_model.begin(),
                                    ctx.global_model.end());
      capture_->estimate.assign(ctx.estimated_global_update.begin(),
                                ctx.estimated_global_update.end());
    }
    if (d.upload) capture_->uploads.emplace_back(update.begin(), update.end());
  }
  return d;
}

// ------------------------------------------------- evaluator and factory

cf::GlobalEvaluator traced_evaluator(cf::GlobalEvaluator inner,
                                     Recorder& recorder) {
  return [inner = std::move(inner),
          &recorder](std::span<const float> params) {
    const std::int64_t t0 = now_ns();
    cmfl::nn::EvalResult r = inner(params);
    recorder.add({SpanKind::kEval, false, 0, t0, now_ns()});
    return r;
  };
}

cmfl::sched::ClientFactory traced_factory(cmfl::sched::ClientFactory inner,
                                          Recorder& recorder) {
  return [inner = std::move(inner), &recorder](std::uint64_t device)
             -> std::unique_ptr<cf::FlClient> {
    const std::int64_t t0 = now_ns();
    auto client = inner(device);
    recorder.add({SpanKind::kMaterialize, false, 0, t0, now_ns()});
    return std::make_unique<TracedClient>(std::move(client), recorder);
  };
}

std::vector<std::unique_ptr<cf::FlClient>> traced_clients(
    std::vector<std::unique_ptr<cf::FlClient>> clients, Recorder& recorder) {
  for (auto& c : clients) {
    c = std::make_unique<TracedClient>(std::move(c), recorder);
  }
  return clients;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace perfbench
