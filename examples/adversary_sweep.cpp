// Byzantine adversary sweep: attacker fraction x defense matrix.
//
// For each attacker fraction and each attack, runs the federated simulation
// under four defenses and tabulates final accuracy, uploads, server-side
// rejections, and quarantined clients:
//
//   mean      — vanilla uniform mean, validation off (the undefended
//               baseline; garbage attackers destroy it outright)
//   validate  — uniform mean behind the update validator (non-finite and
//               norm-exploded updates rejected, repeat offenders
//               quarantined)
//   median    — coordinate-wise median + validator
//   cmfl      — CMFL's relevance filter (paper §V-C): attackers' updates
//               fail the sign-agreement relevance test and are eliminated
//               client-side, before any bytes cross the wire
//
// The headline result mirrors the paper's outlier experiment: the relevance
// filter alone suppresses sign-flip and garbage attackers as a side effect
// of its communication test, while robust aggregation covers the attacks
// that stay relevant-looking (e.g. scale).
//
// The default horizon (10 iterations) is the descent phase, where the
// relevance filter's defense is cleanest; at long horizons a *constant*
// threshold starts eliminating converged honest clients too (their
// relevance decays towards 0.5) — try iters=30 to see that regime.
//
//   $ ./adversary_sweep [clients=20] [iters=10] [dim=16] [seed=7]
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/filter.h"
#include "fl/adversary.h"
#include "fl/convex_testbed.h"
#include "fl/simulation.h"
#include "util/config.h"

using namespace cmfl;

namespace {

struct Defense {
  const char* name;
  fl::Aggregation aggregation;
  bool validate;
  bool cmfl_filter;
};

constexpr Defense kDefenses[] = {
    {"mean", fl::Aggregation::kUniformMean, false, false},
    {"validate", fl::Aggregation::kUniformMean, true, false},
    {"median", fl::Aggregation::kMedian, true, false},
    {"cmfl", fl::Aggregation::kUniformMean, true, true},
};

struct SweepConfig {
  std::size_t clients;
  std::size_t iters;
  std::size_t dim;
  std::uint64_t seed;
};

fl::SimulationResult run_once(const SweepConfig& cfg,
                              const fl::AdversarySpec& adv, double fraction,
                              const Defense& defense) {
  fl::ConvexTestbedSpec spec;
  spec.clients = cfg.clients;
  spec.dim = cfg.dim;
  spec.center_spread = 0.25;
  spec.outlier_fraction = 0.0;
  spec.gradient_noise = 0.05;
  spec.local_steps = 4;
  spec.start_offset = 3.0;  // start far from x*: honest updates align
  spec.seed = cfg.seed;
  fl::ConvexWorkload w = fl::make_convex_workload(spec);
  fl::apply_adversaries(w.clients, adv, fraction);

  fl::SimulationOptions opt;
  opt.local_epochs = 1;
  opt.batch_size = 1;
  opt.learning_rate = core::Schedule::constant(0.1);
  opt.max_iterations = cfg.iters;
  opt.eval_every = cfg.iters;  // evaluate once, at the end
  opt.aggregation = defense.aggregation;
  if (!defense.validate) {
    opt.validation.reject_nonfinite = false;
    opt.validation.quarantine_after = 0;
  }

  std::unique_ptr<core::UpdateFilter> filter;
  if (defense.cmfl_filter) {
    filter = std::make_unique<core::CmflFilter>(core::Schedule::constant(0.5));
  } else {
    filter = std::make_unique<core::AcceptAllFilter>();
  }
  fl::FederatedSimulation sim(std::move(w.clients), std::move(filter),
                              w.evaluator, opt);
  return sim.run();
}

bool finite_params(const fl::SimulationResult& r) {
  for (const float p : r.final_params) {
    if (!std::isfinite(p)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg_args = util::Config::from_args(argc, argv);
  SweepConfig cfg;
  cfg.clients = static_cast<std::size_t>(cfg_args.get_int("clients", 20));
  cfg.iters = static_cast<std::size_t>(cfg_args.get_int("iters", 10));
  cfg.dim = static_cast<std::size_t>(cfg_args.get_int("dim", 16));
  cfg.seed = static_cast<std::uint64_t>(cfg_args.get_int("seed", 7));
  if (!cfg_args.check_unused_keys()) return 2;  // every key is read above

  const fl::SimulationResult clean =
      run_once(cfg, {}, 0.0, kDefenses[0]);
  std::printf(
      "adversary sweep: %zu clients, %zu iterations, convex testbed "
      "(clean accuracy %.3f)\n",
      cfg.clients, cfg.iters, clean.final_accuracy);

  for (const auto attack :
       {fl::Attack::kSignFlip, fl::Attack::kScale, fl::Attack::kGarbage,
        fl::Attack::kFreeRider, fl::Attack::kLabelFlip}) {
    std::printf("\n=== attack: %s ===\n", fl::attack_name(attack).c_str());
    std::printf("frac  defense   final-acc  uploads  rejected  quarantined\n");
    for (const double fraction : {0.2, 0.4}) {
      for (const Defense& defense : kDefenses) {
        fl::AdversarySpec adv;
        adv.attack = attack;
        adv.seed = cfg.seed + 1;
        const fl::SimulationResult r =
            run_once(cfg, adv, fraction, defense);
        char acc[32];
        if (finite_params(r)) {
          std::snprintf(acc, sizeof acc, "%9.3f", r.final_accuracy);
        } else {
          std::snprintf(acc, sizeof acc, "%9s", "diverged");
        }
        std::printf("%.2f  %-8s  %s  %7llu  %8llu  %11zu\n", fraction,
                    defense.name, acc,
                    static_cast<unsigned long long>(r.total_rounds),
                    static_cast<unsigned long long>(
                        r.validation.total_rejected()),
                    r.validation.quarantined_count());
      }
    }
  }
  std::printf(
      "\nnotes: 'diverged' = non-finite final parameters (the undefended "
      "mean under garbage);\n"
      "uploads = updates that crossed the wire (cmfl eliminates "
      "client-side); rejected/quarantined are server-side.\n");
  return 0;
}
