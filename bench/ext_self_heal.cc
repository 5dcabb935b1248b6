// Extension: anti-entropy self-healing under phase-targeted crashes
// (src/repair).
//
// A mobile population moves across the paper's 14-broker overlay while a
// staggered schedule of phase-targeted crashes (failure/failure_injector.h
// PhaseCrash) wipes the volatile 3PC conversation of source, target and
// intermediate brokers at every movement phase — with all coordinator
// timeouts disabled, so the repair sweeps are the only healer.
//
// Expected, with repair on: the run ends auditor-clean (run under
// TMPS_AUDIT=1), with zero duplicate deliveries, zero losses, zero residual
// shadow state on any broker, and the repair loop goes quiet once the chaos
// stops (no corrective ops in the final tail window — bounded-round
// convergence). With repair off, the same crash schedule must demonstrably
// strand state: attributed audit violations and pending shadows remain. The
// bench exits nonzero if either side fails, so CI can gate on it.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "failure/failure_injector.h"

using namespace tmps;
using namespace tmps::bench;

namespace {

struct HealResult {
  std::uint64_t movements = 0;
  std::uint64_t crashes = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t mover_losses = 0;
  std::uint64_t stationary_losses = 0;
  std::size_t audit_violations = 0;
  std::size_t shadow_brokers = 0;  // brokers with residual shadow state
  std::uint64_t repair_rounds = 0;     // max over brokers
  std::uint64_t repair_ops = 0;        // summed over brokers
  std::uint64_t tail_ops = 0;          // ops in the final quiet window
  bool audit_clean = false;
};

constexpr double kTailWindow = 20.0;

ScenarioConfig chaos_config() {
  ScenarioConfig cfg;
  cfg.mobility.protocol = MobilityProtocol::Reconfiguration;
  // Reconfiguration mobility runs without covering (quenching is unsound
  // when a coverer can move away); the repair loop's quench reconciliation
  // still runs, guarding the plain forwarding invariant.
  cfg.broker.subscription_covering = false;
  cfg.broker.advertisement_covering = false;
  cfg.workload = WorkloadKind::Covered;
  cfg.total_clients = 40;
  cfg.moving_clients = 8;
  cfg.duration = full_run() ? 600.0 : 180.0;
  cfg.warmup = 30.0;
  cfg.pause_between_moves = 6.0;
  cfg.publish_interval = 1.0;
  cfg.seed = 13;
  cfg.audit = true;  // the whole point: gate on the auditor's verdict
  // Coordinator timeouts stay 0 (blocking variant): only repair heals.
  cfg.broker.repair.sweep_interval = 1.0;
  cfg.broker.repair.stale_after = 2.5;
  cfg.broker.repair.confirm_rounds = 2;
  return cfg;
}

// One crash per (role, phase) pair, staggered so each outage-and-repair
// episode completes before the next begins. Path 1-3-4-8-12-13: broker 1 is
// a source end, 13 a target end, 4/8/12 intermediates.
std::vector<PhaseCrash> crash_schedule() {
  const struct {
    BrokerId victim;
    const char* phase;
    double after;
  } plan[] = {
      {1, "move-negotiate", 35}, {13, "move-approve", 55},
      {8, "move-state", 75},     {12, "move-ack", 95},
      {1, "move-state", 115},    {13, "move-ack", 135},
  };
  std::vector<PhaseCrash> crashes;
  for (const auto& p : plan) {
    PhaseCrash c;
    c.victim = p.victim;
    c.phase = p.phase;
    c.after = p.after;
    c.outage = 1.5;
    c.count = 1;
    crashes.push_back(std::move(c));
  }
  return crashes;
}

HealResult run_one(bool repair_on, const std::string& run_label) {
  ScenarioConfig cfg = chaos_config();
  apply_tracing(cfg, run_label);
  cfg.broker.repair.enabled = repair_on;

  std::unique_ptr<FailureInjector> inj;
  auto tail_base = std::make_shared<std::uint64_t>(0);
  const double tail_start = cfg.duration - kTailWindow;
  cfg.post_build.push_back([&, tail_base, tail_start](Scenario& s) {
    FailurePlan plan;
    plan.seed = cfg.seed;  // one seed reproduces workload and faults
    inj = std::make_unique<FailureInjector>(s.net(), plan);
    for (PhaseCrash& c : crash_schedule()) inj->crash_at_phase(c);
    s.net().events().schedule_at(tail_start, [&s, tail_base] {
      for (BrokerId b = 1; b <= s.net().overlay().broker_count(); ++b) {
        if (const auto* e = s.net().repair(b)) {
          *tail_base += e->stats().ops_total;
        }
      }
    });
  });

  Scenario s(cfg);
  s.run();

  HealResult r;
  r.movements = s.movements();
  r.crashes = inj->fault_hits().size();
  r.duplicates = s.audit().duplicates;
  r.mover_losses = s.audit().mover_losses;
  r.stationary_losses = s.audit().stationary_losses;
  r.audit_clean = s.audit_report().clean();
  r.audit_violations = s.audit_report().violations.size();
  for (BrokerId b = 1; b <= s.net().overlay().broker_count(); ++b) {
    if (s.net().broker(b).tables().has_pending_shadows()) ++r.shadow_brokers;
  }
  std::uint64_t final_ops = 0;
  for (BrokerId b = 1; b <= s.net().overlay().broker_count(); ++b) {
    const auto* e = s.net().repair(b);
    if (!e) continue;
    r.repair_rounds = std::max(r.repair_rounds, e->stats().rounds);
    final_ops += e->stats().ops_total;
  }
  r.repair_ops = final_ops;
  r.tail_ops = final_ops - *tail_base;
  return r;
}

}  // namespace

int main() {
  print_header("Extension — anti-entropy self-healing chaos soak",
               "phase-targeted crash-restart vs. the src/repair sweeps");

  BenchJson json = json_out("ext_self_heal");
  json.config()
      .field("brokers", 14)
      .field("crashes_scheduled", crash_schedule().size())
      .field("tail_window", kTailWindow);

  std::printf("%10s | %6s %7s | %5s %6s %6s | %7s %9s %8s | %6s\n", "run",
              "moves", "crashes", "dups", "losses", "shadow", "rounds",
              "repair_op", "tail_op", "audit");

  std::map<bool, HealResult> results;
  for (const bool repair_on : {true, false}) {
    const std::string label = repair_on ? "repair" : "no-repair";
    const HealResult r = run_one(repair_on, "extsh:" + label);
    results[repair_on] = r;
    std::printf("%10s | %6llu %7llu | %5llu %6llu %6zu | %7llu %9llu %8llu "
                "| %6s\n",
                label.c_str(), static_cast<unsigned long long>(r.movements),
                static_cast<unsigned long long>(r.crashes),
                static_cast<unsigned long long>(r.duplicates),
                static_cast<unsigned long long>(r.mover_losses +
                                                r.stationary_losses),
                r.shadow_brokers,
                static_cast<unsigned long long>(r.repair_rounds),
                static_cast<unsigned long long>(r.repair_ops),
                static_cast<unsigned long long>(r.tail_ops),
                r.audit_clean ? "clean" : "DIRTY");
    json.add_row()
        .field("run", label)
        .field("repair", repair_on)
        .field("movements", r.movements)
        .field("crashes", r.crashes)
        .field("duplicates", r.duplicates)
        .field("mover_losses", r.mover_losses)
        .field("stationary_losses", r.stationary_losses)
        .field("audit_clean", r.audit_clean)
        .field("audit_violations", r.audit_violations)
        .field("shadow_brokers", r.shadow_brokers)
        .field("repair_rounds", r.repair_rounds)
        .field("repair_ops_total", r.repair_ops)
        .field("tail_ops", r.tail_ops);
  }

  const HealResult& on = results.at(true);
  const HealResult& off = results.at(false);
  bool ok = true;

  if (on.crashes == 0) {
    std::fprintf(stderr, "GATE FAILED: no phase crash ever triggered\n");
    ok = false;
  }
  if (!on.audit_clean) {
    std::fprintf(stderr,
                 "GATE FAILED: repair-on run is not auditor-clean (%zu "
                 "violations)\n",
                 on.audit_violations);
    ok = false;
  }
  if (on.duplicates != 0 || on.mover_losses != 0 ||
      on.stationary_losses != 0) {
    std::fprintf(stderr,
                 "GATE FAILED: repair-on run duplicated %llu / lost %llu "
                 "deliveries\n",
                 static_cast<unsigned long long>(on.duplicates),
                 static_cast<unsigned long long>(on.mover_losses +
                                                 on.stationary_losses));
    ok = false;
  }
  if (on.shadow_brokers != 0) {
    std::fprintf(stderr,
                 "GATE FAILED: %zu brokers end with residual shadow state "
                 "despite repair\n",
                 on.shadow_brokers);
    ok = false;
  }
  if (on.repair_ops == 0) {
    std::fprintf(stderr,
                 "GATE FAILED: repair loop performed no corrective ops — the "
                 "chaos never exercised it\n");
    ok = false;
  }
  if (on.tail_ops != 0) {
    std::fprintf(stderr,
                 "GATE FAILED: %llu corrective ops in the final %.0fs — "
                 "repair did not converge\n",
                 static_cast<unsigned long long>(on.tail_ops), kTailWindow);
    ok = false;
  }
  // The negative control: without the healer the same chaos must visibly
  // strand state, or the repair-on gates above prove nothing.
  if (off.audit_clean && off.shadow_brokers == 0) {
    std::fprintf(stderr,
                 "GATE FAILED: repair-off run shows no damage — the crash "
                 "schedule is too weak to validate repair\n");
    ok = false;
  }

  std::printf("\n%s: repair healed %llu crashes across %llu movements "
              "(%llu corrective ops); without repair: %zu violations, %zu "
              "shadow brokers\n",
              ok ? "PASS" : "FAIL",
              static_cast<unsigned long long>(on.crashes),
              static_cast<unsigned long long>(on.movements),
              static_cast<unsigned long long>(on.repair_ops),
              off.audit_violations, off.shadow_brokers);
  return ok ? 0 : 1;
}
