// The benchmark's workloads, declared as data: each record names its host,
// topology, population, filters, rates and phases next to the one-line
// reason it exists. inputs.cc turns a record plus a seed into generated
// inputs; the brokers only ever see those inputs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"

namespace perfbench {

/// How stationary subscribers and movers pick their filters.
enum class FilterShape {
  /// Fig. 7 `covered` families: class=STOCK ∧ g=family ∧ x∈[lo,hi], with
  /// the family's root spanning the space and nine disjoint leaves.
  kFig7Covered,
  /// class=STOCK ∧ x∈[lo,lo+w]: every filter lands in one `class` bucket.
  kRange,
};

/// One workload. Phase sizes are operations per second of the run's
/// --seconds budget: a run issues a fixed number of operations, however
/// fast the system turns out to be.
struct Workload {
  std::string name;
  std::string why;

  // Host: TcpTransport on Overlay::chain(brokers), BrokerConfig defaults
  // except covering off (reconfiguration mobility is unsound with it).
  std::uint32_t brokers = 5;
  tmps::BrokerId publisher_at = 1;

  // Population.
  FilterShape shape = FilterShape::kFig7Covered;
  std::uint32_t subscribers = 0;            ///< stationary subscribers
  std::vector<tmps::BrokerId> sub_brokers;  ///< round-robin placement
  std::uint32_t families = 0;               ///< kFig7Covered families
  std::int64_t width_lo = 10, width_hi = 70;  ///< kRange interval widths
  /// One subscription each, from the stationary subscribers' filter shape
  /// (kFig7Covered: one of their families), alternating a<->b.
  std::uint32_t movers = 0;
  tmps::BrokerId mover_a = 1, mover_b = 5;

  // Subscription churn: one replacement (unsubscribe + subscribe with a
  // fresh interval) before every Nth publication; 0 = none.
  std::uint32_t churn_every_open = 0;
  std::uint32_t churn_every_closed = 0;

  // Phases, in order: open-loop publish, paced moves, unpaced moves,
  // closed-loop publish. Move phases carry background publications at
  // move_pub_rate (0 = none).
  double open_rate = 0;
  std::uint32_t open_pubs_per_s = 0;
  std::uint32_t closed_outstanding = 64;
  std::uint32_t closed_pubs_per_s = 0;
  std::uint32_t rate_window = 0;  ///< completions per pub_rate window
  double move_gap_s = 0.020;      ///< paced: least wait after a commit
  double move_period_s = 0.025;   ///< paced: each mover's timetable period
  std::uint32_t paced_moves_per_s = 0;
  std::uint32_t unpaced_moves_per_s = 0;
  std::uint32_t move_window = 0;  ///< commits per move_rate window
  double move_pub_rate = 0;
  std::uint32_t paced_pubs_per_s = 0;
  std::uint32_t unpaced_pubs_per_s = 0;

  /// Traced run: inputs replayed on one thread (per publish phase / per
  /// move phase), a prefix of what the TCP run issues.
  std::uint32_t replay_pubs = 0;
  std::uint32_t replay_moves = 0;
};

const std::vector<Workload>& workloads();
/// nullptr when no workload has that name.
const Workload* find_workload(std::string_view name);

}  // namespace perfbench
