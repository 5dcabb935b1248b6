// Generated inputs of one run: the population, every publication, every
// subscription replacement and the movers' schedule, all drawn from the
// workload record and the seed before the host starts. The TCP run, the
// single-thread replay and the oracle read the same Inputs.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "pubsub/filter.h"
#include "pubsub/publication.h"
#include "workloads.h"

namespace perfbench {

/// Closed interval on the `x` attribute.
struct Interval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

/// One subscriber: a stationary client or a mover. A subscription matches
/// publication (g, x) iff (group < 0 or group == g) and x lies in the
/// subscriber's current interval.
struct SubSpec {
  tmps::ClientId client = tmps::kNoClient;
  tmps::BrokerId home = tmps::kNoBroker;
  std::int64_t group = -1;  ///< Fig. 7 family; -1 = no `g` constraint
  Interval iv;
  bool mover = false;
};

/// In the order a run executes them. The closed-loop phase comes last, so
/// it also checks every receiver's routing after all the moves.
enum Phase : std::uint8_t { kOpen, kPaced, kUnpaced, kClosed, kPhases };

const char* to_string(Phase p);

struct PubSpec {
  std::int64_t g = 0;
  std::int64_t x = 0;
  Phase phase = kOpen;
  /// Due time from the phase start (open-loop and background publications);
  /// closed-loop publications are issued as the window allows.
  double due_s = 0;
};

/// Replaces stationary subscriber `sub`'s subscription with interval `iv`,
/// right before publication `before_pub` is issued.
struct ChurnOp {
  std::uint32_t before_pub = 0;
  std::uint32_t sub = 0;
  Interval iv;
};

struct Inputs {
  tmps::ClientId publisher = 1;
  std::vector<SubSpec> subs;  ///< stationary subscribers, then movers
  std::uint32_t stationary = 0;
  std::vector<PubSpec> pubs;  ///< grouped by phase, in execution order
  /// Publications of phase p are [phase_begin[p], phase_begin[p + 1]).
  std::array<std::uint32_t, kPhases + 1> phase_begin{};
  std::vector<ChurnOp> churn;  ///< sorted by before_pub
  std::uint32_t paced_moves_per_mover = 0;
  std::uint32_t unpaced_moves_per_mover = 0;

  std::uint32_t movers() const {
    return static_cast<std::uint32_t>(subs.size()) - stationary;
  }
  std::uint32_t phase_pubs(Phase p) const {
    return phase_begin[p + 1] - phase_begin[p];
  }
};

/// Draws the inputs of `w` for one run of `seconds` from `seed`.
Inputs generate(const Workload& w, std::uint64_t seed, double seconds);

/// Interval arithmetic: does `s`, holding interval `iv`, match `p`?
inline bool holds(const SubSpec& s, const Interval& iv, const PubSpec& p) {
  return (s.group < 0 || s.group == p.g) && iv.lo <= p.x && p.x <= iv.hi;
}

/// The subscription filter a subscriber holding interval `iv` issues.
tmps::Filter filter_of(const SubSpec& s, const Interval& iv);

/// Publication `i` of the run, with its benchmark-assigned id.
tmps::Publication publication_of(const Inputs& in, std::uint32_t i);

/// Publication ids start here, clear of the ids the publisher's stub
/// allocates for its advertisement.
inline constexpr std::uint32_t kPubSeqBase = 1u << 20;

}  // namespace perfbench
