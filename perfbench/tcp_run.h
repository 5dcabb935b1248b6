// One run of a workload on the real TCP host (TcpTransport on a chain),
// driven through public entry points only: TcpTransport::run_on, the
// MobilityEngine client operations, each engine's delivery sink and move
// callback, and the host's metrics registry, stats() and decode_failures().
// A single generator thread (the caller's) issues every operation.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "inputs.h"
#include "oracle.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// What the delivery sinks and move callbacks recorded, copied out after
/// the host stopped, plus the generator's own timestamps.
struct TcpRun {
  std::vector<double> setup_s;  ///< one per host set-up

  // Per publication (generator side).
  std::vector<std::int64_t> due_ns;    ///< 0 for closed-loop publications
  std::vector<std::int64_t> start_ns;  ///< just before run_on; 0 = not issued
  // Per publication (sink side).
  std::vector<std::int64_t> done_ns;  ///< last required delivery; 0 = none
  // Per receiver slot (sink side).
  std::vector<std::uint32_t> counts;
  std::vector<std::int64_t> first_ns;
  std::uint64_t unexpected = 0;  ///< deliveries that matched no slot

  // Per move slot: [paced: mover-major][unpaced: mover-major].
  std::vector<std::int64_t> move_start_ns;  ///< 0 = never initiated
  std::vector<std::int64_t> move_end_ns;
  /// 0 open, 1 committed, 2 aborted, 3 refused.
  std::vector<std::uint8_t> move_state;
  std::uint32_t paced_slots = 0;  ///< slots before the unpaced ones
  std::vector<std::uint64_t> msgs_per_move;  ///< Stats, committed moves

  std::array<double, kPhases> phase_s{};  ///< wall time of each phase
  /// Closed phase: process CPU minus the generator thread's, per
  /// publication, over each window of the workload's rate_window issues.
  std::vector<double> closed_cpu_us;
  std::uint64_t pub_frames = 0;  ///< frames sent during the publish phases
  std::uint64_t pub_bytes = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t send_failures = 0;
  /// A set-up or phase made no progress for too long.
  bool stalled = false;

  /// Origin spans (traced run only).
  SpanLog spans;
};

struct TcpOptions {
  /// Fresh hosts set up, each timed into TcpRun::setup_s; the last one runs
  /// the phases.
  std::uint32_t setup_reps = 1;
  bool traced = false;
};

/// Runs `in` on a fresh host; returns false (with a message on stderr) if
/// the host cannot start.
bool run_tcp(const Workload& w, const Inputs& in, const Oracle& oracle,
             const TcpOptions& opt, TcpRun& out);

}  // namespace perfbench
