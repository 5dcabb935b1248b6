// Expected deliveries of a run, computed from the generated inputs by
// interval arithmetic (never by Filter::matches), and the exactly-once
// check over what the delivery sinks recorded. Both run outside the timed
// region.
#pragma once

#include <cstdint>
#include <vector>

#include "inputs.h"

namespace perfbench {

class Oracle {
 public:
  /// One (publication, client) pair the run may deliver.
  struct Receiver {
    tmps::ClientId client = tmps::kNoClient;
    /// A delivery is allowed but not required (left out of the loss check
    /// only; a second copy is still a duplicate). Either the publication
    /// races a replacement of this client's subscription, or the client is
    /// a mover and the publication belongs to a move phase: TcpTransport
    /// sends a broker's outputs after releasing its lock, so a publication
    /// matched just before an approve or state message can follow it on the
    /// link and miss the mover.
    bool maybe = false;
    bool mover = false;
  };

  struct Verdict {
    std::uint64_t required = 0;    ///< non-maybe receivers
    std::uint64_t lost = 0;        ///< required, never delivered
    std::uint64_t duplicates = 0;  ///< extra copies of any delivery
    std::uint64_t unexpected = 0;  ///< deliveries to non-receivers
    std::uint64_t excluded = 0;    ///< maybe receivers
    std::uint64_t maybe_missed = 0;  ///< maybe receivers never delivered
    std::uint64_t failures() const { return lost + duplicates + unexpected; }
  };

  /// `race_window`: publications this many positions either side of a
  /// replacement count as racing it.
  Oracle(const Inputs& in, std::uint32_t race_window);

  std::uint32_t pubs() const {
    return static_cast<std::uint32_t>(begin_.size()) - 1;
  }
  /// Receiver slots of publication i are [begin(i), begin(i + 1)).
  std::uint32_t begin(std::uint32_t i) const { return begin_[i]; }
  std::uint32_t slots() const { return begin_.back(); }
  const Receiver& slot(std::uint32_t s) const { return recv_[s]; }
  /// Required (non-maybe) receivers of publication i.
  std::uint32_t required(std::uint32_t i) const { return required_[i]; }

  /// `counts[s]`: deliveries recorded for slot s; `unexpected`: deliveries
  /// that matched no slot.
  Verdict verify(const std::vector<std::uint32_t>& counts,
                 std::uint64_t unexpected) const;

  /// Negative control: withholds one required delivery and duplicates
  /// another in copies of `counts`; true when verify() flags each.
  bool self_check(const std::vector<std::uint32_t>& counts,
                  std::uint64_t unexpected) const;

 private:
  std::vector<std::uint32_t> begin_;
  std::vector<Receiver> recv_;
  std::vector<std::uint32_t> required_;
};

}  // namespace perfbench
