// The result type of RoutingTables' mutation API (add_sub/remove_sub/
// add_adv/remove_adv): an ordered list of link operations the caller must
// transmit, so broker and mobility engine never recompute quench/retract/
// unquench sets themselves.
//
// Op order is significant and preserves the wire protocol's correctness
// windows: an un-quenched subscription is forwarded BEFORE the
// unsubscription that exposed it propagates (publications keep flowing), and
// a newly forwarded subscription precedes the retractions of the entries it
// strictly covers on that link.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "pubsub/subscription.h"
#include "routing/hop.h"

namespace tmps {

struct RoutingOp {
  enum class Kind : std::uint8_t {
    kForwardSub,  // send Subscribe(id) over link
    kRetractSub,  // send Unsubscribe(id) over link
    kForwardAdv,  // send Advertise(id) over link
    kRetractAdv,  // send Unadvertise(id) over link
  };

  Kind kind;
  /// Subscription or advertisement id; the entry is live in the tables when
  /// the op is emitted (removal ops emit the subject's retraction last).
  EntityId id;
  Hop link;
  /// True when the op was induced by the covering optimization (a retract of
  /// a strictly-covered entry, or an un-quench re-forward) rather than by
  /// the subject operation itself — drives the covering metrics/trace tags.
  bool induced = false;
};

struct RoutingDelta {
  /// False when the mutation was dropped as stale (unknown id or an
  /// unsubscribe/unadvertise arriving from a hop that no longer owns the
  /// entry) — possible under covering churn; nothing must be sent.
  bool applied = true;
  std::vector<RoutingOp> ops;

  bool empty() const { return ops.empty(); }
};

/// Which covering optimizations a mutation should apply — mirrors the
/// broker's configuration.
struct CoveringPolicy {
  bool subs = true;
  bool advs = true;
};

/// One routing-table mutation as a value, for RoutingTables::apply /
/// apply_batch: the four mutation entry points (add_sub/remove_sub/
/// add_adv/remove_adv) reified so callers can assemble a burst — a mobility
/// hand-off retracting a whole client profile, a balancer plan, the target
/// broker re-issuing a moved profile — and apply it in one batch that
/// amortizes forwarding-index maintenance.
struct RoutingMutation {
  enum class Kind : std::uint8_t {
    kAddSub,     // add_sub(sub, from)
    kRemoveSub,  // remove_sub(id, from)
    kAddAdv,     // add_adv(adv, from, flood_links)
    kRemoveAdv,  // remove_adv(id, from)
  };

  Kind kind = Kind::kAddSub;
  Subscription sub;    // kAddSub
  Advertisement adv;   // kAddAdv
  EntityId id;         // kRemoveSub / kRemoveAdv
  Hop from;
  /// Broker links an advertisement floods over (kAddAdv). Broker::
  /// inject_batch fills this with the overlay neighbours when left empty.
  std::vector<Hop> flood_links;

  static RoutingMutation add_sub(Subscription s, Hop from) {
    RoutingMutation m;
    m.kind = Kind::kAddSub;
    m.sub = std::move(s);
    m.from = from;
    return m;
  }
  static RoutingMutation remove_sub(const SubscriptionId& id, Hop from) {
    RoutingMutation m;
    m.kind = Kind::kRemoveSub;
    m.id = id;
    m.from = from;
    return m;
  }
  static RoutingMutation add_adv(Advertisement a, Hop from,
                                 std::vector<Hop> flood_links = {}) {
    RoutingMutation m;
    m.kind = Kind::kAddAdv;
    m.adv = std::move(a);
    m.from = from;
    m.flood_links = std::move(flood_links);
    return m;
  }
  static RoutingMutation remove_adv(const AdvertisementId& id, Hop from) {
    RoutingMutation m;
    m.kind = Kind::kRemoveAdv;
    m.id = id;
    m.from = from;
    return m;
  }
};

}  // namespace tmps
