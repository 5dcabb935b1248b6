// Reference implementations for checking the routing tables: full-scan
// oracles of the index-backed queries, and the two whole-state auditors
// (Sec. 3.5 routing consistency across brokers, covering invariants at one
// broker). Everything here reads table rows only — never a CoveringIndex or
// ForwardingIndex — so an index bug cannot hide in its own oracle. Linked by
// the test binaries and the micro-benchmarks that cross-check the indexes;
// nothing in src/ depends on it.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "routing/overlay.h"
#include "routing/routing_tables.h"

namespace tmps {

// --- full-scan oracles -------------------------------------------------------
// Same answers as the RoutingTables / RouteTable queries they are named
// after; vector results are ordered by id.

/// RoutingTables::match by a full PRT scan.
MatchResult match_scan(const RoutingTables& rt, const Publication& pub);

namespace detail {

template <class Entry>
std::vector<const Entry*> sorted_by_id(std::vector<const Entry*> es) {
  std::sort(es.begin(), es.end(), [](const Entry* a, const Entry* b) {
    return a->item.id < b->item.id;
  });
  return es;
}

}  // namespace detail

/// RouteTable::intersecting.
template <class Item>
std::vector<const RouteEntry<Item>*> intersecting_scan(
    const RouteTable<Item>& table, const Filter& f) {
  std::vector<const RouteEntry<Item>*> out;
  for (const auto& [id, e] : table) {
    const bool hit = RouteTable<Item>::kIsPrt
                         ? e.item.filter.intersects_advertisement(f)
                         : f.intersects_advertisement(e.item.filter);
    if (hit) out.push_back(&e);
  }
  return detail::sorted_by_id(std::move(out));
}

/// RouteTable::covered_on_link.
template <class Item>
bool covered_on_link_scan(const RouteTable<Item>& table, const EntityId& self,
                          const Filter& filter, Hop link) {
  for (const auto& [id, e] : table) {
    if (id == self || !e.forwarded_to.contains(link)) continue;
    if (e.item.filter.covers(filter)) return true;
  }
  return false;
}

/// RouteTable::strictly_covered_on_link.
template <class Item>
std::vector<const RouteEntry<Item>*> strictly_covered_on_link_scan(
    const RouteTable<Item>& table, const EntityId& self, const Filter& filter,
    Hop link) {
  std::vector<const RouteEntry<Item>*> out;
  for (const auto& [id, e] : table) {
    if (id == self || !e.forwarded_to.contains(link)) continue;
    if (filter.covers(e.item.filter) && !e.item.filter.covers(filter)) {
      out.push_back(&e);
    }
  }
  return detail::sorted_by_id(std::move(out));
}

/// RouteTable::unquench_candidates.
template <class Item>
std::vector<const RouteEntry<Item>*> unquench_candidates_scan(
    const RouteTable<Item>& table, const RouteEntry<Item>& removed, Hop link,
    const typename RouteTable<Item>::LinkNeed& need = {}) {
  std::vector<const RouteEntry<Item>*> out;
  for (const auto& [id, e] : table) {
    if (id == removed.item.id) continue;
    if (e.shadow_only) continue;
    if (e.lasthop == link) continue;
    if (e.forwarded_to.contains(link)) continue;
    if (!removed.item.filter.covers(e.item.filter)) continue;
    if (need && !need(e.item.filter, link)) continue;
    if (covered_on_link_scan(table, id, e.item.filter, link)) continue;
    out.push_back(&e);
  }
  return detail::sorted_by_id(std::move(out));
}

/// RoutingTables::link_needed_for by a full SRT scan.
bool link_needed_for_scan(const RoutingTables& rt, const Filter& f, Hop link);

/// RoutingTables::link_need by full scan: link_needed_for_scan as the PRT's
/// LinkNeed.
RoutingTables::Prt::LinkNeed link_need_scan(const RoutingTables& rt);

// --- covering invariants at one broker ---------------------------------------

/// Audits the covering invariants at one broker over the given links:
///  (1) antichain — no forwarded subscription is strictly covered by another
///      forwarded subscription on the same link (retraction happened);
///  (2) quench completeness — every subscription that needs a link (an
///      intersecting advertisement lies behind it) is either forwarded there
///      or covered by one that is (delivery is never silently dropped).
/// Returns human-readable violation descriptions; empty means consistent.
/// Only meaningful at quiesce points of covering-enabled static networks
/// (in-flight operations and mobility shadow state legitimately break it).
std::vector<std::string> audit_covering_invariants(
    const RoutingTables& rt, const std::vector<Hop>& links);

// --- routing consistency across brokers --------------------------------------
//
// Consistency, operationally: for every subscription S hosted at broker
// B(S) and every advertisement A hosted at broker B(A) whose filter
// intersects S, a publication conforming to both must be deliverable — i.e.
// starting at B(A), greedily following PRT entries for publications matching
// S must reach B(S) without loops. The auditor walks the tables directly
// (no messages) and reports every broken pair.
//
// Stale extra entries are allowed (the paper's consistency explicitly
// permits them); only *missing or misdirected* paths are violations.
//
// Scope: the per-subscription walk assumes each subscription owns its
// delivery path — exact for covering-disabled networks (every
// reconfiguration-mobility deployment; see DESIGN.md §5a). Under covering,
// quenched subscriptions legitimately ride their coverer's path and the
// walk would report false positives.

struct AuditViolation {
  SubscriptionId sub;
  BrokerId subscriber_broker = kNoBroker;
  BrokerId publisher_broker = kNoBroker;
  std::string detail;

  std::string to_string() const;
};

class RoutingAuditor {
 public:
  /// `tables_of` resolves a broker id to its routing tables.
  RoutingAuditor(const Overlay& overlay,
                 std::function<const RoutingTables&(BrokerId)> tables_of)
      : overlay_(&overlay), tables_of_(std::move(tables_of)) {}

  /// Declares where a client (and hence its subscriptions) currently lives.
  void expect_subscriber(const SubscriptionId& sub, const Filter& filter,
                         BrokerId at);
  /// Declares a publisher/advertisement position.
  void expect_publisher(const AdvertisementId& adv, const Filter& filter,
                        BrokerId at);

  /// Checks every intersecting (advertisement, subscription) pair. Returns
  /// all violations (empty = consistent).
  std::vector<AuditViolation> audit() const;

  /// Additionally verifies no broker holds unresolved shadow state.
  std::vector<AuditViolation> audit_no_shadows() const;

 private:
  struct Expected {
    Filter filter;
    BrokerId at = kNoBroker;
  };

  /// Follows PRT entries for `sub` from `from` to `to`; empty string on
  /// success, else a description of where the walk broke.
  std::string walk(const SubscriptionId& sub, BrokerId from,
                   BrokerId to) const;

  const Overlay* overlay_;
  std::function<const RoutingTables&(BrokerId)> tables_of_;
  std::map<SubscriptionId, Expected> subs_;
  std::map<AdvertisementId, Expected> advs_;
};

}  // namespace tmps
