#include "routing_reference.h"

#include <algorithm>
#include <set>

namespace tmps {

// --- full-scan oracles -------------------------------------------------------

MatchResult match_scan(const RoutingTables& rt, const Publication& pub) {
  MatchResult r;
  r.version = rt.version();
  for (const auto& [id, e] : rt.prt()) {
    if (!e.item.filter.matches(pub)) continue;
    ++r.matched;
    if (!e.shadow_only && !e.lasthop.is_none()) r.links.push_back(e.lasthop);
    if (e.shadow_lasthop && !e.shadow_lasthop->is_none()) {
      r.links.push_back(*e.shadow_lasthop);
    }
  }
  std::sort(r.links.begin(), r.links.end());
  r.links.erase(std::unique(r.links.begin(), r.links.end()), r.links.end());
  return r;
}

bool link_needed_for_scan(const RoutingTables& rt, const Filter& f, Hop link) {
  for (const auto& [id, a] : rt.srt()) {
    if (a.lasthop == link && f.intersects_advertisement(a.item.filter)) {
      return true;
    }
  }
  return false;
}

RoutingTables::Prt::LinkNeed link_need_scan(const RoutingTables& rt) {
  return [&rt](const Filter& f, Hop link) {
    return link_needed_for_scan(rt, f, link);
  };
}

// --- covering invariants at one broker ---------------------------------------

std::vector<std::string> audit_covering_invariants(
    const RoutingTables& rt, const std::vector<Hop>& links) {
  std::vector<std::string> out;
  for (const Hop& link : links) {
    for (const auto& [id, e] : rt.prt()) {
      if (e.shadow_only) continue;
      if (e.forwarded_to.contains(link)) {
        // (1) antichain: nothing active may strictly cover another active.
        for (const auto& [oid, o] : rt.prt()) {
          if (oid == id || !o.forwarded_to.contains(link)) continue;
          if (o.item.filter.covers(e.item.filter) &&
              !e.item.filter.covers(o.item.filter)) {
            out.push_back("link " + link.to_string() + ": active sub " +
                          to_string(id) + " strictly covered by active " +
                          to_string(oid));
          }
        }
      } else if (e.lasthop != link &&
                 link_needed_for_scan(rt, e.item.filter, link) &&
                 !covered_on_link_scan(rt.prt(), id, e.item.filter, link)) {
        // (2) quench completeness.
        out.push_back("link " + link.to_string() + ": sub " + to_string(id) +
                      " needs the link but is neither forwarded nor covered");
      }
    }
  }
  return out;
}

// --- routing consistency across brokers --------------------------------------

std::string AuditViolation::to_string() const {
  return "sub " + tmps::to_string(sub) + " (subscriber at B" +
         std::to_string(subscriber_broker) + ", publisher at B" +
         std::to_string(publisher_broker) + "): " + detail;
}

void RoutingAuditor::expect_subscriber(const SubscriptionId& sub,
                                       const Filter& filter, BrokerId at) {
  subs_[sub] = Expected{filter, at};
}

void RoutingAuditor::expect_publisher(const AdvertisementId& adv,
                                      const Filter& filter, BrokerId at) {
  advs_[adv] = Expected{filter, at};
}

std::string RoutingAuditor::walk(const SubscriptionId& sub, BrokerId from,
                                 BrokerId to) const {
  BrokerId cur = from;
  std::set<BrokerId> visited;
  while (true) {
    if (!visited.insert(cur).second) {
      return "loop at B" + std::to_string(cur);
    }
    const SubEntry* e = tables_of_(cur).prt().find(sub);
    if (!e) return "no PRT entry at B" + std::to_string(cur);
    const Hop next = e->lasthop;
    if (next.is_client()) {
      if (cur != to) {
        return "client hop at B" + std::to_string(cur) +
               " but subscriber is at B" + std::to_string(to);
      }
      if (next.client != sub.client) {
        return "entry at B" + std::to_string(cur) + " points at client " +
               std::to_string(next.client);
      }
      return {};
    }
    if (!next.is_broker()) {
      return "dead entry (no last hop) at B" + std::to_string(cur);
    }
    if (!overlay_->are_neighbors(cur, next.broker)) {
      return "entry at B" + std::to_string(cur) + " points at non-neighbour B" +
             std::to_string(next.broker);
    }
    cur = next.broker;
  }
}

std::vector<AuditViolation> RoutingAuditor::audit() const {
  std::vector<AuditViolation> out;
  for (const auto& [sid, s] : subs_) {
    for (const auto& [aid, a] : advs_) {
      if (!s.filter.intersects_advertisement(a.filter)) continue;
      const std::string err = walk(sid, a.at, s.at);
      if (!err.empty()) {
        out.push_back(AuditViolation{sid, s.at, a.at, err});
      }
    }
  }
  return out;
}

std::vector<AuditViolation> RoutingAuditor::audit_no_shadows() const {
  std::vector<AuditViolation> out;
  for (BrokerId b = 1; b <= overlay_->broker_count(); ++b) {
    if (tables_of_(b).has_pending_shadows()) {
      out.push_back(AuditViolation{{}, kNoBroker, b,
                                   "unresolved shadow state at B" +
                                       std::to_string(b)});
    }
  }
  return out;
}

}  // namespace tmps
