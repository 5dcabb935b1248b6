#include "routing/routing_tables.h"

#include <algorithm>

#include "obs/profiler.h"

namespace tmps {

namespace {

/// The shared step of both add paths: forwards `entry` over `link` unless it
/// is already forwarded there, or covered (quenched) there.
template <class Item>
void offer(RouteTable<Item>& table, RouteEntry<Item>& entry, Hop link,
           bool covering, RoutingDelta& d) {
  if (entry.forwarded_to.contains(link)) return;
  if (covering &&
      table.covered_on_link(entry.item.id, entry.item.filter, link)) {
    return;
  }
  table.forward(entry, link, covering, /*induced=*/false, d);
}

}  // namespace

MatchResult RoutingTables::match(const Publication& pub) const {
  TMPS_PROF_STAGE(prof_, obs::Stage::kMatch);
  MatchResult r;
  r.version = version();
  match_scratch_.clear();
  prt_.fwd_.candidates(pub, match_scratch_);
  for (const auto& id : match_scratch_) {
    const SubEntry* e = prt_.find(id);
    if (!e || !e->item.filter.matches(pub)) continue;
    ++r.matched;
    // Shadow-only entries have no live primary hop; skip Hop::none().
    if (!e->shadow_only && !e->lasthop.is_none()) r.links.push_back(e->lasthop);
    if (e->shadow_lasthop && !e->shadow_lasthop->is_none()) {
      r.links.push_back(*e->shadow_lasthop);
    }
  }
  // Canonical link order: sorted and deduplicated, so fan-out is
  // deterministic regardless of the candidate order the index produced.
  std::sort(r.links.begin(), r.links.end());
  r.links.erase(std::unique(r.links.begin(), r.links.end()), r.links.end());
  return r;
}

bool RoutingTables::link_needed_for(const Filter& f, Hop link) const {
  std::vector<EntityId> cands;
  srt_.cover_.adv_intersect_candidates(f, cands);
  for (const auto& id : cands) {
    const AdvEntry* a = srt_.find(id);
    if (a && a->lasthop == link && f.intersects_advertisement(a->item.filter)) {
      return true;
    }
  }
  return false;
}

void RoutingTables::set_profiler(obs::StageProfiler* prof) {
  prof_ = prof;
  prt_.prof_ = prof;
  srt_.prof_ = prof;
}

// --- mutation API ------------------------------------------------------------

RoutingDelta RoutingTables::add_sub(const Subscription& sub, Hop from,
                                    const CoveringPolicy& policy) {
  RoutingDelta d;
  SubEntry& entry = prt_.upsert(sub, from);
  // Forward towards every intersecting advertisement's last hop.
  for (const AdvEntry* a : srt_.intersecting(sub.filter)) {
    if (!a->lasthop.is_broker() || a->lasthop == from) continue;
    offer(prt_, entry, a->lasthop, policy.subs, d);
  }
  return d;
}

RoutingDelta RoutingTables::remove_sub(const SubscriptionId& id, Hop from,
                                       const CoveringPolicy& policy) {
  return prt_.remove(id, from, policy.subs, link_need());
}

RoutingDelta RoutingTables::add_adv(const Advertisement& adv, Hop from,
                                    const std::vector<Hop>& flood_links,
                                    const CoveringPolicy& policy) {
  RoutingDelta d;
  AdvEntry& entry = srt_.upsert(adv, from);

  // Advertisements flood to all neighbours except the one they came from.
  for (const Hop& link : flood_links) {
    if (!link.is_broker() || link == from) continue;
    offer(srt_, entry, link, policy.advs, d);
  }

  // Subscriptions that intersect the new advertisement must now be forwarded
  // towards it (over the link it arrived on).
  if (from.is_broker()) {
    std::vector<SubscriptionId> sids;
    for (const SubEntry* s : prt_.intersecting(adv.filter)) {
      sids.push_back(s->item.id);
    }
    for (const auto& sid : sids) {
      SubEntry* s = prt_.find(sid);
      if (!s || s->shadow_only) continue;
      if (s->lasthop == from || s->forwarded_to.contains(from)) continue;
      if (policy.subs && prt_.covered_on_link(sid, s->item.filter, from)) {
        continue;
      }
      prt_.forward(*s, from, policy.subs, /*induced=*/false, d);
    }
  }
  return d;
}

RoutingDelta RoutingTables::remove_adv(const AdvertisementId& id, Hop from,
                                       const CoveringPolicy& policy) {
  return srt_.remove(id, from, policy.advs);
}

RoutingDelta RoutingTables::dispatch(const RoutingMutation& m,
                                     const CoveringPolicy& policy) {
  switch (m.kind) {
    case RoutingMutation::Kind::kAddSub:
      return add_sub(m.sub, m.from, policy);
    case RoutingMutation::Kind::kRemoveSub:
      return remove_sub(m.id, m.from, policy);
    case RoutingMutation::Kind::kAddAdv:
      return add_adv(m.adv, m.from, m.flood_links, policy);
    case RoutingMutation::Kind::kRemoveAdv:
      return remove_adv(m.id, m.from, policy);
  }
  return {};  // unreachable
}

RoutingDelta RoutingTables::apply(const RoutingMutation& m,
                                  const CoveringPolicy& policy) {
  MutationBatch scope(*this);
  return dispatch(m, policy);
}

std::vector<RoutingDelta> RoutingTables::apply_batch(
    const std::vector<RoutingMutation>& muts, const CoveringPolicy& policy) {
  MutationBatch scope(*this);
  std::vector<RoutingDelta> out;
  out.reserve(muts.size());
  for (const RoutingMutation& m : muts) out.push_back(dispatch(m, policy));
  return out;
}

// --- index consistency -------------------------------------------------------

namespace {

bool contains(const std::vector<EntityId>& ids, const EntityId& id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

/// Filed ids, sorted; reports ids filed twice or with no row in `table`.
template <class Table>
void check_filings(std::vector<EntityId> filed, const Table& table,
                   const std::string& what, std::vector<std::string>& out) {
  std::sort(filed.begin(), filed.end());
  for (std::size_t i = 0; i < filed.size(); ++i) {
    if (i > 0 && filed[i] == filed[i - 1]) {
      out.push_back(what + " files " + to_string(filed[i]) +
                    " more than once");
    }
    if (!table.find(filed[i])) {
      out.push_back(what + " holds dangling id " + to_string(filed[i]));
    }
  }
}

}  // namespace

std::vector<std::string> RoutingTables::check_cover_index() const {
  std::vector<std::string> out;
  const auto check = [&out](const auto& table, const std::string& name,
                            const std::string& kind) {
    const CoveringIndex& idx = table.cover_;
    if (idx.size() != table.size()) {
      out.push_back(kind + " cover index size " + std::to_string(idx.size()) +
                    " != " + name + " size " + std::to_string(table.size()));
    }
    std::vector<EntityId> ids;
    for (const auto& [id, e] : table) {
      ids.clear();
      idx.coverer_candidates(e.item.filter, ids);
      if (!contains(ids, id)) {
        out.push_back(name + " entry " + to_string(id) +
                      " missing from its own coverer candidates");
      }
      ids.clear();
      idx.covered_candidates(e.item.filter, ids);
      if (!contains(ids, id)) {
        out.push_back(name + " entry " + to_string(id) +
                      " missing from its own covered candidates");
      }
    }
    ids.clear();
    idx.all_ids(ids);
    check_filings(std::move(ids), table, kind + " cover index", out);
  };
  check(prt_, "PRT", "sub");
  check(srt_, "SRT", "adv");
  return out;
}

std::vector<std::string> RoutingTables::check_forward_index() const {
  const ForwardingIndex& fwd = prt_.fwd_;
  // The index's own structural invariants first (filings present exactly
  // once, no dead postings, slot targets consistent).
  std::vector<std::string> out = fwd.check();
  if (fwd.size() != prt_.size()) {
    out.push_back("forward index size " + std::to_string(fwd.size()) +
                  " != PRT size " + std::to_string(prt_.size()));
  }
  std::vector<SubscriptionId> filed;
  fwd.all_ids(filed);
  check_filings(std::move(filed), prt_, "forward index", out);
  // Self-candidacy: probe with a witness publication drawn from the entry's
  // own filter (one satisfying value per constrained attribute, when one is
  // directly constructible from the interval view); the entry must be among
  // the candidates. Entries whose witness is not constructible (open bounds
  // only) are covered by the equivalence property test instead.
  std::vector<SubscriptionId> cands;
  for (const auto& [id, e] : prt_) {
    const Filter& f = e.item.filter;
    if (!f.satisfiable()) continue;
    Publication w;
    bool constructible = true;
    for (const auto& [attr, c] : f.constraints()) {
      if (const auto s = c.singleton_value(); s && c.satisfies(*s)) {
        w.set(attr, *s);
      } else if (c.lower_bound() && !c.lower_open() &&
                 c.satisfies(*c.lower_bound())) {
        w.set(attr, *c.lower_bound());
      } else if (c.upper_bound() && !c.upper_open() &&
                 c.satisfies(*c.upper_bound())) {
        w.set(attr, *c.upper_bound());
      } else if (c.unconstrained()) {
        w.set(attr, Value{0});
      } else {
        constructible = false;
        break;
      }
    }
    if (!constructible || !f.matches(w)) continue;
    cands.clear();
    fwd.candidates(w, cands);
    if (!contains(cands, id)) {
      out.push_back("PRT entry " + to_string(id) +
                    " missing from the candidates of its own witness "
                    "publication");
    }
  }
  return out;
}

}  // namespace tmps
