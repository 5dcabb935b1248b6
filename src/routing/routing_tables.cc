#include "routing/routing_tables.h"

#include <algorithm>

#include "obs/profiler.h"

namespace tmps {

SubEntry& RoutingTables::upsert_sub(const Subscription& sub, Hop lasthop) {
  ++version_;
  auto [it, inserted] = prt_.try_emplace(sub.id);
  if (!inserted) {
    sub_cover_.erase(sub.id, it->second.sub.filter);
  }
  it->second.sub = sub;
  it->second.lasthop = lasthop;
  if (inserted) it->second.shadow_only = false;
  fwd_.insert(sub.id, sub.filter);  // re-files on upsert
  sub_cover_.insert(sub.id, sub.filter);
  return it->second;
}

SubEntry* RoutingTables::find_sub(const SubscriptionId& id) {
  auto it = prt_.find(id);
  return it == prt_.end() ? nullptr : &it->second;
}

const SubEntry* RoutingTables::find_sub(const SubscriptionId& id) const {
  auto it = prt_.find(id);
  return it == prt_.end() ? nullptr : &it->second;
}

void RoutingTables::erase_sub(const SubscriptionId& id) {
  auto it = prt_.find(id);
  if (it == prt_.end()) return;
  ++version_;
  fwd_.erase(id);
  sub_cover_.erase(id, it->second.sub.filter);
  prt_.erase(it);
}

AdvEntry& RoutingTables::upsert_adv(const Advertisement& adv, Hop lasthop) {
  ++version_;
  auto [it, inserted] = srt_.try_emplace(adv.id);
  if (!inserted) adv_cover_.erase(adv.id, it->second.adv.filter);
  it->second.adv = adv;
  it->second.lasthop = lasthop;
  if (inserted) it->second.shadow_only = false;
  adv_cover_.insert(adv.id, adv.filter);
  return it->second;
}

AdvEntry* RoutingTables::find_adv(const AdvertisementId& id) {
  auto it = srt_.find(id);
  return it == srt_.end() ? nullptr : &it->second;
}

const AdvEntry* RoutingTables::find_adv(const AdvertisementId& id) const {
  auto it = srt_.find(id);
  return it == srt_.end() ? nullptr : &it->second;
}

void RoutingTables::erase_adv(const AdvertisementId& id) {
  auto it = srt_.find(id);
  if (it == srt_.end()) return;
  ++version_;
  adv_cover_.erase(id, it->second.adv.filter);
  srt_.erase(it);
}

void RoutingTables::collect_match(const SubEntry& e, const Publication& pub,
                                  MatchResult& r) {
  if (!e.sub.filter.matches(pub)) return;
  ++r.matched;
  // Shadow-only entries have no live primary hop; skip Hop::none().
  if (!e.shadow_only && !e.lasthop.is_none()) r.links.push_back(e.lasthop);
  if (e.shadow_lasthop && !e.shadow_lasthop->is_none()) {
    r.links.push_back(*e.shadow_lasthop);
  }
}

namespace {

/// Canonical link order: sorted and deduplicated, so fan-out is
/// deterministic regardless of the candidate order the index produced.
void finalize_links(std::vector<Hop>& links) {
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
}

}  // namespace

MatchResult RoutingTables::match(const Publication& pub) const {
  TMPS_PROF_STAGE(prof_, obs::Stage::kMatch);
  MatchResult r;
  r.version = version_;
  match_scratch_.clear();
  fwd_.candidates(pub, match_scratch_);
  for (const auto& id : match_scratch_) {
    const auto it = prt_.find(id);
    if (it == prt_.end()) continue;
    collect_match(it->second, pub, r);
  }
  finalize_links(r.links);
  return r;
}

MatchResult RoutingTables::match_scan(const Publication& pub) const {
  MatchResult r;
  r.version = version_;
  for (const auto& [id, e] : prt_) collect_match(e, pub, r);
  finalize_links(r.links);
  return r;
}

std::vector<const SubEntry*> RoutingTables::matching_subs(
    const Publication& pub) const {
  std::vector<const SubEntry*> out;
  std::vector<SubscriptionId> cands;
  fwd_.candidates(pub, cands);
  for (const auto& id : cands) {
    const auto it = prt_.find(id);
    if (it != prt_.end() && it->second.sub.filter.matches(pub)) {
      out.push_back(&it->second);
    }
  }
  return out;
}

std::vector<const SubEntry*> RoutingTables::matching_subs_scan(
    const Publication& pub) const {
  std::vector<const SubEntry*> out;
  for (const auto& [id, e] : prt_) {
    if (e.sub.filter.matches(pub)) out.push_back(&e);
  }
  return out;
}

namespace {

/// Deterministic output order for index-backed queries: candidate order
/// depends on bucket layout, so verified results are sorted by id.
void sort_ids(std::vector<EntityId>& ids) { std::sort(ids.begin(), ids.end()); }

}  // namespace

std::vector<const AdvEntry*> RoutingTables::intersecting_advs(
    const Filter& sub) const {
  TMPS_PROF_STAGE(prof_, obs::Stage::kCoverProbe);
  std::vector<EntityId> cands;
  adv_cover_.adv_intersect_candidates(sub, cands);
  sort_ids(cands);
  std::vector<const AdvEntry*> out;
  for (const auto& id : cands) {
    const auto it = srt_.find(id);
    if (it == srt_.end()) continue;
    if (sub.intersects_advertisement(it->second.adv.filter)) {
      out.push_back(&it->second);
    }
  }
  return out;
}

std::vector<const AdvEntry*> RoutingTables::intersecting_advs_scan(
    const Filter& sub) const {
  std::vector<const AdvEntry*> out;
  for (const auto& [id, e] : srt_) {
    if (sub.intersects_advertisement(e.adv.filter)) out.push_back(&e);
  }
  return out;
}

std::vector<const SubEntry*> RoutingTables::subs_intersecting(
    const Filter& adv) const {
  TMPS_PROF_STAGE(prof_, obs::Stage::kCoverProbe);
  std::vector<EntityId> cands;
  sub_cover_.sub_intersect_candidates(adv, cands);
  sort_ids(cands);
  std::vector<const SubEntry*> out;
  for (const auto& id : cands) {
    const auto it = prt_.find(id);
    if (it == prt_.end()) continue;
    if (it->second.sub.filter.intersects_advertisement(adv)) {
      out.push_back(&it->second);
    }
  }
  return out;
}

std::vector<const SubEntry*> RoutingTables::subs_intersecting_scan(
    const Filter& adv) const {
  std::vector<const SubEntry*> out;
  for (const auto& [id, e] : prt_) {
    if (e.sub.filter.intersects_advertisement(adv)) out.push_back(&e);
  }
  return out;
}

// --- covering queries ---------------------------------------------------------

bool RoutingTables::sub_covered_on_link(const SubscriptionId& self,
                                        const Filter& filter, Hop link) const {
  TMPS_PROF_STAGE(prof_, obs::Stage::kCoverProbe);
  std::vector<EntityId> cands;
  sub_cover_.coverer_candidates(filter, cands);
  for (const auto& id : cands) {
    if (id == self) continue;
    const auto it = prt_.find(id);
    if (it == prt_.end()) continue;
    const SubEntry& e = it->second;
    if (!e.forwarded_to.contains(link)) continue;
    if (e.sub.filter.covers(filter)) return true;
  }
  return false;
}

bool RoutingTables::sub_covered_on_link_scan(const SubscriptionId& self,
                                             const Filter& filter,
                                             Hop link) const {
  for (const auto& [id, e] : prt_) {
    if (id == self) continue;
    if (!e.forwarded_to.contains(link)) continue;
    if (e.sub.filter.covers(filter)) return true;
  }
  return false;
}

std::vector<SubEntry*> RoutingTables::strictly_covered_subs_on_link(
    const SubscriptionId& self, const Filter& filter, Hop link) {
  TMPS_PROF_STAGE(prof_, obs::Stage::kCoverProbe);
  std::vector<EntityId> cands;
  sub_cover_.covered_candidates(filter, cands);
  sort_ids(cands);
  std::vector<SubEntry*> out;
  for (const auto& id : cands) {
    if (id == self) continue;
    SubEntry* e = find_sub(id);
    if (!e || !e->forwarded_to.contains(link)) continue;
    if (filter.covers(e->sub.filter) && !e->sub.filter.covers(filter)) {
      out.push_back(e);
    }
  }
  return out;
}

std::vector<SubEntry*> RoutingTables::strictly_covered_subs_on_link_scan(
    const SubscriptionId& self, const Filter& filter, Hop link) {
  std::vector<SubEntry*> out;
  for (auto& [id, e] : prt_) {
    if (id == self) continue;
    if (!e.forwarded_to.contains(link)) continue;
    if (filter.covers(e.sub.filter) && !e.sub.filter.covers(filter)) {
      out.push_back(&e);
    }
  }
  return out;
}

std::vector<SubEntry*> RoutingTables::unquenched_subs_on_link(
    const SubEntry& removed, Hop link) {
  std::vector<EntityId> cands;
  sub_cover_.covered_candidates(removed.sub.filter, cands);
  sort_ids(cands);
  std::vector<SubEntry*> out;
  for (const auto& id : cands) {
    if (id == removed.sub.id) continue;
    SubEntry* e = find_sub(id);
    if (!e) continue;
    if (e->shadow_only) continue;  // not yet live at this broker
    if (e->lasthop == link) continue;
    if (e->forwarded_to.contains(link)) continue;
    if (!removed.sub.filter.covers(e->sub.filter)) continue;
    if (!link_needed_for(e->sub.filter, link)) continue;
    // A remaining forwarded subscription may still cover it.
    if (sub_covered_on_link(id, e->sub.filter, link)) continue;
    out.push_back(e);
  }
  return out;
}

std::vector<SubEntry*> RoutingTables::unquenched_subs_on_link_scan(
    const SubEntry& removed, Hop link) {
  std::vector<SubEntry*> out;
  for (auto& [id, e] : prt_) {
    if (id == removed.sub.id) continue;
    if (e.shadow_only) continue;
    if (e.lasthop == link) continue;
    if (e.forwarded_to.contains(link)) continue;
    if (!removed.sub.filter.covers(e.sub.filter)) continue;
    if (!link_needed_for_scan(e.sub.filter, link)) continue;
    if (sub_covered_on_link_scan(id, e.sub.filter, link)) continue;
    out.push_back(&e);
  }
  return out;
}

bool RoutingTables::adv_covered_on_link(const AdvertisementId& self,
                                        const Filter& filter, Hop link) const {
  TMPS_PROF_STAGE(prof_, obs::Stage::kCoverProbe);
  std::vector<EntityId> cands;
  adv_cover_.coverer_candidates(filter, cands);
  for (const auto& id : cands) {
    if (id == self) continue;
    const auto it = srt_.find(id);
    if (it == srt_.end()) continue;
    const AdvEntry& e = it->second;
    if (!e.forwarded_to.contains(link)) continue;
    if (e.adv.filter.covers(filter)) return true;
  }
  return false;
}

bool RoutingTables::adv_covered_on_link_scan(const AdvertisementId& self,
                                             const Filter& filter,
                                             Hop link) const {
  for (const auto& [id, e] : srt_) {
    if (id == self) continue;
    if (!e.forwarded_to.contains(link)) continue;
    if (e.adv.filter.covers(filter)) return true;
  }
  return false;
}

std::vector<AdvEntry*> RoutingTables::strictly_covered_advs_on_link(
    const AdvertisementId& self, const Filter& filter, Hop link) {
  TMPS_PROF_STAGE(prof_, obs::Stage::kCoverProbe);
  std::vector<EntityId> cands;
  adv_cover_.covered_candidates(filter, cands);
  sort_ids(cands);
  std::vector<AdvEntry*> out;
  for (const auto& id : cands) {
    if (id == self) continue;
    AdvEntry* e = find_adv(id);
    if (!e || !e->forwarded_to.contains(link)) continue;
    if (filter.covers(e->adv.filter) && !e->adv.filter.covers(filter)) {
      out.push_back(e);
    }
  }
  return out;
}

std::vector<AdvEntry*> RoutingTables::strictly_covered_advs_on_link_scan(
    const AdvertisementId& self, const Filter& filter, Hop link) {
  std::vector<AdvEntry*> out;
  for (auto& [id, e] : srt_) {
    if (id == self) continue;
    if (!e.forwarded_to.contains(link)) continue;
    if (filter.covers(e.adv.filter) && !e.adv.filter.covers(filter)) {
      out.push_back(&e);
    }
  }
  return out;
}

std::vector<AdvEntry*> RoutingTables::unquenched_advs_on_link(
    const AdvEntry& removed, Hop link) {
  std::vector<EntityId> cands;
  adv_cover_.covered_candidates(removed.adv.filter, cands);
  sort_ids(cands);
  std::vector<AdvEntry*> out;
  for (const auto& id : cands) {
    if (id == removed.adv.id) continue;
    AdvEntry* e = find_adv(id);
    if (!e) continue;
    if (e->shadow_only) continue;
    if (e->lasthop == link) continue;
    if (e->forwarded_to.contains(link)) continue;
    if (!removed.adv.filter.covers(e->adv.filter)) continue;
    if (adv_covered_on_link(id, e->adv.filter, link)) continue;
    out.push_back(e);
  }
  return out;
}

std::vector<AdvEntry*> RoutingTables::unquenched_advs_on_link_scan(
    const AdvEntry& removed, Hop link) {
  std::vector<AdvEntry*> out;
  for (auto& [id, e] : srt_) {
    if (id == removed.adv.id) continue;
    if (e.shadow_only) continue;
    if (e.lasthop == link) continue;
    if (e.forwarded_to.contains(link)) continue;
    if (!removed.adv.filter.covers(e.adv.filter)) continue;
    if (adv_covered_on_link_scan(id, e.adv.filter, link)) continue;
    out.push_back(&e);
  }
  return out;
}

bool RoutingTables::link_needed_for(const Filter& f, Hop link) const {
  std::vector<EntityId> cands;
  adv_cover_.adv_intersect_candidates(f, cands);
  for (const auto& id : cands) {
    const auto it = srt_.find(id);
    if (it == srt_.end()) continue;
    const AdvEntry& a = it->second;
    if (a.lasthop == link && f.intersects_advertisement(a.adv.filter)) {
      return true;
    }
  }
  return false;
}

bool RoutingTables::link_needed_for_scan(const Filter& f, Hop link) const {
  for (const auto& [id, a] : srt_) {
    if (a.lasthop == link && f.intersects_advertisement(a.adv.filter)) {
      return true;
    }
  }
  return false;
}

// --- mutation API -------------------------------------------------------------

void RoutingTables::forward_sub(SubEntry& entry, Hop link,
                                const CoveringPolicy& policy, bool induced,
                                RoutingDelta& d) {
  entry.forwarded_to.insert(link);
  d.ops.push_back({RoutingOp::Kind::kForwardSub, entry.sub.id, link, induced});
  if (policy.subs) {
    for (SubEntry* t :
         strictly_covered_subs_on_link(entry.sub.id, entry.sub.filter, link)) {
      t->forwarded_to.erase(link);
      d.ops.push_back(
          {RoutingOp::Kind::kRetractSub, t->sub.id, link, /*induced=*/true});
    }
  }
}

void RoutingTables::forward_adv(AdvEntry& entry, Hop link,
                                const CoveringPolicy& policy, bool induced,
                                RoutingDelta& d) {
  entry.forwarded_to.insert(link);
  d.ops.push_back({RoutingOp::Kind::kForwardAdv, entry.adv.id, link, induced});
  if (policy.advs) {
    for (AdvEntry* t :
         strictly_covered_advs_on_link(entry.adv.id, entry.adv.filter, link)) {
      t->forwarded_to.erase(link);
      d.ops.push_back(
          {RoutingOp::Kind::kRetractAdv, t->adv.id, link, /*induced=*/true});
    }
  }
}

RoutingDelta RoutingTables::add_sub(const Subscription& sub, Hop from,
                                    const CoveringPolicy& policy) {
  RoutingDelta d;
  SubEntry& entry = upsert_sub(sub, from);
  // Forward towards every intersecting advertisement's last hop.
  for (const AdvEntry* a : intersecting_advs(sub.filter)) {
    const Hop link = a->lasthop;
    if (!link.is_broker() || link == from) continue;
    if (entry.forwarded_to.contains(link)) continue;
    if (policy.subs && sub_covered_on_link(sub.id, sub.filter, link)) {
      if (std::find(d.quenched.begin(), d.quenched.end(), link) ==
          d.quenched.end()) {
        d.quenched.push_back(link);
      }
      continue;
    }
    forward_sub(entry, link, policy, /*induced=*/false, d);
  }
  return d;
}

RoutingDelta RoutingTables::remove_sub(const SubscriptionId& id, Hop from,
                                       const CoveringPolicy& policy) {
  RoutingDelta d;
  SubEntry* entry = find_sub(id);
  // Stale or duplicate unsubscriptions (possible under covering churn) are
  // dropped: the entry is gone or now owned by a different direction.
  if (!entry || entry->lasthop != from) {
    d.applied = false;
    return d;
  }
  std::vector<Hop> links(entry->forwarded_to.begin(),
                         entry->forwarded_to.end());
  std::sort(links.begin(), links.end());  // deterministic emission order
  entry->forwarded_to.clear();            // stop counting as a coverer

  for (const Hop& link : links) {
    if (policy.subs) {
      // Un-quench: subscriptions this one covered must take over *before*
      // the unsubscription propagates, so publications keep flowing. The
      // candidate set is computed up front; re-check coverage as the burst
      // unfolds so nested candidates forward only their maximal antichain.
      for (SubEntry* t : unquenched_subs_on_link(*entry, link)) {
        if (sub_covered_on_link(t->sub.id, t->sub.filter, link)) continue;
        forward_sub(*t, link, policy, /*induced=*/true, d);
      }
    }
    d.ops.push_back({RoutingOp::Kind::kRetractSub, id, link, false});
  }
  erase_sub(id);
  return d;
}

RoutingDelta RoutingTables::add_adv(const Advertisement& adv, Hop from,
                                    const std::vector<Hop>& flood_links,
                                    const CoveringPolicy& policy) {
  RoutingDelta d;
  AdvEntry& entry = upsert_adv(adv, from);

  // Advertisements flood to all neighbours except the one they came from.
  for (const Hop& link : flood_links) {
    if (!link.is_broker() || link == from) continue;
    if (entry.forwarded_to.contains(link)) continue;
    if (policy.advs && adv_covered_on_link(adv.id, adv.filter, link)) {
      if (std::find(d.quenched.begin(), d.quenched.end(), link) ==
          d.quenched.end()) {
        d.quenched.push_back(link);
      }
      continue;
    }
    forward_adv(entry, link, policy, /*induced=*/false, d);
  }

  // Subscriptions that intersect the new advertisement must now be forwarded
  // towards it (over the link it arrived on).
  if (from.is_broker()) {
    std::vector<SubscriptionId> sids;
    for (const SubEntry* s : subs_intersecting(adv.filter)) {
      sids.push_back(s->sub.id);
    }
    for (const auto& sid : sids) {
      SubEntry* s = find_sub(sid);
      if (!s || s->shadow_only) continue;
      if (s->lasthop == from || s->forwarded_to.contains(from)) continue;
      if (policy.subs && sub_covered_on_link(sid, s->sub.filter, from)) {
        continue;
      }
      forward_sub(*s, from, policy, /*induced=*/false, d);
    }
  }
  return d;
}

RoutingDelta RoutingTables::remove_adv(const AdvertisementId& id, Hop from,
                                       const CoveringPolicy& policy) {
  RoutingDelta d;
  AdvEntry* entry = find_adv(id);
  if (!entry || entry->lasthop != from) {
    d.applied = false;
    return d;
  }
  std::vector<Hop> links(entry->forwarded_to.begin(),
                         entry->forwarded_to.end());
  std::sort(links.begin(), links.end());
  entry->forwarded_to.clear();

  for (const Hop& link : links) {
    if (policy.advs) {
      for (AdvEntry* t : unquenched_advs_on_link(*entry, link)) {
        if (adv_covered_on_link(t->adv.id, t->adv.filter, link)) continue;
        forward_adv(*t, link, policy, /*induced=*/true, d);
      }
    }
    d.ops.push_back({RoutingOp::Kind::kRetractAdv, id, link, false});
  }
  // Subscription forwarding state that pointed towards this advertisement is
  // left in place: the paper's routing consistency explicitly allows stale
  // entries, and removing them here would require per-advertisement
  // refcounts on every mark.
  erase_adv(id);
  return d;
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

// --- covering-index consistency -----------------------------------------------

std::vector<std::string> RoutingTables::check_cover_index() const {
  std::vector<std::string> out;
  if (sub_cover_.size() != prt_.size()) {
    out.push_back("sub cover index size " + std::to_string(sub_cover_.size()) +
                  " != PRT size " + std::to_string(prt_.size()));
  }
  if (adv_cover_.size() != srt_.size()) {
    out.push_back("adv cover index size " + std::to_string(adv_cover_.size()) +
                  " != SRT size " + std::to_string(srt_.size()));
  }
  const auto contains = [](const std::vector<EntityId>& v, const EntityId& id) {
    return std::find(v.begin(), v.end(), id) != v.end();
  };
  std::vector<EntityId> ids;
  for (const auto& [id, e] : prt_) {
    ids.clear();
    sub_cover_.coverer_candidates(e.sub.filter, ids);
    if (!contains(ids, id)) {
      out.push_back("PRT entry " + to_string(id) +
                    " missing from its own coverer candidates");
    }
    ids.clear();
    sub_cover_.covered_candidates(e.sub.filter, ids);
    if (!contains(ids, id)) {
      out.push_back("PRT entry " + to_string(id) +
                    " missing from its own covered candidates");
    }
  }
  for (const auto& [id, e] : srt_) {
    ids.clear();
    adv_cover_.coverer_candidates(e.adv.filter, ids);
    if (!contains(ids, id)) {
      out.push_back("SRT entry " + to_string(id) +
                    " missing from its own coverer candidates");
    }
    ids.clear();
    adv_cover_.covered_candidates(e.adv.filter, ids);
    if (!contains(ids, id)) {
      out.push_back("SRT entry " + to_string(id) +
                    " missing from its own covered candidates");
    }
  }
  const auto check_filings = [&out](const CoveringIndex& idx, const auto& table,
                                    const char* name) {
    std::vector<EntityId> filed;
    idx.all_ids(filed);
    std::sort(filed.begin(), filed.end());
    for (std::size_t i = 0; i < filed.size(); ++i) {
      if (i > 0 && filed[i] == filed[i - 1]) {
        out.push_back(std::string(name) + " cover index files " +
                      to_string(filed[i]) + " more than once");
      }
      if (!table.contains(filed[i])) {
        out.push_back(std::string(name) + " cover index holds dangling id " +
                      to_string(filed[i]));
      }
    }
  };
  check_filings(sub_cover_, prt_, "sub");
  check_filings(adv_cover_, srt_, "adv");
  return out;
}

std::vector<std::string> RoutingTables::check_forward_index() const {
  // The index's own structural invariants first (filings present exactly
  // once, no dead postings, slot targets consistent).
  std::vector<std::string> out = fwd_.check();
  if (fwd_.size() != prt_.size()) {
    out.push_back("forward index size " + std::to_string(fwd_.size()) +
                  " != PRT size " + std::to_string(prt_.size()));
  }
  std::vector<SubscriptionId> filed;
  fwd_.all_ids(filed);
  std::sort(filed.begin(), filed.end());
  for (std::size_t i = 0; i < filed.size(); ++i) {
    if (i > 0 && filed[i] == filed[i - 1]) {
      out.push_back("forward index files " + to_string(filed[i]) +
                    " more than once");
    }
    if (!prt_.contains(filed[i])) {
      out.push_back("forward index holds dangling id " + to_string(filed[i]));
    }
  }
  // Self-candidacy: probe with a witness publication drawn from the entry's
  // own filter (one satisfying value per constrained attribute, when one is
  // directly constructible from the interval view); the entry must be among
  // the candidates. Entries whose witness is not constructible (open bounds
  // only) are covered by the equivalence property test instead.
  std::vector<SubscriptionId> cands;
  for (const auto& [id, e] : prt_) {
    const Filter& f = e.sub.filter;
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
    fwd_.candidates(w, cands);
    if (std::find(cands.begin(), cands.end(), id) == cands.end()) {
      out.push_back("PRT entry " + to_string(id) +
                    " missing from the candidates of its own witness "
                    "publication");
    }
  }
  return out;
}

void RoutingTables::install_sub_shadow(const Subscription& sub, Hop new_hop,
                                       TxnId txn) {
  ++version_;
  auto [it, inserted] = prt_.try_emplace(sub.id);
  if (inserted) {
    it->second.sub = sub;
    it->second.lasthop = Hop::none();
    it->second.shadow_only = true;
    fwd_.insert(sub.id, sub.filter);
    sub_cover_.insert(sub.id, sub.filter);
  }
  it->second.shadow_lasthop = new_hop;
  it->second.shadow_txn = txn;
}

void RoutingTables::install_adv_shadow(const Advertisement& adv, Hop new_hop,
                                       TxnId txn) {
  ++version_;
  auto [it, inserted] = srt_.try_emplace(adv.id);
  if (inserted) {
    it->second.adv = adv;
    it->second.lasthop = Hop::none();
    it->second.shadow_only = true;
    adv_cover_.insert(adv.id, adv.filter);
  }
  it->second.shadow_lasthop = new_hop;
  it->second.shadow_txn = txn;
}

void RoutingTables::commit_shadow(const SubscriptionId& sub_id, TxnId txn) {
  auto* e = find_sub(sub_id);
  if (!e || !e->shadow_lasthop || e->shadow_txn != txn) return;
  ++version_;
  e->lasthop = *e->shadow_lasthop;
  e->shadow_lasthop.reset();
  e->shadow_txn = kNoTxn;
  e->shadow_only = false;
}

void RoutingTables::commit_adv_shadow(const AdvertisementId& adv_id,
                                      TxnId txn) {
  auto* e = find_adv(adv_id);
  if (!e || !e->shadow_lasthop || e->shadow_txn != txn) return;
  ++version_;
  e->lasthop = *e->shadow_lasthop;
  e->shadow_lasthop.reset();
  e->shadow_txn = kNoTxn;
  e->shadow_only = false;
}

void RoutingTables::abort_shadow(const SubscriptionId& sub_id, TxnId txn) {
  auto* e = find_sub(sub_id);
  if (!e || !e->shadow_lasthop || e->shadow_txn != txn) return;
  ++version_;
  e->shadow_lasthop.reset();
  e->shadow_txn = kNoTxn;
  if (e->shadow_only) erase_sub(sub_id);
}

void RoutingTables::abort_adv_shadow(const AdvertisementId& adv_id,
                                     TxnId txn) {
  auto* e = find_adv(adv_id);
  if (!e || !e->shadow_lasthop || e->shadow_txn != txn) return;
  ++version_;
  e->shadow_lasthop.reset();
  e->shadow_txn = kNoTxn;
  if (e->shadow_only) erase_adv(adv_id);
}

bool RoutingTables::has_pending_shadows() const {
  for (const auto& [id, e] : prt_) {
    if (e.shadow_lasthop) return true;
  }
  for (const auto& [id, e] : srt_) {
    if (e.shadow_lasthop) return true;
  }
  return false;
}

std::string RoutingTables::debug_string() const {
  std::string s = "PRT{\n";
  for (const auto& [id, e] : prt_) {
    s += "  " + e.sub.to_string() + " last=" + e.lasthop.to_string();
    if (e.shadow_lasthop) s += " shadow=" + e.shadow_lasthop->to_string();
    s += "\n";
  }
  s += "} SRT{\n";
  for (const auto& [id, e] : srt_) {
    s += "  " + e.adv.to_string() + " last=" + e.lasthop.to_string();
    if (e.shadow_lasthop) s += " shadow=" + e.shadow_lasthop->to_string();
    s += "\n";
  }
  return s + "}";
}

}  // namespace tmps
