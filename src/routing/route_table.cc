#include "routing/route_table.h"

#include <algorithm>

#include "obs/profiler.h"

namespace tmps {

namespace {

/// Deterministic output order for index-backed queries: candidate order
/// depends on bucket layout, so verified results are sorted by id.
void sort_ids(std::vector<EntityId>& ids) { std::sort(ids.begin(), ids.end()); }

template <class Item>
constexpr RoutingOp::Kind kForwardOp = RouteTable<Item>::kIsPrt
                                           ? RoutingOp::Kind::kForwardSub
                                           : RoutingOp::Kind::kForwardAdv;
template <class Item>
constexpr RoutingOp::Kind kRetractOp = RouteTable<Item>::kIsPrt
                                           ? RoutingOp::Kind::kRetractSub
                                           : RoutingOp::Kind::kRetractAdv;

}  // namespace

// --- rows --------------------------------------------------------------------

template <class Item>
auto RouteTable<Item>::upsert(const Item& item, Hop lasthop) -> Entry& {
  ++version_;
  auto [it, inserted] = rows_.try_emplace(item.id);
  if (!inserted) cover_.erase(item.id, it->second.item.filter);
  it->second.item = item;
  it->second.lasthop = lasthop;
  if constexpr (kIsPrt) fwd_.insert(item.id, item.filter);  // re-files
  cover_.insert(item.id, item.filter);
  return it->second;
}

template <class Item>
auto RouteTable<Item>::find(const EntityId& id) -> Entry* {
  auto it = rows_.find(id);
  return it == rows_.end() ? nullptr : &it->second;
}

template <class Item>
auto RouteTable<Item>::find(const EntityId& id) const -> const Entry* {
  auto it = rows_.find(id);
  return it == rows_.end() ? nullptr : &it->second;
}

template <class Item>
void RouteTable<Item>::erase(const EntityId& id) {
  auto it = rows_.find(id);
  if (it == rows_.end()) return;
  ++version_;
  if constexpr (kIsPrt) fwd_.erase(id);
  cover_.erase(id, it->second.item.filter);
  rows_.erase(it);
}

// --- movement-transaction shadow state ---------------------------------------

template <class Item>
void RouteTable<Item>::install_shadow(const Item& item, Hop new_hop,
                                      TxnId txn) {
  ++version_;
  auto [it, inserted] = rows_.try_emplace(item.id);
  if (inserted) {
    it->second.item = item;
    it->second.lasthop = Hop::none();
    it->second.shadow_only = true;
    if constexpr (kIsPrt) fwd_.insert(item.id, item.filter);
    cover_.insert(item.id, item.filter);
  }
  it->second.shadow_lasthop = new_hop;
  it->second.shadow_txn = txn;
}

template <class Item>
void RouteTable<Item>::commit_shadow(const EntityId& id, TxnId txn) {
  Entry* e = find(id);
  if (!e || !e->shadow_lasthop || e->shadow_txn != txn) return;
  ++version_;
  e->lasthop = *e->shadow_lasthop;
  e->shadow_lasthop.reset();
  e->shadow_txn = kNoTxn;
  e->shadow_only = false;
}

template <class Item>
void RouteTable<Item>::abort_shadow(const EntityId& id, TxnId txn) {
  Entry* e = find(id);
  if (!e || !e->shadow_lasthop || e->shadow_txn != txn) return;
  ++version_;
  e->shadow_lasthop.reset();
  e->shadow_txn = kNoTxn;
  if (e->shadow_only) erase(id);
}

template <class Item>
bool RouteTable<Item>::has_pending_shadows() const {
  return std::any_of(rows_.begin(), rows_.end(), [](const auto& kv) {
    return kv.second.shadow_lasthop.has_value();
  });
}

// --- covering queries --------------------------------------------------------

template <class Item>
auto RouteTable<Item>::intersecting(const Filter& f) const
    -> std::vector<const Entry*> {
  TMPS_PROF_STAGE(prof_, obs::Stage::kCoverProbe);
  std::vector<EntityId> cands;
  if constexpr (kIsPrt) {
    cover_.sub_intersect_candidates(f, cands);
  } else {
    cover_.adv_intersect_candidates(f, cands);
  }
  sort_ids(cands);
  std::vector<const Entry*> out;
  for (const auto& id : cands) {
    const Entry* e = find(id);
    if (!e) continue;
    const bool hit = kIsPrt ? e->item.filter.intersects_advertisement(f)
                            : f.intersects_advertisement(e->item.filter);
    if (hit) out.push_back(e);
  }
  return out;
}

template <class Item>
bool RouteTable<Item>::covered_on_link(const EntityId& self,
                                       const Filter& filter, Hop link) const {
  TMPS_PROF_STAGE(prof_, obs::Stage::kCoverProbe);
  std::vector<EntityId> cands;
  cover_.coverer_candidates(filter, cands);
  for (const auto& id : cands) {
    if (id == self) continue;
    const Entry* e = find(id);
    if (!e || !e->forwarded_to.contains(link)) continue;
    if (e->item.filter.covers(filter)) return true;
  }
  return false;
}

template <class Item>
auto RouteTable<Item>::strictly_covered_on_link(const EntityId& self,
                                                const Filter& filter, Hop link)
    -> std::vector<Entry*> {
  TMPS_PROF_STAGE(prof_, obs::Stage::kCoverProbe);
  std::vector<EntityId> cands;
  cover_.covered_candidates(filter, cands);
  sort_ids(cands);
  std::vector<Entry*> out;
  for (const auto& id : cands) {
    if (id == self) continue;
    Entry* e = find(id);
    if (!e || !e->forwarded_to.contains(link)) continue;
    if (filter.covers(e->item.filter) && !e->item.filter.covers(filter)) {
      out.push_back(e);
    }
  }
  return out;
}

template <class Item>
auto RouteTable<Item>::unquench_candidates(const Entry& removed, Hop link,
                                           const LinkNeed& need)
    -> std::vector<Entry*> {
  std::vector<EntityId> cands;
  cover_.covered_candidates(removed.item.filter, cands);
  sort_ids(cands);
  std::vector<Entry*> out;
  for (const auto& id : cands) {
    if (id == removed.item.id) continue;
    Entry* e = find(id);
    if (!e) continue;
    if (e->shadow_only) continue;  // not yet live at this broker
    if (e->lasthop == link) continue;
    if (e->forwarded_to.contains(link)) continue;
    if (!removed.item.filter.covers(e->item.filter)) continue;
    if (need && !need(e->item.filter, link)) continue;
    // A remaining forwarded row may still cover it.
    if (covered_on_link(id, e->item.filter, link)) continue;
    out.push_back(e);
  }
  return out;
}

// --- deltas ------------------------------------------------------------------

template <class Item>
void RouteTable<Item>::forward(Entry& entry, Hop link, bool covering,
                               bool induced, RoutingDelta& d) {
  entry.forwarded_to.insert(link);
  d.ops.push_back({kForwardOp<Item>, entry.item.id, link, induced});
  if (!covering) return;
  for (Entry* t :
       strictly_covered_on_link(entry.item.id, entry.item.filter, link)) {
    t->forwarded_to.erase(link);
    d.ops.push_back({kRetractOp<Item>, t->item.id, link, /*induced=*/true});
  }
}

template <class Item>
RoutingDelta RouteTable<Item>::remove(const EntityId& id, Hop from,
                                      bool covering, const LinkNeed& need) {
  RoutingDelta d;
  Entry* entry = find(id);
  // Stale or duplicate retractions (possible under covering churn) are
  // dropped: the row is gone or now owned by a different direction.
  if (!entry || entry->lasthop != from) {
    d.applied = false;
    return d;
  }
  std::vector<Hop> links(entry->forwarded_to.begin(),
                         entry->forwarded_to.end());
  std::sort(links.begin(), links.end());  // deterministic emission order
  entry->forwarded_to.clear();            // stop counting as a coverer

  for (const Hop& link : links) {
    if (covering) {
      // Un-quench: rows this one covered must take over *before* the
      // retraction propagates, so traffic keeps flowing. The candidate set
      // is computed up front; re-check coverage as the burst unfolds so
      // nested candidates forward only their maximal antichain.
      for (Entry* t : unquench_candidates(*entry, link, need)) {
        if (covered_on_link(t->item.id, t->item.filter, link)) continue;
        forward(*t, link, covering, /*induced=*/true, d);
      }
    }
    d.ops.push_back({kRetractOp<Item>, id, link, false});
  }
  // Removing an advertisement leaves the subscription forwarding state that
  // pointed towards it in place: the paper's routing consistency explicitly
  // allows stale entries, and removing them here would require
  // per-advertisement refcounts on every mark.
  erase(id);
  return d;
}

template class RouteTable<Subscription>;
template class RouteTable<Advertisement>;

}  // namespace tmps
