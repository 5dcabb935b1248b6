// One routing table of a broker, following the PADRES design the paper
// builds on. The Publication Routing Table (PRT: subscriptions, which route
// publications) and the Subscription Routing Table (SRT: advertisements,
// which route subscriptions) are the two instances of RouteTable.
//
// Rows support a *shadow* last hop: during a movement transaction the
// pre-move and post-move routing configurations coexist at brokers on the
// source→target path (Sec. 4.4). Publications route to both hops until the
// transaction commits (then the shadow becomes primary) or aborts (then the
// shadow is dropped) — this is what gives the routing layer its atomicity.
//
// Each table keeps a covering index over its row filters; the PRT also keeps
// the counting forwarding index that matches publications. Both track row
// membership only (upsert/erase/shadow install); per-link forwarding state
// is checked when a candidate is verified, so direct forwarded_to mutation
// cannot desynchronize them.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "pubsub/subscription.h"
#include "routing/covering_index.h"
#include "routing/forwarding_index.h"
#include "routing/hop.h"
#include "routing/routing_delta.h"

namespace tmps::obs {
class StageProfiler;
}  // namespace tmps::obs

namespace tmps {

template <class Item>
struct RouteEntry {
  /// The subscription (PRT) or advertisement (SRT).
  Item item;
  /// Link (or local client) the item arrived from: PRT rows forward matching
  /// publications here, SRT rows forward intersecting subscriptions here.
  Hop lasthop;
  /// Links this row has been forwarded over (and not retracted). Used for
  /// retraction propagation and covering bookkeeping.
  std::unordered_set<Hop> forwarded_to;
  /// Post-move last hop installed by an in-flight movement transaction.
  std::optional<Hop> shadow_lasthop;
  TxnId shadow_txn = kNoTxn;
  /// True when the row exists *only* as shadow state (the broker had no
  /// pre-move row for this item); an abort removes it entirely.
  bool shadow_only = false;
};

using SubEntry = RouteEntry<Subscription>;
using AdvEntry = RouteEntry<Advertisement>;

template <class Item>
class RouteTable {
 public:
  using Entry = RouteEntry<Item>;
  using Rows = std::unordered_map<EntityId, Entry>;
  /// Subscription rows (the PRT) rather than advertisement rows (the SRT).
  static constexpr bool kIsPrt = std::is_same_v<Item, Subscription>;

  /// Does a row with filter `f` need link `link` at all? Un-quench asks it
  /// before re-forwarding: a subscription only needs a link some
  /// advertisement behind it intersects. Empty = every link is needed.
  using LinkNeed = std::function<bool(const Filter& f, Hop link)>;

  // --- rows -----------------------------------------------------------------

  /// Inserts or replaces the row for `item.id` (keeping its forwarding and
  /// shadow state on replace).
  Entry& upsert(const Item& item, Hop lasthop);
  Entry* find(const EntityId& id);
  const Entry* find(const EntityId& id) const;
  void erase(const EntityId& id);

  std::size_t size() const { return rows_.size(); }
  typename Rows::iterator begin() { return rows_.begin(); }
  typename Rows::iterator end() { return rows_.end(); }
  typename Rows::const_iterator begin() const { return rows_.begin(); }
  typename Rows::const_iterator end() const { return rows_.end(); }

  // --- movement-transaction shadow state -------------------------------------

  /// Installs the post-move hop for `item`. Creates a shadow-only row when
  /// the table has none for it.
  void install_shadow(const Item& item, Hop new_hop, TxnId txn);
  /// Commit: the shadow hop becomes primary; the pre-move hop is forgotten.
  /// No-op when the row has no shadow for `txn`.
  void commit_shadow(const EntityId& id, TxnId txn);
  /// Abort: shadow state for `txn` is dropped; shadow-only rows vanish.
  void abort_shadow(const EntityId& id, TxnId txn);
  /// Any row still carrying shadow state?
  bool has_pending_shadows() const;

  // --- covering queries ------------------------------------------------------
  // Candidates come from the covering index and are verified exactly;
  // vector results are ordered by id.

  /// Rows that intersect `f`: PRT rows whose subscription intersects
  /// advertisement filter `f`, SRT rows that subscription filter `f`
  /// intersects.
  std::vector<const Entry*> intersecting(const Filter& f) const;

  /// Is `filter` (of row `self`) covered over `link` by another row already
  /// forwarded over `link`?
  bool covered_on_link(const EntityId& self, const Filter& filter,
                       Hop link) const;

  /// Rows currently forwarded over `link` that `filter` strictly covers —
  /// the retraction set when `self` is newly forwarded there.
  std::vector<Entry*> strictly_covered_on_link(const EntityId& self,
                                               const Filter& filter, Hop link);

  /// Rows quenched (at least in part) by `removed` over `link` with no
  /// remaining coverer and a `need` for the link; they must be re-forwarded
  /// before the removal propagates.
  std::vector<Entry*> unquench_candidates(const Entry& removed, Hop link,
                                          const LinkNeed& need = {});

  // --- deltas ----------------------------------------------------------------

  /// Forwards `entry` over `link` into `d`, retracting the rows it strictly
  /// covers there when `covering` is on.
  void forward(Entry& entry, Hop link, bool covering, bool induced,
               RoutingDelta& d);

  /// Removes row `id` if `from` still owns it (else applied=false): emits
  /// un-quench re-forwards before each link's retraction, then erases.
  RoutingDelta remove(const EntityId& id, Hop from, bool covering,
                      const LinkNeed& need = {});

  /// Bumped on every mutation (upsert, erase, shadow install/commit/abort).
  std::uint64_t version() const { return version_; }

 private:
  // The owner of both tables: it sets the profiler, brackets forwarding-index
  // batches, matches publications and cross-checks the indexes.
  friend class RoutingTables;
  struct NoIndex {};

  Rows rows_;
  CoveringIndex cover_;
  // Counting-algorithm publication matcher over row filters (PRT only).
  [[no_unique_address]] std::conditional_t<kIsPrt, ForwardingIndex, NoIndex>
      fwd_;
  obs::StageProfiler* prof_ = nullptr;
  std::uint64_t version_ = 0;
};

extern template class RouteTable<Subscription>;
extern template class RouteTable<Advertisement>;

}  // namespace tmps
