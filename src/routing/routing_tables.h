// Per-broker content-based routing state: the Subscription Routing Table
// (SRT, advertisements used to route subscriptions) and the Publication
// Routing Table (PRT, subscriptions used to route publications), following
// the PADRES design the paper builds on.
//
// Entries support a *shadow* last hop: during a movement transaction the
// pre-move and post-move routing configurations coexist at brokers on the
// source→target path (Sec. 4.4). Publications route to both hops until the
// transaction commits (then the shadow becomes primary) or aborts (then the
// shadow is dropped) — this is what gives the routing layer its atomicity.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "pubsub/publication.h"
#include "pubsub/subscription.h"
#include "routing/covering_index.h"
#include "routing/forwarding_index.h"
#include "routing/hop.h"
#include "routing/routing_delta.h"

namespace tmps::obs {
class StageProfiler;
}  // namespace tmps::obs

namespace tmps {

struct SubEntry {
  Subscription sub;
  /// Link (or local client) the subscription arrived from; publications
  /// matching it are forwarded here.
  Hop lasthop;
  /// Links this subscription has been forwarded over (and not retracted).
  /// Used for unsubscription propagation and covering bookkeeping.
  std::unordered_set<Hop> forwarded_to;
  /// Post-move last hop installed by an in-flight movement transaction.
  std::optional<Hop> shadow_lasthop;
  TxnId shadow_txn = kNoTxn;
  /// True when the entry exists *only* as shadow state (the broker had no
  /// pre-move entry for this subscription); an abort removes it entirely.
  bool shadow_only = false;
};

struct AdvEntry {
  Advertisement adv;
  Hop lasthop;
  std::unordered_set<Hop> forwarded_to;
  std::optional<Hop> shadow_lasthop;
  TxnId shadow_txn = kNoTxn;
  bool shadow_only = false;
};

/// The answer of RoutingTables::match(): everything the publish path needs
/// from one matching pass, so provenance, metrics and the fan-out loop agree
/// on a single definition.
struct MatchResult {
  /// Distinct forwarding hops, sorted (canonical order — fan-out and the
  /// simulator's message emission become deterministic regardless of index
  /// bucket layout). Includes shadow hops of in-flight movements; excludes
  /// Hop::none() and the primary hop of shadow-only entries.
  std::vector<Hop> links;
  /// PRT entries whose filter matches the publication (shadow-only entries
  /// included — they are real table entries awaiting commit). THE matched
  /// count: provenance tags, metrics and the control-plane load estimator
  /// all read this one definition.
  std::size_t matched = 0;
  /// RoutingTables::version() at match time, stamped into per-hop
  /// provenance so latency spikes correlate with reconfiguration activity.
  std::uint64_t version = 0;
};

class RoutingTables {
 public:
  // --- mutation API ---------------------------------------------------------
  // The cohesive entry points for routing-state changes: each applies the
  // table mutation, runs the covering optimization per `policy`, and returns
  // the ordered link operations the caller must transmit (see
  // routing/routing_delta.h). Brokers and the mobility engine use these
  // instead of recomputing cover sets from the free functions of
  // routing/covering.h (now deprecated wrappers).

  /// Upserts `sub` with last hop `from` and forwards it towards every
  /// intersecting advertisement's last hop (unless quenched by covering).
  RoutingDelta add_sub(const Subscription& sub, Hop from,
                       const CoveringPolicy& policy = {});

  /// Removes `sub` if `from` still owns it (else applied=false): emits
  /// un-quench re-forwards before each link's retraction, then erases.
  RoutingDelta remove_sub(const SubscriptionId& id, Hop from,
                          const CoveringPolicy& policy = {});

  /// Upserts `adv` and floods it over `flood_links` (the broker's neighbour
  /// links; covering-quenched links are skipped), then re-forwards
  /// intersecting subscriptions over the arrival link when `from` is a
  /// broker.
  RoutingDelta add_adv(const Advertisement& adv, Hop from,
                       const std::vector<Hop>& flood_links,
                       const CoveringPolicy& policy = {});

  RoutingDelta remove_adv(const AdvertisementId& id, Hop from,
                          const CoveringPolicy& policy = {});

  /// Applies one reified mutation (routing/routing_delta.h) — implemented as
  /// a one-element batch, so the forwarding-index maintenance goes through
  /// the same coalescing path as bursts.
  RoutingDelta apply(const RoutingMutation& m, const CoveringPolicy& policy = {});

  /// Applies a mutation burst under one forwarding-index batch: deltas are
  /// computed per mutation in order (covering semantics are identical to
  /// sequential apply calls), but index re-filing is coalesced per id — the
  /// amortization mobility hand-off and balancer plans rely on. Returns one
  /// delta per mutation, in order.
  std::vector<RoutingDelta> apply_batch(const std::vector<RoutingMutation>& muts,
                                        const CoveringPolicy& policy = {});

  /// Brackets direct mutation calls (upsert/erase/shadow install, or the
  /// four delta entry points) in a forwarding-index batch. Nestable.
  class MutationBatch {
   public:
    explicit MutationBatch(RoutingTables& rt) : rt_(&rt) {
      rt_->fwd_.begin_batch();
    }
    ~MutationBatch() { rt_->fwd_.end_batch(); }
    MutationBatch(const MutationBatch&) = delete;
    MutationBatch& operator=(const MutationBatch&) = delete;

   private:
    RoutingTables* rt_;
  };

  // --- PRT (subscriptions) ---
  SubEntry& upsert_sub(const Subscription& sub, Hop lasthop);
  SubEntry* find_sub(const SubscriptionId& id);
  const SubEntry* find_sub(const SubscriptionId& id) const;
  void erase_sub(const SubscriptionId& id);

  // --- SRT (advertisements) ---
  AdvEntry& upsert_adv(const Advertisement& adv, Hop lasthop);
  AdvEntry* find_adv(const AdvertisementId& id);
  const AdvEntry* find_adv(const AdvertisementId& id) const;
  void erase_adv(const AdvertisementId& id);

  const std::unordered_map<SubscriptionId, SubEntry>& prt() const {
    return prt_;
  }
  std::unordered_map<SubscriptionId, SubEntry>& prt() { return prt_; }
  const std::unordered_map<AdvertisementId, AdvEntry>& srt() const {
    return srt_;
  }
  std::unordered_map<AdvertisementId, AdvEntry>& srt() { return srt_; }

  // --- publication matching -------------------------------------------------

  /// The matching pass of the publish path: forwarding links (including
  /// shadow hops of in-flight movements — both configurations receive
  /// traffic until resolution), the matched-subscription count and the PRT
  /// version, in one result. Candidates come from the counting forwarding
  /// index and are verified exactly, so cost is O(matched + candidate
  /// overshoot), not O(subscriptions).
  MatchResult match(const Publication& pub) const;

  /// Reference implementation of match() (full PRT scan) — the executable
  /// specification, used by tests and benchmarks.
  MatchResult match_scan(const Publication& pub) const;

  /// Entries whose filter matches the publication (primary view only).
  /// Accelerated by the counting forwarding index.
  std::vector<const SubEntry*> matching_subs(const Publication& pub) const;

  /// Reference implementation of matching_subs (full scan); used by tests
  /// and benchmarks to validate and measure the index.
  std::vector<const SubEntry*> matching_subs_scan(const Publication& pub) const;

  const ForwardingIndex& forward_index() const { return fwd_; }

  /// Advertisements a subscription filter intersects. Accelerated by the
  /// covering index; results ordered by id.
  std::vector<const AdvEntry*> intersecting_advs(const Filter& sub) const;
  std::vector<const AdvEntry*> intersecting_advs_scan(const Filter& sub) const;

  /// Subscriptions that intersect an advertisement filter.
  std::vector<const SubEntry*> subs_intersecting(const Filter& adv) const;
  std::vector<const SubEntry*> subs_intersecting_scan(const Filter& adv) const;

  // --- covering queries -----------------------------------------------------
  // Index-backed (candidates from the CoveringIndex, verified exactly, output
  // ordered by id) with full-scan reference oracles (`*_scan`, preserved for
  // tests/benchmarks and as the executable specification). The scan oracles
  // use only scan helpers internally, so they never touch the index.

  /// Is `filter` (of entry `self`) covered over `link` by another
  /// subscription already forwarded over `link`?
  bool sub_covered_on_link(const SubscriptionId& self, const Filter& filter,
                           Hop link) const;
  bool sub_covered_on_link_scan(const SubscriptionId& self,
                                const Filter& filter, Hop link) const;

  /// Subscriptions currently forwarded over `link` that `filter` strictly
  /// covers — the retraction set when `self` is newly forwarded there.
  std::vector<SubEntry*> strictly_covered_subs_on_link(
      const SubscriptionId& self, const Filter& filter, Hop link);
  std::vector<SubEntry*> strictly_covered_subs_on_link_scan(
      const SubscriptionId& self, const Filter& filter, Hop link);

  /// Subscriptions quenched (at least in part) by `removed` over `link` with
  /// no remaining coverer; they must be re-forwarded before the removal
  /// propagates. A candidate must also need the link (some SRT entry with
  /// last hop `link` intersects it).
  std::vector<SubEntry*> unquenched_subs_on_link(const SubEntry& removed,
                                                 Hop link);
  std::vector<SubEntry*> unquenched_subs_on_link_scan(const SubEntry& removed,
                                                      Hop link);

  /// Advertisement analogues.
  bool adv_covered_on_link(const AdvertisementId& self, const Filter& filter,
                           Hop link) const;
  bool adv_covered_on_link_scan(const AdvertisementId& self,
                                const Filter& filter, Hop link) const;
  std::vector<AdvEntry*> strictly_covered_advs_on_link(
      const AdvertisementId& self, const Filter& filter, Hop link);
  std::vector<AdvEntry*> strictly_covered_advs_on_link_scan(
      const AdvertisementId& self, const Filter& filter, Hop link);
  std::vector<AdvEntry*> unquenched_advs_on_link(const AdvEntry& removed,
                                                 Hop link);
  std::vector<AdvEntry*> unquenched_advs_on_link_scan(const AdvEntry& removed,
                                                      Hop link);

  /// Does some advertisement with last hop `link` intersect `f`? (Then
  /// subscriptions matching `f` must be forwarded over `link`.)
  bool link_needed_for(const Filter& f, Hop link) const;
  bool link_needed_for_scan(const Filter& f, Hop link) const;

  /// Optional stage profiler (the owning broker's): publication matching
  /// records under Stage::kMatch, covering/intersection queries under
  /// Stage::kCoverProbe. Null = no probes.
  void set_profiler(obs::StageProfiler* prof) { prof_ = prof; }
  const CoveringIndex& sub_cover_index() const { return sub_cover_; }
  const CoveringIndex& adv_cover_index() const { return adv_cover_; }

  /// Cross-checks the covering indexes against the tables: sizes agree, no
  /// dangling or duplicate filings, and every entry is a candidate of its
  /// own filter's probes. Returns violation descriptions; empty = consistent.
  std::vector<std::string> check_cover_index() const;

  /// Cross-checks the forwarding index against the PRT: sizes agree, no
  /// dangling/duplicate filings, the index's own structural invariants hold,
  /// and every entry is a candidate for a witness publication drawn from its
  /// own filter (when one is constructible). Exactness — match() ≡
  /// match_scan() — is the property test's job.
  std::vector<std::string> check_forward_index() const;

  // --- movement-transaction shadow state ---

  /// Installs the post-move hop for a subscription. Creates a shadow-only
  /// entry when the broker has no existing entry for `sub`.
  void install_sub_shadow(const Subscription& sub, Hop new_hop, TxnId txn);
  void install_adv_shadow(const Advertisement& adv, Hop new_hop, TxnId txn);

  /// Commit: the shadow hop becomes primary; the pre-move hop is forgotten.
  /// No-op when the entry has no shadow for `txn`.
  void commit_shadow(const SubscriptionId& sub_id, TxnId txn);
  void commit_adv_shadow(const AdvertisementId& adv_id, TxnId txn);

  /// Abort: shadow state for `txn` is dropped; shadow-only entries vanish.
  void abort_shadow(const SubscriptionId& sub_id, TxnId txn);
  void abort_adv_shadow(const AdvertisementId& adv_id, TxnId txn);

  /// Any entry still carrying shadow state? (test/debug invariant helper)
  bool has_pending_shadows() const;

  std::size_t sub_count() const { return prt_.size(); }
  std::size_t adv_count() const { return srt_.size(); }

  /// Monotonic routing-state version: bumped on every PRT/SRT mutation
  /// (upsert, erase, shadow install/commit/abort). Per-hop publication
  /// provenance records this, so a latency spike can be correlated with the
  /// reconfiguration activity around it.
  std::uint64_t version() const { return version_; }

  std::string debug_string() const;

 private:
  /// Forwards `entry` over `link` into `d`, retracting the entries it
  /// strictly covers there when the policy enables covering.
  void forward_sub(SubEntry& entry, Hop link, const CoveringPolicy& policy,
                   bool induced, RoutingDelta& d);
  void forward_adv(AdvEntry& entry, Hop link, const CoveringPolicy& policy,
                   bool induced, RoutingDelta& d);

  /// Dispatches a reified mutation to the matching entry point.
  RoutingDelta dispatch(const RoutingMutation& m, const CoveringPolicy& policy);

  /// Folds `e` into `r` when its filter matches `pub` (shared by match and
  /// match_scan, so index and oracle use the same collection rules).
  static void collect_match(const SubEntry& e, const Publication& pub,
                            MatchResult& r);

  std::unordered_map<SubscriptionId, SubEntry> prt_;
  std::unordered_map<AdvertisementId, AdvEntry> srt_;
  // Counting-algorithm publication matcher over PRT filters (membership
  // only, like the covering indexes below).
  ForwardingIndex fwd_;
  // Covering/subsumption candidate indexes over PRT and SRT filters. They
  // track table membership only (upsert/erase/shadow-install); per-link
  // forwarding state is a verification-stage predicate, so direct
  // forwarded_to mutation cannot desynchronize them.
  CoveringIndex sub_cover_;
  CoveringIndex adv_cover_;
  obs::StageProfiler* prof_ = nullptr;
  std::uint64_t version_ = 0;
  /// Candidate scratch reused across match() calls (single-threaded).
  mutable std::vector<SubscriptionId> match_scratch_;
};

}  // namespace tmps
