// Per-broker content-based routing state: the Publication Routing Table
// (PRT, subscriptions used to route publications) and the Subscription
// Routing Table (SRT, advertisements used to route subscriptions), two
// instances of one table type (routing/route_table.h) that prt() and srt()
// return. Row operations (upsert/find/erase, shadow install/commit/abort,
// covering queries, forward/remove) live on the table; this class adds what
// spans both: the add paths, publication matching and the mutation API.
#pragma once

#include <string>
#include <vector>

#include "pubsub/publication.h"
#include "routing/route_table.h"

namespace tmps {

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
  using Prt = RouteTable<Subscription>;
  using Srt = RouteTable<Advertisement>;

  // --- mutation API ---------------------------------------------------------
  // The cohesive entry points for routing-state changes: each applies the
  // table mutation, runs the covering optimization per `policy`, and returns
  // the ordered link operations the caller must transmit (see
  // routing/routing_delta.h).

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

  /// Brackets direct table mutations (upsert/erase/shadow install, or the
  /// four delta entry points) in a forwarding-index batch. Nestable.
  class MutationBatch {
   public:
    explicit MutationBatch(RoutingTables& rt) : rt_(&rt) {
      rt_->prt_.fwd_.begin_batch();
    }
    ~MutationBatch() { rt_->prt_.fwd_.end_batch(); }
    MutationBatch(const MutationBatch&) = delete;
    MutationBatch& operator=(const MutationBatch&) = delete;

   private:
    RoutingTables* rt_;
  };

  Prt& prt() { return prt_; }
  const Prt& prt() const { return prt_; }
  Srt& srt() { return srt_; }
  const Srt& srt() const { return srt_; }

  // --- publication matching -------------------------------------------------

  /// The matching pass of the publish path: forwarding links (including
  /// shadow hops of in-flight movements — both configurations receive
  /// traffic until resolution), the matched-subscription count and the PRT
  /// version, in one result. Candidates come from the counting forwarding
  /// index and are verified exactly, so cost is O(matched + candidate
  /// overshoot), not O(subscriptions).
  MatchResult match(const Publication& pub) const;

  /// Does some advertisement with last hop `link` intersect `f`? (Then
  /// subscriptions matching `f` must be forwarded over `link`.) The PRT's
  /// un-quench link-need test.
  bool link_needed_for(const Filter& f, Hop link) const;
  /// link_needed_for as the PRT's LinkNeed.
  Prt::LinkNeed link_need() const {
    return [this](const Filter& f, Hop link) {
      return link_needed_for(f, link);
    };
  }

  /// Optional stage profiler (the owning broker's): publication matching
  /// records under Stage::kMatch, covering/intersection queries under
  /// Stage::kCoverProbe. Null = no probes.
  void set_profiler(obs::StageProfiler* prof);

  // --- structural self-checks of the indexes ---------------------------------
  // They read index internals, so they live here rather than in the tests'
  // row-only reference library; the unit, property and soak tests and the
  // micro_covering/micro_forwarding gates call them. Nothing on the
  // message path does.

  /// Cross-checks the covering indexes against the tables: sizes agree, no
  /// dangling or duplicate filings, and every entry is a candidate of its
  /// own filter's probes. Returns violation descriptions; empty = consistent.
  std::vector<std::string> check_cover_index() const;

  /// Cross-checks the forwarding index against the PRT: sizes agree, no
  /// dangling/duplicate filings, the index's own structural invariants hold,
  /// and every entry is a candidate for a witness publication drawn from its
  /// own filter (when one is constructible). Exactness — match() equals the
  /// full-scan reference — is the property test's job.
  std::vector<std::string> check_forward_index() const;

  /// Any entry still carrying shadow state? (test/debug invariant helper)
  bool has_pending_shadows() const {
    return prt_.has_pending_shadows() || srt_.has_pending_shadows();
  }

  /// Monotonic routing-state version: bumped on every PRT/SRT mutation
  /// (upsert, erase, shadow install/commit/abort). Per-hop publication
  /// provenance records this, so a latency spike can be correlated with the
  /// reconfiguration activity around it.
  std::uint64_t version() const { return prt_.version() + srt_.version(); }

 private:
  /// Dispatches a reified mutation to the matching entry point.
  RoutingDelta dispatch(const RoutingMutation& m, const CoveringPolicy& policy);

  Prt prt_;
  Srt srt_;
  obs::StageProfiler* prof_ = nullptr;
  /// Candidate scratch reused across match() calls (single-threaded).
  mutable std::vector<SubscriptionId> match_scratch_;
};

}  // namespace tmps
