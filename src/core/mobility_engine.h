// The mobile container attached to each broker (Sec. 4.1): hosts client
// stubs and runs the movement protocols.
//
// Two protocols are implemented:
//
//  * Reconfiguration (the paper's contribution, Sec. 4.2-4.4): a 3PC-style
//    conversation between source and target coordinators — negotiate /
//    approve / reject / state / ack (Fig. 3) — in which the `approve`
//    message installs the post-move (shadow) routing configuration hop-by-
//    hop from target to source and the `state` message commits it hop-by-hop
//    from source to target. Movement cost is proportional to the path
//    length, independent of covering structure.
//
//  * Traditional (the covering-based baseline, Sec. 2/4.4): the target
//    re-issues the client's subscriptions/advertisements as ordinary pub/sub
//    operations (fresh incarnations) and the source then unsubscribes/
//    unadvertises the old ones — both of which trigger end-to-end
//    propagation and, with covering enabled, quench/retract/un-quench
//    cascades.
//
// The engine is the broker's ControlHandler: it processes movement messages
// (including their hop-by-hop legs) and intercepts notifications destined
// for hosted clients so paused/moving clients buffer instead of receiving.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "broker/broker.h"
#include "core/client_stub.h"
#include "obs/trace.h"
#include "sim/runtime_env.h"

namespace tmps {

enum class MobilityProtocol { Reconfiguration, Traditional };

const char* to_string(MobilityProtocol p);

/// Source-coordinator states (Fig. 4). Abort/Commit are terminal.
enum class SourceCoordState { Init, Wait, Prepare, Abort, Commit };
/// Target-coordinator states (Fig. 4).
enum class TargetCoordState { Init, Prepare, Abort, Commit };

const char* to_string(SourceCoordState s);
const char* to_string(TargetCoordState s);

/// Why initiate_move refused to even start a transaction (local admission;
/// distinct from a remote reject/abort, which starts and then resolves).
enum class MoveRefusal {
  None,          ///< the movement started
  UnknownClient, ///< no such client hosted here
  InvalidTarget, ///< target is this broker or not in the overlay
  Busy,          ///< a movement transaction is already in flight
  NotRunning,    ///< client exists but is not in a movable state
};

const char* to_string(MoveRefusal r);

/// Result of a movement-initiation attempt: either a live transaction id or
/// a typed refusal. Callers that only retry on Busy (the balancer, tests
/// exercising concurrent moves) need the distinction kNoTxn used to erase.
struct MoveStart {
  TxnId txn = kNoTxn;
  MoveRefusal refusal = MoveRefusal::None;
  bool started() const { return txn != kNoTxn; }
};

struct MobilityConfig {
  MobilityProtocol protocol = MobilityProtocol::Reconfiguration;
  /// Target-side admission: refuse incoming clients (tests the reject path).
  bool accept_clients = true;
  /// Refuse incoming clients beyond this many hosted ones.
  std::size_t max_hosted_clients = static_cast<std::size_t>(-1);
  /// Source coordinator timeout awaiting approve/reject (wait state); 0
  /// disables (blocking variant, for unbounded-delay networks).
  double negotiate_timeout = 0;
  /// Coordinator timeout in prepare states; 0 disables (blocking variant).
  double prepare_timeout = 0;
};

class MobilityEngine final : public ControlHandler {
 public:
  using Outputs = Broker::Outputs;
  /// Application-level delivery observer: (client, publication, time).
  using DeliverySink =
      std::function<void(ClientId, const Publication&, SimTime)>;
  /// Movement-completion observer (fires at the broker where the movement
  /// resolves: source on commit/reject, target on traditional completion).
  using MoveCallback = std::function<void(const MovementRecord&)>;
  /// Handles a message of an attached service (repair, sessions) that
  /// arrived at this broker from `from`, appending what to send to `out`.
  using MessageHandler =
      std::function<void(BrokerId from, const Message&, Outputs& out)>;

  MobilityEngine(Broker& broker, RuntimeEnv& env, MobilityConfig cfg = {});

  Broker& broker() { return *broker_; }
  const MobilityConfig& config() const { return cfg_; }
  /// Runtime-adjustable knobs (admission control, timeouts) for tests and
  /// adaptive deployments.
  MobilityConfig& mutable_config() { return cfg_; }
  BrokerId broker_id() const;

  /// How the engine emits messages outside a broker processing context
  /// (timer callbacks). Must be set before timeouts are enabled.
  void set_transmit(std::function<void(Outputs)> fn) {
    transmit_ = std::move(fn);
  }

  /// Hands messages to the configured transmit hook (used by client facades
  /// driving the engine from outside a processing context).
  void emit(Outputs out) {
    if (transmit_ && !out.empty()) transmit_(std::move(out));
  }
  void set_delivery_sink(DeliverySink sink) { delivery_ = std::move(sink); }
  void set_move_callback(MoveCallback cb) { move_cb_ = std::move(cb); }

  // --- client hosting & operations -----------------------------------------

  /// Creates and starts a stationary client at this broker.
  ClientStub& connect_client(ClientId id);
  ClientStub* find_client(ClientId id);
  const ClientStub* find_client(ClientId id) const;
  std::size_t hosted_clients() const { return clients_.size(); }

  /// Dismantles a hosted stub outside the movement protocol (session expiry
  /// GC). The client's routing entries are left behind as orphans for the
  /// repair sweeps to retract. Returns false when the client is not hosted.
  bool remove_client(ClientId id);

  /// Feeds a publication straight to the delivery sink, bypassing stub
  /// routing — the reattachment broker's half of session forwarding, where
  /// exactly-once is already enforced by the forwarding stub's guard.
  void deliver_direct(ClientId client, const Publication& pub) {
    if (delivery_) delivery_(client, pub, env_->now());
  }

  /// Issues a subscription/advertisement for a hosted client. Returns the
  /// assigned id; messages to transmit are appended to `out`.
  SubscriptionId subscribe(ClientId client, const Filter& f, Outputs& out);
  AdvertisementId advertise(ClientId client, const Filter& f, Outputs& out);
  void unsubscribe(ClientId client, const SubscriptionId& id, Outputs& out);
  void unadvertise(ClientId client, const AdvertisementId& id, Outputs& out);

  /// Publishes on behalf of a client. While the client cannot publish
  /// (paused or moving) the command is queued and replayed on resume,
  /// as the stub layer must "queue commands from the application".
  void publish(ClientId client, Publication pub, Outputs& out);

  /// Starts a movement transaction for a hosted client towards `target`.
  /// Returns the transaction id plus a typed refusal when nothing started.
  MoveStart try_initiate_move(ClientId client, BrokerId target, Outputs& out);

  /// Convenience form of try_initiate_move for callers that only need the
  /// transaction id (kNoTxn on any refusal).
  TxnId initiate_move(ClientId client, BrokerId target, Outputs& out) {
    return try_initiate_move(client, target, out).txn;
  }

  /// Ids of the clients hosted in this container (balancer candidate
  /// enumeration; pair with find_client for the profile).
  std::vector<ClientId> client_ids() const;

  // --- ControlHandler --------------------------------------------------------

  void on_control(BrokerId from, const Message& msg,
                  std::vector<std::pair<BrokerId, Message>>& out) override;
  bool intercept_notification(ClientId client, const Publication& pub) override;
  void snapshot_into(obs::BrokerSnapshot& snap) const override;
  /// Publication provenance marks hops taken while this broker coordinates
  /// an in-flight movement (the latency the paper's Fig. 8 attributes to
  /// reconfiguration windows).
  bool movement_window_open() const override {
    return has_active_transactions();
  }

  // --- introspection (tests, global-state-graph checks) ---------------------

  std::optional<SourceCoordState> source_state(TxnId txn) const;
  std::optional<TargetCoordState> target_state(TxnId txn) const;
  bool has_active_transactions() const {
    return !source_moves_.empty() || !target_moves_.empty();
  }

  // --- anti-entropy repair support (src/repair) ------------------------------

  /// The anti-entropy repair subsystem (src/repair) attaches here. The
  /// engine answers transaction-resolution probes itself (it owns the
  /// coordinator records); digests, re-forward requests and verdicts
  /// arriving at this broker go to `handler` (empty: dropped).
  void set_repair_handler(MessageHandler handler) {
    repair_ = std::move(handler);
  }

  /// The edge-client session layer (src/session) attaches here: session
  /// wire messages (open / resume / ack / heartbeat / close / forward)
  /// arriving at this broker go to `handler` (empty: dropped).
  void set_session_handler(MessageHandler handler) {
    session_ = std::move(handler);
  }

  /// Coordinator-side verdict for `txn` from this broker's transaction
  /// records. A transaction this coordinator has no record of can never
  /// commit, so it resolves to Aborted — safe for the asker to unwind.
  RepairVerdictMsg resolve_txn(TxnId txn) const;

  /// Applies a terminal repair verdict to this broker's state for `txn`:
  /// Committed re-runs the hop-local commit hand-off over whatever shadow
  /// entries remain; Aborted unwinds them and dismantles a parked target-
  /// coordinator precommit (including a traditional target's re-issued
  /// profile). InFlight is a no-op.
  void repair_resolve_txn(const RepairVerdictMsg& v, Outputs& out);

  /// Sweeps this coordinator's parked transactions older than `stale_after`:
  /// a source stuck awaiting approve aborts (nothing downstream can have
  /// committed); a source past its commit point retransmits the idempotent
  /// state message (never aborts); a target stuck in precommit probes the
  /// source coordinator for the outcome (never aborts unilaterally — the
  /// source may have passed its commit point with the state message lost).
  /// Returns the number of corrective actions taken.
  std::size_t repair_sweep_parked(double stale_after, Outputs& out);

 private:
  struct SourceMove {
    TxnId txn = kNoTxn;
    ClientId client = kNoClient;
    BrokerId target = kNoBroker;
    SimTime start = 0;
    SourceCoordState state = SourceCoordState::Init;
    MobilityProtocol protocol = MobilityProtocol::Reconfiguration;
    std::uint64_t timer_gen = 0;
    /// Copy of the state message for idempotent retry on prepare timeout.
    std::optional<MoveStateMsg> pending_state;
    /// Trace spans: the whole movement, and the currently running phase
    /// (prepare while awaiting approve/ready, commit while awaiting ack).
    obs::SpanId move_span = obs::kNoSpan;
    obs::SpanId phase_span = obs::kNoSpan;
  };
  struct TargetMove {
    TxnId txn = kNoTxn;
    ClientId client = kNoClient;
    BrokerId source = kNoBroker;
    SimTime start = 0;
    TargetCoordState state = TargetCoordState::Init;
    std::vector<SubscriptionId> sub_ids;
    std::vector<AdvertisementId> adv_ids;
    std::uint64_t timer_gen = 0;
    /// Target-side precommit span (negotiate accepted -> state/abort).
    obs::SpanId span = obs::kNoSpan;
  };

  // Reconfiguration-protocol handlers.
  void on_negotiate(const MoveNegotiateMsg& m, TxnId cause, Outputs& out);
  void on_approve_hop(BrokerId from, const Message& msg, Outputs& out);
  void on_reject(const MoveRejectMsg& m, Outputs& out);
  void on_state_hop(BrokerId from, const Message& msg, Outputs& out);
  void on_ack(const MoveAckMsg& m, Outputs& out);
  void on_abort_hop(BrokerId from, const Message& msg, Outputs& out);

  // Traditional-protocol handlers.
  void on_trad_request(const TradMoveRequestMsg& m, Outputs& out);
  void on_trad_ready(const TradReadyMsg& m, Outputs& out);
  void on_trad_reject(const TradRejectMsg& m, Outputs& out);
  void on_buffered_state(const BufferedStateMsg& m, Outputs& out);

  // Anti-entropy repair.
  void on_repair_probe(const RepairProbeMsg& p, TxnId cause, Outputs& out);
  void retransmit_pending_state(const SourceMove& m, Outputs& out);
  /// Aborts a source coordinator stuck in Wait (re-issuing a traditional
  /// mover's retracted profile first) and resumes the client at the source.
  void abort_parked_source(SourceMove& m, Outputs& out);

  // Hop-by-hop routing reconfiguration (Sec. 4.4).
  void install_shadows(const MoveApproveMsg& m);
  void commit_shadows_here(const MoveStateMsg& m, Outputs& out);
  void abort_shadows_here(const MoveAbortMsg& m);
  /// Applies the paper's three PRT cases after a moved advertisement's
  /// configuration commits at this broker.
  void fix_prt_for_moved_adv(const Advertisement& adv, BrokerId target,
                             TxnId cause, Outputs& out);

  void finish_source_move(SourceMove& m, bool committed, Outputs& out);
  void source_timeout(TxnId txn, SourceCoordState expected);
  void target_timeout(TxnId txn);
  void arm_source_timer(SourceMove& m, double delay);
  void arm_target_timer(TargetMove& m, double delay);

  /// Replays publish commands a client queued while it could not publish.
  void drain_commands(ClientStub& stub, Outputs& out);

  TxnId next_txn_id();
  Hop client_hop(ClientId c) const { return Hop::of_client(c); }
  Hop toward(BrokerId other) const;

  Broker* broker_;
  RuntimeEnv* env_;
  obs::Tracer* tracer_;  // the host's tracer (may be null)
  MobilityConfig cfg_;
  std::function<void(Outputs)> transmit_;
  DeliverySink delivery_;
  MoveCallback move_cb_;
  MessageHandler repair_;
  MessageHandler session_;
  std::map<ClientId, std::unique_ptr<ClientStub>> clients_;
  std::map<TxnId, SourceMove> source_moves_;
  std::map<TxnId, TargetMove> target_moves_;
  std::uint64_t txn_seq_ = 0;
};

}  // namespace tmps
