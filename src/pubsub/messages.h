// The wire-message vocabulary.
//
// Two message classes flow over overlay links:
//   * pub/sub routing messages — (un)advertise, (un)subscribe, publish —
//     routed content-based by each broker's tables;
//   * movement-protocol messages (Fig. 3 of the paper) — negotiate, approve,
//     reject, state, ack, plus the hop-by-hop reconfiguration commit/abort.
//     Unicast messages travel along the unique overlay path to `unicast_dest`;
//     `approve`, `commit` and `abort` are additionally *processed* at every
//     broker on the path (they carry the routing reconfiguration).
// The repair and session payloads below are unicasts of the same kind.
//
// Clients hosted in a broker's mobile container (the paper's system model)
// reach it by function call. An edge client on a socket
// (session/tcp_session_client.h) sends and receives these messages too: the
// session frames, publish, subscribe and advertise.
//
// Each payload struct declares its name (`kName`) and its wire fields
// (`fields()`) once; the codec, Message::type_name() and the flight recorder
// derive from them.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "obs/provenance.h"
#include "pubsub/publication.h"
#include "pubsub/subscription.h"

namespace tmps {

// ---------------------------------------------------------------------------
// Routing-layer payloads
// ---------------------------------------------------------------------------

struct AdvertiseMsg {
  static constexpr std::string_view kName = "adv";
  Advertisement adv;

  template <class S>
  static auto fields(S& s) { return std::tie(s.adv); }
  bool operator==(const AdvertiseMsg&) const = default;
};

struct UnadvertiseMsg {
  static constexpr std::string_view kName = "unadv";
  AdvertisementId adv_id;

  template <class S>
  static auto fields(S& s) { return std::tie(s.adv_id); }
  bool operator==(const UnadvertiseMsg&) const = default;
};

struct SubscribeMsg {
  static constexpr std::string_view kName = "sub";
  Subscription sub;

  template <class S>
  static auto fields(S& s) { return std::tie(s.sub); }
  bool operator==(const SubscribeMsg&) const = default;
};

struct UnsubscribeMsg {
  static constexpr std::string_view kName = "unsub";
  SubscriptionId sub_id;

  template <class S>
  static auto fields(S& s) { return std::tie(s.sub_id); }
  bool operator==(const UnsubscribeMsg&) const = default;
};

struct PublishMsg {
  static constexpr std::string_view kName = "pub";
  Publication pub;

  template <class S>
  static auto fields(S& s) { return std::tie(s.pub); }
  bool operator==(const PublishMsg&) const = default;
};

// ---------------------------------------------------------------------------
// Movement-protocol payloads (Fig. 3: (1) negotiate, (2) approve, (3) reject,
// (4) state, (5) ack), plus the hop-by-hop transaction resolution.
// ---------------------------------------------------------------------------

/// (1) Source coordinator -> target coordinator: data about the moving
/// client. Pure unicast (intermediate brokers only forward).
struct MoveNegotiateMsg {
  static constexpr std::string_view kName = "move-negotiate";
  TxnId txn = kNoTxn;
  ClientId client = kNoClient;
  BrokerId source = kNoBroker;
  BrokerId target = kNoBroker;
  std::vector<Subscription> subs;
  std::vector<Advertisement> advs;
  /// Next per-client entity sequence number (id allocation moves with the
  /// client).
  std::uint32_t next_seq = 1;

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.txn, s.client, s.source, s.target, s.subs, s.advs,
                    s.next_seq);
  }
  bool operator==(const MoveNegotiateMsg&) const = default;
};

/// (2) Target coordinator -> source coordinator. Processed hop-by-hop along
/// RouteS2T: each broker on the path installs the *shadow* (post-move)
/// routing configuration for the client's subs/advs (Sec. 4.4).
struct MoveApproveMsg {
  static constexpr std::string_view kName = "move-approve";
  TxnId txn = kNoTxn;
  ClientId client = kNoClient;
  BrokerId source = kNoBroker;
  BrokerId target = kNoBroker;
  std::vector<Subscription> subs;
  std::vector<Advertisement> advs;

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.txn, s.client, s.source, s.target, s.subs, s.advs);
  }
  bool operator==(const MoveApproveMsg&) const = default;
};

/// (3) Target coordinator -> source coordinator: movement refused; the
/// client resumes at the source. Pure unicast.
struct MoveRejectMsg {
  static constexpr std::string_view kName = "move-reject";
  TxnId txn = kNoTxn;
  ClientId client = kNoClient;
  std::string reason;

  template <class S>
  static auto fields(S& s) { return std::tie(s.txn, s.client, s.reason); }
  bool operator==(const MoveRejectMsg&) const = default;
};

/// (4) Source coordinator -> target coordinator: client state hand-off,
/// including publications queued for the client while it was paused.
/// Processed hop-by-hop: commits the reconfiguration (deletes the pre-move
/// routing configuration) at each broker on the path.
struct MoveStateMsg {
  static constexpr std::string_view kName = "move-state";
  TxnId txn = kNoTxn;
  ClientId client = kNoClient;
  BrokerId source = kNoBroker;
  BrokerId target = kNoBroker;
  std::vector<Publication> queued_notifications;
  /// Publish commands the application issued while the client was moving;
  /// replayed at the target once the client starts.
  std::vector<Publication> queued_commands;
  /// Entities whose shadow configuration each path broker must commit.
  std::vector<SubscriptionId> sub_ids;
  std::vector<AdvertisementId> adv_ids;

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.txn, s.client, s.source, s.target, s.queued_notifications,
                    s.queued_commands, s.sub_ids, s.adv_ids);
  }
  bool operator==(const MoveStateMsg&) const = default;
};

/// (5) Target coordinator -> source coordinator: hand-off complete; the
/// source cleans up all client state. Pure unicast.
struct MoveAckMsg {
  static constexpr std::string_view kName = "move-ack";
  TxnId txn = kNoTxn;
  ClientId client = kNoClient;

  template <class S>
  static auto fields(S& s) { return std::tie(s.txn, s.client); }
  bool operator==(const MoveAckMsg&) const = default;
};

/// Transaction abort after the shadow configuration was installed. Processed
/// hop-by-hop: deletes the shadow (post-move) configuration at each broker.
struct MoveAbortMsg {
  static constexpr std::string_view kName = "move-abort";
  TxnId txn = kNoTxn;
  ClientId client = kNoClient;
  BrokerId source = kNoBroker;
  BrokerId target = kNoBroker;
  /// Entities whose shadow configuration each path broker must drop.
  std::vector<SubscriptionId> sub_ids;
  std::vector<AdvertisementId> adv_ids;

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.txn, s.client, s.source, s.target, s.sub_ids, s.adv_ids);
  }
  bool operator==(const MoveAbortMsg&) const = default;
};

/// State hand-off used by the *traditional* covering-based protocol: the
/// source broker ships the buffered notifications to the target after the
/// client reconnects there. Pure unicast.
struct BufferedStateMsg {
  static constexpr std::string_view kName = "buffered-state";
  TxnId txn = kNoTxn;
  ClientId client = kNoClient;
  std::vector<Publication> queued_notifications;
  std::vector<Publication> queued_commands;

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.txn, s.client, s.queued_notifications, s.queued_commands);
  }
  bool operator==(const BufferedStateMsg&) const = default;
};

// ---------------------------------------------------------------------------
// Traditional (covering-based, end-to-end) mobility protocol payloads.
// ---------------------------------------------------------------------------

/// Source broker -> target broker: the moving client's profile. The target
/// re-issues the subscriptions/advertisements (with fresh incarnations) as
/// ordinary pub/sub operations, so covering dynamics fire. Pure unicast.
struct TradMoveRequestMsg {
  static constexpr std::string_view kName = "trad-move-request";
  TxnId txn = kNoTxn;
  ClientId client = kNoClient;
  BrokerId source = kNoBroker;
  BrokerId target = kNoBroker;
  std::vector<Subscription> subs;
  std::vector<Advertisement> advs;
  std::uint32_t next_seq = 1;

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.txn, s.client, s.source, s.target, s.subs, s.advs,
                    s.next_seq);
  }
  bool operator==(const TradMoveRequestMsg&) const = default;
};

/// Target -> source: the re-issued subscriptions have been injected; the
/// source may now unsubscribe/unadvertise the old ones and ship the buffered
/// notifications. Pure unicast.
struct TradReadyMsg {
  static constexpr std::string_view kName = "trad-ready";
  TxnId txn = kNoTxn;
  ClientId client = kNoClient;

  template <class S>
  static auto fields(S& s) { return std::tie(s.txn, s.client); }
  bool operator==(const TradReadyMsg&) const = default;
};

/// Target -> source: movement refused; client resumes at the source.
struct TradRejectMsg {
  static constexpr std::string_view kName = "trad-reject";
  TxnId txn = kNoTxn;
  ClientId client = kNoClient;
  std::string reason;

  template <class S>
  static auto fields(S& s) { return std::tie(s.txn, s.client, s.reason); }
  bool operator==(const TradRejectMsg&) const = default;
};

// ---------------------------------------------------------------------------
// Anti-entropy repair payloads (src/repair): the self-healing loop that
// reconciles routing state drifted by crash-interrupted movements. Digests
// and requests are link-local (sent one hop to a neighbour); probes and
// verdicts are pure unicasts between a broker holding suspicious state and
// the transaction's coordinator (recoverable from the TxnId encoding).
// ---------------------------------------------------------------------------

/// How a transaction's coordinator resolved it, as answered to a repair
/// probe. InFlight means "leave the state alone and ask again later".
enum class RepairVerdict : std::uint8_t {
  InFlight = 0,
  Committed = 1,
  Aborted = 2,
};

const char* to_string(RepairVerdict v);

/// Periodic neighbour digest: `origin` lists every subscription/
/// advertisement it believes it has forwarded to the receiving neighbour.
/// The receiver diffs the claim against its own lasthop state — entries it
/// holds but the sender no longer claims are orphans to retract; claimed
/// entries it lacks are missing forwards to request back.
///
/// `in_flight_*` list entries the origin holds only as uncommitted shadow
/// state of a movement transaction. They are not claims (the receiver must
/// not request a re-forward — the movement will install them on commit), but
/// they veto orphan aging: a neighbour whose committed entry already points
/// at the origin mid-movement must not retract it while the origin's own
/// copy is still a shadow.
struct RepairDigestMsg {
  static constexpr std::string_view kName = "repair-digest";
  std::uint64_t round = 0;
  BrokerId origin = kNoBroker;
  std::vector<SubscriptionId> sub_ids;
  std::vector<AdvertisementId> adv_ids;
  std::vector<SubscriptionId> in_flight_subs;
  std::vector<AdvertisementId> in_flight_advs;

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.round, s.origin, s.sub_ids, s.adv_ids, s.in_flight_subs,
                    s.in_flight_advs);
  }
  bool operator==(const RepairDigestMsg&) const = default;
};

/// Receiver -> digest sender: re-forward these entries (the sender answers
/// with ordinary SubscribeMsg/AdvertiseMsg re-sends, which are idempotent
/// upserts at the receiver).
struct RepairRequestMsg {
  static constexpr std::string_view kName = "repair-request";
  std::uint64_t round = 0;
  BrokerId origin = kNoBroker;
  std::vector<SubscriptionId> sub_ids;
  std::vector<AdvertisementId> adv_ids;

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.round, s.origin, s.sub_ids, s.adv_ids);
  }
  bool operator==(const RepairRequestMsg&) const = default;
};

/// A broker holding stale shadow or parked state for `txn` asks the
/// transaction's coordinator how it resolved. Pure unicast.
struct RepairProbeMsg {
  static constexpr std::string_view kName = "repair-probe";
  TxnId txn = kNoTxn;
  BrokerId asker = kNoBroker;

  template <class S>
  static auto fields(S& s) { return std::tie(s.txn, s.asker); }
  bool operator==(const RepairProbeMsg&) const = default;
};

/// The coordinator's answer to a probe. `source`/`target`/`client` carry the
/// movement's endpoints so the asker can commit shadows locally (the commit
/// hand-off needs the direction of the source). Pure unicast.
struct RepairVerdictMsg {
  static constexpr std::string_view kName = "repair-verdict";
  TxnId txn = kNoTxn;
  RepairVerdict verdict = RepairVerdict::InFlight;
  BrokerId source = kNoBroker;
  BrokerId target = kNoBroker;
  ClientId client = kNoClient;

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.txn, s.verdict, s.source, s.target, s.client);
  }
  bool operator==(const RepairVerdictMsg&) const = default;
};

// ---------------------------------------------------------------------------
// Edge-session payloads (src/session): durable client sessions with
// resumption tokens, disconnected-operation buffering and connectivity-
// triggered mobility. Over the overlay these are pure unicasts between the
// broker a client reappears at and the session's home broker (recoverable
// from the token encoding); over `tcp_transport` the same frames double as
// the client↔broker handshake vocabulary.
// ---------------------------------------------------------------------------

/// A session's home broker answers a resume request with one of these.
enum class SessionVerdict : std::uint8_t {
  Resumed = 0,     ///< session live; stub resumed at the home broker
  Moving = 1,      ///< home initiated a movement transaction toward `at`
  Forwarding = 2,  ///< movement refused; home resumes and forwards deliveries
  Expired = 3,     ///< grace elapsed; last-will fired; reattach cold
  Unknown = 4,     ///< no such session at the home broker
};

const char* to_string(SessionVerdict v);

/// Client -> hosting broker: open a durable session, optionally registering
/// a last-will publication fired if the session expires ungracefully.
struct SessionOpenMsg {
  static constexpr std::string_view kName = "session-open";
  ClientId client = kNoClient;
  BrokerId at = kNoBroker;  ///< broker hosting the client
  std::optional<Publication> will;

  template <class S>
  static auto fields(S& s) { return std::tie(s.client, s.at, s.will); }
  bool operator==(const SessionOpenMsg&) const = default;
};

/// Reappeared client (relayed by the broker it reached) -> home broker:
/// resume session `token`; `at` is where the client is now. Pure unicast.
struct SessionResumeMsg {
  static constexpr std::string_view kName = "session-resume";
  std::uint64_t token = 0;
  ClientId client = kNoClient;
  BrokerId at = kNoBroker;

  template <class S>
  static auto fields(S& s) { return std::tie(s.token, s.client, s.at); }
  bool operator==(const SessionResumeMsg&) const = default;
};

/// Home broker's answer to open/resume. `txn` carries the movement
/// transaction id when `verdict == Moving`, and the registered last-will
/// travels along so the session can re-home with the client. Pure unicast.
struct SessionAckMsg {
  static constexpr std::string_view kName = "session-ack";
  std::uint64_t token = 0;
  ClientId client = kNoClient;
  SessionVerdict verdict = SessionVerdict::Unknown;
  TxnId txn = kNoTxn;
  BrokerId home = kNoBroker;
  std::optional<Publication> will;

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.token, s.client, s.verdict, s.txn, s.home, s.will);
  }
  bool operator==(const SessionAckMsg&) const = default;
};

/// Client -> hosting broker: liveness beacon refreshing the session timer.
struct SessionHeartbeatMsg {
  static constexpr std::string_view kName = "session-heartbeat";
  std::uint64_t token = 0;
  ClientId client = kNoClient;

  template <class S>
  static auto fields(S& s) { return std::tie(s.token, s.client); }
  bool operator==(const SessionHeartbeatMsg&) const = default;
};

/// Client -> hosting broker: graceful close. `fire_will` requests the
/// last-will publication anyway (MQTT DISCONNECT-with-will semantics).
struct SessionCloseMsg {
  static constexpr std::string_view kName = "session-close";
  std::uint64_t token = 0;
  ClientId client = kNoClient;
  bool fire_will = false;

  template <class S>
  static auto fields(S& s) { return std::tie(s.token, s.client, s.fire_will); }
  bool operator==(const SessionCloseMsg&) const = default;
};

/// Old host -> broker the client reattached to: deliveries forwarded while
/// the routing state stays behind (movement refusal fallback). Pure unicast.
struct SessionForwardMsg {
  static constexpr std::string_view kName = "session-forward";
  std::uint64_t token = 0;
  ClientId client = kNoClient;
  BrokerId origin = kNoBroker;
  std::vector<Publication> pubs;

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.token, s.client, s.origin, s.pubs);
  }
  bool operator==(const SessionForwardMsg&) const = default;
};

/// Every wire payload. An alternative's wire tag is its index + 1, so new
/// messages are appended: inserting one renumbers every tag after it. The
/// routing payloads come first, ending with PublishMsg.
using Payload =
    std::variant<AdvertiseMsg, UnadvertiseMsg, SubscribeMsg, UnsubscribeMsg,
                 PublishMsg, MoveNegotiateMsg, MoveApproveMsg, MoveRejectMsg,
                 MoveStateMsg, MoveAckMsg, MoveAbortMsg, BufferedStateMsg,
                 TradMoveRequestMsg, TradReadyMsg, TradRejectMsg,
                 RepairDigestMsg, RepairRequestMsg, RepairProbeMsg,
                 RepairVerdictMsg, SessionOpenMsg, SessionResumeMsg,
                 SessionAckMsg, SessionHeartbeatMsg, SessionCloseMsg,
                 SessionForwardMsg>;

struct Message {
  MessageId id = 0;
  /// Movement transaction this message is (transitively) caused by; lets the
  /// metrics layer attribute routing traffic — including covering-induced
  /// (un)subscriptions — to individual movements. kNoTxn for background
  /// traffic.
  TxnId cause = kNoTxn;
  /// Set for unicast (movement-protocol) messages; routing messages leave it
  /// empty and are routed content-based.
  std::optional<BrokerId> unicast_dest;
  /// Publication provenance (PublishMsg only, when the sending broker has
  /// provenance enabled): origin timestamp + hop count + deterministic
  /// sample bit, updated at every forwarding hop (obs/provenance.h).
  std::optional<obs::ProvenanceTag> prov;
  Payload payload;

  /// The payload's kName, for tracing and metrics (static storage).
  std::string_view type_name() const;
  /// True for every payload after the routing ones (movement protocol,
  /// repair, sessions).
  bool is_control() const;

  bool operator==(const Message&) const = default;
};

std::string to_string(const Message& m);

}  // namespace tmps
