// Edge-client session layer (the ROADMAP's intermittently-connected-device
// item): durable sessions over the raw ClientStub/MobileClient attachment.
//
// A session is opened by a hosted client and identified by an opaque
// resumption token that encodes the home broker (like TxnId encodes its
// coordinator), so any broker a client reappears at can route the resume.
// While the client is away the home broker keeps its stub paused: matched
// notifications buffer under byte/count caps (drops are accounted in
// tmps_session_dropped_total, never silent), and the exactly-once guard in
// ClientStub dedups the replay on resume.
//
// Connectivity-triggered mobility: a resume arriving from a broker other
// than the home turns into MobilityEngine::try_initiate_move toward that
// broker — the 3PC movement transaction carries the buffered notifications
// and the routing state follows the device. If the movement is refused the
// home falls back to resuming the stub in place and forwarding deliveries
// over the overlay (SessionForwardMsg) to wherever the client sits.
//
// Liveness is heartbeat-based; a session silent past the heartbeat budget is
// detached, and one detached past the grace window expires: its last-will
// publication fires, the stub is dismantled, and the routing entries left
// behind are retracted by the anti-entropy repair sweeps (which this layer
// hints via a session probe — see repair::RepairEngine::set_session_probe).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "broker/broker_config.h"
#include "core/mobility_engine.h"

namespace tmps::session {

using SessionToken = std::uint64_t;
constexpr SessionToken kNoToken = 0;

/// Home-broker view of a session's lifecycle.
enum class SessionState {
  Active,      ///< client connected, stub started
  Detached,    ///< client gone; grace timer running, notifications buffer
  Moving,      ///< resume elsewhere turned into a movement transaction
  Forwarding,  ///< movement refused; deliveries forwarded to the client
  Attached,    ///< (reattach broker) fed by a remote home via forwarding
  Expired,     ///< grace elapsed; will fired; tombstone for repair GC
};

const char* to_string(SessionState s);

/// Monotonic per-broker session activity counters (the drop counters mirror
/// into tmps_session_dropped_total in the metrics registry).
struct SessionStats {
  std::uint64_t opened = 0;
  std::uint64_t resumed_local = 0;    ///< resumed at the home broker
  std::uint64_t resumed_move = 0;     ///< resume became a movement txn
  std::uint64_t resumed_forward = 0;  ///< resume fell back to forwarding
  std::uint64_t adopted = 0;          ///< sessions adopted after a move
  std::uint64_t expired = 0;
  std::uint64_t closed = 0;
  std::uint64_t wills_fired = 0;
  std::uint64_t dropped_overflow = 0;  ///< buffer count/byte cap drops
  std::uint64_t dropped_expiry = 0;    ///< lost with an expired session
  std::uint64_t forwarded_pubs = 0;    ///< deliveries sent via forwarding
};

/// Why a buffered notification never reached the client. The drop log is
/// the manager's half of the soak auditor's expected-loss ledger.
enum class DropReason : std::uint8_t { Overflow = 0, Expiry = 1 };

struct DropRecord {
  PublicationId pub;
  ClientId client = kNoClient;
  DropReason reason = DropReason::Overflow;
};

/// One row of the GET /sessions admin view.
struct SessionInfo {
  SessionToken token = kNoToken;
  ClientId client = kNoClient;
  SessionState state = SessionState::Active;
  double opened_at = 0;
  double last_heartbeat = 0;
  double detached_at = 0;
  BrokerId peer = kNoBroker;  ///< forward/move destination (or home)
  TxnId move_txn = kNoTxn;
  std::size_t buffered = 0;
  std::size_t buffered_bytes = 0;
  bool has_will = false;
};

class SessionManager {
 public:
  using Outputs = MobilityEngine::Outputs;
  /// Direct channel to a locally connected client (tcp_transport session
  /// connections); returns false when the client has no live channel.
  using ClientChannel = std::function<bool(ClientId, const Message&)>;

  /// Built and attached to `engine` by the host (HostCore), once per broker
  /// when BrokerConfig::session is enabled; `env` is the broker's runtime,
  /// so the ticks run at this broker. `cfg` is this broker's Session
  /// section.
  SessionManager(MobilityEngine& engine, RuntimeEnv& env, SessionConfig cfg);

  /// Schedules recurring timer sweeps, the first `first` seconds from now,
  /// then every tick_interval until host time `until`.
  void start(double first, double until);

  /// One timer sweep: heartbeat liveness, grace expiry,
  /// movement-adoption progress, gauge refresh. Public so tests can drive
  /// rounds manually. Emits via the engine's transmit hook.
  void tick();

  // --- client-facing API (invoked at the broker the client talks to) -------

  /// Opens a durable session for a client hosted here; registers the
  /// optional last-will. Returns kNoToken when the client is not hosted.
  SessionToken open(ClientId client, std::optional<Publication> will = {});

  /// Liveness beacon. Relays to the home broker when the session is
  /// remotely homed (forwarding attachment). Returns false for an unknown
  /// session.
  bool heartbeat(ClientId client, SessionToken token, Outputs& out);

  /// Graceful close: optionally fires the will, then dismantles the session
  /// without waiting out the grace window. The stub (and routing state)
  /// stays — closing a session is not disconnecting the client.
  bool close(ClientId client, SessionToken token, bool fire_will,
             Outputs& out);

  /// The transport noticed the client vanished: pause the stub (buffering
  /// starts) and arm the grace timer.
  void disconnect(ClientId client);

  /// The client reappeared *here* holding `token`. Routes a SessionResume
  /// to the token's home broker (self included — the local resume flows
  /// through the same path), answering with a SessionAck that this manager
  /// acts on (adopt / deliver forwarded traffic / report expiry).
  void reattach(ClientId client, SessionToken token, Outputs& out);

  // --- the engine's session handler -----------------------------------------

  void on_session(BrokerId from, const Message& msg, Outputs& out);

  // --- introspection --------------------------------------------------------

  static BrokerId home_of(SessionToken token) {
    return static_cast<BrokerId>(token >> 40);
  }

  const SessionStats& stats() const { return stats_; }
  const SessionConfig& config() const { return cfg_; }
  BrokerId broker_id() const;
  /// Sessions in any non-tombstone state.
  std::size_t live_sessions() const { return sessions_.size(); }
  std::size_t expired_sessions() const { return expired_.size(); }
  SessionState state_of(ClientId client) const;
  /// Current resumption token for a client's session here (kNoToken when
  /// unknown). Movement adoption reissues tokens, so callers re-read this.
  SessionToken token_of(ClientId client) const;
  std::vector<SessionInfo> snapshot() const;
  /// Every buffered notification this broker dropped, with its reason —
  /// consumed by the flaky-fleet soak's loss auditor.
  const std::vector<DropRecord>& drop_log() const { return drop_log_; }
  /// Total bytes buffered across this broker's detached sessions.
  std::size_t buffered_bytes() const;

  void set_client_channel(ClientChannel ch) { client_channel_ = std::move(ch); }

  /// Repair-sweep hint for a client-hop routing entry: 0 = no session
  /// knowledge (default aging), 1 = live session (veto retraction while the
  /// grace window runs), 2 = expired session (retract immediately).
  int repair_hint(ClientId client) const;

 private:
  struct Session {
    SessionToken token = kNoToken;
    ClientId client = kNoClient;
    SessionState state = SessionState::Active;
    double opened_at = 0;
    double last_heartbeat = 0;
    double detached_at = 0;
    std::optional<Publication> will;
    BrokerId peer = kNoBroker;  ///< move/forward destination, or home when
                                ///< Attached at a reattach broker
    TxnId move_txn = kNoTxn;
    double attach_since = 0;  ///< reattach-broker adoption wait start
  };

  void on_resume(BrokerId from, const SessionResumeMsg& m, Outputs& out);
  void on_ack(const SessionAckMsg& m, Outputs& out);
  void on_forward(const SessionForwardMsg& m);
  void on_open_frame(const SessionOpenMsg& m, Outputs& out);

  /// Wires the stub's buffer caps and drop accounting to this session.
  void configure_stub(ClientStub& stub);
  /// Restores the stub's plain local delivery (undoes forwarding).
  void deliver_locally(ClientStub& stub);
  void begin_forwarding(Session& s, ClientStub& stub, BrokerId to);
  void forward_pub(ClientId client, const Publication& pub);
  void fire_will(Session& s, Outputs& out);
  void expire(Session& s, Outputs& out);
  void answer(BrokerId dest, SessionAckMsg ack, Outputs& out);
  void note_drop(ClientId client, const Publication& pub, DropReason reason);
  void refresh_gauges();
  void schedule_next(double delay);
  double now() const;

  MobilityEngine* engine_;
  Broker* broker_;
  RuntimeEnv* env_;
  obs::Tracer* tracer_;
  SessionConfig cfg_;
  double until_ = 0;
  std::uint64_t nonce_ = 0;
  SessionStats stats_;
  std::map<ClientId, Session> sessions_;
  /// Tombstones: expired sessions the repair sweeps still need to know
  /// about (fast-path orphan retraction). Pruned once the client's routing
  /// state is gone from this broker.
  std::map<ClientId, Session> expired_;
  std::vector<DropRecord> drop_log_;
  ClientChannel client_channel_;
  obs::Counter* dropped_overflow_ctr_ = nullptr;
  obs::Counter* dropped_expiry_ctr_ = nullptr;
  obs::Counter* resumes_ctr_ = nullptr;
  obs::Gauge* sessions_gauge_ = nullptr;
  obs::Gauge* buffered_bytes_gauge_ = nullptr;
};

}  // namespace tmps::session
