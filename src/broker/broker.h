// A content-based pub/sub broker as a deterministic reactor.
//
// The broker owns the routing tables and implements advertisement-based
// content routing with optional covering. It is transport-agnostic: every
// entry point returns the list of (neighbour, message) pairs to transmit, so
// the same broker runs under the discrete-event simulator (benchmarks) and
// the TCP transport (live integration tests) unchanged.
//
// Movement-protocol (control) messages are delegated to an injectable
// ControlHandler — the mobility engine from src/core — which uses the
// broker's tables/overlay through the accessors below. Clients live in the
// broker's mobile container (see the paper's system model, Sec. 4.1), so
// client↔broker interaction is local method calls, not network messages.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include <memory>

#include "broker/broker_config.h"
#include "common/ids.h"
#include "obs/flight_recorder.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "pubsub/messages.h"
#include "routing/overlay.h"
#include "routing/routing_tables.h"

namespace tmps {

class Broker;

/// Hook for the mobility layer (src/core). The broker routes every control
/// payload here; the handler may call back into the broker to emit routing
/// operations or unicasts.
class ControlHandler {
 public:
  virtual ~ControlHandler() = default;

  /// A control message arrived from neighbouring broker `from`. The handler
  /// appends any messages to transmit to `out`.
  virtual void on_control(BrokerId from, const Message& msg,
                          std::vector<std::pair<BrokerId, Message>>& out) = 0;

  /// A publication is about to be delivered to local client `client`.
  /// Return true to consume it (e.g. buffer for a paused/moving client).
  virtual bool intercept_notification(ClientId client,
                                      const Publication& pub) = 0;

  /// Appends the mobility layer's view — hosted clients and in-flight
  /// movement transactions — to a routing snapshot (obs/introspect.h).
  /// Default: nothing to add.
  virtual void snapshot_into(obs::BrokerSnapshot& snap) const { (void)snap; }

  /// Does this broker currently participate in an in-flight movement
  /// transaction? Publication provenance records the answer per hop, so
  /// delivery-latency outliers can be attributed to movement windows.
  virtual bool movement_window_open() const { return false; }
};

class Broker {
 public:
  /// (neighbour broker, message to send to it)
  using Output = std::pair<BrokerId, Message>;
  using Outputs = std::vector<Output>;
  /// Final delivery of a publication to a local client.
  using NotifySink = std::function<void(ClientId, const Publication&)>;

  Broker(BrokerId id, const Overlay* overlay, BrokerConfig cfg = {});

  BrokerId id() const { return id_; }
  const Overlay& overlay() const { return *overlay_; }
  const BrokerConfig& config() const { return cfg_; }
  RoutingTables& tables() { return tables_; }
  const RoutingTables& tables() const { return tables_; }

  void set_control_handler(ControlHandler* handler) { control_ = handler; }
  void set_notify_sink(NotifySink sink) { notify_ = std::move(sink); }

  /// Attaches the host's observability (both optional). Registers this
  /// broker's per-broker counters and caches the handles; covering-induced
  /// (un)subscription events carry the triggering cause tag so they join a
  /// movement's trace.
  void set_observability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);
  obs::Tracer* tracer() { return tracer_; }

  /// Installs the host clock (simulated or wall seconds). Publication
  /// provenance and the flight recorder timestamp through this; without it
  /// they record time 0.
  void set_clock(std::function<double()> clock) { clock_ = std::move(clock); }

  /// The last-N event ring (null when cfg.obs.flight_capacity == 0).
  obs::FlightRecorder* flight() { return flight_.get(); }
  const obs::FlightRecorder* flight() const { return flight_.get(); }

  /// The publish-path stage profiler (null when cfg.obs.profile is off).
  /// Hosts flush it into the metrics registry and serve GET /profile.
  obs::StageProfiler* profiler() { return prof_.get(); }
  const obs::StageProfiler* profiler() const { return prof_.get(); }

  /// Runtime profiling toggles. enable_profiling constructs the profiler at
  /// the given 1-in-N root sampling rate (or re-enables an existing one —
  /// the rate of a live profiler is not changed); disable_profiling tears
  /// it down and probes revert to null checks. Not thread-safe against
  /// concurrent probing: only call while no other thread is in this broker
  /// (sim drivers, benches, setup code).
  void enable_profiling(std::uint32_t rate);
  void disable_profiling();

  /// Runtime override of the provenance sampling rate (1-in-N publications
  /// carry a traced tag; 0 stamps tags without sampling). Benches use this
  /// to compare sampling costs on one broker instance.
  void set_provenance_rate(std::uint32_t rate) {
    cfg_.obs.pub_trace_rate = rate;
  }

  /// Appends a flight-recorder dump to `trace_dir/flight_b<id>.jsonl` (no-op
  /// without a recorder or trace_dir). Called on movement abort and audit
  /// violation; `reason` labels the dump header.
  void dump_flight(std::string_view reason) const;

  // --- operations by locally attached clients -----------------------------

  Outputs client_subscribe(ClientId client, const Subscription& sub,
                           TxnId cause = kNoTxn);
  Outputs client_unsubscribe(ClientId client, const SubscriptionId& id,
                             TxnId cause = kNoTxn);
  Outputs client_advertise(ClientId client, const Advertisement& adv,
                           TxnId cause = kNoTxn);
  Outputs client_unadvertise(ClientId client, const AdvertisementId& id,
                             TxnId cause = kNoTxn);
  Outputs client_publish(ClientId client, const Publication& pub,
                         TxnId cause = kNoTxn);

  // --- network input -------------------------------------------------------

  /// Processes a message arriving from neighbouring broker `from`.
  Outputs on_message(BrokerId from, const Message& msg);

  // --- services for the mobility layer -------------------------------------

  /// Wraps a control payload for point-to-point delivery to `dest` and
  /// appends the first-hop transmission to `out`. If `dest` is this broker
  /// the payload is dispatched to the control handler directly.
  void send_unicast(BrokerId dest, Payload payload, TxnId cause,
                    std::vector<Output>& out);

  /// Emits `msg` towards its unicast destination (next hop on the path).
  void forward_unicast(const Message& msg, std::vector<Output>& out);

  /// Routing operations injected by the mobility layer on behalf of a hop
  /// (used by the traditional protocol to (un)issue subs/advs, and by tests).
  void inject_subscribe(Hop from, const Subscription& sub, TxnId cause,
                        std::vector<Output>& out);
  void inject_unsubscribe(Hop from, const SubscriptionId& id, TxnId cause,
                          std::vector<Output>& out);
  void inject_advertise(Hop from, const Advertisement& adv, TxnId cause,
                        std::vector<Output>& out);
  void inject_unadvertise(Hop from, const AdvertisementId& id, TxnId cause,
                          std::vector<Output>& out);

  /// Applies a burst of routing mutations in one forwarding-index batch
  /// (RoutingTables::apply_batch) and transmits every resulting delta. Used
  /// by the mobility engine's hand-off paths, where a whole client profile
  /// is retracted or re-issued at once; kAddAdv mutations with empty
  /// flood_links are flooded over this broker's overlay neighbours.
  void inject_batch(std::vector<RoutingMutation> muts, TxnId cause,
                    std::vector<Output>& out);

  /// Delivers a publication to a local client, honouring the control
  /// handler's interception (buffering for moving clients).
  void deliver_local(ClientId client, const Publication& pub);

  MessageId next_message_id();

  /// Fills `snap` with this broker's live routing state: identity, overlay
  /// links, covering config, every SRT/PRT entry with its (shadow) hops, and
  /// — via the control handler — hosted clients and in-flight movement
  /// transactions. The host sets time/run/final_snapshot.
  void snapshot(obs::BrokerSnapshot& snap) const;

 private:
  void do_subscribe(Hop from, const Subscription& sub, TxnId cause,
                    Outputs& out);
  void do_unsubscribe(Hop from, const SubscriptionId& id, TxnId cause,
                      Outputs& out);
  void do_advertise(Hop from, const Advertisement& adv, TxnId cause,
                    Outputs& out);
  void do_unadvertise(Hop from, const AdvertisementId& id, TxnId cause,
                      Outputs& out);
  /// `in_tag` is the provenance carried by an in-transit PublishMsg; null
  /// for origin publications (a fresh tag is stamped when provenance is on).
  void do_publish(Hop from, const Publication& pub, TxnId cause, Outputs& out,
                  const obs::ProvenanceTag* in_tag = nullptr);
  /// Delivery with provenance: observes end-to-end latency when `tag` is
  /// present (`now` is the host-clock time already read by do_publish).
  void deliver_local(ClientId client, const Publication& pub,
                     const obs::ProvenanceTag* tag, double now);

  /// The covering policy the routing-table mutation API should apply,
  /// mirroring this broker's configuration.
  CoveringPolicy covering_policy() const {
    return {cfg_.subscription_covering, cfg_.advertisement_covering};
  }

  /// This broker's overlay neighbour links (advertisement flooding set).
  std::vector<Hop> flood_links() const;

  /// Turns a RoutingDelta's ordered ops into wire messages, counting
  /// covering-induced retracts/un-quenches and tagging them onto the
  /// movement trace of `cause`.
  void apply_delta(const RoutingDelta& delta, TxnId cause, Outputs& out);

  void send(BrokerId to, Payload payload, TxnId cause, Outputs& out);

  BrokerId id_;
  const Overlay* overlay_;
  BrokerConfig cfg_;
  RoutingTables tables_;
  ControlHandler* control_ = nullptr;
  NotifySink notify_;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* msgs_processed_ = nullptr;
  obs::Counter* covering_retracts_ = nullptr;
  obs::Counter* covering_unquenches_ = nullptr;
  obs::Counter* pubs_processed_ = nullptr;
  obs::Counter* deliveries_ = nullptr;
  /// End-to-end delivery latency histograms (global + per-broker), fed from
  /// provenance tags; null when metrics or provenance are off.
  obs::Histogram* delivery_latency_ = nullptr;
  obs::Histogram* delivery_latency_broker_ = nullptr;
  std::function<double()> clock_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::StageProfiler> prof_;
  std::uint64_t msg_seq_ = 0;
};

}  // namespace tmps
