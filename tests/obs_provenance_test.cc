// Publication provenance: deterministic hash sampling, tag stamping at the
// origin broker, per-hop propagation through the wire messages, end-to-end
// latency histograms, pub:* trace events, and the routing-state version
// counter the per-hop records carry.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "pubsub/workload.h"
#include "routing/overlay.h"

namespace tmps {
namespace {

using obs::kPubTraceBit;
using obs::make_provenance;
using obs::ProvenanceTag;
using obs::pub_sampled;
using obs::pub_trace_id;

TEST(Provenance, TraceIdsAreDeterministicDistinctAndTagged) {
  const PublicationId a{42, 1}, b{42, 2}, c{43, 1};
  EXPECT_EQ(pub_trace_id(a), pub_trace_id(a));
  EXPECT_NE(pub_trace_id(a), pub_trace_id(b));
  EXPECT_NE(pub_trace_id(a), pub_trace_id(c));
  // The top bit separates publication traces from movement TxnIds in the
  // shared tracer.
  EXPECT_NE(pub_trace_id(a) & kPubTraceBit, 0u);
  EXPECT_NE(pub_trace_id(b) & kPubTraceBit, 0u);
}

TEST(Provenance, SamplingRateSemantics) {
  const std::uint64_t id = pub_trace_id({7, 9});
  EXPECT_FALSE(pub_sampled(id, 0));  // 0 = never
  EXPECT_TRUE(pub_sampled(id, 1));   // 1 = always
  // 1/64: deterministic per id, and roughly 1/64 of a large population.
  int sampled = 0;
  for (std::uint32_t seq = 1; seq <= 6400; ++seq) {
    if (pub_sampled(pub_trace_id({1, seq}), 64)) ++sampled;
  }
  EXPECT_GT(sampled, 20);
  EXPECT_LT(sampled, 400);
}

TEST(Provenance, MakeProvenanceStampsOriginFields) {
  const ProvenanceTag tag = make_provenance({5, 17}, 12.5, 1);
  EXPECT_EQ(tag.trace, pub_trace_id({5, 17}));
  EXPECT_DOUBLE_EQ(tag.origin_time, 12.5);
  EXPECT_DOUBLE_EQ(tag.last_hop_time, 12.5);
  EXPECT_EQ(tag.hops, 0);
  EXPECT_TRUE(tag.sampled);
  EXPECT_FALSE(make_provenance({5, 17}, 12.5, 0).sampled);
}

TEST(RoutingVersion, BumpsOnEveryTableMutation) {
  RoutingTables rt;
  std::uint64_t last = rt.version();
  const Subscription sub{{100, 1}, workload_filter(WorkloadKind::Covered, 2)};
  rt.prt().upsert(sub, Hop::of_broker(2));
  EXPECT_GT(rt.version(), last);
  last = rt.version();
  rt.prt().install_shadow(sub, Hop::of_broker(3), 99);
  EXPECT_GT(rt.version(), last);
  last = rt.version();
  rt.prt().commit_shadow(sub.id, 99);
  EXPECT_GT(rt.version(), last);
  last = rt.version();
  rt.prt().erase(sub.id);
  EXPECT_GT(rt.version(), last);
}

/// Two brokers wired by hand: the origin stamps a tag, the forwarded wire
/// message carries it with the hop count bumped, and the edge broker
/// observes the end-to-end latency and emits the pub:* events.
class ProvenanceChainTest : public ::testing::Test {
 protected:
  ProvenanceChainTest() : overlay_(Overlay::chain(2)) {}

  void wire(std::uint32_t trace_rate) {
    BrokerConfig cfg;
    cfg.subscription_covering = false;
    cfg.advertisement_covering = false;
    cfg.obs.pub_trace_rate = trace_rate;
    b1_ = std::make_unique<Broker>(1, &overlay_, cfg);
    b2_ = std::make_unique<Broker>(2, &overlay_, cfg);
    tracer_.set_enabled(true);
    for (Broker* b : {b1_.get(), b2_.get()}) {
      b->set_observability(&tracer_, &metrics_);
      b->set_notify_sink([this](ClientId c, const Publication&) {
        delivered_.push_back(c);
      });
    }
    b1_->set_clock([] { return 1.0; });
    b2_->set_clock([] { return 1.25; });

    // Advertisement at broker 1, subscription at broker 2's local client.
    Broker::Outputs out = b1_->client_advertise(
        7, {{7, 1}, full_space_advertisement()});
    for (auto& [to, msg] : out) b2_->on_message(1, msg);
    out = b2_->client_subscribe(
        42, {{42, 1}, workload_filter(WorkloadKind::Covered, 1)});
    for (auto& [to, msg] : out) b1_->on_message(2, msg);
  }

  Overlay overlay_;
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<Broker> b1_, b2_;
  std::vector<ClientId> delivered_;
};

TEST_F(ProvenanceChainTest, TagRidesTheWireAndLatencyIsObserved) {
  wire(/*trace_rate=*/1);
  const Publication pub = make_publication({7, 1}, 100, 0);
  Broker::Outputs out = b1_->client_publish(7, pub);
  ASSERT_EQ(out.size(), 1u);
  const Message& wire_msg = out[0].second;
  ASSERT_TRUE(wire_msg.prov.has_value());
  EXPECT_EQ(wire_msg.prov->trace, pub_trace_id(pub.id()));
  EXPECT_EQ(wire_msg.prov->hops, 1);  // one forwarding hop taken
  EXPECT_DOUBLE_EQ(wire_msg.prov->origin_time, 1.0);
  EXPECT_TRUE(wire_msg.prov->sampled);

  b2_->on_message(1, wire_msg);
  ASSERT_EQ(delivered_, std::vector<ClientId>{42});

  // End-to-end latency = delivery at b2 (t=1.25) - origin at b1 (t=1.0).
  const obs::Histogram& h =
      metrics_.histogram("pub_delivery_latency_seconds");
  EXPECT_EQ(h.count(), 1u);
  EXPECT_NEAR(h.sum(), 0.25, 1e-9);
  EXPECT_EQ(metrics_.histogram("broker_delivery_latency_seconds",
                               {{"broker", "2"}})
                .count(),
            1u);

  // The sampled publication produced origin, hop and deliver events under
  // its own trace id, with the per-hop context attributes.
  std::set<std::string> names;
  bool saw_prt_version = false, saw_move_open = false;
  for (const obs::TraceRecord& r : tracer_.records()) {
    if (r.trace != pub_trace_id(pub.id())) continue;
    names.insert(r.name);
    for (const auto& [k, v] : r.attrs) {
      if (k == "prt_version") saw_prt_version = true;
      if (k == "move_open") saw_move_open = true;
    }
  }
  EXPECT_TRUE(names.contains("pub:origin")) << "got " << names.size();
  EXPECT_TRUE(names.contains("pub:hop"));
  EXPECT_TRUE(names.contains("pub:deliver"));
  EXPECT_TRUE(saw_prt_version);
  EXPECT_TRUE(saw_move_open);
}

TEST_F(ProvenanceChainTest, RateZeroStampsTagsButEmitsNoEvents) {
  wire(/*trace_rate=*/0);
  const Publication pub = make_publication({7, 1}, 100, 0);
  Broker::Outputs out = b1_->client_publish(7, pub);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_TRUE(out[0].second.prov.has_value());
  EXPECT_FALSE(out[0].second.prov->sampled);
  b2_->on_message(1, out[0].second);

  // Histograms observe every delivery regardless of sampling...
  EXPECT_EQ(metrics_.histogram("pub_delivery_latency_seconds").count(), 1u);
  // ...but no pub:* trace records exist.
  for (const obs::TraceRecord& r : tracer_.records()) {
    EXPECT_NE(r.name.substr(0, 4), "pub:") << r.name;
  }
}

TEST_F(ProvenanceChainTest, ProvenanceOffLeavesMessagesBare) {
  BrokerConfig cfg;
  cfg.obs.pub_provenance = false;
  Broker b(1, &overlay_, cfg);
  b.set_observability(nullptr, &metrics_);
  Broker::Outputs out =
      b.client_advertise(7, {{7, 1}, full_space_advertisement()});
  out = b.client_publish(7, make_publication({7, 1}, 100, 0));
  for (const auto& [to, msg] : out) {
    EXPECT_FALSE(msg.prov.has_value());
  }
}

}  // namespace
}  // namespace tmps
