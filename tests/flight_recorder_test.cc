// The per-broker flight recorder: ring semantics (capacity rounding, wrap,
// oldest-first snapshots), the JSONL dump format, kind names, concurrent
// writers, and the broker integration (events recorded on message processing,
// dump_flight writing to trace_dir).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "broker/broker.h"
#include "obs/flight_recorder.h"
#include "pubsub/messages.h"
#include "pubsub/workload.h"
#include "routing/overlay.h"

namespace tmps {
namespace {

using obs::FlightRecorder;

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(0).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(5).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(8).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(9).capacity(), 16u);
  EXPECT_EQ(FlightRecorder(256).capacity(), 256u);
}

TEST(FlightRecorder, SnapshotReturnsEventsOldestFirst) {
  FlightRecorder fr(8);
  for (int i = 0; i < 5; ++i) {
    fr.record("pub", i * 0.5, 3, 100 + i, 200 + i);
  }
  const auto events = fr.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(events[i].time, i * 0.5);
    EXPECT_EQ(events[i].kind, "pub");
    EXPECT_EQ(events[i].from, 3u);
    EXPECT_EQ(events[i].cause, 100u + i);
    EXPECT_EQ(events[i].detail, 200u + i);
  }
}

TEST(FlightRecorder, RingKeepsOnlyTheLastCapacityEvents) {
  FlightRecorder fr(8);
  for (int i = 0; i < 100; ++i) {
    fr.record("deliver", i, 0, 0, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(fr.recorded(), 100u);
  const auto events = fr.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The last 8 of 100, oldest first: details 92..99.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].detail, 92u + i);
  }
}

TEST(FlightRecorder, WriteJsonlEmitsHeaderAndOneObjectPerEvent) {
  FlightRecorder fr(8);
  fr.record("move-negotiate", 1.5, 2, 77, 5);
  fr.record("deliver", 2.0, 0, 0, 1042);
  std::ostringstream os;
  fr.write_jsonl(os, /*broker=*/4, "unit-test");
  const std::string out = os.str();
  EXPECT_NE(out.find("\"flight\":true"), std::string::npos) << out;
  EXPECT_NE(out.find("\"broker\":4"), std::string::npos) << out;
  EXPECT_NE(out.find("\"reason\":\"unit-test\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"kind\":\"move-negotiate\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"kind\":\"deliver\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"detail\":1042"), std::string::npos) << out;
  // Header + 2 events = 3 lines.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

// Every kind a broker records: each Payload alternative's type_name(), plus
// the local "deliver" and "client-op" events.
template <std::size_t... I>
std::vector<std::string_view> broker_kinds(std::index_sequence<I...>) {
  std::vector<std::string_view> kinds;
  Message m;
  ((m.payload.emplace<I>(), kinds.push_back(m.type_name())), ...);
  kinds.push_back("deliver");
  kinds.push_back("client-op");
  return kinds;
}

TEST(FlightRecorder, EveryKindHasAName) {
  const std::vector<std::string_view> kinds =
      broker_kinds(std::make_index_sequence<std::variant_size_v<Payload>>());
  FlightRecorder fr(kinds.size());
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    EXPECT_FALSE(kinds[k].empty()) << "kind " << k;
    fr.record(kinds[k], static_cast<double>(k), 1, 0, k);
  }
  // Each name survives the ring unchanged and reaches the JSONL dump.
  const auto events = fr.snapshot();
  ASSERT_EQ(events.size(), kinds.size());
  std::ostringstream os;
  fr.write_jsonl(os, /*broker=*/1, "kinds");
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    EXPECT_EQ(events[k].kind, kinds[k]) << "kind " << k;
    EXPECT_NE(os.str().find("\"kind\":\"" + std::string(kinds[k]) + "\""),
              std::string::npos)
        << kinds[k];
  }
}

TEST(FlightRecorder, ConcurrentWritersAndReadersStayConsistent) {
  FlightRecorder fr(64);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&fr, t] {
      for (int i = 0; i < 20000; ++i) {
        fr.record("pub", i, static_cast<std::uint32_t>(t),
                  static_cast<std::uint64_t>(t), static_cast<std::uint64_t>(i));
      }
    });
  }
  std::thread reader([&fr, &stop] {
    while (!stop.load()) {
      const auto events = fr.snapshot();
      EXPECT_LE(events.size(), fr.capacity());
      for (const auto& e : events) {
        // A consistent slot: the detail (iteration) is a plausible pairing
        // for the writer in `from` — never a torn mix of two writers.
        EXPECT_LT(e.from, 4u);
        EXPECT_EQ(e.cause, e.from);
      }
    }
  });
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(fr.recorded(), 4u * 20000u);
  EXPECT_EQ(fr.snapshot().size(), fr.capacity());
}

TEST(FlightBroker, BrokerRecordsProtocolAndDeliveryEvents) {
  Overlay overlay = Overlay::chain(2);
  BrokerConfig cfg;
  cfg.obs.flight_capacity = 32;
  Broker b1(1, &overlay, cfg);
  Broker b2(2, &overlay, cfg);
  ASSERT_NE(b1.flight(), nullptr);

  Broker::Outputs out =
      b1.client_advertise(7, {{7, 1}, full_space_advertisement()});
  for (auto& [to, msg] : out) b2.on_message(1, msg);
  out = b2.client_subscribe(
      42, {{42, 1}, workload_filter(WorkloadKind::Covered, 1)});
  for (auto& [to, msg] : out) b1.on_message(2, msg);
  out = b1.client_publish(7, make_publication({7, 1}, 100, 0));
  for (auto& [to, msg] : out) b2.on_message(1, msg);

  // b1 saw local client ops plus the subscribe from broker 2.
  bool b1_client_op = false, b1_subscribe = false;
  for (const auto& e : b1.flight()->snapshot()) {
    if (e.kind == "client-op") b1_client_op = true;
    if (e.kind == "sub" && e.from == 2) {
      b1_subscribe = true;
    }
  }
  EXPECT_TRUE(b1_client_op);
  EXPECT_TRUE(b1_subscribe);
  // b2 saw the publish arrive from broker 1 and the local delivery.
  bool b2_publish = false, b2_deliver = false;
  for (const auto& e : b2.flight()->snapshot()) {
    if (e.kind == "pub" && e.from == 1) b2_publish = true;
    if (e.kind == "deliver" && e.detail == 42) {
      b2_deliver = true;
    }
  }
  EXPECT_TRUE(b2_publish);
  EXPECT_TRUE(b2_deliver);
}

TEST(FlightBroker, DisabledWhenCapacityZeroAndDumpWritesToTraceDir) {
  Overlay overlay = Overlay::chain(3);
  BrokerConfig off;
  off.obs.flight_capacity = 0;
  EXPECT_EQ(Broker(1, &overlay, off).flight(), nullptr);

  const std::string dir =
      std::filesystem::temp_directory_path() / "tmps_flight_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  BrokerConfig cfg;
  cfg.obs.trace_dir = dir;
  Broker b(3, &overlay, cfg);
  b.client_advertise(7, {{7, 1}, full_space_advertisement()});
  b.dump_flight("test-reason");
  std::ifstream is(dir + "/flight_b3.jsonl");
  ASSERT_TRUE(is.good());
  std::string first;
  std::getline(is, first);
  EXPECT_NE(first.find("\"reason\":\"test-reason\""), std::string::npos)
      << first;
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tmps
