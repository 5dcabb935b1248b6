// Integration tests over real loopback TCP sockets: the full stack —
// serialization, framing, connection management, routing, movement — on an
// actual byte stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "pubsub/workload.h"
#include "transport/tcp_transport.h"

namespace tmps {
namespace {

constexpr ClientId kMover = 500;
constexpr ClientId kPublisher = 600;

BrokerConfig no_covering() {
  BrokerConfig bc;
  bc.subscription_covering = false;
  bc.advertisement_covering = false;
  return bc;
}

class TcpTest : public ::testing::Test {
 protected:
  explicit TcpTest(Overlay overlay = Overlay::chain(5))
      : overlay_(std::move(overlay)), net_(overlay_, 0, no_covering()) {
    for (BrokerId b = 1; b <= overlay_.broker_count(); ++b) {
      net_.engine(b).set_delivery_sink(
          [this](ClientId c, const Publication& p, SimTime) {
            std::lock_guard lock(mu_);
            deliveries_.emplace_back(c, p.id());
          });
    }
    started_ = net_.start();
  }
  ~TcpTest() override { net_.stop(); }

  int delivered(ClientId c, PublicationId id) {
    std::lock_guard lock(mu_);
    int n = 0;
    for (const auto& [cc, pid] : deliveries_) {
      if (cc == c && pid == id) ++n;
    }
    return n;
  }

  /// Polls until every client in [first, first + n) is hosted and started
  /// at broker `b`; false after 60 s.
  bool wait_started_at(BrokerId b, ClientId first, int n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
      int started = 0;
      net_.run_on(b, [&](MobilityEngine& e, Broker::Outputs&) {
        for (int i = 0; i < n; ++i) {
          const ClientStub* stub = e.find_client(first + i);
          if (stub && stub->state() == ClientState::Started) ++started;
        }
      });
      if (started == n) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  Overlay overlay_;
  TcpTransport net_;
  bool started_ = false;
  std::mutex mu_;
  std::vector<std::pair<ClientId, PublicationId>> deliveries_;
};

/// The same fixture on the paper's 14-broker overlay (Fig. 6).
class TcpTestFig6 : public TcpTest {
 protected:
  TcpTestFig6() : TcpTest(Overlay::paper_default()) {}
};

TEST_F(TcpTest, StartsAndAssignsPorts) {
  ASSERT_TRUE(started_);
  std::set<std::uint16_t> ports;
  for (BrokerId b = 1; b <= 5; ++b) {
    EXPECT_GT(net_.port_of(b), 0);
    ports.insert(net_.port_of(b));
  }
  EXPECT_EQ(ports.size(), 5u) << "every broker has its own port";
}

TEST_F(TcpTest, PubSubOverRealSockets) {
  ASSERT_TRUE(started_);
  net_.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(kPublisher);
    e.advertise(kPublisher, full_space_advertisement(), out);
  });
  net_.drain();
  net_.run_on(5, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(kMover);
    e.subscribe(kMover, workload_filter(WorkloadKind::Covered, 2), out);
  });
  net_.drain();
  const Publication p = make_publication({kPublisher, 1}, 100, 0);
  net_.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.publish(kPublisher, Publication(p), out);
  });
  net_.drain();
  EXPECT_EQ(delivered(kMover, p.id()), 1);
  EXPECT_EQ(net_.decode_failures(), 0u);
  // Frames were actually counted on the wire.
  EXPECT_GT(net_.stats().total_messages(), 0u);
}

TEST_F(TcpTest, MovementTransactionOverRealSockets) {
  ASSERT_TRUE(started_);
  net_.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(kPublisher);
    e.advertise(kPublisher, full_space_advertisement(), out);
  });
  net_.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(kMover);
    e.subscribe(kMover, workload_filter(WorkloadKind::Covered, 2), out);
  });
  net_.drain();

  std::atomic<TxnId> txn{kNoTxn};
  net_.run_on(2, [&](MobilityEngine& e, Broker::Outputs& out) {
    txn = e.initiate_move(kMover, 5, out);
  });
  net_.drain();

  ASSERT_NE(txn.load(), kNoTxn);
  net_.run_on(2, [&](MobilityEngine& e, Broker::Outputs&) {
    EXPECT_EQ(e.source_state(txn), SourceCoordState::Commit);
    EXPECT_EQ(e.find_client(kMover), nullptr);
  });
  net_.run_on(5, [&](MobilityEngine& e, Broker::Outputs&) {
    ASSERT_NE(e.find_client(kMover), nullptr);
    EXPECT_EQ(e.find_client(kMover)->state(), ClientState::Started);
  });

  const Publication p = make_publication({kPublisher, 2}, 100, 0);
  net_.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.publish(kPublisher, Publication(p), out);
  });
  net_.drain();
  EXPECT_EQ(delivered(kMover, p.id()), 1);
  EXPECT_EQ(net_.decode_failures(), 0u);
}

TEST_F(TcpTest, ManyPublicationsNoLossNoDup) {
  ASSERT_TRUE(started_);
  net_.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(kPublisher);
    e.advertise(kPublisher, full_space_advertisement(), out);
  });
  net_.run_on(4, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(kMover);
    e.subscribe(kMover, workload_filter(WorkloadKind::Covered, 1), out);
  });
  net_.drain();
  constexpr int kN = 200;
  for (int i = 0; i < kN; ++i) {
    net_.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.publish(kPublisher,
                make_publication({kPublisher, static_cast<std::uint32_t>(
                                                  100 + i)},
                                 i % 10000, 0),
                out);
    });
  }
  net_.drain();
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(
        delivered(kMover, {kPublisher, static_cast<std::uint32_t>(100 + i)}),
        1)
        << i;
  }
}

// Per-link FIFO under concurrency: movers cross the chain B1 -> B5 and back
// twice while three threads publish at B3. A publication B3 matched just
// before it relayed a mover's approve must reach B2 before that message, or
// it arrives at B1 after the mover has left and is never delivered. Every
// mover must receive every publication exactly once.
TEST_F(TcpTest, MoversRacingAPublisherMissNothing) {
  ASSERT_TRUE(started_);
  constexpr int kMovers = 40;
  constexpr std::uint32_t kMaxPubs = 30000;
  net_.run_on(3, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(kPublisher);
    e.advertise(kPublisher, full_space_advertisement(), out);
  });
  for (int i = 0; i < kMovers; ++i) {
    net_.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(kMover + i);
      e.subscribe(kMover + i, Filter{eq("class", "STOCK")}, out);
    });
  }
  net_.drain();

  std::atomic<bool> moving{true};
  std::atomic<std::uint32_t> next_seq{0};
  std::vector<std::thread> publishers;
  for (int t = 0; t < 3; ++t) {
    publishers.emplace_back([&] {
      std::uint32_t seq = 0;
      while (moving.load() && (seq = ++next_seq) <= kMaxPubs) {
        net_.run_on(3, [&](MobilityEngine& e, Broker::Outputs& out) {
          e.publish(kPublisher,
                    make_publication({kPublisher, seq}, seq % 10000, 0), out);
        });
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  using Leg = std::pair<BrokerId, BrokerId>;
  bool moved = true;
  for (const auto& [from, to] : {Leg{1, 5}, Leg{5, 1}, Leg{1, 5}, Leg{5, 1}}) {
    for (int i = 0; i < kMovers; ++i) {
      net_.run_on(from, [&](MobilityEngine& e, Broker::Outputs& out) {
        e.initiate_move(kMover + i, to, out);
      });
    }
    if (!(moved = wait_started_at(to, kMover, kMovers))) break;
  }
  moving = false;
  for (std::thread& t : publishers) t.join();
  ASSERT_TRUE(moved) << "a movement did not complete";
  net_.drain();
  // A thread that drew a sequence number published it (or exceeded the cap).
  const std::uint32_t published = std::min(next_seq.load(), kMaxPubs);

  std::map<std::pair<ClientId, std::uint32_t>, int> got;
  {
    std::lock_guard lock(mu_);
    for (const auto& [c, id] : deliveries_) ++got[{c, id.seq}];
  }
  for (int i = 0; i < kMovers; ++i) {
    int missed = 0, duplicated = 0;
    for (std::uint32_t seq = 1; seq <= published; ++seq) {
      const auto it = got.find({kMover + i, seq});
      const int n = it == got.end() ? 0 : it->second;
      missed += n == 0;
      duplicated += n > 1;
    }
    EXPECT_EQ(missed, 0) << "mover " << i << " of " << published << " pubs";
    EXPECT_EQ(duplicated, 0) << "mover " << i;
  }
  EXPECT_EQ(net_.decode_failures(), 0u);
}

TEST_F(TcpTest, WallClockAdvances) {
  const double t0 = net_.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GT(net_.now(), t0 + 0.01);
}

TEST_F(TcpTest, TimersFire) {
  ASSERT_TRUE(started_);
  std::atomic<bool> fired{false};
  net_.schedule(0.02, [&] { fired = true; });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(fired.load());
}

TEST_F(TcpTestFig6, ConcurrentPublishersAndMovers) {
  // Two publishers and four movers churning concurrently from the test
  // thread while reader threads route: a thread-safety smoke with
  // assertions on exactly-once delivery.
  ASSERT_TRUE(started_);
  net_.run_on(6, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(kPublisher);
    e.advertise(kPublisher, full_space_advertisement(), out);
  });
  net_.run_on(10, [&](MobilityEngine& e, Broker::Outputs& out) {
    e.connect_client(kPublisher + 1);
    e.advertise(kPublisher + 1, full_space_advertisement(), out);
  });
  for (int i = 0; i < 4; ++i) {
    const ClientId c = kMover + i;
    net_.run_on(1, [&](MobilityEngine& e, Broker::Outputs& out) {
      e.connect_client(c);
      e.subscribe(c, workload_filter(WorkloadKind::Covered, 1, i), out);
    });
  }
  net_.drain();

  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 4; ++i) {
      const ClientId c = kMover + i;
      const BrokerId from = (round % 2 == 0) ? 1 : 13;
      const BrokerId to = (round % 2 == 0) ? 13 : 1;
      net_.run_on(from, [&](MobilityEngine& e, Broker::Outputs& out) {
        e.initiate_move(c, to, out);
      });
    }
    for (int i = 0; i < 4; ++i) {
      const auto seq = static_cast<std::uint32_t>(100 + round * 4 + i);
      net_.run_on(6, [&](MobilityEngine& e, Broker::Outputs& out) {
        e.publish(kPublisher,
                  make_publication({kPublisher, seq}, 100,
                                   /*group=*/round % 4),
                  out);
      });
    }
    net_.drain();
  }
  net_.drain();

  // Exactly one live copy per mover.
  for (int i = 0; i < 4; ++i) {
    const ClientId c = kMover + i;
    int copies = 0;
    for (BrokerId b = 1; b <= overlay_.broker_count(); ++b) {
      net_.run_on(b, [&](MobilityEngine& e, Broker::Outputs&) {
        if (e.find_client(c)) ++copies;
      });
    }
    EXPECT_EQ(copies, 1) << "mover " << i;
  }
  // No duplicate deliveries anywhere.
  std::lock_guard lock(mu_);
  std::set<std::pair<ClientId, PublicationId>> uniq(deliveries_.begin(),
                                                    deliveries_.end());
  EXPECT_EQ(uniq.size(), deliveries_.size());
}

}  // namespace
}  // namespace tmps
