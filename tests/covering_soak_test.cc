// Randomized soak test of the covering optimization against a golden model:
// arbitrary interleavings of subscribe/unsubscribe/advertise/publish on a
// static network (no mobility) must deliver every publication exactly once
// to exactly the clients whose subscriptions match it — with covering
// quench/retract/un-quench happening underneath.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>

#include "broker/broker.h"
#include "pubsub/workload.h"
#include "routing_reference.h"
#include "test_util.h"

namespace tmps {
namespace {

struct LiveSub {
  SubscriptionId id;
  ClientId client;
  BrokerId at;
  Filter filter;
};

class CoveringSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoveringSoak, DeliveryMatchesGoldenModel) {
  std::mt19937_64 rng(GetParam());
  const Overlay overlay =
      Overlay::random_tree(6 + GetParam() % 7, GetParam() * 31 + 1);
  BrokerConfig cfg;  // covering ON — the machinery under test
  testing::SyncNet net(overlay, cfg);

  std::map<BrokerId, std::vector<std::pair<ClientId, Publication>>> delivered;
  for (BrokerId b = 1; b <= overlay.broker_count(); ++b) {
    net.broker(b).set_notify_sink(
        [&delivered, b](ClientId c, const Publication& p) {
          delivered[b].emplace_back(c, p);
        });
  }
  std::uniform_int_distribution<BrokerId> broker(1, overlay.broker_count());

  // A couple of stationary full-space advertisers.
  std::vector<BrokerId> adv_at;
  const int advertisers = 2;
  for (int a = 0; a < advertisers; ++a) {
    const BrokerId at = broker(rng);
    net.run(at, [&](Broker& b) {
      return b.client_advertise(
          static_cast<ClientId>(1 + a),
          {{static_cast<ClientId>(1 + a), 1}, full_space_advertisement()});
    });
    adv_at.push_back(at);
  }

  std::vector<LiveSub> live;
  std::map<std::pair<ClientId, PublicationId>, int> got;
  std::vector<std::pair<Publication, std::vector<ClientId>>> published;

  std::uniform_int_distribution<int> op(0, 9);
  std::uniform_int_distribution<int> member(1, 10);
  std::uniform_int_distribution<int> kindi(0, 3);
  std::uniform_int_distribution<std::int64_t> x(kSpaceLo, kSpaceHi);
  std::uniform_int_distribution<std::int64_t> grp(0, 3);
  constexpr WorkloadKind kinds[] = {WorkloadKind::Covered,
                                    WorkloadKind::Chained, WorkloadKind::Tree,
                                    WorkloadKind::Distinct};
  ClientId next_client = 100;
  std::uint32_t pub_seq = 0;

  for (int step = 0; step < 300; ++step) {
    const int o = op(rng);
    if (o < 4 || live.empty()) {
      // Subscribe: a new client with a random workload filter at a random
      // broker. Filters repeat across clients (grp 0..3) so identical-filter
      // covering happens constantly.
      LiveSub s;
      s.client = next_client++;
      s.id = {s.client, 1};
      s.at = broker(rng);
      s.filter = workload_filter(kinds[kindi(rng)], member(rng), grp(rng));
      net.run(s.at, [&](Broker& b) {
        return b.client_subscribe(s.client, {s.id, s.filter});
      });
      live.push_back(s);
    } else if (o < 6) {
      // Unsubscribe a random live subscription (may be a coverer —
      // un-quench cascades fire).
      std::uniform_int_distribution<std::size_t> pick(0, live.size() - 1);
      const std::size_t i = pick(rng);
      const LiveSub s = live[i];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      net.run(s.at, [&](Broker& b) {
        return b.client_unsubscribe(s.client, s.id);
      });
    } else {
      // Publish from a random advertiser; record the golden expectation.
      std::uniform_int_distribution<int> a(0, advertisers - 1);
      const int ai = a(rng);
      Publication p = make_publication(
          {static_cast<ClientId>(1 + ai), ++pub_seq}, x(rng), grp(rng));
      std::vector<ClientId> expect;
      for (const auto& s : live) {
        if (s.filter.matches(p)) expect.push_back(s.client);
      }
      published.emplace_back(p, std::move(expect));
      net.run(adv_at[static_cast<std::size_t>(ai)], [&](Broker& b) {
        return b.client_publish(static_cast<ClientId>(1 + ai), p);
      });
    }
  }

  // The covering invariants hold at every broker after quiescing.
  for (BrokerId b = 1; b <= overlay.broker_count(); ++b) {
    std::vector<Hop> links;
    for (const BrokerId n : overlay.neighbors(b)) {
      links.push_back(Hop::of_broker(n));
    }
    const auto violations =
        audit_covering_invariants(net.broker(b).tables(), links);
    EXPECT_TRUE(violations.empty())
        << "broker " << b << ": " << violations.size()
        << " violations, first: "
        << (violations.empty() ? "" : violations[0]);
  }

  // Collect deliveries into (client, pub) counts.
  for (const auto& [b, list] : delivered) {
    for (const auto& [c, p] : list) ++got[{c, p.id()}];
  }

  for (const auto& [pub, expect] : published) {
    const std::set<ClientId> expected(expect.begin(), expect.end());
    // Every expected client got it exactly once.
    for (const ClientId c : expected) {
      auto it = got.find({c, pub.id()});
      EXPECT_TRUE(it != got.end() && it->second == 1)
          << "client " << c << " missed/duplicated pub "
          << to_string(pub.id()) << " (got "
          << (it == got.end() ? 0 : it->second) << ")";
    }
  }
  // No publication reached a client whose subscription did not match (and
  // was live at publish time).
  for (const auto& [key, n] : got) {
    const auto& [c, pid] = key;
    bool was_expected = false;
    for (const auto& [pub, expect] : published) {
      if (pub.id() == pid &&
          std::find(expect.begin(), expect.end(), c) != expect.end()) {
        was_expected = true;
        break;
      }
    }
    EXPECT_TRUE(was_expected)
        << "client " << c << " received unexpected pub " << to_string(pid);
    EXPECT_LE(n, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoveringSoak,
                         ::testing::Range<std::uint64_t>(1, 11));

// Negative controls for audit_covering_invariants, which the soak above only
// ever sees report nothing. One hand-built table: an advertisement behind
// link B2, a wide subscription forwarded there and a narrow one it quenches.
class CoveringAuditControl : public ::testing::Test {
 protected:
  static Subscription sub(std::uint32_t seq, std::int64_t lo, std::int64_t hi) {
    return {{10, seq},
            Filter::build().attr("class").eq("STOCK").attr("x").ge(lo).le(hi)};
  }
  void SetUp() override {
    rt_.srt().upsert({{20, 1}, full_space_advertisement()}, link_);
    rt_.prt().upsert(sub(1, 0, 100), Hop::of_client(1))
        .forwarded_to.insert(link_);
    narrow_ = &rt_.prt().upsert(sub(2, 10, 20), Hop::of_client(2));
  }
  std::vector<std::string> audit() const {
    return audit_covering_invariants(rt_, {link_});
  }

  RoutingTables rt_;
  SubEntry* narrow_ = nullptr;
  const Hop link_ = Hop::of_broker(2);
};

TEST_F(CoveringAuditControl, CleanTableReportsNothing) {
  EXPECT_TRUE(audit().empty());
}

TEST_F(CoveringAuditControl, ReportsStrictlyCoveredSubForwardedBesideCoverer) {
  narrow_->forwarded_to.insert(link_);
  const auto v = audit();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], "link B2: active sub 10:2 strictly covered by active 10:1");
}

TEST_F(CoveringAuditControl, ReportsNeededLinkNeitherForwardedNorCovered) {
  rt_.prt().upsert(sub(3, 200, 300), Hop::of_client(3));
  const auto v = audit();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0],
            "link B2: sub 10:3 needs the link but is neither forwarded nor "
            "covered");
}

}  // namespace
}  // namespace tmps
