// Table snapshots and checkpoint-based recovery.
#include "txn/snapshot.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "pubsub/workload.h"
#include "txn/durable_node.h"

namespace tmps {
namespace {

namespace fs = std::filesystem;

RoutingTables populated_tables() {
  RoutingTables rt;
  for (std::uint32_t i = 1; i <= 30; ++i) {
    const Subscription s{{100 + i, 1},
                         workload_filter(WorkloadKind::Covered,
                                         static_cast<int>(i % 10) + 1, i / 10)};
    auto& e = rt.prt().upsert(s, i % 3 == 0 ? Hop::of_client(100 + i)
                                          : Hop::of_broker(1 + i % 4));
    if (i % 2 == 0) e.forwarded_to.insert(Hop::of_broker(5));
    if (i % 5 == 0) e.forwarded_to.insert(Hop::of_broker(2));
  }
  rt.srt().upsert({{1, 1}, full_space_advertisement()}, Hop::of_broker(3))
      .forwarded_to.insert(Hop::of_broker(4));
  // One entry carrying shadow state.
  rt.prt().install_shadow(
      {{999, 1}, workload_filter(WorkloadKind::Tree, 2, 0)}, Hop::of_broker(2),
      /*txn=*/42);
  return rt;
}

bool entries_equal(const RoutingTables& a, const RoutingTables& b) {
  const auto same = [](const auto& x, const auto& y) {
    if (x.size() != y.size()) return false;
    for (const auto& [id, e] : x) {
      const auto* o = y.find(id);
      if (!o || o->lasthop != e.lasthop ||
          o->forwarded_to != e.forwarded_to ||
          o->shadow_lasthop != e.shadow_lasthop ||
          o->shadow_txn != e.shadow_txn || o->shadow_only != e.shadow_only ||
          !(o->item == e.item)) {
        return false;
      }
    }
    return true;
  };
  return same(a.prt(), b.prt()) && same(a.srt(), b.srt());
}

TEST(Snapshot, RoundTripPreservesEverything) {
  const RoutingTables rt = populated_tables();
  const std::string bytes = snapshot_tables(rt);
  RoutingTables back;
  ASSERT_TRUE(restore_tables(bytes, back));
  EXPECT_TRUE(entries_equal(rt, back));
}

TEST(Snapshot, RestoredTablesMatchPublications) {
  const RoutingTables rt = populated_tables();
  RoutingTables back;
  ASSERT_TRUE(restore_tables(snapshot_tables(rt), back));
  // The rebuilt match index must behave identically.
  for (std::int64_t g = 0; g <= 3; ++g) {
    for (std::int64_t x = 0; x <= 10000; x += 777) {
      const Publication p = make_publication({5, 5}, x, g);
      EXPECT_EQ(rt.match(p).matched, back.match(p).matched)
          << "x=" << x << " g=" << g;
    }
  }
}

TEST(Snapshot, EmptyTables) {
  RoutingTables rt, back;
  ASSERT_TRUE(restore_tables(snapshot_tables(rt), back));
  EXPECT_EQ(back.prt().size(), 0u);
  EXPECT_EQ(back.srt().size(), 0u);
}

TEST(Snapshot, MalformedInputRejectedCleanly) {
  RoutingTables back;
  EXPECT_FALSE(restore_tables("garbage", back));
  EXPECT_EQ(back.prt().size(), 0u);
  const std::string good = snapshot_tables(populated_tables());
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, good.size() / 2,
                          good.size() - 1}) {
    EXPECT_FALSE(
        restore_tables(std::string_view(good).substr(0, cut), back))
        << cut;
    EXPECT_EQ(back.prt().size(), 0u) << "failed restore must leave empty";
  }
  // Trailing garbage rejected too.
  EXPECT_FALSE(restore_tables(good + "x", back));
}

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest() : overlay_(Overlay::chain(3)), origin_(1, &overlay_) {
    dir_ = fs::temp_directory_path() /
           ("tmps_ckpt_" + std::string(::testing::UnitTest::GetInstance()
                                           ->current_test_info()
                                           ->name()));
    fs::remove_all(dir_);
  }
  ~CheckpointTest() override { fs::remove_all(dir_); }

  Message adv_msg() {
    Message m;
    m.id = origin_.next_message_id();
    m.payload = AdvertiseMsg{{{200, 1}, full_space_advertisement()}};
    return m;
  }
  Message sub_msg(std::uint32_t seq) {
    Message m;
    m.id = origin_.next_message_id();
    m.payload = SubscribeMsg{
        {{100, seq}, workload_filter(WorkloadKind::Covered, 2)}};
    return m;
  }

  Overlay overlay_;
  Broker origin_;
  fs::path dir_;
};

TEST_F(CheckpointTest, CheckpointShrinksJournal) {
  DurableNode node(2, &overlay_, dir_);
  node.deliver(3, adv_msg());
  for (std::uint32_t i = 1; i <= 50; ++i) node.deliver(1, sub_msg(i));
  const auto before = fs::file_size(dir_ / "journal.log");
  node.checkpoint();
  const auto after = fs::file_size(dir_ / "journal.log");
  EXPECT_LT(after, before / 4);
  EXPECT_TRUE(fs::exists(dir_ / "snapshot"));
}

TEST_F(CheckpointTest, RecoveryFromCheckpointRestoresState) {
  {
    DurableNode node(2, &overlay_, dir_);
    node.deliver(3, adv_msg());
    for (std::uint32_t i = 1; i <= 20; ++i) node.deliver(1, sub_msg(i));
    node.checkpoint();
    // Post-checkpoint activity lands in the journal tail.
    for (std::uint32_t i = 21; i <= 25; ++i) node.deliver(1, sub_msg(i));
  }
  DurableNode node(2, &overlay_, dir_);
  node.recover();
  EXPECT_EQ(node.broker().tables().prt().size(), 25u);
  EXPECT_EQ(node.broker().tables().srt().size(), 1u);
}

TEST_F(CheckpointTest, UnprocessedTailAfterCheckpointReplaysWithOutputs) {
  {
    DurableNode node(2, &overlay_, dir_);
    node.deliver(3, adv_msg());
    node.checkpoint();
    node.journal_only(1, sub_msg(1));  // crash before processing
  }
  DurableNode node(2, &overlay_, dir_);
  const auto out = node.recover();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first, 3u);  // forwarded towards the advertiser
  EXPECT_EQ(node.broker().tables().prt().size(), 1u);
}

TEST_F(CheckpointTest, RepeatedCheckpointsAndRecoveries) {
  {
    DurableNode node(2, &overlay_, dir_);
    node.deliver(3, adv_msg());
    for (std::uint32_t i = 1; i <= 10; ++i) {
      node.deliver(1, sub_msg(i));
      if (i % 3 == 0) node.checkpoint();
    }
  }
  for (int round = 0; round < 3; ++round) {
    DurableNode node(2, &overlay_, dir_);
    node.recover();
    node.checkpoint();
    EXPECT_EQ(node.broker().tables().prt().size(), 10u) << round;
  }
}

TEST_F(CheckpointTest, CorruptSnapshotFallsBackToEmptyPlusTail) {
  {
    DurableNode node(2, &overlay_, dir_);
    node.deliver(3, adv_msg());
    node.checkpoint();
    node.deliver(1, sub_msg(1));
  }
  // Corrupt the snapshot.
  {
    std::ofstream f(dir_ / "snapshot",
                    std::ios::binary | std::ios::trunc);
    f << "not a snapshot";
  }
  DurableNode node(2, &overlay_, dir_);
  node.recover();  // must not crash; pre-checkpoint state is lost
  // Only the post-checkpoint subscription is recovered.
  EXPECT_EQ(node.broker().tables().prt().size(), 1u);
  EXPECT_EQ(node.broker().tables().srt().size(), 0u);
}

}  // namespace
}  // namespace tmps
