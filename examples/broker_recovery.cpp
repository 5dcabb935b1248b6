// Broker crash and recovery (the paper's Sec. 3.5 fault-masking recipe,
// end-to-end): a durable broker journals every message, checkpoints its
// routing tables, "crashes" mid-stream, and recovers — replaying the
// unprocessed tail so no message is lost.
//
//   build/examples/broker_recovery
#include <cstdio>
#include <filesystem>

#include "pubsub/workload.h"
#include "txn/durable_node.h"

using namespace tmps;

int main() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "tmps_broker_recovery";
  fs::remove_all(dir);

  const Overlay overlay = Overlay::chain(3);
  Broker origin(1, &overlay);  // mints well-formed neighbour messages

  auto adv_msg = [&] {
    Message m;
    m.id = origin.next_message_id();
    m.payload = AdvertiseMsg{{{200, 1}, full_space_advertisement()}};
    return m;
  };
  auto sub_msg = [&](std::uint32_t seq) {
    Message m;
    m.id = origin.next_message_id();
    m.payload =
        SubscribeMsg{{{100, seq}, workload_filter(WorkloadKind::Covered, 2)}};
    return m;
  };
  auto pub_msg = [&](std::uint32_t seq) {
    Message m;
    m.id = origin.next_message_id();
    m.payload = PublishMsg{make_publication({200, seq}, 100, 0)};
    return m;
  };

  std::printf("phase 1: broker 2 processes traffic and checkpoints\n");
  {
    DurableNode node(2, &overlay, dir);
    node.deliver(3, adv_msg());
    for (std::uint32_t i = 1; i <= 100; ++i) node.deliver(1, sub_msg(i));
    std::printf("  tables: %zu subscriptions, %zu advertisements\n",
                node.broker().tables().prt().size(),
                node.broker().tables().srt().size());
    const auto before = fs::file_size(dir / "journal.log");
    node.checkpoint();
    const auto after = fs::file_size(dir / "journal.log");
    std::printf("  checkpoint: journal %zu -> %zu bytes\n",
                static_cast<std::size_t>(before),
                static_cast<std::size_t>(after));

    // More traffic lands after the checkpoint; the last publication is
    // journaled but the broker "crashes" before processing it.
    for (std::uint32_t i = 101; i <= 110; ++i) node.deliver(1, sub_msg(i));
    node.journal_only(3, pub_msg(1));
    std::printf("  CRASH with 1 unprocessed message in the journal\n");
  }

  std::printf("phase 2: restart and recover\n");
  {
    DurableNode node(2, &overlay, dir);
    std::printf("  before recovery: %zu subscriptions (fresh process)\n",
                node.broker().tables().prt().size());
    int redelivered = 0;
    node.broker().set_notify_sink(
        [&](ClientId, const Publication&) { ++redelivered; });
    const auto outputs = node.recover();
    std::printf("  after recovery: %zu subscriptions, %zu advertisements\n",
                node.broker().tables().prt().size(),
                node.broker().tables().srt().size());
    std::printf("  tail replay emitted %zu forwarded message(s)\n",
                outputs.size());
    const bool ok = node.broker().tables().prt().size() == 110 &&
                    node.broker().tables().srt().size() == 1 &&
                    !outputs.empty();
    std::printf("%s\n", ok ? "recovery complete: no state or messages lost"
                           : "RECOVERY FAILED");
    fs::remove_all(dir);
    return ok ? 0 : 1;
  }
}
