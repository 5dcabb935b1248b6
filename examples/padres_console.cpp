// An interactive console over a live broker overlay: type PADRES-syntax
// commands, watch notifications arrive, move clients between brokers.
// Demonstrates the parser, the MobileClient facade and the TCP transport
// (every broker on a loopback port) together. Also scriptable:
//
//   build/examples/padres_console <<'EOF'
//   connect alice 1
//   connect bob 13
//   advertise alice [class,eq,'NEWS'],[prio,>=,0]
//   subscribe bob [class,eq,'NEWS'],[prio,>,5]
//   publish alice [class,'NEWS'],[prio,7]
//   move bob 6
//   publish alice [class,'NEWS'],[prio,9]
//   status
//   EOF
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>

#include "core/mobile_client.h"
#include "pubsub/parser.h"
#include "transport/tcp_transport.h"

using namespace tmps;

namespace {

void help() {
  std::printf(
      "commands:\n"
      "  connect NAME BROKER          host a client at a broker\n"
      "  subscribe NAME FILTER        e.g. [class,eq,'NEWS'],[prio,>,5]\n"
      "  advertise NAME FILTER\n"
      "  publish NAME PUBLICATION     e.g. [class,'NEWS'],[prio,7]\n"
      "  move NAME BROKER             transactional movement\n"
      "  where NAME                   current broker of a client\n"
      "  status                       all clients and their locations\n"
      "  help / quit\n");
}

}  // namespace

int main() {
  const Overlay overlay = Overlay::paper_default();
  BrokerConfig bc;
  bc.subscription_covering = false;  // reconfiguration mobility (DESIGN.md)
  bc.advertisement_covering = false;
  TcpTransport net(overlay, /*base_port=*/0, bc);

  EngineDirectory directory;
  std::map<std::string, ClientId> names;
  std::map<ClientId, std::string> ids;
  ClientId next_id = 1;

  for (BrokerId b = 1; b <= overlay.broker_count(); ++b) {
    directory.add(net.engine(b));
    net.engine(b).set_delivery_sink(
        [&ids](ClientId c, const Publication& p, SimTime) {
          const auto it = ids.find(c);
          std::printf("  >> %s received %s\n",
                      it == ids.end() ? "?" : it->second.c_str(),
                      format_publication(p).c_str());
          std::fflush(stdout);
        });
  }
  if (!net.start()) {
    std::fprintf(stderr, "cannot open loopback sockets\n");
    return 1;
  }

  std::printf("tmps console — 14-broker overlay (Fig. 6); 'help' for "
              "commands\n");
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty() || cmd[0] == '#') continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      help();
      continue;
    }
    if (cmd == "status") {
      for (const auto& [name, id] : names) {
        MobileClient c(id, directory);
        std::printf("  %-10s at broker %u (%s)\n", name.c_str(),
                    c.location(), to_string(c.state()));
      }
      continue;
    }

    std::string name;
    in >> name;
    if (cmd == "connect") {
      unsigned broker = 0;
      in >> broker;
      if (!overlay.contains(broker)) {
        std::printf("  !! no such broker\n");
        continue;
      }
      if (names.contains(name)) {
        std::printf("  !! '%s' already connected\n", name.c_str());
        continue;
      }
      const ClientId id = next_id++;
      names[name] = id;
      ids[id] = name;
      MobileClient::connect(id, broker, directory);
      std::printf("  %s connected at broker %u\n", name.c_str(), broker);
      continue;
    }

    const auto it = names.find(name);
    if (it == names.end()) {
      std::printf("  !! unknown client '%s'\n", name.c_str());
      continue;
    }
    MobileClient client(it->second, directory);

    if (cmd == "where") {
      std::printf("  %s is at broker %u\n", name.c_str(), client.location());
    } else if (cmd == "subscribe" || cmd == "advertise") {
      std::string rest;
      std::getline(in, rest);
      const auto f = parse_filter(rest);
      if (!f.ok()) {
        std::printf("  !! %s\n", f.error.c_str());
        continue;
      }
      if (cmd == "subscribe") {
        client.subscribe(*f.value);
      } else {
        client.advertise(*f.value);
      }
      net.drain();
      std::printf("  ok: %s %s\n", cmd.c_str(),
                  format_filter(*f.value).c_str());
    } else if (cmd == "publish") {
      std::string rest;
      std::getline(in, rest);
      const auto p = parse_publication(rest);
      if (!p.ok()) {
        std::printf("  !! %s\n", p.error.c_str());
        continue;
      }
      client.publish(*p.value);
      net.drain();
    } else if (cmd == "move") {
      unsigned target = 0;
      in >> target;
      if (!overlay.contains(target)) {
        std::printf("  !! no such broker\n");
        continue;
      }
      const TxnId txn = client.move_to(target);
      if (txn == kNoTxn) {
        std::printf("  !! cannot move right now\n");
        continue;
      }
      net.drain();
      std::printf("  %s moved to broker %u (txn %llu committed)\n",
                  name.c_str(), client.location(),
                  static_cast<unsigned long long>(txn));
    } else {
      std::printf("  !! unknown command '%s' ('help' lists them)\n",
                  cmd.c_str());
    }
  }
  net.stop();
  return 0;
}
