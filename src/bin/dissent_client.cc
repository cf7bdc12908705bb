// dissent-client: one client-host process for the real-socket deployment.
//
// Hosts --clients-per-host ClientEngines multiplexed over a single TCP
// connection to their upstream server (host h -> server h mod M, the
// machine-major NetDissent shape), queues the deterministic deployment
// payloads, and exits 0 once every hosted client has processed --rounds
// round outputs. Reconnects with backoff forever — a server restart mid-run
// is survived, with the catch-up path replaying what the dead incarnation
// dropped.
//
// --sim-reference: instead of running sockets, compute the deployment's
// sim-transport reference cleartexts (deployment.h) and print them as
// "<round> <hex>" lines on stdout. The harness diffs every socket log
// against this fixture — byte identity is the acceptance bar.
#include <signal.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/bin/deploy_flags.h"
#include "src/net/socket_transport.h"

namespace dissent {
namespace net {
namespace {

int SimReference(const DeployConfig& cfg) {
  const std::vector<Bytes> cleartexts = RunSimReference(cfg);
  if (cleartexts.size() < cfg.rounds) {
    std::fprintf(stderr, "sim reference incomplete: %zu/%zu rounds\n", cleartexts.size(),
                 cfg.rounds);
    return 1;
  }
  for (size_t k = 0; k < cleartexts.size(); ++k) {
    std::printf("%zu %s\n", k + 1, ToHex(cleartexts[k]).c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  DeployConfig cfg;
  size_t host_index = SIZE_MAX;
  bool sim_reference = false;
  int64_t timeout_sec = 300;
  std::string log_path;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (FlagValue(argc, argv, &i, "--host-index", &v)) {
      host_index = std::strtoul(v.c_str(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--sim-reference") == 0) {
      sim_reference = true;
    } else if (FlagValue(argc, argv, &i, "--timeout-sec", &v)) {
      timeout_sec = std::strtol(v.c_str(), nullptr, 10);
    } else if (FlagValue(argc, argv, &i, "--log", &v)) {
      log_path = v;
    } else if (ParseDeployFlag(argc, argv, &i, &cfg)) {
      // consumed
    } else {
      std::fprintf(stderr, "dissent-client: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (!CheckDeployShape(cfg, "dissent-client")) {
    return 2;
  }
  if (sim_reference) {
    return SimReference(cfg);
  }
  if (host_index >= cfg.num_hosts()) {
    std::fprintf(stderr, "dissent-client: --host-index required (< num hosts)\n");
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);

  EventLoop loop;
  ClientHostNode node(&loop, cfg, host_index);
  for (size_t local = 0; local < node.num_clients(); ++local) {
    const size_t i = node.first_client() + local;
    for (size_t k = 0; k < cfg.rounds; ++k) {
      node.client_logic(local).QueueMessage(DeployPayload(i, k));
    }
  }

  FILE* log = nullptr;
  if (!log_path.empty()) {
    log = std::fopen(log_path.c_str(), "ae");
    if (log == nullptr) {
      std::fprintf(stderr, "dissent-client %zu: cannot open log %s\n", host_index,
                   log_path.c_str());
      return 1;
    }
  }
  if (log != nullptr) {
    // One hosted client's view is enough for the log: all hosted engines
    // verify the same certified outputs.
    node.on_delivery = [&](size_t client, const ClientEngine::Delivery& d) {
      if (client == node.first_client() && d.signatures_ok && d.round <= cfg.rounds) {
        std::fprintf(log, "%" PRIu64 " %s\n", d.round, ToHex(d.cleartext).c_str());
        std::fflush(log);
      }
    };
  }

  node.Start();
  const bool done = loop.RunUntil(
      [&] { return node.min_delivered_round() >= cfg.rounds; }, timeout_sec * 1000000ll);
  if (log != nullptr) {
    std::fclose(log);
  }
  if (!done) {
    std::fprintf(stderr, "dissent-client %zu: timed out at round %" PRIu64 "/%zu\n",
                 host_index, node.min_delivered_round(), cfg.rounds);
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace net
}  // namespace dissent

int main(int argc, char** argv) { return dissent::net::Main(argc, argv); }
