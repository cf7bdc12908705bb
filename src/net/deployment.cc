#include "src/net/deployment.h"

#include <cstdio>

#include "src/core/client.h"
#include "src/core/net_protocol.h"
#include "src/sim/simulator.h"

namespace dissent {
namespace net {

GroupDef BuildDeployGroup(const DeployConfig& cfg, std::vector<BigInt>* server_privs,
                          std::vector<BigInt>* client_privs) {
  std::vector<BigInt> sp, cp;
  SecureRng rng = SecureRng::FromLabel(cfg.seed);
  GroupDef def = MakeTestGroup(Group::Named(GroupId::kTesting256), cfg.num_servers,
                               cfg.num_clients, rng, server_privs ? server_privs : &sp,
                               client_privs ? client_privs : &cp);
  return def;
}

SecureRng DeployNodeRng(const DeployConfig& cfg, DeployRngKind kind, size_t index) {
  const size_t n = cfg.num_clients;
  const size_t m = cfg.num_servers;
  size_t skip = 0;
  switch (kind) {
    case DeployRngKind::kClientLogic:
      skip = index;
      break;
    case DeployRngKind::kServerLogic:
      skip = n + index;
      break;
    case DeployRngKind::kClientSched:
      skip = n + m + index;
      break;
    case DeployRngKind::kServerSched:
      skip = n + m + n + index;
      break;
  }
  SecureRng master = SecureRng::FromLabel(cfg.seed);
  for (size_t i = 0; i < skip; ++i) {
    master.Fork();
  }
  return master.Fork();
}

Bytes DeployPayload(size_t client, size_t k) {
  char buf[64];
  const int len = std::snprintf(buf, sizeof(buf), "r%zu:c%zu", k, client);
  return Bytes(buf, buf + len);
}

std::vector<BigInt> DistributedCascadeKeys(const DeployConfig& cfg, const GroupDef& def,
                                           const std::vector<BigInt>& server_privs,
                                           const std::vector<BigInt>& pseudonym_pubs) {
  CiphertextMatrix current;
  current.reserve(pseudonym_pubs.size());
  for (size_t i = 0; i < pseudonym_pubs.size(); ++i) {
    SecureRng rng = DeployNodeRng(cfg, DeployRngKind::kClientSched, i);
    current.push_back(EncryptPseudonymKey(def, pseudonym_pubs[i], rng));
  }
  for (size_t j = 0; j < server_privs.size(); ++j) {
    SecureRng rng = DeployNodeRng(cfg, DeployRngKind::kServerSched, j);
    MixStep step = KeyShuffleMixStep(def, j, server_privs[j], current, rng);
    if (!VerifyMixStep(def, j, current, step)) {
      return {};
    }
    current = std::move(step.decrypted);
  }
  return PseudonymKeyOrder(current);
}

std::vector<Bytes> RunSimReference(const DeployConfig& cfg) {
  std::vector<BigInt> server_privs, client_privs;
  GroupDef def = BuildDeployGroup(cfg, &server_privs, &client_privs);

  // Pseudonyms are drawn in the DissentClient constructor from the client's
  // logic rng; throwaway clients over the same forks yield the exact keys
  // the transport-driven clients will use.
  std::vector<BigInt> pubs;
  pubs.reserve(cfg.num_clients);
  for (size_t i = 0; i < cfg.num_clients; ++i) {
    DissentClient tmp(def, i, client_privs[i],
                      DeployNodeRng(cfg, DeployRngKind::kClientLogic, i));
    pubs.push_back(tmp.pseudonym().pub);
  }
  std::vector<BigInt> keys = DistributedCascadeKeys(cfg, def, server_privs, pubs);
  if (keys.empty()) {
    return {};
  }

  Simulator sim;
  NetDissent::Options opt;
  opt.window_fraction = kDeployWindowFraction;
  opt.window_multiplier = kDeployWindowMultiplier;
  opt.hard_deadline = kDeployHardDeadlineUs;
  opt.adaptive_window = false;
  opt.pipeline_depth = cfg.pipeline_depth;
  opt.clients_per_machine = cfg.clients_per_host;
  opt.evidence_rounds = kDeployEvidenceRounds;
  opt.output_history = kDeployOutputHistory;
  opt.abort_deadline = cfg.abort_deadline_us;
  opt.preset_pseudonym_keys = keys;
  NetDissent net(def, server_privs, client_privs, &sim, opt, cfg.seed);
  for (size_t i = 0; i < cfg.num_clients; ++i) {
    for (size_t k = 0; k < cfg.rounds; ++k) {
      net.client(i).QueueMessage(DeployPayload(i, k));
    }
  }
  if (!net.Start()) {
    return {};
  }
  while (net.rounds_completed() < cfg.rounds && sim.pending() > 0) {
    sim.Step();
  }
  std::vector<Bytes> cleartexts = net.round_cleartexts();
  if (cleartexts.size() > cfg.rounds) {
    cleartexts.resize(cfg.rounds);
  }
  return cleartexts;
}

}  // namespace net
}  // namespace dissent
