// Ablation B (§3.10): key shuffles vs general message shuffles, and group
// size sensitivity. The paper's design discussion argues key shuffles are
// cheaper because entries are already group elements (no message embedding,
// width 1) and can use smaller groups; this bench quantifies both effects on
// the real shuffle implementation.
#include <chrono>
#include <cstdio>

#include "src/core/group_def.h"
#include "src/core/key_shuffle.h"
#include "src/crypto/schnorr.h"

namespace dissent {
namespace {

double Secs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct Cost {
  double prove_sec;
  double verify_sec;
};

Cost MeasureCascade(GroupId gid, size_t clients, size_t servers, size_t payload_bytes) {
  SecureRng rng = SecureRng::FromLabel(11000 + clients + payload_bytes);
  std::vector<BigInt> server_privs, client_privs;
  GroupDef def =
      MakeTestGroup(Group::Named(gid), servers, clients, rng, &server_privs, &client_privs);

  CiphertextMatrix submissions;
  if (payload_bytes == 0) {
    // Key shuffle: submissions are pseudonym keys (width 1, no embedding).
    for (size_t i = 0; i < clients; ++i) {
      SchnorrKeyPair kp = SchnorrKeyPair::Generate(*def.group, rng);
      submissions.push_back(EncryptPseudonymKey(def, kp.pub, rng));
    }
  } else {
    size_t width = MessageBlockWidth(def, payload_bytes);
    for (size_t i = 0; i < clients; ++i) {
      auto row = EncryptMessageBlocks(def, Bytes(payload_bytes, 0x5a), width, rng);
      submissions.push_back(*row);
    }
  }

  auto t0 = std::chrono::steady_clock::now();
  ShuffleCascadeResult cascade = RunShuffleCascade(def, server_privs, submissions, rng);
  double prove = Secs(t0);
  t0 = std::chrono::steady_clock::now();
  bool ok = VerifyShuffleCascade(def, submissions, cascade);
  double verify = Secs(t0);
  if (!ok) {
    std::fprintf(stderr, "cascade verification failed!\n");
    std::exit(1);
  }
  return {prove, verify};
}

void Run() {
  constexpr size_t kServers = 4;
  std::printf("=== Ablation: key shuffle vs general message shuffle ===\n");
  std::printf("(%zu-server cascade, prove+decrypt / verify seconds)\n\n", kServers);

  std::printf("-- width effect (256-bit group): key (width 1) vs 160 B message --\n");
  std::printf("%8s | %12s %12s | %12s %12s | %7s\n", "clients", "key prove", "key verify",
              "msg prove", "msg verify", "ratio");
  for (size_t k : {8, 16, 32, 64, 128}) {
    Cost key = MeasureCascade(GroupId::kTesting256, k, kServers, 0);
    Cost msg = MeasureCascade(GroupId::kTesting256, k, kServers, 160);
    std::printf("%8zu | %12.3f %12.3f | %12.3f %12.3f | %6.1fx\n", k, key.prove_sec,
                key.verify_sec, msg.prove_sec, msg.verify_sec,
                (msg.prove_sec + msg.verify_sec) / (key.prove_sec + key.verify_sec));
  }

  std::printf("\n-- group size effect (key shuffle, 32 clients) --\n");
  std::printf("%10s | %12s %12s\n", "group", "prove", "verify");
  struct G {
    const char* name;
    GroupId id;
  } groups[] = {{"256-bit", GroupId::kTesting256},
                {"512-bit", GroupId::kMedium512},
                {"1024-bit", GroupId::kProduction1024}};
  for (const auto& g : groups) {
    Cost c = MeasureCascade(g.id, 32, kServers, 0);
    std::printf("%10s | %12.3f %12.3f\n", g.name, c.prove_sec, c.verify_sec);
  }

  std::printf("\nshape checks (§3.10): message shuffles cost a multiple of key shuffles\n");
  std::printf("(width + embedding), and shuffle cost rises steeply with group size —\n");
  std::printf("why Dissent schedules with key shuffles and reserves message shuffles\n");
  std::printf("for accusations.\n");
}

}  // namespace
}  // namespace dissent

int main() {
  dissent::Run();
  return 0;
}
