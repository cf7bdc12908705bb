// Snapshot-format fixtures. The files in tests/data/ were written by the
// hand-written codec that preceded SaveArchive/LoadArchive, and the tests
// pin their SHA-256, so any change to the on-disk format fails a test:
//
//  * engine_snapshot_v1.bin (5,885 bytes) is ServerEngine::SerializeSnapshot()
//    of server 2 in a NetDissent run over a 3-server, 12-client group
//    (MakeTestGroup with SecureRng::FromLabel(9114), kTesting256), seed 9114,
//    ChaosTest's RobustOptions() plus pipeline_depth 2 and abort_deadline 5 s,
//    under a FaultPlan (seed 9114; drop 0.05, duplicate 0.03, reorder 0.20)
//    that cuts server 2 off from servers 0-1 from 10 s to 22 s, taken at
//    23.949 s. Every section is non-empty: 2 active rounds with inventories,
//    commits, server ciphertexts and signatures, early gossip, 16 round
//    summaries, pending and out-of-order mailbox state, 5 abort certificates
//    and 1 abort prepare.
//  * dsnp_snapshot_v1.bin is ServerNode::SnapshotBytes() (dissentd's on-disk
//    format) of server 1 after 3 rounds of the deployment in
//    SocketTransport.SnapshotRestoreMidRunStaysByteIdentical. It depends on
//    wall-clock timing, so it cannot be regenerated bit for bit.
#ifndef DISSENT_TESTS_SNAPSHOT_FIXTURE_H_
#define DISSENT_TESTS_SNAPSHOT_FIXTURE_H_

#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/core/server.h"

namespace dissent {

inline Bytes ReadFixture(const std::string& name) {
  std::ifstream in(std::string(DISSENT_TEST_DATA_DIR) + "/" + name, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// Reads engine snapshots of the engine fixture's server: each RoundTrip
// restores into a freshly built logic+engine pair and re-serializes.
// Abort agreement stays off: with it on, RestoreSnapshot asks the siblings
// for catch-up and the request lands in the mailbox, so the re-serialized
// bytes would differ from the input.
class EngineFixture {
 public:
  static constexpr size_t kServer = 2;
  static constexpr size_t kClients = 12;
  static constexpr size_t kDepth = 2;

  EngineFixture() {
    SecureRng rng = SecureRng::FromLabel(9114);
    std::vector<BigInt> server_privs, client_privs;
    def_ = MakeTestGroup(Group::Named(GroupId::kTesting256), 3, kClients, rng, &server_privs,
                         &client_privs);
    fresh_logic_ = std::make_unique<DissentServer>(def_, kServer, server_privs[kServer],
                                                   SecureRng::FromLabel(1), kDepth);
    fresh_logic_->BeginSlots(kClients);
  }

  // Restores `snapshot` at `now_us`; nullopt when the restore is rejected.
  // Otherwise fires the first `timer_steps` timers in due order (the
  // re-armed ones and those they arm), as the restarted server's transport
  // would, and returns the pair's SerializeSnapshot().
  std::optional<Bytes> RoundTrip(const Bytes& snapshot, int64_t now_us,
                                 int timer_steps = 0) const {
    DissentServer logic = *fresh_logic_;  // a copy is as fresh as a rebuild, and cheaper
    ServerEngine::Config cfg;
    cfg.pipeline_depth = kDepth;
    cfg.hard_deadline_us = 60 * 1000000ll;
    cfg.reliability.enabled = true;
    ServerEngine engine(&logic, def_, cfg);
    auto actions = engine.RestoreSnapshot(snapshot, now_us);
    if (!actions.has_value()) {
      return std::nullopt;
    }
    using Due = std::pair<int64_t, uint64_t>;  // (due time, token)
    std::priority_queue<Due, std::vector<Due>, std::greater<Due>> due;
    auto arm = [&](const std::vector<TimerRequest>& timers, int64_t at_us) {
      for (const TimerRequest& t : timers) {
        due.push({at_us + t.delay_us, t.token});
      }
    };
    arm(actions->timers, now_us);
    for (int step = 0; step < timer_steps && !due.empty(); ++step) {
      const Due next = due.top();
      due.pop();
      arm(engine.HandleTimer(next.second, next.first).timers, next.first);
    }
    return engine.SerializeSnapshot();
  }

 private:
  GroupDef def_;
  std::unique_ptr<DissentServer> fresh_logic_;
};

}  // namespace dissent

#endif  // DISSENT_TESTS_SNAPSHOT_FIXTURE_H_
