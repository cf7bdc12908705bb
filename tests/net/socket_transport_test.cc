// Socket-transport equivalence: the real-TCP transport must produce
// cleartexts byte-identical, round for round, to the in-process Coordinator
// and the simulated-network NetDissent reference — all three drive the same
// sans-I/O engines, so any divergence is a transport bug by construction.
// Everything here runs single-process on one EventLoop over loopback.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/coordinator.h"
#include "src/crypto/sha256.h"
#include "src/net/socket_transport.h"
#include "tests/snapshot_fixture.h"

namespace dissent {
namespace net {
namespace {

// A full deployment (M servers + H client hosts) on one loop.
struct InProcDeployment {
  explicit InProcDeployment(const DeployConfig& cfg) : cfg_(cfg) {
    for (size_t j = 0; j < cfg.num_servers; ++j) {
      servers.push_back(std::make_unique<ServerNode>(&loop, cfg, j));
    }
    servers[0]->on_round = [this](const ServerEngine::RoundDone& done) {
      if (done.completed) {
        cleartexts[done.round] = done.cleartext;
      }
    };
    for (size_t h = 0; h < cfg.num_hosts(); ++h) {
      hosts.push_back(std::make_unique<ClientHostNode>(&loop, cfg, h));
      for (size_t local = 0; local < hosts[h]->num_clients(); ++local) {
        const size_t i = hosts[h]->first_client() + local;
        for (size_t k = 0; k < cfg.rounds; ++k) {
          hosts[h]->client_logic(local).QueueMessage(DeployPayload(i, k));
        }
      }
    }
  }

  bool Listen() {
    for (auto& s : servers) {
      if (!s->Listen()) {
        return false;
      }
    }
    return true;
  }

  void Start() {
    for (auto& s : servers) {
      s->Start();
    }
    for (auto& h : hosts) {
      h->Start();
    }
  }

  bool AllDelivered() const {
    for (const auto& h : hosts) {
      if (h->min_delivered_round() < cfg_.rounds) {
        return false;
      }
    }
    return true;
  }

  bool RunToCompletion(int64_t timeout_us = 60 * 1000000ll) {
    return loop.RunUntil([this] { return AllDelivered(); }, timeout_us);
  }

  DeployConfig cfg_;
  EventLoop loop;
  std::vector<std::unique_ptr<ServerNode>> servers;
  std::vector<std::unique_ptr<ClientHostNode>> hosts;
  std::map<uint64_t, Bytes> cleartexts;
};

// Coordinator reference under the distributed scheduling-rng discipline:
// the externally computed cascade keys make its slot order (and thus its
// cleartexts) the ones the socket deployment must reproduce.
std::vector<Bytes> CoordinatorReference(const DeployConfig& cfg) {
  std::vector<BigInt> server_privs, client_privs;
  GroupDef def = BuildDeployGroup(cfg, &server_privs, &client_privs);
  Coordinator coord(def, server_privs, client_privs, cfg.seed);
  std::vector<BigInt> pubs;
  for (size_t i = 0; i < cfg.num_clients; ++i) {
    pubs.push_back(coord.client(i).pseudonym().pub);
    for (size_t k = 0; k < cfg.rounds; ++k) {
      coord.client(i).QueueMessage(DeployPayload(i, k));
    }
  }
  std::vector<BigInt> keys = DistributedCascadeKeys(cfg, def, server_privs, pubs);
  EXPECT_FALSE(keys.empty());
  EXPECT_TRUE(coord.RunSchedulingExternal(std::move(keys)));
  std::vector<Bytes> out;
  for (size_t k = 0; k < cfg.rounds; ++k) {
    auto outcome = coord.RunRound();
    EXPECT_TRUE(outcome.completed);
    out.push_back(outcome.cleartext);
  }
  return out;
}

TEST(SocketTransport, ByteIdenticalToCoordinator) {
  DeployConfig cfg;
  cfg.seed = 21;
  cfg.num_servers = 2;
  cfg.num_clients = 4;
  cfg.clients_per_host = 2;
  cfg.rounds = 6;
  cfg.base_port = 31200;

  InProcDeployment dep(cfg);
  ASSERT_TRUE(dep.Listen());
  dep.Start();
  ASSERT_TRUE(dep.RunToCompletion());

  const std::vector<Bytes> ref = CoordinatorReference(cfg);
  ASSERT_EQ(ref.size(), cfg.rounds);
  for (size_t k = 0; k < cfg.rounds; ++k) {
    ASSERT_TRUE(dep.cleartexts.count(k + 1)) << "round " << k + 1 << " missing";
    EXPECT_EQ(dep.cleartexts[k + 1], ref[k]) << "round " << k + 1 << " diverged";
  }
  EXPECT_FALSE(dep.servers[0]->halted());
}

TEST(SocketTransport, PipelinedDepth2MatchesSimReference) {
  DeployConfig cfg;
  cfg.seed = 22;
  cfg.num_servers = 3;
  cfg.num_clients = 6;
  cfg.clients_per_host = 3;
  cfg.pipeline_depth = 2;
  cfg.rounds = 8;
  cfg.base_port = 31210;

  InProcDeployment dep(cfg);
  ASSERT_TRUE(dep.Listen());
  dep.Start();
  ASSERT_TRUE(dep.RunToCompletion());

  const std::vector<Bytes> ref = RunSimReference(cfg);
  ASSERT_EQ(ref.size(), cfg.rounds);
  for (size_t k = 0; k < cfg.rounds; ++k) {
    ASSERT_TRUE(dep.cleartexts.count(k + 1));
    EXPECT_EQ(dep.cleartexts[k + 1], ref[k]) << "round " << k + 1 << " diverged";
  }
  // Depth 2 must actually overlap rounds somewhere in the fleet.
  uint64_t pipelined = 0;
  for (const auto& s : dep.servers) {
    pipelined += s->pipelined_submissions();
  }
  EXPECT_GT(pipelined, 0u);
}

// Kill a server mid-run (destroying its node = every socket dies), restore a
// fresh node from its snapshot, and require the run to finish with
// cleartexts still byte-identical to the reference: the restored server
// neither equivocates against its pre-crash gossip nor loses the session.
TEST(SocketTransport, SnapshotRestoreMidRunStaysByteIdentical) {
  DeployConfig cfg;
  cfg.seed = 23;
  cfg.num_servers = 2;
  cfg.num_clients = 4;
  cfg.clients_per_host = 2;
  cfg.rounds = 12;
  cfg.base_port = 31220;

  InProcDeployment dep(cfg);
  ASSERT_TRUE(dep.Listen());
  dep.Start();

  // Run until server 1 is a few rounds in, then SIGTERM-style snapshot+kill.
  ASSERT_TRUE(dep.loop.RunUntil(
      [&] { return dep.servers[1]->rounds_completed() >= 3; }, 60 * 1000000ll));
  const Bytes snapshot = dep.servers[1]->SnapshotBytes();
  ASSERT_FALSE(snapshot.empty());
  dep.servers[1].reset();  // closes listen fd + every connection

  dep.servers[1] = std::make_unique<ServerNode>(&dep.loop, cfg, 1);
  ASSERT_TRUE(dep.servers[1]->Listen());
  ASSERT_TRUE(dep.servers[1]->RestoreFromSnapshot(snapshot));
  EXPECT_TRUE(dep.servers[1]->restored());
  dep.servers[1]->Start();

  ASSERT_TRUE(dep.RunToCompletion(120 * 1000000ll));
  const std::vector<Bytes> ref = RunSimReference(cfg);
  ASSERT_EQ(ref.size(), cfg.rounds);
  for (size_t k = 0; k < cfg.rounds; ++k) {
    ASSERT_TRUE(dep.cleartexts.count(k + 1));
    EXPECT_EQ(dep.cleartexts[k + 1], ref[k]) << "round " << k + 1 << " diverged";
  }
  EXPECT_FALSE(dep.servers[0]->halted());
  EXPECT_FALSE(dep.servers[1]->halted());
}

// dissentd's on-disk snapshot format, pinned: a snapshot server 1 of the
// deployment above wrote after 3 rounds (tests/snapshot_fixture.h) restores
// into a fresh node, which re-serializes it to the identical bytes.
TEST(SocketTransport, SnapshotFixtureRestoresToIdenticalBytes) {
  DeployConfig cfg;
  cfg.seed = 23;
  cfg.num_servers = 2;
  cfg.num_clients = 4;
  cfg.clients_per_host = 2;
  cfg.rounds = 12;
  cfg.base_port = 31260;

  const Bytes snapshot = ReadFixture("dsnp_snapshot_v1.bin");
  ASSERT_EQ(ToHex(Sha256::Hash(snapshot)),
            "cf4b1b8f57f089295cd71b74d9007e1ad0be86f7edc7a345c81b9c4327a910a8");
  EventLoop loop;
  ServerNode node(&loop, cfg, 1);
  ASSERT_TRUE(node.RestoreFromSnapshot(snapshot));
  EXPECT_EQ(node.SnapshotBytes(), snapshot) << "the snapshot format changed";
}

// A connection whose hello authenticates under the wrong secret must be
// dropped before any protocol state is touched.
TEST(SocketTransport, RejectsHelloUnderWrongSecret) {
  DeployConfig cfg;
  cfg.seed = 24;
  cfg.num_servers = 1;
  cfg.num_clients = 1;
  cfg.rounds = 1;
  cfg.base_port = 31230;

  EventLoop loop;
  ServerNode server(&loop, cfg, 0);
  ASSERT_TRUE(server.Listen());
  server.Start();

  const Bytes wrong_secret = SessionSecret(cfg.seed + 1, Bytes{1, 2, 3});
  bool closed = false;
  Connection conn(&loop, cfg.host, cfg.server_port(0));
  conn.set_on_close([&](Connection*) { closed = true; });
  conn.set_on_connect([&](Connection* c) {
    c->Send(SerializeNet(MakeHello(wrong_secret, Hello::kClientHost, 0, 1, 99)));
  });
  EXPECT_TRUE(loop.RunUntil([&] { return closed; }, 10 * 1000000ll));
  EXPECT_FALSE(server.session_started());
}

// A blocking loopback socket to server 0, speaking the client-host side of
// the framed hello/scheduling protocol by hand.
int DialServer(const DeployConfig& cfg) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg.server_port(0));
  inet_pton(AF_INET, cfg.host.c_str(), &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

void SendNetFrame(int fd, const NetMessage& msg) {
  const Bytes framed = EncodeFrame(SerializeNet(msg));
  EXPECT_EQ(send(fd, framed.data(), framed.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(framed.size()));
}

// SchedKeys frames waiting on a raw host socket.
size_t CountSchedKeys(int fd) {
  FrameDecoder decoder;
  uint8_t buf[4096];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), MSG_DONTWAIT)) > 0) {
    EXPECT_TRUE(decoder.Feed(buf, static_cast<size_t>(n)));
  }
  size_t count = 0;
  while (auto frame = decoder.Next()) {
    auto msg = IsNetFrame(*frame) ? ParseNet(*frame) : std::nullopt;
    count += msg.has_value() && std::holds_alternative<SchedKeys>(*msg) ? 1 : 0;
  }
  return count;
}

// Client hosts that reset while the server is broadcasting to every host
// must not disturb the broadcast: a send to a reset host fails at once and
// drops that connection mid-loop. Two of three hosts submit their
// scheduling rows and reset; the survivor's row completes the cascade, so
// the SchedKeys broadcast that follows meets both dead connections. The
// survivor must get its keys exactly once, whatever its place in the
// broadcast order, so each host takes a turn as the survivor.
TEST(SocketTransport, HostResetsDuringBroadcastAreSurvived) {
  constexpr uint32_t kHosts = 3;
  for (uint32_t survivor = 0; survivor < kHosts; ++survivor) {
    SCOPED_TRACE("survivor host " + std::to_string(survivor));
    DeployConfig cfg;
    cfg.seed = 25;
    cfg.num_servers = 1;
    cfg.num_clients = kHosts;
    cfg.clients_per_host = 1;
    cfg.rounds = 1;
    cfg.base_port = static_cast<uint16_t>(31240 + survivor);

    std::vector<BigInt> server_privs, client_privs;
    GroupDef def = BuildDeployGroup(cfg, &server_privs, &client_privs);
    const Bytes secret = SessionSecret(cfg.seed, def.Id());
    auto sched_row = [&](uint32_t i) {
      DissentClient c(def, i, client_privs[i], DeployNodeRng(cfg, DeployRngKind::kClientLogic, i));
      SecureRng rng = DeployNodeRng(cfg, DeployRngKind::kClientSched, i);
      return SchedSubmit{
          i, SerializeCiphertextRow(*def.group, EncryptPseudonymKey(def, c.pseudonym().pub, rng))};
    };
    auto pump = [](EventLoop& loop) { loop.RunUntil([] { return false; }, 200 * 1000); };

    EventLoop loop;
    ServerNode server(&loop, cfg, 0);
    ASSERT_TRUE(server.Listen());
    server.Start();

    // Host h hosts client h; the survivor holds its row back.
    int fd[kHosts];
    for (uint32_t h = 0; h < kHosts; ++h) {
      fd[h] = DialServer(cfg);
      SendNetFrame(fd[h], MakeHello(secret, Hello::kClientHost, h, 1, h + 1));
      if (h != survivor) {
        SendNetFrame(fd[h], sched_row(h));
      }
      pump(loop);
    }
    ASSERT_FALSE(server.session_started());

    SendNetFrame(fd[survivor], sched_row(survivor));
    const linger rst{1, 0};
    for (uint32_t h = 0; h < kHosts; ++h) {
      if (h != survivor) {
        ASSERT_EQ(setsockopt(fd[h], SOL_SOCKET, SO_LINGER, &rst, sizeof(rst)), 0);
        close(fd[h]);
      }
    }
    EXPECT_TRUE(loop.RunUntil([&] { return server.session_started(); }, 30 * 1000000ll));
    pump(loop);
    EXPECT_EQ(CountSchedKeys(fd[survivor]), 1u);
    close(fd[survivor]);
  }
}

}  // namespace
}  // namespace net
}  // namespace dissent
