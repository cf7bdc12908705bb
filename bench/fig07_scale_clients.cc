// Figure 7 (§5.2): time per round vs number of clients, for the microblog
// scenario (1% of clients submit 128 B) and the data-sharing scenario (one
// 128 KB message), split into client-submission and server-processing time.
//
// Paper series: DeterLab with 32 servers (both scenarios) and a
// PlanetLab-like deployment with 17 servers (microblog only). Reference
// points: ~0.5-0.6 s per round at 32-256 clients; >1 s past ~1,000 clients;
// the 128 KB scenario dominated by bandwidth; usable to 5,120 clients.
#include <cstdio>

#include "src/sim/stats.h"
#include "src/simmodel/round_model.h"

namespace dissent {
namespace {

RoundTimes Average(const RoundConfig& cfg, const Calibration& cal, int rounds, uint64_t seed) {
  Rng rng(seed);
  RoundTimes avg;
  for (int i = 0; i < rounds; ++i) {
    RoundTimes t = SimulateRound(cfg, cal, rng);
    avg.client_submission_sec += t.client_submission_sec / rounds;
    avg.server_processing_sec += t.server_processing_sec / rounds;
    avg.total_sec += t.total_sec / rounds;
    avg.participants += t.participants / static_cast<size_t>(rounds);
  }
  return avg;
}

void Run() {
  Calibration cal = Calibration::Measure();
  const size_t client_counts[] = {32, 100, 320, 1000, 5120};
  constexpr int kRounds = 25;

  std::printf("=== Figure 7: time per round vs number of clients ===\n");
  std::printf("(seconds; client-submission / server-processing / total)\n\n");
  std::printf("%7s | %-30s | %-30s | %-30s\n", "clients", "1%-submit DeterLab (32 srv)",
              "1%-submit PlanetLab (17 srv)", "128KB DeterLab (32 srv)");

  for (size_t n : client_counts) {
    RoundConfig micro_dl;
    micro_dl.num_clients = n;
    micro_dl.num_servers = 32;
    micro_dl.cleartext_bytes = MicroblogCleartextBytes(n);
    micro_dl.topology = TopologyKind::kDeterlab;
    RoundTimes a = Average(micro_dl, cal, kRounds, 7001 + n);

    RoundConfig micro_pl = micro_dl;
    micro_pl.num_servers = 17;
    micro_pl.topology = TopologyKind::kPlanetlab;
    RoundTimes b = Average(micro_pl, cal, kRounds, 7002 + n);

    RoundConfig data_dl = micro_dl;
    data_dl.cleartext_bytes = DataSharingCleartextBytes(n);
    RoundTimes c = Average(data_dl, cal, kRounds, 7003 + n);

    std::printf("%7zu | %8.3f /%8.3f /%8.3f | %8.3f /%8.3f /%8.3f | %8.3f /%8.3f /%8.3f\n",
                n, a.client_submission_sec, a.server_processing_sec, a.total_sec,
                b.client_submission_sec, b.server_processing_sec, b.total_sec,
                c.client_submission_sec, c.server_processing_sec, c.total_sec);
  }

  std::printf("\npaper-vs-measured (shape checks):\n");
  std::printf("  * 128KB rounds cost far more than 1%%-submit at every N (bandwidth bound)\n");
  std::printf("  * PlanetLab client submission dominated by straggler tail, not N\n");
  std::printf("  * round time grows with N; 5120 clients remain feasible\n");
  std::printf("  (paper: 0.5-0.6 s at 32-256 clients; >1 s past 1000)\n");
}

}  // namespace
}  // namespace dissent

int main() {
  dissent::Run();
  return 0;
}
