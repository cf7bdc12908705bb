// End-to-end benchmark: a whole dissent fleet in one process.
//
// Five ServerNodes and four ClientHostNodes share one EventLoop and talk over
// real loopback TCP, exactly as the socket-transport tests deploy them, with
// DeployConfig's production defaults (verified cascade, TCP-tuned
// reliability) at pipeline depth 2. Traffic enters through
// client_logic(i).QueueMessage and is observed through on_delivery and
// on_round; nothing below the public net:: API is touched. Because every
// node runs on the one loop thread, wall time here is fleet CPU time: the
// numbers measure the program, not the OS scheduler juggling processes.
//
// Usage: dissent_bench --workload W --seed S --seconds T
//                      [--setups K] [--git-sha SHA] [--out FILE]
// Prints `workload metric value unit` lines, then one JSON result line. The
// plain binary reports the end-to-end metrics; the traced binary (the same
// object linked with wraps.cc) reports the per-layer ledger instead.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/ledger.h"
#include "src/net/socket_transport.h"

#ifndef NDEBUG
#error "bench/e2e must be built as Release (NDEBUG); assertions would distort timings"
#endif

namespace {

using namespace dissent;
using namespace dissent::net;
using e2e::g_ledger;
using e2e::MonoNs;
using e2e::Span;
using e2e::SpanScope;

// Why each workload exists is recorded in README.md and BENCHMARK.json.
struct Workload {
  const char* name;
  size_t clients;
  double posts_per_s;  // open loop (Poisson); 0 selects the closed loop
  size_t msg_bytes;
  size_t outstanding;  // closed loop: messages each client keeps queued
  bool restart;        // snapshot, destroy and restore server kVictim
  int setups;          // fleets built per run; setup_s is their median
};

constexpr Workload kWorkloads[] = {
    {"microblog_100", 100, 50.0, 64, 0, false, 5},
    {"bulk_100", 100, 0.0, 1024, 4, false, 5},
    {"scale_1000", 1000, 10.0, 64, 0, false, 3},
    {"restart_100", 100, 50.0, 64, 0, true, 5},
};

constexpr size_t kServers = 5;
constexpr size_t kHosts = 4;
constexpr size_t kDepth = 2;
constexpr uint8_t kAllHosts = (1u << kHosts) - 1;
// Host h attaches to server h % 5, so server 4 has no attached host: killing
// it exercises server recovery without also stalling a host's redial.
constexpr size_t kVictim = 4;
constexpr int64_t kVictimDownUs = 1000 * 1000;
constexpr int64_t kSetupTimeoutUs = 120 * 1000000ll;
constexpr int64_t kDrainTimeoutUs = 10 * 1000000ll;
// Traffic runs this long before the window opens, so slots have opened and
// the pipeline is full when measuring starts.
constexpr int64_t kWarmupUs = 1000 * 1000;
// The window is cut into this many equal slices. The traced binary records
// spans in the even slices only and compares their wall time per round with
// the odd ones: tracing overhead measured within one run, immune to the
// machine speeding up or slowing down between runs.
constexpr int kSlices = 20;
// Latency percentiles are taken per group of messages by due time, over this
// many equal groups, and the median over groups is reported. A message takes
// a fixed number of rounds, so its latency tracks the machine's speed while
// it is in flight; a few seconds of interference from outside the process
// would otherwise decide a whole-window p90.
constexpr int kLatencyGroups = 5;
constexpr double kMaxTraceOverhead = 1.10;

uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Message `id`'s bytes: the id, then a keystream of (seed, id). Any delivered
// payload can be checked against this without storing what was sent.
Bytes MakePayload(uint64_t seed, uint64_t id, size_t len) {
  Bytes p(len);
  std::memcpy(p.data(), &id, sizeof(id));
  uint64_t state = seed ^ (id * 0xd1b54a32d192ed03ull);
  for (size_t off = sizeof(id); off < len; off += 8) {
    const uint64_t v = SplitMix(state);
    std::memcpy(p.data() + off, &v, std::min<size_t>(8, len - off));
  }
  return p;
}

uint64_t HashBytes(const Bytes& b) {
  uint64_t h = 0xcbf29ce484222325ull ^ b.size();
  size_t i = 0;
  for (; i + 8 <= b.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, b.data() + i, 8);
    h = (h ^ w) * 0x100000001b3ull;
    h ^= h >> 29;
  }
  for (; i < b.size(); ++i) {
    h = (h ^ b[i]) * 0x100000001b3ull;
  }
  return h;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string Num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// A running total of discrete events (rounds, delivered bytes) read back with
// linear interpolation between events, so a rate over a slice holding only a
// few rounds is not quantized to whole events.
class Cumulative {
 public:
  void Add(int64_t t_us, double amount) {
    total_ += amount;
    points_.emplace_back(t_us, total_);
  }
  double At(int64_t t_us) const {
    auto next = std::upper_bound(points_.begin(), points_.end(), t_us,
                                 [](int64_t t, const auto& p) { return t < p.first; });
    if (next == points_.begin()) {
      return 0.0;
    }
    if (next == points_.end()) {
      return total_;
    }
    const auto& prev = *(next - 1);
    return prev.second + (next->second - prev.second) *
                             static_cast<double>(t_us - prev.first) /
                             static_cast<double>(next->first - prev.first);
  }

 private:
  std::vector<std::pair<int64_t, double>> points_;
  double total_ = 0;
};

struct Fleet {
  EventLoop loop;
  std::vector<std::unique_ptr<ServerNode>> servers;
  std::vector<std::unique_ptr<ClientHostNode>> hosts;
};

// Mailbox counters summed over servers; a destroyed server's last values
// are banked so the restored incarnation does not reset the totals.
struct MailboxTotals {
  uint64_t retransmits = 0;
  uint64_t reliable_sent = 0;
  uint64_t duplicates = 0;
  uint64_t max_in_flight = 0;
  uint64_t catch_up_rounds = 0;

  void Add(const ServerNode& s) {
    retransmits += s.retransmits();
    reliable_sent += s.reliable_sent();
    duplicates += s.duplicates_dropped();
    max_in_flight = std::max(max_in_flight, s.max_in_flight());
    catch_up_rounds += s.catch_up_rounds();
  }
};

struct Options {
  const Workload* workload = nullptr;
  size_t workload_index = 0;
  uint64_t seed = 1;
  double seconds = 15;
  int setups = 0;  // 0: the workload's own count
  std::string git_sha = "unknown";
  std::string out;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Bench {
 public:
  explicit Bench(const Options& opt)
      : opt_(opt), w_(*opt.workload), rng_(opt.seed ^ 0x62656e6368326532ull) {
    cfg_.seed = opt.seed;
    cfg_.num_servers = kServers;
    cfg_.num_clients = w_.clients;
    cfg_.clients_per_host = w_.clients / kHosts;
    cfg_.pipeline_depth = kDepth;
    cfg_.rounds = 0;  // no target: the benchmark decides when to stop
    // A block of ports per workload; each fleet built takes the next slot.
    port_base_ = static_cast<uint16_t>(20000 + 2000 * opt.workload_index);
  }

  // Builds the fleet `setups` times, keeping the last one for Measure.
  bool SetUpAll(int setups);
  void Measure();
  void PrintResults();

 private:
  bool SetUpOnce(double* seconds);
  void WireRoundCallback(size_t server);
  void AddArrivals(int64_t from_us, int64_t to_us);
  void Post(size_t sender, int64_t due_us);
  void FirePosts();
  void TakeSample();
  void OnDelivery(size_t host, const ClientEngine::Delivery& d);
  void OnRound(size_t server, const ServerEngine::RoundDone& d);
  void KillVictim();
  void RestoreVictim();
  void RunUntilTime(int64_t t_us);
  uint64_t ClientRetransmits() const;
  MailboxTotals ServerMailbox() const;
  bool CheckServerAgreement();
  double LatencyPercentile(double q) const;
  std::vector<Metric> EndToEndMetrics();
  std::vector<Metric> LayerMetrics(bool* correct);
  void PrintMetric(const char* name, double value, const char* unit);

  const Options& opt_;
  const Workload& w_;
  DeployConfig cfg_;
  uint16_t port_base_;
  int fleets_built_ = 0;
  std::unique_ptr<Fleet> fleet_;
  std::vector<double> setup_s_;
  e2e::Ledger ledger_after_setup_;
  uint64_t rng_;

  // Traffic.
  struct Msg {
    uint32_t sender = 0;
    int64_t due_us = 0;
    uint8_t hosts = 0;  // bitmask of hosts that delivered it
  };
  std::vector<Msg> msgs_;
  size_t outstanding_ = 0;
  struct Arrival {
    int64_t due_us;
    uint32_t sender;
  };
  std::vector<Arrival> arrivals_;  // open loop, in due order
  std::vector<uint32_t> sender_order_;  // what is left of the current cycle
  size_t next_arrival_ = 0;
  int64_t lateness_max_us_ = 0;
  int64_t window_start_us_ = 0;
  int64_t window_end_us_ = 0;
  std::vector<std::vector<double>> latencies_ms_ =
      std::vector<std::vector<double>>(kLatencyGroups);  // by due-time group
  size_t latency_samples_ = 0;
  Cumulative delivered_bytes_;

  // Checks.
  uint64_t bad_signatures_ = 0;
  uint64_t corrupt_ = 0;
  uint64_t duplicates_ = 0;
  uint64_t aborted_rounds_ = 0;
  std::vector<std::map<uint64_t, uint64_t>> round_hashes_;  // per server: round -> hash

  // Rounds certified at server 0.
  Cumulative rounds_;
  int64_t last_round_us_ = 0;
  int64_t max_gap_us_ = 0;

  // restart_100.
  Bytes victim_snapshot_;
  MailboxTotals victim_banked_;
  int64_t restored_at_us_ = 0;
  int64_t recovered_at_us_ = 0;

  // Window measurements: slice boundaries, and counters at its two ends.
  struct Sample {
    int64_t t_us;
    double cpu_s;
  };
  std::vector<Sample> samples_;
  MailboxTotals mbox_start_, mbox_end_;
  uint64_t client_retx_start_ = 0, client_retx_end_ = 0;
};

bool Bench::SetUpAll(int setups) {
  e2e::g_recording = e2e::g_traced;  // key_shuffle.* come from set-up
  for (int k = 0; k < setups; ++k) {
    fleet_.reset();
    double s = 0;
    if (!SetUpOnce(&s)) {
      return false;
    }
    setup_s_.push_back(s);
  }
  ledger_after_setup_ = g_ledger;
  e2e::g_recording = false;
  return true;
}

bool Bench::SetUpOnce(double* seconds) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    cfg_.base_port = static_cast<uint16_t>(port_base_ + 2 * kServers * fleets_built_++);
    // Only the last fleet is measured; forget what earlier ones reported.
    round_hashes_.assign(kServers, {});
    rounds_ = Cumulative();
    bad_signatures_ = 0;
    aborted_rounds_ = 0;
    last_round_us_ = 0;
    const int64_t t0 = MonoNs();
    fleet_ = std::make_unique<Fleet>();
    for (size_t j = 0; j < kServers; ++j) {
      fleet_->servers.push_back(std::make_unique<ServerNode>(&fleet_->loop, cfg_, j));
    }
    for (size_t h = 0; h < kHosts; ++h) {
      fleet_->hosts.push_back(std::make_unique<ClientHostNode>(&fleet_->loop, cfg_, h));
    }
    bool listening = true;
    for (auto& s : fleet_->servers) {
      listening = listening && s->Listen();
    }
    if (!listening) {
      std::fprintf(stderr, "port block %u busy, moving on\n", cfg_.base_port);
      fleet_.reset();
      continue;
    }
    for (size_t j = 0; j < kServers; ++j) {
      WireRoundCallback(j);
      fleet_->servers[j]->Start();
    }
    for (size_t h = 0; h < kHosts; ++h) {
      ClientHostNode* host = fleet_->hosts[h].get();
      host->on_delivery = [this, h, host](size_t client, const ClientEngine::Delivery& d) {
        // One observer client per host: every hosted client decodes the same
        // output, and exactly-once is a per-host property.
        if (client == host->first_client()) {
          OnDelivery(h, d);
        }
      };
      host->Start();
    }
    Fleet* f = fleet_.get();
    const bool ready = f->loop.RunUntil(
        [f] {
          return std::all_of(f->hosts.begin(), f->hosts.end(),
                             [](const auto& h) { return h->slots_assigned(); });
        },
        kSetupTimeoutUs);
    if (!ready) {
      std::fprintf(stderr, "set-up did not finish within %lld s\n",
                   static_cast<long long>(kSetupTimeoutUs / 1000000));
      return false;
    }
    *seconds = static_cast<double>(MonoNs() - t0) / 1e9;
    return true;
  }
  return false;
}

void Bench::WireRoundCallback(size_t server) {
  fleet_->servers[server]->on_round = [this, server](const ServerEngine::RoundDone& d) {
    OnRound(server, d);
  };
}

// A Poisson process conditioned on its count: exactly rate * length arrivals,
// uniformly placed. Fixing the count per slice keeps Poisson burstiness
// within a slice but removes count noise from the throughput metrics.
// Senders come in seeded random order, every client once per cycle: a client
// never posts again while its last post is in flight, which would queue the
// second behind the first and put a seed-dependent bump at the p90.
void Bench::AddArrivals(int64_t from_us, int64_t to_us) {
  const auto span = static_cast<uint64_t>(to_us - from_us);
  const auto n =
      static_cast<size_t>(std::llround(w_.posts_per_s * static_cast<double>(span) / 1e6));
  const size_t first = arrivals_.size();
  for (size_t i = 0; i < n; ++i) {
    arrivals_.push_back(Arrival{from_us + static_cast<int64_t>(SplitMix(rng_) % span), 0});
  }
  std::sort(arrivals_.begin() + static_cast<std::ptrdiff_t>(first), arrivals_.end(),
            [](const Arrival& a, const Arrival& b) { return a.due_us < b.due_us; });
  for (size_t i = first; i < arrivals_.size(); ++i) {
    if (sender_order_.empty()) {
      for (uint32_t c = 0; c < w_.clients; ++c) {
        sender_order_.push_back(c);
      }
      for (size_t k = sender_order_.size() - 1; k > 0; --k) {
        std::swap(sender_order_[k], sender_order_[SplitMix(rng_) % (k + 1)]);
      }
    }
    arrivals_[i].sender = sender_order_.back();
    sender_order_.pop_back();
  }
}

void Bench::Post(size_t sender, int64_t due_us) {
  const uint64_t id = msgs_.size();
  msgs_.push_back(Msg{static_cast<uint32_t>(sender), due_us, 0});
  ++outstanding_;
  ClientHostNode& host = *fleet_->hosts[sender / cfg_.clients_per_host];
  host.client_logic(sender - host.first_client())
      .QueueMessage(MakePayload(opt_.seed, id, w_.msg_bytes));
}

// Open loop: posts every arrival that has come due, then sleeps until the
// next one (never polls).
void Bench::FirePosts() {
  const int64_t now = fleet_->loop.NowUs();
  for (; next_arrival_ < arrivals_.size() && arrivals_[next_arrival_].due_us <= now;
       ++next_arrival_) {
    const Arrival& a = arrivals_[next_arrival_];
    lateness_max_us_ = std::max(lateness_max_us_, now - a.due_us);
    Post(a.sender, a.due_us);
  }
  if (next_arrival_ < arrivals_.size()) {
    fleet_->loop.ScheduleAfter(arrivals_[next_arrival_].due_us - now, [this] { FirePosts(); });
  }
}

void Bench::TakeSample() {
  if (fleet_->loop.NowUs() >= window_end_us_) {
    return;  // fired late, in the drain: Measure has closed the window
  }
  e2e::g_recording = e2e::g_traced && samples_.size() % 2 == 0;
  samples_.push_back(Sample{fleet_->loop.NowUs(), CpuSeconds()});
  const int64_t slice_us = (window_end_us_ - window_start_us_) / kSlices;
  const int64_t next = window_start_us_ + slice_us * static_cast<int64_t>(samples_.size());
  if (samples_.size() < kSlices) {
    fleet_->loop.ScheduleAfter(next - fleet_->loop.NowUs(), [this] { TakeSample(); });
  }
}

void Bench::OnDelivery(size_t host, const ClientEngine::Delivery& d) {
  SpanScope span(e2e::kBenchCheck);
  if (!d.signatures_ok) {
    ++bad_signatures_;
  }
  const int64_t now = fleet_->loop.NowUs();
  for (const auto& [slot, payload] : d.messages) {
    if (payload.empty()) {
      continue;
    }
    uint64_t id = 0;
    if (payload.size() != w_.msg_bytes) {
      ++corrupt_;
      continue;
    }
    std::memcpy(&id, payload.data(), sizeof(id));
    if (id >= msgs_.size() || payload != MakePayload(opt_.seed, id, w_.msg_bytes)) {
      ++corrupt_;
      continue;
    }
    Msg& m = msgs_[id];
    const auto bit = static_cast<uint8_t>(1u << host);
    if (m.hosts & bit) {
      ++duplicates_;
      continue;
    }
    m.hosts |= bit;
    if (m.hosts != kAllHosts) {
      continue;
    }
    --outstanding_;
    delivered_bytes_.Add(now, static_cast<double>(w_.msg_bytes));
    if (m.due_us >= window_start_us_ && m.due_us < window_end_us_) {
      const auto group = static_cast<size_t>((m.due_us - window_start_us_) * kLatencyGroups /
                                             (window_end_us_ - window_start_us_));
      latencies_ms_[group].push_back(static_cast<double>(now - m.due_us) / 1e3);
      ++latency_samples_;
    }
    if (w_.posts_per_s == 0 && now < window_end_us_) {
      Post(m.sender, now);  // closed loop: the sender queues its next message
    }
  }
}

void Bench::OnRound(size_t server, const ServerEngine::RoundDone& d) {
  SpanScope span(e2e::kBenchCheck);
  if (!d.completed) {
    ++aborted_rounds_;
    return;
  }
  round_hashes_[server][d.round] = HashBytes(d.cleartext);
  if (server != 0) {
    return;
  }
  const int64_t now = fleet_->loop.NowUs();
  rounds_.Add(now, 1.0);
  if (now >= window_start_us_ && now < window_end_us_ && last_round_us_ != 0) {
    max_gap_us_ = std::max(max_gap_us_, now - last_round_us_);
  }
  last_round_us_ = now;
  if (restored_at_us_ != 0 && recovered_at_us_ == 0) {
    recovered_at_us_ = now;
  }
}

void Bench::KillVictim() {
  ServerNode& victim = *fleet_->servers[kVictim];
  victim_snapshot_ = victim.SnapshotBytes();
  victim_banked_.Add(victim);
  fleet_->servers[kVictim].reset();  // closes its listener and every socket
}

void Bench::RestoreVictim() {
  auto node = std::make_unique<ServerNode>(&fleet_->loop, cfg_, kVictim);
  if (!node->Listen() || !node->RestoreFromSnapshot(victim_snapshot_)) {
    std::fprintf(stderr, "server %zu failed to restore from its snapshot\n", kVictim);
    return;
  }
  fleet_->servers[kVictim] = std::move(node);
  WireRoundCallback(kVictim);
  fleet_->servers[kVictim]->Start();
  restored_at_us_ = fleet_->loop.NowUs();
}

void Bench::RunUntilTime(int64_t t_us) {
  const int64_t left = t_us - fleet_->loop.NowUs();
  if (left > 0) {
    fleet_->loop.RunUntil([] { return false; }, left);
  }
}

uint64_t Bench::ClientRetransmits() const {
  uint64_t total = 0;
  for (const auto& h : fleet_->hosts) {
    total += h->retransmits();
  }
  return total;
}

MailboxTotals Bench::ServerMailbox() const {
  MailboxTotals t = victim_banked_;
  for (const auto& s : fleet_->servers) {
    if (s != nullptr) {
      t.Add(*s);
    }
  }
  return t;
}

void Bench::Measure() {
  EventLoop& loop = fleet_->loop;
  const auto window_us = static_cast<int64_t>(opt_.seconds * 1e6);
  const int64_t t0 = loop.NowUs();
  window_start_us_ = t0 + kWarmupUs;
  window_end_us_ = window_start_us_ + window_us;

  if (w_.posts_per_s > 0) {
    AddArrivals(t0, window_start_us_);
    for (int i = 0; i < kSlices; ++i) {
      AddArrivals(window_start_us_ + window_us * i / kSlices,
                  window_start_us_ + window_us * (i + 1) / kSlices);
    }
    FirePosts();
  } else {
    for (size_t c = 0; c < w_.clients; ++c) {
      for (size_t k = 0; k < w_.outstanding; ++k) {
        Post(c, t0);
      }
    }
  }

  RunUntilTime(window_start_us_);
  mbox_start_ = ServerMailbox();
  client_retx_start_ = ClientRetransmits();
  g_ledger = e2e::Ledger();
  TakeSample();  // re-arms itself at each slice boundary
  if (w_.restart) {
    const int64_t kill_at = window_start_us_ + window_us / 3;
    RunUntilTime(kill_at);
    KillVictim();
    RunUntilTime(kill_at + kVictimDownUs);
    RestoreVictim();
  }
  RunUntilTime(window_end_us_);
  e2e::g_recording = false;
  samples_.push_back(Sample{loop.NowUs(), CpuSeconds()});
  mbox_end_ = ServerMailbox();
  client_retx_end_ = ClientRetransmits();
  // The gap from the last round to the window's end counts as a stall too.
  if (last_round_us_ != 0) {
    max_gap_us_ = std::max(max_gap_us_, samples_.back().t_us - last_round_us_);
  }

  loop.RunUntil([this] { return outstanding_ == 0; }, kDrainTimeoutUs);
}

bool Bench::CheckServerAgreement() {
  // Every server (the restored one included) must have certified every round
  // up to the slowest server's frontier, with identical cleartexts.
  uint64_t frontier = UINT64_MAX;
  for (const auto& hashes : round_hashes_) {
    frontier = std::min<uint64_t>(frontier, hashes.empty() ? 0 : hashes.rbegin()->first);
  }
  uint64_t mismatches = 0;
  for (uint64_t r = 1; r <= frontier; ++r) {
    auto ref = round_hashes_[0].find(r);
    for (const auto& hashes : round_hashes_) {
      auto it = hashes.find(r);
      if (ref == round_hashes_[0].end() || it == hashes.end() || it->second != ref->second) {
        ++mismatches;
      }
    }
  }
  PrintMetric("rounds_compared", static_cast<double>(frontier), "count");
  if (mismatches != 0) {
    std::fprintf(stderr, "servers disagree on %llu (round, server) cleartexts\n",
                 static_cast<unsigned long long>(mismatches));
  }
  return mismatches == 0 && frontier > 0;
}

void Bench::PrintMetric(const char* name, double value, const char* unit) {
  std::printf("%s %s %s %s\n", w_.name, name, Num(value).c_str(), unit);
}

double Bench::LatencyPercentile(double q) const {
  std::vector<double> per_group;
  for (const auto& group : latencies_ms_) {
    if (!group.empty()) {
      per_group.push_back(Percentile(group, q));
    }
  }
  return Percentile(per_group, 0.5);
}

std::vector<Metric> Bench::EndToEndMetrics() {
  const Sample& a = samples_.front();
  const Sample& b = samples_.back();
  const double secs = static_cast<double>(b.t_us - a.t_us) / 1e6;
  // A run without rounds fails its checks; keep its numbers finite anyway.
  const double rounds = std::max(rounds_.At(b.t_us) - rounds_.At(a.t_us), 1.0);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {
      {"setup_s", Percentile(setup_s_, 0.5), "s"},
      {"rounds_per_s", rounds / secs, "rounds/s"},
      {"goodput_Bps", (delivered_bytes_.At(b.t_us) - delivered_bytes_.At(a.t_us)) / secs, "B/s"},
      {"msg_latency_p50_ms", LatencyPercentile(0.5), "ms"},
      {"msg_latency_p90_ms", LatencyPercentile(0.9), "ms"},
      {"cpu_ms_per_round", (b.cpu_s - a.cpu_s) * 1e3 / rounds, "ms"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
  };
}

std::vector<Metric> Bench::LayerMetrics(bool* correct) {
  const e2e::Ledger& l = g_ledger;  // spans of the even (recorded) slices only
  // Wall time and rounds of the recorded and of the unrecorded slices. Slices
  // running well below the typical rate (the fleet was down, or the machine
  // was busy with something else) are left out of the overhead comparison:
  // whichever side they fell on would dominate it.
  std::vector<double> slice_ms, slice_rounds, rates;
  for (size_t i = 0; i + 1 < samples_.size(); ++i) {
    slice_ms.push_back(static_cast<double>(samples_[i + 1].t_us - samples_[i].t_us) / 1e3);
    slice_rounds.push_back(rounds_.At(samples_[i + 1].t_us) - rounds_.At(samples_[i].t_us));
    rates.push_back(slice_rounds.back() / slice_ms.back());
  }
  const double typical_rate = Percentile(rates, 0.5);
  double wall_ms[2] = {0, 0}, rounds_in[2] = {0, 0};
  double live_ms[2] = {0, 0}, live_rounds[2] = {0, 0};
  for (size_t i = 0; i < slice_ms.size(); ++i) {
    const size_t recorded = i % 2 == 0;
    wall_ms[recorded] += slice_ms[i];
    rounds_in[recorded] += slice_rounds[i];
    if (rates[i] >= typical_rate * 3 / 4) {
      live_ms[recorded] += slice_ms[i];
      live_rounds[recorded] += slice_rounds[i];
    }
  }
  const double overhead = live_rounds[0] > 0 && live_rounds[1] > 0
                              ? (live_ms[1] / live_rounds[1]) / (live_ms[0] / live_rounds[0])
                              : 0.0;
  // Per-round values share one denominator, so the layers add up to the
  // loop's wall time per round in the recorded slices.
  const double rounds = std::max(rounds_in[1], 1.0);
  const double window_rounds =
      std::max(rounds_.At(samples_.back().t_us) - rounds_.At(samples_.front().t_us), 1.0);
  auto total_ms = [&](std::initializer_list<Span> spans) {
    int64_t ns = 0;
    for (Span s : spans) {
      ns += l.self_ns[s];
    }
    return static_cast<double>(ns) / 1e6;
  };
  auto ms = [&](std::initializer_list<Span> spans) { return total_ms(spans) / rounds; };
  auto calls = [&](std::initializer_list<Span> spans) {
    uint64_t n = 0;
    for (Span s : spans) {
      n += l.calls[s];
    }
    return static_cast<double>(n) / rounds;
  };
  auto setup_s = [&](std::initializer_list<Span> spans) {
    int64_t ns = 0;
    for (Span s : spans) {
      ns += ledger_after_setup_.self_ns[s];
    }
    return static_cast<double>(ns) / 1e9;
  };
  double spans_ms = 0;
  for (int s = 0; s < e2e::kNumSpans; ++s) {
    spans_ms += static_cast<double>(l.self_ns[s]) / 1e6;
  }
  const double pad_ms = total_ms({e2e::kXorAllPads, e2e::kXorPads, e2e::kXorPad});
  const auto pad_bytes = static_cast<double>(l.client_pad_bytes + l.server_pad_bytes);
  // Mailbox counters are read at the window's two ends, over both kinds of
  // slice.
  auto window_per_round = [&](uint64_t end, uint64_t start) {
    return static_cast<double>(end - start) / window_rounds;
  };

  std::vector<Metric> m = {
      {"dcnet.client_pad_ms", ms({e2e::kXorAllPads}), "ms"},
      {"dcnet.server_pad_ms", ms({e2e::kXorPads, e2e::kXorPad}), "ms"},
      {"dcnet.pad_MBps", pad_ms > 0 ? pad_bytes / (pad_ms * 1e3) : 0.0, "MB/s"},
      {"client.build_ms", ms({e2e::kBuildCiphertext}), "ms"},
      {"client.process_output_ms", ms({e2e::kProcessOutput}), "ms"},
      {"output_cert.verify_ms", ms({e2e::kVerifyOutputCertificate}), "ms"},
      {"output_cert.verify_calls", calls({e2e::kVerifyOutputCertificate}), "count/round"},
      {"server.ingest_ms", ms({e2e::kAcceptClientCiphertext}), "ms"},
      {"server.build_ct_ms", ms({e2e::kBuildServerCiphertext}), "ms"},
      {"server.combine_ms", ms({e2e::kCombineAndVerify}), "ms"},
      {"server.sign_ms", ms({e2e::kSignRoundOutput}), "ms"},
      {"server.finish_ms", ms({e2e::kFinishRound}), "ms"},
      {"engine.server_self_ms",
       ms({e2e::kServerHandleMessage, e2e::kServerHandleTimer, e2e::kServerStartSession}), "ms"},
      {"engine.client_self_ms",
       ms({e2e::kClientHandleMessage, e2e::kClientHandleTimer, e2e::kClientStartSession}), "ms"},
      {"engine.server_calls",
       calls({e2e::kServerHandleMessage, e2e::kServerHandleTimer, e2e::kServerStartSession}),
       "count/round"},
      {"engine.client_calls",
       calls({e2e::kClientHandleMessage, e2e::kClientHandleTimer, e2e::kClientStartSession}),
       "count/round"},
      {"engine.snapshot_ms", total_ms({e2e::kSerializeSnapshot}), "ms"},
      {"engine.restore_ms", total_ms({e2e::kRestoreSnapshot}), "ms"},
      {"engine.catch_up_rounds",
       static_cast<double>(mbox_end_.catch_up_rounds - mbox_start_.catch_up_rounds), "count"},
      {"mailbox.server_retransmit_ratio",
       static_cast<double>(mbox_end_.retransmits - mbox_start_.retransmits) /
           std::max(1.0, static_cast<double>(mbox_end_.reliable_sent - mbox_start_.reliable_sent)),
       "ratio"},
      {"mailbox.client_retx_per_submit",
       window_per_round(client_retx_end_, client_retx_start_) / static_cast<double>(w_.clients),
       "ratio"},
      {"mailbox.duplicates_dropped",
       window_per_round(mbox_end_.duplicates, mbox_start_.duplicates), "count/round"},
      {"mailbox.max_in_flight", static_cast<double>(mbox_end_.max_in_flight), "count"},
      {"wire.serialize_ms", ms({e2e::kSerializeWire, e2e::kSerializeWireShared}), "ms"},
      {"wire.parse_ms", ms({e2e::kParseWireShared}), "ms"},
      {"wire.bytes_serialized", static_cast<double>(l.wire_bytes) / rounds, "B/round"},
      {"framing.encode_ms", ms({e2e::kEncodeFrame}), "ms"},
      {"framing.decode_ms", ms({e2e::kFrameFeed, e2e::kFrameNext}), "ms"},
      {"event_loop.idle_ms", ms({e2e::kEpollWait}), "ms"},
      {"event_loop.wakeups", calls({e2e::kEpollWait}), "count/round"},
      {"sys.read_ms", ms({e2e::kRead}), "ms"},
      {"sys.send_ms", ms({e2e::kSend}), "ms"},
      {"sys.bytes_sent", static_cast<double>(l.sys_bytes_sent) / rounds, "B/round"},
      {"sys.send_eagain", static_cast<double>(l.send_eagain) / rounds, "count/round"},
      {"bench.check_ms", ms({e2e::kBenchCheck}), "ms"},
      {"socket_transport.self_ms", (wall_ms[1] - spans_ms) / rounds, "ms"},
      {"key_shuffle.prove_s", setup_s({e2e::kKeyShuffleMixStep}), "s"},
      {"key_shuffle.verify_s", setup_s({e2e::kVerifyMixStep, e2e::kVerifyShuffleCascade}), "s"},
      {"key_shuffle.verify_calls",
       static_cast<double>(ledger_after_setup_.calls[e2e::kVerifyMixStep] +
                           ledger_after_setup_.calls[e2e::kVerifyShuffleCascade]),
       "count"},
      {"trace.loop_ms_per_round", wall_ms[1] / rounds, "ms"},
      {"trace.overhead_ratio", overhead, "ratio"},
  };

  // Every wrapped entry point must have fired; snapshot and restore only
  // where a server is restarted.
  for (int s = 0; s < e2e::kNumSpans; ++s) {
    const bool restart_only = s == e2e::kSerializeSnapshot || s == e2e::kRestoreSnapshot;
    if ((!restart_only || w_.restart) && e2e::g_fired[s] == 0) {
      std::fprintf(stderr, "check failed: e2e::Span %d (ledger.h) never fired\n", s);
      *correct = false;
    }
  }
  if (!(overhead > 0 && overhead <= kMaxTraceOverhead)) {
    std::fprintf(stderr, "check failed: trace.overhead_ratio %s not in (0, %s]\n",
                 Num(overhead).c_str(), Num(kMaxTraceOverhead).c_str());
    *correct = false;
  }
  return m;
}

void Bench::PrintResults() {
  bool correct = true;
  auto require = [&correct](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "check failed: %s\n", what);
      correct = false;
    }
  };
  uint64_t failed = 0;
  for (const Msg& m : msgs_) {
    failed += m.hosts != kAllHosts;
  }
  require(CheckServerAgreement(), "identical per-round cleartexts on all servers");
  require(bad_signatures_ == 0, "signatures_ok on every delivery");
  require(corrupt_ == 0, "payload integrity");
  require(duplicates_ == 0, "at most one delivery per message per host");
  require(failed == 0, "every message delivered to every host by the end of the drain");
  require(aborted_rounds_ == 0, "no aborted rounds");
  require(rounds_.At(samples_.back().t_us) > rounds_.At(samples_.front().t_us),
          "rounds certified in the window");
  if (w_.restart) {
    require(recovered_at_us_ != 0, "a certified round after the restore");
  }

  const std::vector<Metric> metrics = e2e::g_traced ? LayerMetrics(&correct) : EndToEndMetrics();

  // Context lines: not metrics, but needed to read them.
  PrintMetric("latency_samples", static_cast<double>(latency_samples_), "count");
  PrintMetric("generator_lateness_max_ms", static_cast<double>(lateness_max_us_) / 1e3, "ms");
  // The longest time without a certified round. On restart_100 it is the
  // outage; elsewhere it is the worst hiccup, which varies too much from run
  // to run to carry a regression bound.
  PrintMetric("stall_s", static_cast<double>(max_gap_us_) / 1e6, "s");
  for (size_t k = 0; k < setup_s_.size(); ++k) {
    std::printf("%s setup_run_%zu %s s\n", w_.name, k, Num(setup_s_[k]).c_str());
  }
  if (w_.restart) {
    PrintMetric("recovery_s",
                recovered_at_us_ != 0
                    ? static_cast<double>(recovered_at_us_ - restored_at_us_) / 1e6
                    : -1.0,
                "s");
  }
  for (const Metric& m : metrics) {
    PrintMetric(m.name.c_str(), m.value, m.unit.c_str());
  }

  // Stamp: what produced these numbers.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) {
    load[0] = load[1] = load[2] = -1;
  }
  const std::string stamp =
      "{\"git_sha\": \"" + opt_.git_sha + "\", \"compiler\": \"" E2E_COMPILER
      "\", \"cxx_flags\": \"" E2E_CXX_FLAGS "\", \"nproc\": " + std::to_string(nproc) +
      ", \"hardware_concurrency\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"loadavg\": [" + Num(load[0]) + ", " + Num(load[1]) + ", " + Num(load[2]) +
      "], \"traced\": " + (e2e::g_traced ? "true" : "false") + "}";
  std::printf("# stamp %s\n", stamp.c_str());

  std::string metrics_json;
  for (const Metric& m : metrics) {
    metrics_json += (metrics_json.empty() ? "\"" : ", \"") + m.name + "\": {\"value\": " +
                    Num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  const std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(msgs_.size()) +
                             ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
                             metrics_json + "}}";
  if (!opt_.out.empty()) {
    if (FILE* f = std::fopen(opt_.out.c_str(), "a")) {
      std::fprintf(f,
                   "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"stamp\": %s, "
                   "\"latency_samples\": %zu, \"result\": %s}\n",
                   w_.name, static_cast<unsigned long long>(opt_.seed),
                   Num(opt_.seconds).c_str(), stamp.c_str(), latency_samples_,
                   result.c_str());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot append to %s\n", opt_.out.c_str());
    }
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: dissent_bench --workload W --seed S --seconds T [--setups K]\n"
               "                     [--git-sha SHA] [--out FILE]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (argc % 2 != 1) {
    return Usage();
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (size_t w = 0; w < std::size(kWorkloads); ++w) {
        if (value == kWorkloads[w].name) {
          opt.workload = &kWorkloads[w];
          opt.workload_index = w;
        }
      }
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--setups") {
      opt.setups = std::atoi(value.c_str());
    } else if (flag == "--git-sha") {
      opt.git_sha = value;
    } else if (flag == "--out") {
      opt.out = value;
    } else {
      return Usage();
    }
  }
  if (opt.workload == nullptr || !(opt.seconds > 0) || opt.setups < 0) {
    return Usage();
  }
  e2e::t_loop_thread = true;

  Bench bench(opt);
  if (!bench.SetUpAll(opt.setups > 0 ? opt.setups : opt.workload->setups)) {
    return 1;
  }
  bench.Measure();
  bench.PrintResults();
  return 0;
}
