// Span ledger shared by dissent_bench.cc and the link-time wrappers of the
// traced binary (wraps.cc).
//
// Every wrapped entry point opens a SpanScope. Spans nest: a span's *self*
// time is its duration minus the durations of the spans opened inside it, so
// summing self time over all spans never counts an interval twice, and the
// loop wall time minus that sum is what the transport glue itself costs.
// Spans are recorded only on the event-loop thread; work a wrapped call fans
// out to ParallelFor workers lands inside the enclosing span.
//
// Recording is switched on and off by dissent_bench.cc while the traced
// binary runs, so traced and untraced stretches of one run can be compared.
// In the plain binary wraps.cc is not linked, g_traced stays false, and
// nothing is ever recorded.
#ifndef DISSENT_BENCH_E2E_LEDGER_H_
#define DISSENT_BENCH_E2E_LEDGER_H_

#include <time.h>

#include <cstdint>

namespace e2e {

enum Span : int {
  kXorAllPads,  // dcnet: client pads
  kXorPads,     // dcnet: server pads at commit
  kXorPad,      // dcnet: server pad at ingest
  kBuildCiphertext,
  kProcessOutput,
  kVerifyOutputCertificate,
  kAcceptClientCiphertext,
  kBuildServerCiphertext,
  kCombineAndVerify,
  kSignRoundOutput,
  kFinishRound,
  kServerHandleMessage,
  kServerHandleTimer,
  kServerStartSession,
  kClientHandleMessage,
  kClientHandleTimer,
  kClientStartSession,
  kSerializeSnapshot,
  kRestoreSnapshot,
  kSerializeWire,
  kSerializeWireShared,
  kParseWireShared,
  kEncodeFrame,
  kFrameFeed,
  kFrameNext,
  kEpollWait,
  kRead,
  kSend,
  kKeyShuffleMixStep,
  kVerifyMixStep,
  kVerifyShuffleCascade,
  kBenchCheck,  // the benchmark's own delivery and cleartext checks
  kNumSpans
};

struct Ledger {
  int64_t self_ns[kNumSpans] = {};
  uint64_t calls[kNumSpans] = {};
  uint64_t client_pad_bytes = 0;
  uint64_t server_pad_bytes = 0;
  uint64_t wire_bytes = 0;
  uint64_t sys_bytes_sent = 0;
  uint64_t send_eagain = 0;
};

inline bool g_traced = false;     // set by wraps.cc's static initializer
inline bool g_recording = false;  // spans are recorded into g_ledger
inline Ledger g_ledger;
// Every loop-thread entry into a span, recorded or not: proves each wrapped
// entry point fired even when it ran while recording was off.
inline uint64_t g_fired[kNumSpans] = {};
// True only on the thread that runs the event loop (set in main).
inline thread_local bool t_loop_thread = false;

inline int64_t MonoNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

class SpanScope {
 public:
  // `always` records the span even while recording is off: for one-off
  // events (a snapshot, a restore) that must not be missed by chance.
  explicit SpanScope(Span span, bool always = false)
      : span_(span),
        active_(t_loop_thread && (g_recording || (always && g_traced)) && depth_ < kMaxDepth) {
    if (t_loop_thread) {
      ++g_fired[span];
    }
    if (active_) {
      Frame& f = stack_[depth_++];
      f.child_ns = 0;
      f.start_ns = MonoNs();
    }
  }
  ~SpanScope() {
    if (!active_) {
      return;
    }
    const int64_t dur = MonoNs() - stack_[--depth_].start_ns;
    g_ledger.self_ns[span_] += dur - stack_[depth_].child_ns;
    ++g_ledger.calls[span_];
    if (depth_ > 0) {
      stack_[depth_ - 1].child_ns += dur;
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  static constexpr int kMaxDepth = 32;
  struct Frame {
    int64_t start_ns;
    int64_t child_ns;
  };
  // Only the loop thread touches these (see active_).
  static inline Frame stack_[kMaxDepth] = {};
  static inline int depth_ = 0;

  Span span_;
  bool active_;
};

}  // namespace e2e

#endif  // DISSENT_BENCH_E2E_LEDGER_H_
