// Link-time interposers for the traced benchmark binary.
//
// The traced binary links the unmodified dissent library with
// -Wl,--wrap=<symbol> for every line of wrap_symbols.txt: each reference to
// <symbol> from another object file then resolves to __wrap_<symbol>, which
// opens a span and calls the original through __real_<symbol>. Member
// functions are wrapped as free functions taking `this` first, which is the
// Itanium C++ ABI's calling convention for them (a hidden return-slot
// pointer, when there is one, precedes `this` in both cases).
//
// The labels bypass C++ type checking, so a hand-written prototype that
// drifts from the library's would link and then corrupt the stack. Every
// wrapper therefore static_asserts that its type equals the free-function
// form of decltype(&Class::Method), and the __real_ declaration is derived
// from that same type.
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <optional>
#include <type_traits>

#include "bench/e2e/ledger.h"
#include "src/core/client.h"
#include "src/core/dcnet.h"
#include "src/core/engine.h"
#include "src/core/key_shuffle.h"
#include "src/core/output_cert.h"
#include "src/core/server.h"
#include "src/core/wire.h"
#include "src/net/framing.h"
#include "wrap_symbols.h"  // generated from wrap_symbols.txt: WRAP_SYM_<id>

using namespace dissent;
using e2e::g_ledger;
using e2e::SpanScope;

namespace {

// R (C::*)(A...) [const] -> R(C*, A...) / R(const C*, A...); free functions
// map to themselves.
template <class F>
struct FreeFn;
template <class R, class C, class... A>
struct FreeFn<R (C::*)(A...)> {
  using type = R(C*, A...);
};
template <class R, class C, class... A>
struct FreeFn<R (C::*)(A...) const> {
  using type = R(const C*, A...);
};
template <class R, class... A>
struct FreeFn<R (*)(A...)> {
  using type = R(A...);
};
// libc's declarations carry attributes (nonnull, warn_unused_result, access)
// that are not part of a function's type; GCC warns that it drops them here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wignored-attributes"
template <auto F>
using FreeFnT = typename FreeFn<decltype(F)>::type;
#pragma GCC diagnostic pop

// The plain binary never links this file, so g_traced stays false there.
[[maybe_unused]] const bool kRegistered = (e2e::g_traced = true);

// Byte and event counters follow the same rule as spans: loop thread only,
// and only while recording.
void Count(uint64_t& counter, uint64_t n) {
  if (e2e::t_loop_thread && e2e::g_recording) {
    counter += n;
  }
}

}  // namespace

// Declares __real_<id> from the wrapped function's own type and opens the
// definition of __wrap_<id>; the body follows the macro.
#define E2E_WRAP(id, function, ret, params)                                      \
  extern FreeFnT<function> real_##id __asm__("__real_" WRAP_SYM_##id);          \
  ret wrap_##id params __asm__("__wrap_" WRAP_SYM_##id);                        \
  static_assert(std::is_same_v<decltype(wrap_##id), FreeFnT<function>>,         \
                "wrapper for " #id " does not match the wrapped signature");    \
  ret wrap_##id params

// --- dcnet -----------------------------------------------------------------

E2E_WRAP(xor_all_pads, &PadExpander::XorAllPads, void,
         (const PadExpander* self, uint64_t round, Bytes& inout, size_t threads)) {
  SpanScope span(e2e::kXorAllPads);
  real_xor_all_pads(self, round, inout, threads);
  Count(g_ledger.client_pad_bytes, self->num_keys() * inout.size());
}

E2E_WRAP(xor_pads, &PadExpander::XorPads, void,
         (const PadExpander* self, const std::vector<uint32_t>& indices, uint64_t round,
          Bytes& inout, size_t threads)) {
  SpanScope span(e2e::kXorPads);
  real_xor_pads(self, indices, round, inout, threads);
  Count(g_ledger.server_pad_bytes, indices.size() * inout.size());
}

E2E_WRAP(xor_pad, &PadExpander::XorPad, void,
         (const PadExpander* self, size_t index, uint64_t round, Bytes& inout)) {
  SpanScope span(e2e::kXorPad);
  real_xor_pad(self, index, round, inout);
  Count(g_ledger.server_pad_bytes, inout.size());
}

// --- client ----------------------------------------------------------------

E2E_WRAP(build_ciphertext, &DissentClient::BuildCiphertext, Bytes,
         (DissentClient* self, uint64_t round)) {
  SpanScope span(e2e::kBuildCiphertext);
  return real_build_ciphertext(self, round);
}

E2E_WRAP(process_output, &DissentClient::ProcessOutput, DissentClient::OutputResult,
         (DissentClient* self, uint64_t round, const Bytes& cleartext,
          const std::vector<SchnorrSignature>& sigs)) {
  SpanScope span(e2e::kProcessOutput);
  return real_process_output(self, round, cleartext, sigs);
}

// --- output_cert -----------------------------------------------------------

E2E_WRAP(verify_output_certificate, &VerifyOutputCertificate, bool,
         (const GroupDef& def, uint64_t round, const Bytes& cleartext,
          const std::vector<SchnorrSignature>& sigs)) {
  SpanScope span(e2e::kVerifyOutputCertificate);
  return real_verify_output_certificate(def, round, cleartext, sigs);
}

// --- server ----------------------------------------------------------------

E2E_WRAP(accept_client_ciphertext, &DissentServer::AcceptClientCiphertext, bool,
         (DissentServer* self, uint64_t round, size_t client, Bytes ciphertext)) {
  SpanScope span(e2e::kAcceptClientCiphertext);
  return real_accept_client_ciphertext(self, round, client, std::move(ciphertext));
}

E2E_WRAP(build_server_ciphertext, &DissentServer::BuildServerCiphertext, const Bytes&,
         (DissentServer* self, uint64_t round, const std::vector<uint32_t>& composite,
          const std::vector<uint32_t>& own_share)) {
  SpanScope span(e2e::kBuildServerCiphertext);
  return real_build_server_ciphertext(self, round, composite, own_share);
}

E2E_WRAP(combine_and_verify, &DissentServer::CombineAndVerify, std::optional<Bytes>,
         (DissentServer* self, uint64_t round, const std::vector<Bytes>& server_cts,
          const std::vector<Bytes>& commits)) {
  SpanScope span(e2e::kCombineAndVerify);
  return real_combine_and_verify(self, round, server_cts, commits);
}

E2E_WRAP(sign_round_output, &DissentServer::SignRoundOutput, SchnorrSignature,
         (const DissentServer* self, uint64_t round, const Bytes& cleartext)) {
  SpanScope span(e2e::kSignRoundOutput);
  return real_sign_round_output(self, round, cleartext);
}

E2E_WRAP(finish_round, &DissentServer::FinishRound, DissentServer::RoundFinish,
         (DissentServer* self, uint64_t round, const Bytes& cleartext)) {
  SpanScope span(e2e::kFinishRound);
  return real_finish_round(self, round, cleartext);
}

// --- engine ----------------------------------------------------------------

E2E_WRAP(server_handle_message, &ServerEngine::HandleMessage, ServerEngine::Actions,
         (ServerEngine* self, const Peer& from, const WireMessage& msg, int64_t now_us)) {
  SpanScope span(e2e::kServerHandleMessage);
  return real_server_handle_message(self, from, msg, now_us);
}

E2E_WRAP(server_handle_timer, &ServerEngine::HandleTimer, ServerEngine::Actions,
         (ServerEngine* self, uint64_t token, int64_t now_us)) {
  SpanScope span(e2e::kServerHandleTimer);
  return real_server_handle_timer(self, token, now_us);
}

E2E_WRAP(server_start_session, &ServerEngine::StartSession, ServerEngine::Actions,
         (ServerEngine* self, int64_t now_us)) {
  SpanScope span(e2e::kServerStartSession);
  return real_server_start_session(self, now_us);
}

E2E_WRAP(client_handle_message, &ClientEngine::HandleMessage, ClientEngine::Actions,
         (ClientEngine* self, const Peer& from, const WireMessage& msg, int64_t now_us)) {
  SpanScope span(e2e::kClientHandleMessage);
  return real_client_handle_message(self, from, msg, now_us);
}

E2E_WRAP(client_handle_timer, &ClientEngine::HandleTimer, ClientEngine::Actions,
         (ClientEngine* self, uint64_t token, int64_t now_us)) {
  SpanScope span(e2e::kClientHandleTimer);
  return real_client_handle_timer(self, token, now_us);
}

E2E_WRAP(client_start_session, &ClientEngine::StartSession, ClientEngine::Actions,
         (ClientEngine* self, int64_t now_us)) {
  SpanScope span(e2e::kClientStartSession);
  return real_client_start_session(self, now_us);
}

E2E_WRAP(serialize_snapshot, &ServerEngine::SerializeSnapshot, Bytes,
         (const ServerEngine* self)) {
  SpanScope span(e2e::kSerializeSnapshot, /*always=*/true);
  return real_serialize_snapshot(self);
}

E2E_WRAP(restore_snapshot, &ServerEngine::RestoreSnapshot,
         std::optional<ServerEngine::Actions>,
         (ServerEngine* self, const Bytes& snapshot, int64_t now_us)) {
  SpanScope span(e2e::kRestoreSnapshot, /*always=*/true);
  return real_restore_snapshot(self, snapshot, now_us);
}

// --- wire ------------------------------------------------------------------

E2E_WRAP(serialize_wire, &SerializeWire, Bytes, (const WireMessage& msg)) {
  SpanScope span(e2e::kSerializeWire);
  Bytes out = real_serialize_wire(msg);
  Count(g_ledger.wire_bytes, out.size());
  return out;
}

E2E_WRAP(serialize_wire_shared, &SerializeWireShared, std::shared_ptr<const Bytes>,
         (const WireMessage& msg)) {
  SpanScope span(e2e::kSerializeWireShared);
  std::shared_ptr<const Bytes> out = real_serialize_wire_shared(msg);
  Count(g_ledger.wire_bytes, out->size());
  return out;
}

E2E_WRAP(parse_wire_shared, &ParseWireShared, std::shared_ptr<const WireMessage>,
         (const Bytes& data)) {
  SpanScope span(e2e::kParseWireShared);
  return real_parse_wire_shared(data);
}

// --- framing ---------------------------------------------------------------

E2E_WRAP(encode_frame, &net::EncodeFrame, Bytes, (const Bytes& payload)) {
  SpanScope span(e2e::kEncodeFrame);
  return real_encode_frame(payload);
}

E2E_WRAP(frame_feed,
         static_cast<bool (net::FrameDecoder::*)(const uint8_t*, size_t)>(
             &net::FrameDecoder::Feed),
         bool, (net::FrameDecoder* self, const uint8_t* data, size_t len)) {
  SpanScope span(e2e::kFrameFeed);
  return real_frame_feed(self, data, len);
}

E2E_WRAP(frame_next, &net::FrameDecoder::Next, std::optional<Bytes>,
         (net::FrameDecoder* self)) {
  SpanScope span(e2e::kFrameNext);
  return real_frame_next(self);
}

// --- event_loop and sys ----------------------------------------------------
// errno is the caller's result channel here; the span's clock read must not
// disturb it.

E2E_WRAP(epoll_wait, &::epoll_wait, int,
         (int epfd, epoll_event* events, int max_events, int timeout_ms)) {
  int rc;
  int saved;
  {
    SpanScope span(e2e::kEpollWait);
    rc = real_epoll_wait(epfd, events, max_events, timeout_ms);
    saved = errno;
  }
  errno = saved;
  return rc;
}

E2E_WRAP(read, &::read, ssize_t, (int fd, void* buf, size_t len)) {
  ssize_t rc;
  int saved;
  {
    SpanScope span(e2e::kRead);
    rc = real_read(fd, buf, len);
    saved = errno;
  }
  errno = saved;
  return rc;
}

E2E_WRAP(send, &::send, ssize_t, (int fd, const void* buf, size_t len, int flags)) {
  ssize_t rc;
  int saved;
  {
    SpanScope span(e2e::kSend);
    rc = real_send(fd, buf, len, flags);
    saved = errno;
  }
  if (rc > 0) {
    Count(g_ledger.sys_bytes_sent, static_cast<uint64_t>(rc));
  } else if (rc < 0 && (saved == EAGAIN || saved == EWOULDBLOCK)) {
    Count(g_ledger.send_eagain, 1);
  }
  errno = saved;
  return rc;
}

// --- key_shuffle -----------------------------------------------------------

E2E_WRAP(key_shuffle_mix_step, &KeyShuffleMixStep, MixStep,
         (const GroupDef& def, size_t server, const BigInt& priv,
          const CiphertextMatrix& inputs, SecureRng& rng)) {
  SpanScope span(e2e::kKeyShuffleMixStep);
  return real_key_shuffle_mix_step(def, server, priv, inputs, rng);
}

E2E_WRAP(verify_mix_step, &VerifyMixStep, bool,
         (const GroupDef& def, size_t server, const CiphertextMatrix& inputs,
          const MixStep& step)) {
  SpanScope span(e2e::kVerifyMixStep);
  return real_verify_mix_step(def, server, inputs, step);
}

E2E_WRAP(verify_shuffle_cascade, &VerifyShuffleCascade, bool,
         (const GroupDef& def, const CiphertextMatrix& submissions,
          const ShuffleCascadeResult& result)) {
  SpanScope span(e2e::kVerifyShuffleCascade);
  return real_verify_shuffle_cascade(def, submissions, result);
}
