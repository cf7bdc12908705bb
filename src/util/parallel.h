// PadExpander-style fork/join parallelism for the public-key proof stack.
//
// The shuffle cascade's unit of work is an independent row (re-encryption,
// DLEQ proof, ILMPP commitment) or an independent mix step; like the DC-net
// pad plane (core/dcnet.cc), workers are plain std::threads spawned per call
// with the first chunk running on the calling thread. Results must be
// deterministic: callers draw all randomness serially up front, workers only
// perform pure modular arithmetic, so the output is bit-identical for any
// thread count (including 1).
//
// Nested calls run inline on the calling thread — a ParallelFor inside a
// worker never over-subscribes (e.g. a MultiExp partition inside a
// parallel-across-steps cascade verification).
#ifndef DISSENT_UTIL_PARALLEL_H_
#define DISSENT_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace dissent {

// Worker budget for crypto hot paths: hardware_concurrency capped at 8
// (matching DissentServer's pad-aggregation cap).
size_t DefaultCryptoThreads();

// Invokes fn(begin, end) over a partition of [0, n) across up to
// num_threads workers (contiguous chunks, one per worker). fn must be safe
// to call concurrently on disjoint ranges. num_threads <= 1, n <= 1, or a
// nested call degenerate to a single inline fn(0, n).
void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t, size_t)>& fn);

}  // namespace dissent

#endif  // DISSENT_UTIL_PARALLEL_H_
