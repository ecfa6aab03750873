#include "collective/planner.h"

#include <algorithm>
#include <string>

#include "common/error.h"

namespace opus::collective {
namespace {

bool is_power_of_two(int n) { return n > 0 && (n & (n - 1)) == 0; }

int ceil_log2(int n) {
  int bits = 0;
  int v = 1;
  while (v < n) {
    v <<= 1;
    ++bits;
  }
  return bits;
}

std::size_t count(int a, int b = 1) {
  return static_cast<std::size_t>(a) * static_cast<std::size_t>(b);
}

// Every planner below runs on n >= 2 ranks (plan_shape answers one rank
// itself). It announces its shape to `out`, then emits its transfers in
// ascending step order.

// ---- Ring family ---------------------------------------------------------

/// n-1 steps from `first_step` in which every rank r passes one chunk to
/// r+1: chunk (r + shift - t) mod n at step first_step + t.
void ring_pass(int n, int first_step, int shift, bool reduce_op,
               ShapeSink& out) {
  for (int t = 0; t < n - 1; ++t) {
    for (int r = 0; r < n; ++r) {
      const int chunk = ((r + shift - t) % n + n) % n;
      out.transfer(first_step + t, r, (r + 1) % n, chunk, chunk + 1,
                   reduce_op);
    }
  }
}

void ring_reduce_scatter(int n, ShapeSink& out) {
  out.begin(n - 1, n, count(n, n - 1));
  ring_pass(n, 0, 0, true, out);
}

void ring_all_gather(int n, ShapeSink& out) {
  out.begin(n - 1, n, count(n, n - 1));
  ring_pass(n, 0, 0, false, out);
}

void ring_all_reduce(int n, ShapeSink& out) {
  out.begin(2 * (n - 1), n, count(n, 2 * (n - 1)));
  // Phase 1: reduce-scatter. After it, rank r owns chunk (r+1)%n complete.
  ring_pass(n, 0, 0, true, out);
  // Phase 2: all-gather of the reduced chunks.
  ring_pass(n, n - 1, 1, false, out);
}

/// Pipeline broadcast/reduce along the ring (full payload hops rank to rank).
void ring_broadcast(int n, ShapeSink& out) {
  out.begin(n - 1, 1, count(n - 1));
  for (int step = 0; step < n - 1; ++step) {
    out.transfer(step, step, step + 1, 0, 1, false);
  }
}

void ring_reduce(int n, ShapeSink& out) {
  // Contributions accumulate toward rank 0: n-1 -> n-2 -> ... -> 0.
  out.begin(n - 1, 1, count(n - 1));
  for (int step = 0; step < n - 1; ++step) {
    const int src = n - 1 - step;
    out.transfer(step, src, src - 1, 0, 1, true);
  }
}

void ring_barrier(int n, ShapeSink& out) {
  // Two token passes around the ring: 2(n-1) zero-byte hops.
  out.begin(2 * (n - 1), 0, count(2 * (n - 1)));
  for (int step = 0; step < 2 * (n - 1); ++step) {
    const int src = step % n;
    out.transfer(step, src, (src + 1) % n, -1, -1, false);
  }
}

// ---- Logarithmic family ---------------------------------------------------

/// log2(n) steps from `first_step` of recursive doubling on a power-of-two
/// group whose rank r starts owning chunk r: at the step with distance d,
/// each rank swaps its aligned block of d chunks with rank r ^ d.
void recursive_doubling(int n, int first_step, ShapeSink& out) {
  for (int step = 0, d = 1; d < n; ++step, d <<= 1) {
    for (int r = 0; r < n; ++r) {
      const int lo = r & ~(d - 1);
      out.transfer(first_step + step, r, r ^ d, lo, lo + d, false);
    }
  }
}

void recursive_doubling_all_gather(int n, ShapeSink& out) {
  const int steps = ceil_log2(n);
  out.begin(steps, n, count(n, steps));
  recursive_doubling(n, 0, out);
}

void recursive_halving_doubling_all_reduce(int n, ShapeSink& out) {
  const int logn = ceil_log2(n);
  out.begin(2 * logn, n, count(n, 2 * logn));
  // Reduce-scatter by recursive halving: at the step with distance d, rank
  // r's active block is its aligned block of 2d chunks; it keeps the half
  // holding chunk r and sends the other half to r ^ d. It ends owning
  // chunk r, which the all-gather then doubles back.
  for (int step = 0, d = n / 2; d >= 1; ++step, d /= 2) {
    for (int r = 0; r < n; ++r) {
      const int lo = r & ~(2 * d - 1);
      const int send_lo = (r & d) != 0 ? lo : lo + d;
      out.transfer(step, r, r ^ d, send_lo, send_lo + d, true);
    }
  }
  recursive_doubling(n, logn, out);
}

void dissemination_barrier(int n, ShapeSink& out) {
  const int steps = ceil_log2(n);
  out.begin(steps, 0, count(n, steps));
  for (int step = 0; step < steps; ++step) {
    const int d = 1 << step;
    for (int r = 0; r < n; ++r) {
      out.transfer(step, r, (r + d) % n, -1, -1, false);
    }
  }
}

/// Binomial-tree broadcast from rank 0 over ceil_log2(n) steps from
/// `first_step`: at the step with distance d, ranks below d send to r + d.
void tree_broadcast(int n, int first_step, ShapeSink& out) {
  for (int step = 0, d = 1; d < n; ++step, d <<= 1) {
    for (int r = 0; r < d && r + d < n; ++r) {
      out.transfer(first_step + step, r, r + d, 0, 1, false);
    }
  }
}

/// The mirror image: a binomial-tree reduce to rank 0 from step 0.
void tree_reduce(int n, ShapeSink& out) {
  const int steps = ceil_log2(n);
  for (int step = 0; step < steps; ++step) {
    const int d = 1 << (steps - 1 - step);
    for (int r = 0; r < d && r + d < n; ++r) {
      out.transfer(step, r + d, r, 0, 1, true);
    }
  }
}

void binomial_tree_broadcast(int n, ShapeSink& out) {
  out.begin(ceil_log2(n), 1, count(n - 1));
  tree_broadcast(n, 0, out);
}

void binomial_tree_reduce(int n, ShapeSink& out) {
  out.begin(ceil_log2(n), 1, count(n - 1));
  tree_reduce(n, out);
}

void binomial_tree_all_reduce(int n, ShapeSink& out) {
  // Reduce to rank 0, then broadcast from rank 0.
  const int steps = ceil_log2(n);
  out.begin(2 * steps, 1, count(n - 1, 2));
  tree_reduce(n, out);
  tree_broadcast(n, steps, out);
}

// ---- AllToAll -------------------------------------------------------------

void pairwise_all_to_all(int n, ShapeSink& out) {
  out.begin(n - 1, 0, count(n, n - 1));
  for (int step = 0; step < n - 1; ++step) {
    for (int r = 0; r < n; ++r) {
      out.transfer(step, r, (r + step + 1) % n, -1, -1, false);
    }
  }
}

// ---- Direct (single-step fan-out) -----------------------------------------

void direct_all_to_all(int n, ShapeSink& out) {
  out.begin(1, 0, count(n, n - 1));
  for (int r = 0; r < n; ++r) {
    for (int d = 0; d < n; ++d) {
      if (d != r) out.transfer(0, r, d, -1, -1, false);
    }
  }
}

void direct_all_gather(int n, ShapeSink& out) {
  out.begin(1, n, count(n, n - 1));
  for (int r = 0; r < n; ++r) {
    for (int d = 0; d < n; ++d) {
      if (d != r) out.transfer(0, r, d, r, r + 1, false);
    }
  }
}

void direct_broadcast(int n, ShapeSink& out) {
  out.begin(1, 1, count(n - 1));
  for (int d = 1; d < n; ++d) out.transfer(0, 0, d, 0, 1, false);
}

void direct_reduce(int n, ShapeSink& out) {
  out.begin(1, 1, count(n - 1));
  for (int r = 1; r < n; ++r) out.transfer(0, r, 0, 0, 1, true);
}

void send_recv(ShapeSink& out) {
  out.begin(1, 1, 1);
  out.transfer(0, 0, 1, 0, 1, false);
}

}  // namespace

bool algorithm_supports(CollectiveType type, Algorithm algo, int n_ranks) {
  if (n_ranks < 1) return false;
  if (n_ranks == 1) return type != CollectiveType::kSendRecv;
  const bool pow2 = is_power_of_two(n_ranks);
  switch (type) {
    case CollectiveType::kAllReduce:
      return algo == Algorithm::kRing || algo == Algorithm::kBinomialTree ||
             (algo == Algorithm::kRecursiveHalvingDoubling && pow2);
    case CollectiveType::kAllGather:
      return algo == Algorithm::kRing || algo == Algorithm::kDirect ||
             (algo == Algorithm::kRecursiveDoubling && pow2);
    case CollectiveType::kReduceScatter:
      return algo == Algorithm::kRing;
    case CollectiveType::kAllToAll:
      return algo == Algorithm::kPairwise || algo == Algorithm::kDirect;
    case CollectiveType::kBroadcast:
      return algo == Algorithm::kRing || algo == Algorithm::kBinomialTree ||
             algo == Algorithm::kDirect;
    case CollectiveType::kReduce:
      return algo == Algorithm::kRing || algo == Algorithm::kBinomialTree ||
             algo == Algorithm::kDirect;
    case CollectiveType::kSendRecv:
      return n_ranks == 2 && algo == Algorithm::kDirect;
    case CollectiveType::kBarrier:
      return algo == Algorithm::kRing || algo == Algorithm::kRecursiveDoubling;
  }
  return false;
}

void plan_shape(CollectiveType type, Algorithm algo, int n_ranks,
                ShapeSink& out) {
  ensure(n_ranks >= 1, "collective requires at least one rank");
  ensure(algorithm_supports(type, algo, n_ranks),
         std::string("algorithm ") + to_string(algo) + " cannot implement " +
             to_string(type) + " on " + std::to_string(n_ranks) + " ranks");
  const int n = n_ranks;
  if (n == 1) {
    out.begin(0, 1, 0);  // nothing moves
    return;
  }
  switch (type) {
    case CollectiveType::kAllReduce:
      if (algo == Algorithm::kRing) return ring_all_reduce(n, out);
      if (algo == Algorithm::kBinomialTree)
        return binomial_tree_all_reduce(n, out);
      return recursive_halving_doubling_all_reduce(n, out);
    case CollectiveType::kAllGather:
      if (algo == Algorithm::kRing) return ring_all_gather(n, out);
      if (algo == Algorithm::kDirect) return direct_all_gather(n, out);
      return recursive_doubling_all_gather(n, out);
    case CollectiveType::kReduceScatter:
      return ring_reduce_scatter(n, out);
    case CollectiveType::kAllToAll:
      return algo == Algorithm::kPairwise ? pairwise_all_to_all(n, out)
                                          : direct_all_to_all(n, out);
    case CollectiveType::kBroadcast:
      if (algo == Algorithm::kRing) return ring_broadcast(n, out);
      if (algo == Algorithm::kBinomialTree)
        return binomial_tree_broadcast(n, out);
      return direct_broadcast(n, out);
    case CollectiveType::kReduce:
      if (algo == Algorithm::kRing) return ring_reduce(n, out);
      if (algo == Algorithm::kBinomialTree) return binomial_tree_reduce(n, out);
      return direct_reduce(n, out);
    case CollectiveType::kSendRecv:
      return send_recv(out);
    case CollectiveType::kBarrier:
      return algo == Algorithm::kRing ? ring_barrier(n, out)
                                      : dissemination_barrier(n, out);
  }
  ensure(false, "plan_shape: unhandled collective type");
}

Bytes unit_divisor(CollectiveType type, int n_ranks, int n_chunks) {
  return type == CollectiveType::kAllToAll ? n_ranks
         : n_chunks > 0                    ? n_chunks
                                           : 1;
}

int transfer_units(CollectiveType type, int chunk_lo, int chunk_hi) {
  return chunk_lo >= 0                         ? chunk_hi - chunk_lo
         : type == CollectiveType::kAllToAll ? 1
                                             : 0;
}

Algorithm choose_algorithm(CollectiveType type, int n_ranks,
                           Bytes payload_bytes, int max_degree) {
  const bool unconstrained = max_degree <= 0;
  const bool pow2 = is_power_of_two(n_ranks);
  const int logn = ceil_log2(std::max(n_ranks, 1));
  // NCCL-style latency/bandwidth crossover: small payloads prefer
  // logarithmic-step algorithms when the fabric's degree allows them (C1).
  const bool small = payload_bytes <= static_cast<Bytes>(1) * kMiB;
  const bool log_algos_fit = unconstrained || max_degree >= logn;

  switch (type) {
    case CollectiveType::kAllReduce:
      if (small && log_algos_fit) {
        return pow2 ? Algorithm::kRecursiveHalvingDoubling
                    : Algorithm::kBinomialTree;
      }
      return Algorithm::kRing;
    case CollectiveType::kAllGather:
      if (small && log_algos_fit && pow2) return Algorithm::kRecursiveDoubling;
      return Algorithm::kRing;
    case CollectiveType::kReduceScatter:
      return Algorithm::kRing;
    case CollectiveType::kAllToAll:
      return unconstrained ? Algorithm::kDirect : Algorithm::kPairwise;
    case CollectiveType::kBroadcast:
    case CollectiveType::kReduce:
      return log_algos_fit ? Algorithm::kBinomialTree : Algorithm::kRing;
    case CollectiveType::kSendRecv:
      return Algorithm::kDirect;
    case CollectiveType::kBarrier:
      return log_algos_fit ? Algorithm::kRecursiveDoubling : Algorithm::kRing;
  }
  return Algorithm::kRing;
}

}  // namespace opus::collective
