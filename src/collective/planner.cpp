#include "collective/planner.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

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

/// Computes max_peers_per_step and max_distinct_peers from the transfers
/// in time linear in their count. Each transfer gives two (step, peer)
/// entries, one per endpoint; the planners emit transfers in step order, so
/// a counting sort by rank lists every rank's entries grouped by step, and
/// per-peer stamps count each distinct peer once per (rank, step) group and
/// once per rank.
void finalize(CollectiveSchedule& s) {
  const auto n_ranks = static_cast<std::size_t>(s.n_ranks);
  const std::vector<Transfer>& transfers = s.transfers;
  auto index = [](int i) { return static_cast<std::size_t>(i); };

  struct Entry {
    int step;
    int peer;
  };
  std::vector<int> rank_begin(n_ranks + 1, 0);
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const Transfer& t = transfers[i];
    ensure(i == 0 || transfers[i - 1].step <= t.step,
           "planner transfers must ascend by step");
    ++rank_begin[index(t.src) + 1];
    ++rank_begin[index(t.dst) + 1];
  }
  std::partial_sum(rank_begin.begin(), rank_begin.end(), rank_begin.begin());
  std::vector<Entry> entries(2 * transfers.size());
  {
    std::vector<int> cursor(rank_begin.begin(), rank_begin.end() - 1);
    for (const Transfer& t : transfers) {
      entries[index(cursor[index(t.src)]++)] = Entry{t.step, t.dst};
      entries[index(cursor[index(t.dst)]++)] = Entry{t.step, t.src};
    }
  }

  // seen_rank[p]: the rank that last counted peer p; seen_group[p]: the
  // (rank, step) group that last counted it.
  std::vector<int> seen_rank(n_ranks, -1);
  std::vector<int> seen_group(n_ranks, -1);
  int group = -1;
  int max_step_peers = 0;
  int max_distinct = 0;
  for (std::size_t r = 0; r < n_ranks; ++r) {
    int step = -1;
    int step_peers = 0;
    int distinct = 0;
    for (int e = rank_begin[r]; e < rank_begin[r + 1]; ++e) {
      const Entry& entry = entries[index(e)];
      const auto peer = index(entry.peer);
      if (entry.step != step) {
        step = entry.step;
        step_peers = 0;
        ++group;
      }
      if (seen_group[peer] != group) {
        seen_group[peer] = group;
        max_step_peers = std::max(max_step_peers, ++step_peers);
      }
      if (seen_rank[peer] != static_cast<int>(r)) {
        seen_rank[peer] = static_cast<int>(r);
        max_distinct = std::max(max_distinct, ++distinct);
      }
    }
  }
  s.max_peers_per_step = max_step_peers;
  s.max_distinct_peers = max_distinct;
}

CollectiveSchedule make(CollectiveType type, Algorithm algo, int n,
                        Bytes payload, int n_steps, int n_chunks) {
  CollectiveSchedule s;
  s.type = type;
  s.algo = algo;
  s.n_ranks = n;
  s.payload_bytes = payload;
  s.n_steps = n_steps;
  s.n_chunks = n_chunks;
  return s;
}

Bytes chunk_bytes(Bytes payload, int n) {
  // Ceil-divide so rounding never makes a schedule claim less traffic than
  // the payload requires.
  return (payload + n - 1) / n;
}

// ---- Ring family ---------------------------------------------------------

CollectiveSchedule ring_reduce_scatter(int n, Bytes payload) {
  auto s = make(CollectiveType::kReduceScatter, Algorithm::kRing, n, payload,
                n - 1, n);
  s.transfers.reserve(static_cast<std::size_t>(n) * (n - 1));
  const Bytes cb = chunk_bytes(payload, n);
  for (int step = 0; step < n - 1; ++step) {
    for (int r = 0; r < n; ++r) {
      const int chunk = ((r - step) % n + n) % n;
      s.transfers.push_back(
          Transfer{step, r, (r + 1) % n, cb, chunk, chunk + 1, true});
    }
  }
  finalize(s);
  return s;
}

CollectiveSchedule ring_all_gather(int n, Bytes payload) {
  auto s = make(CollectiveType::kAllGather, Algorithm::kRing, n, payload,
                n - 1, n);
  s.transfers.reserve(static_cast<std::size_t>(n) * (n - 1));
  const Bytes cb = chunk_bytes(payload, n);
  for (int step = 0; step < n - 1; ++step) {
    for (int r = 0; r < n; ++r) {
      const int chunk = ((r - step) % n + n) % n;
      s.transfers.push_back(
          Transfer{step, r, (r + 1) % n, cb, chunk, chunk + 1, false});
    }
  }
  finalize(s);
  return s;
}

CollectiveSchedule ring_all_reduce(int n, Bytes payload) {
  auto s = make(CollectiveType::kAllReduce, Algorithm::kRing, n, payload,
                2 * (n - 1), n);
  s.transfers.reserve(static_cast<std::size_t>(n) * 2 * (n - 1));
  const Bytes cb = chunk_bytes(payload, n);
  // Phase 1: reduce-scatter. After it, rank r owns chunk (r+1)%n complete.
  for (int step = 0; step < n - 1; ++step) {
    for (int r = 0; r < n; ++r) {
      const int chunk = ((r - step) % n + n) % n;
      s.transfers.push_back(
          Transfer{step, r, (r + 1) % n, cb, chunk, chunk + 1, true});
    }
  }
  // Phase 2: all-gather of the reduced chunks.
  for (int t = 0; t < n - 1; ++t) {
    const int step = n - 1 + t;
    for (int r = 0; r < n; ++r) {
      const int chunk = ((r + 1 - t) % n + n) % n;
      s.transfers.push_back(
          Transfer{step, r, (r + 1) % n, cb, chunk, chunk + 1, false});
    }
  }
  finalize(s);
  return s;
}

/// Pipeline broadcast/reduce along the ring (full payload hops rank to rank).
CollectiveSchedule ring_broadcast(int n, Bytes payload) {
  auto s = make(CollectiveType::kBroadcast, Algorithm::kRing, n, payload,
                n - 1, 1);
  for (int step = 0; step < n - 1; ++step) {
    s.transfers.push_back(Transfer{step, step, step + 1, payload, 0, 1, false});
  }
  finalize(s);
  return s;
}

CollectiveSchedule ring_reduce(int n, Bytes payload) {
  // Contributions accumulate toward rank 0: n-1 -> n-2 -> ... -> 0.
  auto s =
      make(CollectiveType::kReduce, Algorithm::kRing, n, payload, n - 1, 1);
  for (int step = 0; step < n - 1; ++step) {
    const int src = n - 1 - step;
    s.transfers.push_back(Transfer{step, src, src - 1, payload, 0, 1, true});
  }
  finalize(s);
  return s;
}

CollectiveSchedule ring_barrier(int n) {
  // Two token passes around the ring: 2(n-1) zero-byte hops.
  auto s = make(CollectiveType::kBarrier, Algorithm::kRing, n, 0,
                2 * (n - 1), 0);
  for (int step = 0; step < 2 * (n - 1); ++step) {
    const int src = step % n;
    s.transfers.push_back(Transfer{step, src, (src + 1) % n, 0, -1, -1, false});
  }
  finalize(s);
  return s;
}

// ---- Logarithmic family ---------------------------------------------------

CollectiveSchedule recursive_doubling_all_gather(int n, Bytes payload) {
  ensure(is_power_of_two(n), "recursive doubling requires power-of-two ranks");
  const int steps = ceil_log2(n);
  auto s = make(CollectiveType::kAllGather, Algorithm::kRecursiveDoubling, n,
                payload, steps, n);
  const Bytes cb = chunk_bytes(payload, n);
  for (int step = 0; step < steps; ++step) {
    const int block = 1 << step;
    for (int r = 0; r < n; ++r) {
      const int partner = r ^ block;
      const int lo = r & ~(block - 1);
      s.transfers.push_back(Transfer{step, r, partner, cb * block, lo,
                                     lo + block, false});
    }
  }
  finalize(s);
  return s;
}

CollectiveSchedule recursive_halving_doubling_all_reduce(int n,
                                                         Bytes payload) {
  ensure(is_power_of_two(n),
         "recursive halving-doubling requires power-of-two ranks");
  const int logn = ceil_log2(n);
  auto s = make(CollectiveType::kAllReduce,
                Algorithm::kRecursiveHalvingDoubling, n, payload, 2 * logn, n);
  const Bytes cb = chunk_bytes(payload, n);
  // Reduce-scatter by recursive halving. Track each rank's active block.
  std::vector<int> lo(static_cast<std::size_t>(n), 0);
  std::vector<int> size(static_cast<std::size_t>(n), n);
  for (int step = 0; step < logn; ++step) {
    const int d = n >> (step + 1);
    std::vector<int> nlo = lo;
    std::vector<int> nsize = size;
    for (int r = 0; r < n; ++r) {
      const int partner = r ^ d;
      const auto ri = static_cast<std::size_t>(r);
      const int half = size[ri] / 2;
      int send_lo;
      if ((r & d) != 0) {
        // Keep the upper half of the active block, send the lower half.
        send_lo = lo[ri];
        nlo[ri] = lo[ri] + half;
      } else {
        send_lo = lo[ri] + half;
        nlo[ri] = lo[ri];
      }
      nsize[ri] = half;
      s.transfers.push_back(Transfer{step, r, partner, cb * half, send_lo,
                                     send_lo + half, true});
    }
    lo = nlo;
    size = nsize;
  }
  // All-gather by recursive doubling (mirror order).
  for (int step = 0; step < logn; ++step) {
    const int d = 1 << step;
    for (int r = 0; r < n; ++r) {
      const int partner = r ^ d;
      const auto ri = static_cast<std::size_t>(r);
      s.transfers.push_back(Transfer{logn + step, r, partner,
                                     cb * size[ri], lo[ri], lo[ri] + size[ri],
                                     false});
      // Blocks merge pairwise; both ranks end the step with the union.
    }
    for (int r = 0; r < n; ++r) {
      // The union of a block with its partner's block is the enclosing
      // aligned block of twice the size.
      const auto ri = static_cast<std::size_t>(r);
      lo[ri] = lo[ri] / (size[ri] * 2) * (size[ri] * 2);
      size[ri] *= 2;
    }
  }
  finalize(s);
  return s;
}

CollectiveSchedule dissemination_barrier(int n) {
  const int steps = ceil_log2(n);
  auto s = make(CollectiveType::kBarrier, Algorithm::kRecursiveDoubling, n, 0,
                std::max(steps, 1), 0);
  if (n == 1) {
    finalize(s);
    return s;
  }
  for (int step = 0; step < steps; ++step) {
    const int d = 1 << step;
    for (int r = 0; r < n; ++r) {
      s.transfers.push_back(
          Transfer{step, r, (r + d) % n, 0, -1, -1, false});
    }
  }
  finalize(s);
  return s;
}

CollectiveSchedule binomial_tree_broadcast(int n, Bytes payload) {
  const int steps = ceil_log2(n);
  auto s = make(CollectiveType::kBroadcast, Algorithm::kBinomialTree, n,
                payload, std::max(steps, 1), 1);
  for (int step = 0; step < steps; ++step) {
    const int d = 1 << step;
    for (int r = 0; r < d; ++r) {
      if (r + d < n) {
        s.transfers.push_back(
            Transfer{step, r, r + d, payload, 0, 1, false});
      }
    }
  }
  finalize(s);
  return s;
}

CollectiveSchedule binomial_tree_reduce(int n, Bytes payload) {
  const int steps = ceil_log2(n);
  auto s = make(CollectiveType::kReduce, Algorithm::kBinomialTree, n, payload,
                std::max(steps, 1), 1);
  for (int step = 0; step < steps; ++step) {
    const int d = 1 << (steps - 1 - step);
    for (int r = 0; r < d; ++r) {
      if (r + d < n) {
        s.transfers.push_back(
            Transfer{step, r + d, r, payload, 0, 1, true});
      }
    }
  }
  finalize(s);
  return s;
}

CollectiveSchedule binomial_tree_all_reduce(int n, Bytes payload) {
  // Reduce to rank 0, then broadcast from rank 0.
  auto reduce = binomial_tree_reduce(n, payload);
  auto bcast = binomial_tree_broadcast(n, payload);
  auto s = make(CollectiveType::kAllReduce, Algorithm::kBinomialTree, n,
                payload, reduce.n_steps + bcast.n_steps, 1);
  s.transfers = reduce.transfers;
  for (Transfer t : bcast.transfers) {
    t.step += reduce.n_steps;
    s.transfers.push_back(t);
  }
  finalize(s);
  return s;
}

// ---- AllToAll -------------------------------------------------------------

CollectiveSchedule pairwise_all_to_all(int n, Bytes payload) {
  auto s = make(CollectiveType::kAllToAll, Algorithm::kPairwise, n, payload,
                n - 1, 0);
  const Bytes slice = chunk_bytes(payload, n);
  for (int step = 0; step < n - 1; ++step) {
    for (int r = 0; r < n; ++r) {
      s.transfers.push_back(
          Transfer{step, r, (r + step + 1) % n, slice, -1, -1, false});
    }
  }
  finalize(s);
  return s;
}

CollectiveSchedule direct_all_to_all(int n, Bytes payload) {
  auto s = make(CollectiveType::kAllToAll, Algorithm::kDirect, n, payload, 1,
                0);
  const Bytes slice = chunk_bytes(payload, n);
  for (int r = 0; r < n; ++r) {
    for (int d = 0; d < n; ++d) {
      if (d == r) continue;
      s.transfers.push_back(Transfer{0, r, d, slice, -1, -1, false});
    }
  }
  finalize(s);
  return s;
}

CollectiveSchedule direct_all_gather(int n, Bytes payload) {
  auto s =
      make(CollectiveType::kAllGather, Algorithm::kDirect, n, payload, 1, n);
  const Bytes cb = chunk_bytes(payload, n);
  for (int r = 0; r < n; ++r) {
    for (int d = 0; d < n; ++d) {
      if (d == r) continue;
      s.transfers.push_back(Transfer{0, r, d, cb, r, r + 1, false});
    }
  }
  finalize(s);
  return s;
}

CollectiveSchedule direct_broadcast(int n, Bytes payload) {
  auto s =
      make(CollectiveType::kBroadcast, Algorithm::kDirect, n, payload, 1, 1);
  for (int d = 1; d < n; ++d) {
    s.transfers.push_back(Transfer{0, 0, d, payload, 0, 1, false});
  }
  finalize(s);
  return s;
}

CollectiveSchedule direct_reduce(int n, Bytes payload) {
  auto s = make(CollectiveType::kReduce, Algorithm::kDirect, n, payload, 1, 1);
  for (int r = 1; r < n; ++r) {
    s.transfers.push_back(Transfer{0, r, 0, payload, 0, 1, true});
  }
  finalize(s);
  return s;
}

CollectiveSchedule send_recv(Bytes payload) {
  auto s = make(CollectiveType::kSendRecv, Algorithm::kDirect, 2, payload, 1,
                1);
  s.transfers.push_back(Transfer{0, 0, 1, payload, 0, 1, false});
  finalize(s);
  return s;
}

CollectiveSchedule empty_schedule(CollectiveType type, Algorithm algo,
                                  Bytes payload) {
  auto s = make(type, algo, 1, payload, 0, 1);
  finalize(s);
  return s;
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

CollectiveSchedule plan_collective(CollectiveType type, Algorithm algo,
                                   int n_ranks, Bytes payload_bytes) {
  ensure(n_ranks >= 1, "collective requires at least one rank");
  ensure(payload_bytes >= 0, "payload must be non-negative");
  ensure(algorithm_supports(type, algo, n_ranks),
         std::string("algorithm ") + to_string(algo) + " cannot implement " +
             to_string(type) + " on " + std::to_string(n_ranks) + " ranks");
  if (n_ranks == 1) return empty_schedule(type, algo, payload_bytes);

  switch (type) {
    case CollectiveType::kAllReduce:
      if (algo == Algorithm::kRing) return ring_all_reduce(n_ranks, payload_bytes);
      if (algo == Algorithm::kBinomialTree)
        return binomial_tree_all_reduce(n_ranks, payload_bytes);
      return recursive_halving_doubling_all_reduce(n_ranks, payload_bytes);
    case CollectiveType::kAllGather:
      if (algo == Algorithm::kRing) return ring_all_gather(n_ranks, payload_bytes);
      if (algo == Algorithm::kDirect)
        return direct_all_gather(n_ranks, payload_bytes);
      return recursive_doubling_all_gather(n_ranks, payload_bytes);
    case CollectiveType::kReduceScatter:
      return ring_reduce_scatter(n_ranks, payload_bytes);
    case CollectiveType::kAllToAll:
      return algo == Algorithm::kPairwise
                 ? pairwise_all_to_all(n_ranks, payload_bytes)
                 : direct_all_to_all(n_ranks, payload_bytes);
    case CollectiveType::kBroadcast:
      if (algo == Algorithm::kRing) return ring_broadcast(n_ranks, payload_bytes);
      if (algo == Algorithm::kBinomialTree)
        return binomial_tree_broadcast(n_ranks, payload_bytes);
      return direct_broadcast(n_ranks, payload_bytes);
    case CollectiveType::kReduce:
      if (algo == Algorithm::kRing) return ring_reduce(n_ranks, payload_bytes);
      if (algo == Algorithm::kBinomialTree)
        return binomial_tree_reduce(n_ranks, payload_bytes);
      return direct_reduce(n_ranks, payload_bytes);
    case CollectiveType::kSendRecv:
      return send_recv(payload_bytes);
    case CollectiveType::kBarrier:
      return algo == Algorithm::kRing ? ring_barrier(n_ranks)
                                      : dissemination_barrier(n_ranks);
  }
  ensure(false, "plan_collective: unhandled collective type");
  return {};
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

int static_circuit_ports_needed(const CollectiveSchedule& sched) {
  return sched.max_distinct_peers;
}

}  // namespace opus::collective
