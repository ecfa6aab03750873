// Collective schedule planners: one function per (type, algorithm) pair, plus
// an NCCL-style automatic algorithm chooser that honours the physical degree
// constraint of circuit-switched fabrics (constraint C1).
//
// A planner emits a byte-free shape: which ranks send which chunks at which
// step. Bytes come from one pricing rule, so a shape is planned once and
// priced at any payload.
#pragma once

#include <cstddef>

#include "collective/schedule.h"
#include "common/units.h"

namespace opus::collective {

/// Receives a planned shape: begin() once, then every transfer in ascending
/// step order. compile() collects UnitTransfers from it (compiled.h); the
/// ShapeVerifier checks the collective's postcondition (verifier.h).
class ShapeSink {
 public:
  /// `n_chunks` is the verifier's chunk space; `n_transfers` is the exact
  /// number of transfer() calls that follow.
  virtual void begin(int n_steps, int n_chunks, std::size_t n_transfers) = 0;
  /// One transfer moving chunks [chunk_lo, chunk_hi) of the chunk space
  /// (-1, -1: untracked, e.g. an AllToAll slice or a Barrier token).
  virtual void transfer(int step, int src, int dst, int chunk_lo, int chunk_hi,
                        bool reduce_op) = 0;

 protected:
  ~ShapeSink() = default;
};

/// Plans the shape of a collective of `type` over `n_ranks` using `algo`
/// into `sink`. Throws InvariantError for invalid combinations (e.g.
/// recursive doubling on a non-power-of-two group).
void plan_shape(CollectiveType type, Algorithm algo, int n_ranks,
                ShapeSink& sink);

/// The pricing rule. Of a P-byte payload, a transfer of u units carries
/// u x unit_bytes(P, d), where d = unit_divisor(type, n_ranks, n_chunks):
///  - AllReduce:      P is the per-rank buffer size (each rank contributes
///                    and receives P); ring and recursive schedules move
///                    chunks of ceil(P/n), the binomial tree the whole P.
///  - AllGather:      P is the total gathered size; each rank contributes
///                    a chunk of ceil(P/n) and ends with the full payload.
///  - ReduceScatter:  P is the per-rank input size; each rank ends with a
///                    chunk of ceil(P/n).
///  - AllToAll:       P is the per-rank send total; each rank sends a slice
///                    of ceil(P/n) to every other rank.
///  - Broadcast/Reduce: P is the buffer size (root rank 0).
///  - SendRecv:       P bytes move from rank 0 to rank 1 of the group view.
///  - Barrier:        P is ignored (zero-byte token passing).
/// Ceil division means rounding never claims less traffic than P requires.
Bytes unit_divisor(CollectiveType type, int n_ranks, int n_chunks);
/// Units of a transfer: chunk_hi - chunk_lo when chunk-tracked, 1 for an
/// untracked AllToAll slice, 0 for any other untracked transfer (a token).
int transfer_units(CollectiveType type, int chunk_lo, int chunk_hi);
inline Bytes unit_bytes(Bytes payload, Bytes divisor) {
  return (payload + divisor - 1) / divisor;
}

/// True iff `algo` can implement `type` on `n_ranks` at all.
bool algorithm_supports(CollectiveType type, Algorithm algo, int n_ranks);

/// Chooses an algorithm like NCCL's tuner, but constrained to fabrics where
/// each rank can hold at most `max_degree` simultaneous circuits:
///  - if the latency-optimized choice (tree / recursive doubling) needs more
///    distinct peers than `max_degree`, falls back to ring (C1);
///  - small payloads prefer latency-optimized algorithms when allowed;
///  - AllToAll uses pairwise on circuit fabrics, direct otherwise.
/// `max_degree <= 0` means unconstrained (electrical rail).
Algorithm choose_algorithm(CollectiveType type, int n_ranks,
                           Bytes payload_bytes, int max_degree);

}  // namespace opus::collective
