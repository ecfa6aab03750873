#include "collective/verifier.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace opus::collective {
namespace {

VerifyReport fail(const std::string& msg) { return VerifyReport{false, msg}; }

}  // namespace

ShapeVerifier::ShapeVerifier(CollectiveType type, int n_ranks)
    : type_(type), n_(n_ranks) {
  ensure(n_ranks >= 1, "verify_shape: empty group");
  ensure(n_ranks <= 256,
         "verify_shape: model limited to 256 ranks (O(n^3) memory)");
}

void ShapeVerifier::begin(int n_steps, int n_chunks, std::size_t) {
  const bool one_chunk = type_ == CollectiveType::kAllToAll ||
                         type_ == CollectiveType::kBarrier;
  n_steps_ = n_steps;
  chunks_ = one_chunk ? 1 : n_chunks;
  ensure(chunks_ >= 1, "verify_shape: empty chunk space");
  const auto n = static_cast<std::size_t>(n_);
  state_.assign(n * static_cast<std::size_t>(chunks_) * n, 0);
  switch (type_) {
    case CollectiveType::kAllGather:  // each rank holds its own chunk
      for (int r = 0; r < n_ && r < chunks_; ++r) state_[cell(r, r, r)] = 1;
      break;
    case CollectiveType::kBroadcast:  // the root holds the data
    case CollectiveType::kSendRecv:
      state_[cell(0, 0, 0)] = 1;
      break;
    default:  // each rank holds its own input for every chunk
      for (int r = 0; r < n_; ++r)
        for (int c = 0; c < chunks_; ++c) state_[cell(r, c, r)] = 1;
  }
}

void ShapeVerifier::transfer(int step, int src, int dst, int chunk_lo,
                             int chunk_hi, bool reduce_op) {
  ensure(step >= step_, "planner transfers must ascend by step");
  ensure(step < n_steps_, "transfer step out of range");
  ensure(src >= 0 && src < n_ && dst >= 0 && dst < n_,
         "transfer rank out of range");
  if (step != step_) {
    apply_step();
    step_ = step;
  }
  pending_.push_back(Pending{src, dst, chunk_lo, chunk_hi, reduce_op});
}

void ShapeVerifier::apply_step() {
  if (pending_.empty()) return;
  before_ = state_;
  for (const Pending& t : pending_) {
    if (type_ == CollectiveType::kAllToAll) {
      ++state_[cell(t.dst, 0, t.src)];  // one slice from t.src
      continue;
    }
    if (type_ == CollectiveType::kBarrier) {  // dst observes what src had
      for (int k = 0; k < n_; ++k) {
        state_[cell(t.dst, 0, k)] =
            std::max(state_[cell(t.dst, 0, k)], before_[cell(t.src, 0, k)]);
      }
      continue;
    }
    if (t.chunk_lo < 0) continue;  // untracked transfer
    for (int raw = t.chunk_lo; raw < t.chunk_hi; ++raw) {
      const int c = ((raw % chunks_) + chunks_) % chunks_;
      for (int k = 0; k < n_; ++k) {
        const std::uint16_t incoming = before_[cell(t.src, c, k)];
        std::uint16_t& held = state_[cell(t.dst, c, k)];
        held = t.reduce_op ? static_cast<std::uint16_t>(held + incoming)
                           : incoming;
      }
    }
  }
  pending_.clear();
}

std::size_t ShapeVerifier::cell(int rank, int chunk, int origin) const {
  return (static_cast<std::size_t>(rank) * static_cast<std::size_t>(chunks_) +
          static_cast<std::size_t>(chunk)) *
             static_cast<std::size_t>(n_) +
         static_cast<std::size_t>(origin);
}

bool ShapeVerifier::complete(int rank, int chunk) const {
  for (int k = 0; k < n_; ++k)
    if (state_[cell(rank, chunk, k)] != 1) return false;
  return true;
}

bool ShapeVerifier::exactly(int rank, int chunk, int origin) const {
  for (int k = 0; k < n_; ++k)
    if (state_[cell(rank, chunk, k)] != (k == origin ? 1 : 0)) return false;
  return true;
}

VerifyReport ShapeVerifier::report() {
  ensure(chunks_ >= 1, "verify_shape: no shape was planned");
  apply_step();
  if (n_ == 1) return {};
  const int n = n_;
  const int chunks = chunks_;
  std::ostringstream err;
  switch (type_) {
    case CollectiveType::kAllReduce:
      for (int r = 0; r < n; ++r)
        for (int c = 0; c < chunks; ++c)
          if (!complete(r, c)) {
            err << "AllReduce: rank " << r << " chunk " << c
                << " is not a complete exactly-once reduction";
            return fail(err.str());
          }
      return {};
    case CollectiveType::kReduceScatter: {
      // Every chunk must be completely reduced somewhere, and every rank
      // must own at least one completely reduced chunk.
      for (int c = 0; c < chunks; ++c) {
        bool found = false;
        for (int r = 0; r < n && !found; ++r) found = complete(r, c);
        if (!found) {
          err << "ReduceScatter: chunk " << c << " never fully reduced";
          return fail(err.str());
        }
      }
      for (int r = 0; r < n; ++r) {
        bool found = false;
        for (int c = 0; c < chunks && !found; ++c) found = complete(r, c);
        if (!found) {
          err << "ReduceScatter: rank " << r << " owns no reduced chunk";
          return fail(err.str());
        }
      }
      return {};
    }
    case CollectiveType::kAllGather:
      for (int r = 0; r < n; ++r)
        for (int c = 0; c < chunks; ++c)
          if (!exactly(r, c, c)) {
            err << "AllGather: rank " << r << " chunk " << c
                << " does not hold rank " << c << "'s input";
            return fail(err.str());
          }
      return {};
    case CollectiveType::kReduce:
      for (int c = 0; c < chunks; ++c)
        if (!complete(0, c)) {
          err << "Reduce: root chunk " << c << " incomplete";
          return fail(err.str());
        }
      return {};
    case CollectiveType::kBroadcast:
      for (int r = 0; r < n; ++r)
        if (!exactly(r, 0, 0)) {
          err << "Broadcast: rank " << r << " missing root data";
          return fail(err.str());
        }
      return {};
    case CollectiveType::kSendRecv:
      if (!exactly(1, 0, 0)) {
        return fail("SendRecv: receiver missing sender data");
      }
      return {};
    case CollectiveType::kAllToAll:
      // Each rank holds its own slice and one from every other rank.
      for (int d = 0; d < n; ++d)
        for (int s = 0; s < n; ++s)
          if (state_[cell(d, 0, s)] != 1) {
            err << "AllToAll: rank " << d << " received "
                << state_[cell(d, 0, s)] - (s == d ? 1 : 0)
                << " slices from rank " << s << " (expected "
                << (s == d ? 0 : 1) << ")";
            return fail(err.str());
          }
      return {};
    case CollectiveType::kBarrier:
      for (int r = 0; r < n; ++r)
        if (!complete(r, 0)) {
          err << "Barrier: rank " << r << " has not observed all ranks";
          return fail(err.str());
        }
      return {};
  }
  return fail("verify_shape: unsupported type");
}

VerifyReport verify_shape(CollectiveType type, Algorithm algo, int n_ranks) {
  ShapeVerifier verifier(type, n_ranks);
  plan_shape(type, algo, n_ranks, verifier);
  return verifier.report();
}

}  // namespace opus::collective
