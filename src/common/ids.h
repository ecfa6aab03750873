// Strong ID types. Each entity kind gets its own incompatible integer wrapper
// so a rail index can never be passed where a GPU rank is expected.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>

namespace opus {

/// Strongly-typed integer identifier; `Tag` makes distinct instantiations
/// incompatible. Value -1 means "invalid / unset".
template <class Tag>
struct Id {
  std::int32_t v = -1;

  constexpr Id() = default;
  constexpr explicit Id(std::int32_t value) : v(value) {}

  constexpr bool valid() const { return v >= 0; }
  constexpr std::int32_t value() const { return v; }

  friend constexpr bool operator==(Id, Id) = default;
  friend constexpr auto operator<=>(Id, Id) = default;
};

/// Global GPU rank across the whole cluster (0 .. N-1).
using GpuId = Id<struct GpuTag>;
/// A scale-up (NVLink) domain, i.e. one DGX/HGX node.
using NodeId = Id<struct NodeTag>;
/// A rail index == the local rank of the GPUs it connects (0 .. k-1).
using RailId = Id<struct RailTag>;
/// A physical port on an OCS or electrical switch.
using PortId = Id<struct PortTag>;
/// Generation-stamped identifier for entities whose storage slots are
/// recycled: the low 32 bits index a dense slot array, the high 32 bits
/// carry the slot's reuse generation. A stale id (the slot was since
/// released, and possibly reassigned) never compares equal to the slot's
/// current generation, so lookups detect it instead of aliasing the new
/// occupant. Generations of issued ids are always odd (slots stamp even
/// generations while free), so a default-constructed or integer-cast id —
/// generation 0 — is never live.
template <class Tag>
struct GenId {
  std::uint64_t v = 0;

  constexpr GenId() = default;
  constexpr explicit GenId(std::uint64_t packed) : v(packed) {}

  static constexpr GenId from_parts(std::uint32_t slot,
                                    std::uint32_t generation) {
    return GenId{(static_cast<std::uint64_t>(generation) << 32) | slot};
  }

  /// True iff the id was issued by a registry (carries a generation stamp).
  /// Says nothing about whether the entity is still alive — ask the owning
  /// registry for that.
  constexpr bool valid() const { return (v >> 32) != 0; }
  constexpr std::uint32_t slot() const {
    return static_cast<std::uint32_t>(v);
  }
  constexpr std::uint32_t generation() const {
    return static_cast<std::uint32_t>(v >> 32);
  }
  constexpr std::uint64_t value() const { return v; }

  friend constexpr bool operator==(GenId, GenId) = default;
  friend constexpr auto operator<=>(GenId, GenId) = default;
};

/// A unidirectional fluid link in the network model.
using LinkId = Id<struct LinkTag>;
/// An active flow in the fluid network (slot + generation; see GenId).
using FlowId = GenId<struct FlowTag>;
/// A communication group (one parallelism dimension's ranks).
using GroupId = Id<struct GroupTag>;
/// A node in a training-iteration DAG.
using OpId = Id<struct OpTag>;
/// A cancellable event in the simulator (callback-slab slot + generation;
/// see GenId).
using EventId = GenId<struct EventTag>;

}  // namespace opus

namespace std {
template <class Tag>
struct hash<opus::Id<Tag>> {
  size_t operator()(opus::Id<Tag> id) const noexcept {
    return std::hash<std::int32_t>{}(id.v);
  }
};
template <class Tag>
struct hash<opus::GenId<Tag>> {
  size_t operator()(opus::GenId<Tag> id) const noexcept {
    return std::hash<std::uint64_t>{}(id.v);
  }
};
}  // namespace std
