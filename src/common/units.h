// Units for time, data size, and bandwidth used throughout the library.
//
// Simulation time is a signed 64-bit count of nanoseconds (`TimeNs`). A plain
// integer (rather than std::chrono) keeps event-queue keys trivially
// comparable and hashable, and 64-bit nanoseconds covers ~292 years of
// simulated time, far beyond any training job.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

namespace opus {

/// Simulation time in nanoseconds since simulation start.
using TimeNs = std::int64_t;

/// Data sizes are byte counts.
using Bytes = std::int64_t;

inline constexpr TimeNs kNsPerUs = 1'000;
inline constexpr TimeNs kNsPerMs = 1'000'000;
inline constexpr TimeNs kNsPerSec = 1'000'000'000;

/// Converts microseconds to TimeNs.
constexpr TimeNs usecs(double us) { return static_cast<TimeNs>(us * kNsPerUs); }
/// Converts milliseconds to TimeNs.
constexpr TimeNs msecs(double ms) { return static_cast<TimeNs>(ms * kNsPerMs); }
/// Converts seconds to TimeNs.
constexpr TimeNs secs(double s) { return static_cast<TimeNs>(s * kNsPerSec); }

/// Converts TimeNs to floating-point milliseconds (for reporting).
constexpr double to_ms(TimeNs t) { return static_cast<double>(t) / kNsPerMs; }
/// Converts TimeNs to floating-point seconds (for reporting).
constexpr double to_sec(TimeNs t) { return static_cast<double>(t) / kNsPerSec; }

inline constexpr Bytes kKiB = 1024;
inline constexpr Bytes kMiB = 1024 * kKiB;
inline constexpr Bytes kGiB = 1024 * kMiB;

constexpr Bytes kib(double k) { return static_cast<Bytes>(k * kKiB); }
constexpr Bytes mib(double m) { return static_cast<Bytes>(m * kMiB); }
constexpr Bytes gib(double g) { return static_cast<Bytes>(g * kGiB); }

/// Link or NIC-port bandwidth. Stored in bits per second to match vendor
/// datasheets (400 Gbps = 400e9 bits/s).
struct Bandwidth {
  double bits_per_sec = 0.0;

  static constexpr Bandwidth bps(double b) { return Bandwidth{b}; }
  static constexpr Bandwidth gbps(double g) { return Bandwidth{g * 1e9}; }

  constexpr double gbps_value() const { return bits_per_sec / 1e9; }
  constexpr double bytes_per_ns() const { return bits_per_sec / 8e9; }
  constexpr bool positive() const { return bits_per_sec > 0.0; }

  friend constexpr Bandwidth operator*(Bandwidth bw, double k) {
    return Bandwidth{bw.bits_per_sec * k};
  }
  friend constexpr Bandwidth operator/(Bandwidth bw, double k) {
    return Bandwidth{bw.bits_per_sec / k};
  }
  friend constexpr bool operator==(Bandwidth a, Bandwidth b) {
    return a.bits_per_sec == b.bits_per_sec;
  }
  friend constexpr auto operator<=>(Bandwidth a, Bandwidth b) {
    return a.bits_per_sec <=> b.bits_per_sec;
  }
};

/// Serialization time of `bytes` at `bw`, rounded up to whole nanoseconds so a
/// nonzero transfer never takes zero simulated time.
constexpr TimeNs transfer_time(Bytes bytes, Bandwidth bw) {
  if (bytes <= 0) return 0;
  const double ns = static_cast<double>(bytes) / bw.bytes_per_ns();
  return static_cast<TimeNs>(ns) + ((ns > static_cast<TimeNs>(ns)) ? 1 : 0);
}

/// Pretty-prints a time for human-readable reports, e.g. "12.50ms".
std::string format_time(TimeNs t);
/// Pretty-prints a byte count, e.g. "957.0MB" (decimal MB to match the paper).
std::string format_bytes(Bytes b);

}  // namespace opus
