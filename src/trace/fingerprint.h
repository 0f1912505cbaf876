// Stable 128-bit structural fingerprints of kernel traces (DESIGN.md
// §10): the identity keys of the cross-launch memoization subsystem. Two
// kernels fingerprint equal iff their launch geometry and every variant's
// per-warp instruction stream (PCs, opcodes, registers, active masks,
// per-lane addresses) agree, so a fingerprint match licenses replaying a
// recorded simulation result. Hashing mixes only fixed-width values —
// never raw memory — so fingerprints are stable across platforms, runs
// and processes (they key the optional on-disk cache).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/kernel.h"

namespace swiftsim {

struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Fingerprint& o) const {
    return hi == o.hi && lo == o.lo;
  }
  bool operator!=(const Fingerprint& o) const { return !(*this == o); }
  bool operator<(const Fingerprint& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }

  /// 32 hex digits, hi lane first.
  std::string ToHex() const;

  /// Folds both lanes into one well-mixed word (map keys, salts).
  std::uint64_t Fold() const;
};

/// Incremental two-lane hasher behind every fingerprint. Order-sensitive:
/// Mix(a), Mix(b) differs from Mix(b), Mix(a).
class FpHasher {
 public:
  void Mix(std::uint64_t v);

  /// Length-prefixed, so consecutive strings cannot alias each other.
  void MixString(const std::string& s);

  Fingerprint Digest() const;

 private:
  std::uint64_t hi_ = 0x5357494654534d31ull;  // arbitrary distinct seeds
  std::uint64_t lo_ = 0x46494e4745525052ull;
  std::uint64_t count_ = 0;
};

/// Structural fingerprint of one kernel: KernelInfo (including the id the
/// pre-pass profile is keyed by) plus every CTA variant's warp streams.
/// Cost is proportional to the variant storage, not the grid size.
Fingerprint FingerprintKernel(const KernelTrace& kernel);

/// Kernel fingerprint of every launch of an application, in launch order.
/// Launches that share one KernelTrace object (RepeatLaunches) are
/// fingerprinted once, so cost is proportional to the distinct kernel
/// objects, not to the number of launches.
std::vector<Fingerprint> FingerprintLaunches(const Application& app);

/// Fingerprint of a whole application: the kernel fingerprints chained in
/// launch order. Deliberately excludes the display name, so two apps with
/// identical launch sequences share pre-pass profile cache entries. Costs
/// one FingerprintLaunches.
Fingerprint FingerprintApplication(const Application& app);

/// The same digest from the application's FingerprintLaunches, for callers
/// that also key on the per-launch fingerprints.
Fingerprint FingerprintApplication(const std::vector<Fingerprint>& launches);

}  // namespace swiftsim
