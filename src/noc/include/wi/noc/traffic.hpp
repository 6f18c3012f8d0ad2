#pragma once
/// \file traffic.hpp
/// \brief Traffic patterns. Fig. 8 uses global uniform traffic with
///        Poisson arrivals; hotspot/transpose/bit-complement/tornado
///        patterns back the additional design-space studies.
///
/// Two representations share one value type:
///
/// * **Implicit**: an analytic pattern (uniform, transpose,
///   bit-complement, hotspot, tornado) holding O(1) state — what every
///   scenario builds (`sim::NocSpec::build_traffic`). Destination
///   sampling is closed-form — an exact integer-space bounded draw on
///   `Rng::raw()` — so a 32x32x32-router mesh needs no 8.6 GB CDF array.
///   `probability()` answers exactly (the analytic value the dense
///   twin's normalised matrix would hold), which keeps the analytic
///   queueing model and validation code representation-agnostic.
/// * **Dense**: an explicit modules x modules probability matrix
///   (`probability(s, d)` is one load), from the explicit-matrix
///   constructor or the dense factories, which stay as the implicit
///   patterns' differential oracles. The simulators sample a dense
///   pattern through its CDF.
///
/// For the permutation patterns (transpose, bit-complement, tornado)
/// `sample()` consumes exactly one raw draw per hit — the same count as
/// the dense CDF sampler — so dense and implicit runs of a permutation
/// pattern are bit-identical, not just statistically equal.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "wi/common/rng.hpp"

namespace wi::noc {

/// Representation + analytic family of a TrafficPattern.
enum class TrafficPatternKind {
  kDense,          ///< explicit probability matrix
  kUniform,        ///< every other module equally likely
  kTranspose,      ///< module i -> (i + M/2) mod M
  kBitComplement,  ///< module i -> M-1-i (M a power of two)
  kHotspot,        ///< uniform + extra mass on one hot module
  kTornado,        ///< half-ring offset per mesh dimension
};

/// Destination probability distribution per source module:
/// entry (s, d) is the probability that a packet from s targets d
/// (zero on the diagonal; rows sum to 1).
class TrafficPattern {
 public:
  // --- dense factories (byte-identical matrices to the original
  // implementation; the differential oracles of the implicit ones) ---

  /// Global uniform: every other module equally likely.
  [[nodiscard]] static TrafficPattern uniform(std::size_t modules);

  /// Transpose: module i sends to (i + M/2) mod M.
  [[nodiscard]] static TrafficPattern transpose(std::size_t modules);

  /// Bit-complement on the module index (modules must be a power of 2).
  [[nodiscard]] static TrafficPattern bit_complement(std::size_t modules);

  /// Uniform with a fraction of traffic focused on one hotspot module.
  [[nodiscard]] static TrafficPattern hotspot(std::size_t modules,
                                              std::size_t hotspot_module,
                                              double hotspot_fraction);

  /// Tornado on a kx x ky x kz mesh of modules (one module per router):
  /// each coordinate shifts by (k-1)/2 in its dimension. Requires
  /// modules == kx*ky*kz and at least one extent >= 3 (otherwise every
  /// shift is zero and the pattern degenerates to self-traffic).
  [[nodiscard]] static TrafficPattern tornado(std::size_t modules,
                                              std::size_t kx, std::size_t ky,
                                              std::size_t kz);

  // --- implicit factories: O(1) memory, closed-form sampling ---

  [[nodiscard]] static TrafficPattern implicit_uniform(std::size_t modules);
  [[nodiscard]] static TrafficPattern implicit_transpose(std::size_t modules);
  [[nodiscard]] static TrafficPattern implicit_bit_complement(
      std::size_t modules);
  [[nodiscard]] static TrafficPattern implicit_hotspot(
      std::size_t modules, std::size_t hotspot_module,
      double hotspot_fraction);
  [[nodiscard]] static TrafficPattern implicit_tornado(std::size_t modules,
                                                       std::size_t kx,
                                                       std::size_t ky,
                                                       std::size_t kz);

  [[nodiscard]] std::size_t modules() const { return modules_; }
  [[nodiscard]] TrafficPatternKind kind() const { return kind_; }

  /// True for the analytic kinds: O(1) state, `sample()` available, no
  /// matrix or CDF ever materialised.
  [[nodiscard]] bool implicit_form() const {
    return kind_ != TrafficPatternKind::kDense;
  }

  [[nodiscard]] double probability(std::size_t src, std::size_t dst) const {
    if (kind_ == TrafficPatternKind::kDense) {
      return matrix_[src * modules_ + dst];
    }
    return analytic_probability(src, dst);
  }

  /// Closed-form destination draw for implicit patterns (throws for
  /// dense — those sample through their CDF). Consumes exactly one
  /// `rng.raw()` per call — the same single draw the dense CDF sampler
  /// takes per offered packet — except the hotspot non-hot branch,
  /// which needs a second draw for its uniform remainder. Every core
  /// (legacy, event, partitioned) calls this one function, so the
  /// sampled stream is bit-identical at any thread/partition count.
  [[nodiscard]] std::size_t sample(Rng& rng, std::size_t src) const {
    const std::uint64_t x = rng.raw() >> 11;  // 53 uniform bits
    switch (kind_) {
      case TrafficPatternKind::kUniform:
        return bounded_excluding(x, src);
      case TrafficPatternKind::kTranspose:
        return (src + modules_ / 2) % modules_;
      case TrafficPatternKind::kBitComplement:
        return modules_ - 1 - src;
      case TrafficPatternKind::kTornado:
        return tornado_target(src);
      case TrafficPatternKind::kHotspot: {
        if (src != hot_module_ && x < hot_thresh_) return hot_module_;
        const std::uint64_t y = rng.raw() >> 11;
        return bounded_excluding(y, src);
      }
      case TrafficPatternKind::kDense:
        break;
    }
    dense_sample_unsupported();
  }

  // Hotspot/tornado parameters (meaningful for those kinds only; the
  // queueing model's aggregate load builder reads them).
  [[nodiscard]] std::size_t hotspot_module() const { return hot_module_; }
  [[nodiscard]] double hotspot_fraction() const { return hot_fraction_; }

  /// Permutation target of `src` for the permutation kinds (transpose,
  /// bit-complement, tornado).
  [[nodiscard]] std::size_t permutation_target(std::size_t src) const;

  /// Explicit matrix constructor. Validates — every entry must be a
  /// finite probability >= 0 and every row must sum to 1 within 1e-6 —
  /// then normalises rows exactly as the original implementation did,
  /// so accepted matrices produce bit-identical patterns. Throws
  /// wi::StatusError(kInvalidSpec) on bad input.
  explicit TrafficPattern(std::vector<double> matrix, std::size_t modules);

 private:
  /// Factory path: entries are non-negative by construction and rows
  /// deliberately sum to row totals != 1 (e.g. uniform's raw 1.0
  /// entries); skip the sum check, keep the normalisation bit-exact.
  struct Unchecked {};
  TrafficPattern(Unchecked, std::vector<double> matrix, std::size_t modules);
  /// Analytic pattern (no matrix).
  TrafficPattern(TrafficPatternKind kind, std::size_t modules);

  [[nodiscard]] double analytic_probability(std::size_t src,
                                            std::size_t dst) const;
  [[noreturn]] static void dense_sample_unsupported();

  /// floor(bits53 * (modules-1) / 2^53) skip-self-mapped into
  /// [0, modules) \ {src}: the exact integer-space bounded draw (the
  /// scaling by 2^53 is exact, so there is no float roundoff to agree
  /// on between cores).
  [[nodiscard]] std::size_t bounded_excluding(std::uint64_t bits53,
                                              std::size_t src) const {
    const std::uint64_t j = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(bits53) *
         static_cast<unsigned __int128>(modules_ - 1)) >>
        53);
    return static_cast<std::size_t>(j) + (j >= src ? 1 : 0);
  }

  [[nodiscard]] std::size_t tornado_target(std::size_t src) const {
    const std::size_t x = src % kx_;
    const std::size_t rest = src / kx_;
    const std::size_t y = rest % ky_;
    const std::size_t z = rest / ky_;
    const std::size_t tx = (x + (kx_ - 1) / 2) % kx_;
    const std::size_t ty = (y + (ky_ - 1) / 2) % ky_;
    const std::size_t tz = (z + (kz_ - 1) / 2) % kz_;
    return (tz * ky_ + ty) * kx_ + tx;
  }

  TrafficPatternKind kind_ = TrafficPatternKind::kDense;
  std::size_t modules_ = 0;
  std::vector<double> matrix_;  ///< dense only
  // Hotspot parameters. hot_thresh_ = ceil(fraction * 2^53): `raw
  // bits53 < hot_thresh_` is exactly the `uniform() < fraction`
  // Bernoulli test in integer space.
  std::size_t hot_module_ = 0;
  double hot_fraction_ = 0.0;
  std::uint64_t hot_thresh_ = 0;
  // Tornado mesh extents.
  std::size_t kx_ = 1;
  std::size_t ky_ = 1;
  std::size_t kz_ = 1;
};

}  // namespace wi::noc
