#pragma once
/// \file mesh_grid.hpp
/// \brief Computed dimension-ordered next-hop for regular meshes.
///
/// The flit simulators' hot loop asks one question per flit per hop:
/// "which output port moves this flit toward its destination router?".
/// The dense answer is a (router x router) port table — O(routers²)
/// bytes, which is what capped mesh scale before implicit patterns
/// (32x32x32 routers would need a 1 GiB table). For a *regular* mesh
/// the answer is computable: compare coordinates in X-then-Y-then-Z
/// order (exactly `DimensionOrderRouting`'s step order) and emit the
/// port of the one link that advances the first mismatched dimension.
///
/// `analyze()` proves a topology is such a mesh in O(routers + links):
/// extents multiply out, coordinates match the canonical
/// (z*ky + y)*kx + x indexing, and every axis-neighbour pair is joined
/// by exactly one link (and nothing else). Anything irregular — partial
/// vertical meshes, custom graphs, fault-rebuilt tables — returns
/// nullopt and the caller keeps its dense table. The port returned is
/// the link's position in `out_links(router)`, i.e. bit-identical to
/// what the dense table built from `DimensionOrderRouting::first_hop`
/// holds, so switching representations cannot change a simulation.
///
/// Memory: 6 bytes (port bytes) + 4 bytes (packed coordinate) per
/// router — O(routers).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "wi/noc/topology.hpp"

namespace wi::noc {

/// O(routers)-memory computed next-hop for a regular mesh topology.
class MeshGrid {
 public:
  /// Proves `topology` is a regular full mesh and builds the computed
  /// next-hop state; nullopt when the topology is irregular (then use
  /// a dense table). Requires every extent < 1024 (coordinates are
  /// packed 10 bits per dimension).
  [[nodiscard]] static std::optional<MeshGrid> analyze(
      const Topology& topology);

  /// Output-port index (position in `out_links(at)`) of the
  /// dimension-ordered next hop from router `at` toward router `dst`.
  /// Precondition: at != dst, both valid router indices.
  [[nodiscard]] std::uint8_t next_port(std::size_t at,
                                       std::size_t dst) const {
    // Selects, not early returns: the first mismatched dimension picks
    // the field mask and the direction pair, and the masked fields
    // compare in place (they share an alignment).
    const std::uint32_t a = packed_[at];
    const std::uint32_t b = packed_[dst];
    const std::uint32_t diff = a ^ b;
    const bool x_differs = (diff & 0x3FFu) != 0;
    const bool y_differs = (diff & (0x3FFu << 10)) != 0;
    const std::uint32_t field =
        x_differs ? 0x3FFu : y_differs ? 0x3FFu << 10 : 0x3FFu << 20;
    const std::size_t minus = x_differs ? kMinusX : y_differs ? kMinusY
                                                              : kMinusZ;
    const std::size_t plus = (b & field) > (a & field) ? 1 : 0;
    return dir_port_[at * 6 + minus + plus];
  }

  [[nodiscard]] std::size_t router_count() const { return packed_.size(); }

 private:
  enum Dir : std::size_t {
    kMinusX = 0,
    kPlusX = 1,
    kMinusY = 2,
    kPlusY = 3,
    kMinusZ = 4,
    kPlusZ = 5,
  };

  MeshGrid() = default;

  std::vector<std::uint32_t> packed_;   ///< x | y<<10 | z<<20 per router
  std::vector<std::uint8_t> dir_port_;  ///< 6 port bytes per router
};

}  // namespace wi::noc
