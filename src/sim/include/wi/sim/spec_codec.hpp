#pragma once
/// \file spec_codec.hpp
/// \brief Shared building blocks of the spec JSON codecs: the strict
///        ObjectReader, enum name tables and list helpers.
///
/// The scenario codec (scenario_json.cpp) and every per-workload
/// payload codec (src/sim/workloads/*.cpp) are built from these, so all
/// spec JSON shares one dialect: snake_case keys, string-named enums,
/// exact-integer counts/seeds (<= 2^53), absent keys = defaults,
/// unknown keys = error.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "wi/common/json.hpp"
#include "wi/noc/queueing_model.hpp"
#include "wi/sim/scenario.hpp"
#include "wi/sim/status.hpp"

namespace wi::sim {

[[noreturn]] inline void codec_fail(const std::string& message) {
  throw StatusError(Status(StatusCode::kParseError, "scenario: " + message));
}

// ---------------------------------------------------------------------------
// Enum tables. Each enum is encoded by a short stable snake_case name.

template <typename Enum>
struct EnumEntry {
  Enum value;
  const char* name;
};

template <typename Enum, std::size_t N>
[[nodiscard]] const char* enum_name(const EnumEntry<Enum> (&table)[N],
                                    Enum value) {
  for (const auto& entry : table) {
    if (entry.value == value) return entry.name;
  }
  return "unknown";
}

template <typename Enum, std::size_t N>
[[nodiscard]] Enum enum_value(const EnumEntry<Enum> (&table)[N],
                              const std::string& name,
                              const char* enum_label) {
  for (const auto& entry : table) {
    if (name == entry.name) return entry.value;
  }
  std::string known;
  for (const auto& entry : table) {
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  codec_fail(std::string("unknown ") + enum_label + " '" + name +
             "' (expected one of: " + known + ")");
}

inline constexpr EnumEntry<core::Beamforming> kBeamformings[] = {
    {core::Beamforming::kIdealSteering, "ideal_steering"},
    {core::Beamforming::kButlerMatrix, "butler_matrix"},
};

inline constexpr EnumEntry<core::PhyReceiver> kPhyReceivers[] = {
    {core::PhyReceiver::kOneBitSequence, "one_bit_sequence"},
    {core::PhyReceiver::kOneBitSymbolwise, "one_bit_symbolwise"},
    {core::PhyReceiver::kOneBitRect, "one_bit_rect"},
    {core::PhyReceiver::kUnquantized, "unquantized"},
};

inline constexpr EnumEntry<TopologySpec::Kind> kTopologyKinds[] = {
    {TopologySpec::Kind::kMesh2d, "mesh2d"},
    {TopologySpec::Kind::kStarMesh, "star_mesh"},
    {TopologySpec::Kind::kStarMeshIrl, "star_mesh_irl"},
    {TopologySpec::Kind::kMesh3d, "mesh3d"},
    {TopologySpec::Kind::kCiliatedMesh3d, "ciliated_mesh3d"},
    {TopologySpec::Kind::kPartialVertical3d, "partial_vertical3d"},
};

inline constexpr EnumEntry<TrafficKind> kTrafficKinds[] = {
    {TrafficKind::kUniform, "uniform"},
    {TrafficKind::kTranspose, "transpose"},
    {TrafficKind::kBitComplement, "bit_complement"},
    {TrafficKind::kHotspot, "hotspot"},
    {TrafficKind::kTornado, "tornado"},
};

inline constexpr EnumEntry<RoutingKind> kRoutingKinds[] = {
    {RoutingKind::kDimensionOrder, "dimension_order"},
    {RoutingKind::kShortestPath, "shortest_path"},
};

// ---------------------------------------------------------------------------
// Decoding helpers: visit every member of a JSON object exactly once;
// unhandled keys are reported with their owning section.

/// Largest double that is still an exact integer (2^53): counts and
/// seeds beyond it cannot round-trip through a JSON number, and casting
/// larger doubles to integer types is undefined behavior.
inline constexpr double kMaxExactInteger = 9007199254740992.0;

[[nodiscard]] inline bool is_exact_integer(double n) {
  return n >= 0.0 && n <= kMaxExactInteger && n == std::floor(n);
}

class ObjectReader {
 public:
  ObjectReader(const Json& json, std::string section)
      : json_(json), section_(std::move(section)) {
    if (!json.is_object()) codec_fail(section_ + ": expected an object");
  }

  [[nodiscard]] const std::string& section() const { return section_; }

  /// Calls `decode(value)` when `key` is present.
  template <typename Fn>
  void field(const std::string& key, Fn&& decode) {
    const Json* value = json_.find(key);
    if (value != nullptr) {
      handled_.push_back(key);
      decode(*value);
    }
  }

  void number(const char* key, double& out) {
    field(key, [&](const Json& v) { out = v.as_number(); });
  }

  void size(const char* key, std::size_t& out) {
    field(key, [&](const Json& v) {
      const double n = v.as_number();
      if (!is_exact_integer(n)) {
        codec_fail(section_ + "." + key +
                   ": expected a non-negative integer (<= 2^53)");
      }
      out = static_cast<std::size_t>(n);
    });
  }

  void u64(const char* key, std::uint64_t& out) {
    field(key, [&](const Json& v) {
      const double n = v.as_number();
      if (!is_exact_integer(n)) {
        codec_fail(section_ + "." + key +
                   ": expected a non-negative integer (<= 2^53)");
      }
      out = static_cast<std::uint64_t>(n);
    });
  }

  void boolean(const char* key, bool& out) {
    field(key, [&](const Json& v) { out = v.as_bool(); });
  }

  void string(const char* key, std::string& out) {
    field(key, [&](const Json& v) { out = v.as_string(); });
  }

  template <typename Enum, std::size_t N>
  void enumeration(const char* key, const EnumEntry<Enum> (&table)[N],
                   Enum& out) {
    field(key, [&](const Json& v) {
      out = enum_value(table, v.as_string(), key);
    });
  }

  void number_list(const char* key, std::vector<double>& out) {
    field(key, [&](const Json& v) {
      out.clear();
      for (const auto& item : v.as_array()) out.push_back(item.as_number());
    });
  }

  void size_list(const char* key, std::vector<std::size_t>& out) {
    field(key, [&](const Json& v) {
      out.clear();
      for (const auto& item : v.as_array()) {
        const double n = item.as_number();
        if (!is_exact_integer(n)) {
          codec_fail(section_ + "." + key +
                     ": expected non-negative integers (<= 2^53)");
        }
        out.push_back(static_cast<std::size_t>(n));
      }
    });
  }

  /// Must be called after all field() registrations: rejects document
  /// keys that no field() consumed (typos would otherwise silently
  /// leave a default value in place).
  void finish() const {
    for (const auto& [key, value] : json_.as_object()) {
      bool known = false;
      for (const std::string& h : handled_) {
        if (key == h) {
          known = true;
          break;
        }
      }
      if (!known) codec_fail(section_ + ": unknown key '" + key + "'");
    }
  }

 private:
  const Json& json_;
  std::string section_;
  std::vector<std::string> handled_;
};

[[nodiscard]] inline Json number_list_json(const std::vector<double>& values) {
  Json array = Json::array();
  for (const double v : values) array.push_back(Json(v));
  return array;
}

[[nodiscard]] inline Json size_list_json(
    const std::vector<std::size_t>& values) {
  Json array = Json::array();
  for (const std::size_t v : values) {
    array.push_back(Json(static_cast<double>(v)));
  }
  return array;
}

/// noc::QueueingModelParams <-> JSON (shared by the noc section and the
/// nics/hybrid payload codecs).
[[nodiscard]] inline Json model_to_json(const noc::QueueingModelParams& m) {
  Json json = Json::object();
  json.set("router_delay_cycles", Json(m.router_delay_cycles));
  json.set("link_delay_cycles", Json(m.link_delay_cycles));
  json.set("local_delay_cycles", Json(m.local_delay_cycles));
  json.set("channel_efficiency", Json(m.channel_efficiency));
  json.set("packet_length_flits", Json(m.packet_length_flits));
  return json;
}

inline void model_from_json(const Json& json, const std::string& section,
                            noc::QueueingModelParams& m) {
  ObjectReader reader(json, section);
  reader.number("router_delay_cycles", m.router_delay_cycles);
  reader.number("link_delay_cycles", m.link_delay_cycles);
  reader.number("local_delay_cycles", m.local_delay_cycles);
  reader.number("channel_efficiency", m.channel_efficiency);
  reader.number("packet_length_flits", m.packet_length_flits);
  reader.finish();
}

}  // namespace wi::sim
