#pragma once
/// \file scenario.hpp
/// \brief Declarative scenario description spanning every layer of the
///        library: geometry, link budget, beamforming, PHY receiver and
///        NoC topology/traffic — plus a per-workload payload.
///
/// A ScenarioSpec is a plain value: construct one (defaults reproduce
/// the paper's Table I system), override fields, and hand it to
/// SimEngine. The *workload* — what the scenario computes — is an open
/// string key into the process-wide WorkloadRegistry (see
/// wi/sim/workload.hpp): shared system sections (geometry, link, phy,
/// noc) live here, while workload-specific settings live in a
/// dispatched WorkloadPayload owned by the spec and defined next to the
/// workload's runner under src/sim/workloads/. Sweeps are expressed as
/// a base spec plus SweepAxis overrides expanded into a scenario grid —
/// no per-experiment glue code. Named paper figures/ablations are
/// preloaded in ScenarioRegistry.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "wi/core/link_planner.hpp"
#include "wi/core/phy_abstraction.hpp"
#include "wi/noc/queueing_model.hpp"
#include "wi/noc/routing.hpp"
#include "wi/noc/topology.hpp"
#include "wi/noc/traffic.hpp"
#include "wi/rf/link_budget.hpp"
#include "wi/sim/status.hpp"

namespace wi::sim {

/// Base of every per-workload spec payload. Concrete payloads are plain
/// structs declared in wi/sim/workloads/<name>.hpp; derive them from
/// PayloadBase<T> below to inherit the clone boilerplate.
class WorkloadPayload {
 public:
  virtual ~WorkloadPayload() = default;
  [[nodiscard]] virtual std::unique_ptr<WorkloadPayload> clone() const = 0;
};

/// CRTP clone helper: `struct FooSpec : PayloadBase<FooSpec> { ... };`.
template <typename Derived>
class PayloadBase : public WorkloadPayload {
 public:
  [[nodiscard]] std::unique_ptr<WorkloadPayload> clone() const override {
    return std::make_unique<Derived>(static_cast<const Derived&>(*this));
  }
};

/// Multi-board physical geometry (paper: 10 cm boards, 100 mm apart).
struct GeometrySpec {
  std::size_t boards = 2;
  double board_size_mm = 100.0;
  double separation_mm = 100.0;
  std::size_t nodes_per_edge = 4;
};

/// RF link parameters: Table I budget + beamforming + operating point.
struct LinkSpec {
  rf::LinkBudgetParams budget;  ///< defaults reproduce Table I
  core::Beamforming beamforming = core::Beamforming::kButlerMatrix;
  double ptx_dbm = 10.0;        ///< transmit power budget
  double target_snr_db = 15.0;  ///< planning target
};

/// PHY receiver abstraction (Sec. III).
struct PhySpec {
  core::PhyReceiver receiver = core::PhyReceiver::kOneBitSequence;
  double bandwidth_hz = 25e9;
  std::size_t polarizations = 2;
};

/// Declarative NoC topology (built on demand by workload runners).
struct TopologySpec {
  enum class Kind {
    kMesh2d,
    kStarMesh,
    kStarMeshIrl,
    kMesh3d,
    kCiliatedMesh3d,
    kPartialVertical3d,
  };
  Kind kind = Kind::kMesh2d;
  std::size_t kx = 8;
  std::size_t ky = 8;
  std::size_t kz = 1;
  std::size_t concentration = 1;
  std::size_t irl = 1;          ///< inter-router links (star-mesh fix)
  std::size_t tsv_period = 1;   ///< partial vertical connectivity
  double vertical_bandwidth = 1.0;

  /// Materialise the topology (throws StatusError on bad dimensions).
  [[nodiscard]] noc::Topology build() const;

  /// Modules the built topology will attach (for validation).
  [[nodiscard]] std::size_t module_count() const;
};

enum class TrafficKind {
  kUniform,
  kTranspose,
  kBitComplement,
  kHotspot,
  kTornado,  ///< per-dimension half-ring shift on the topology's mesh
};
enum class RoutingKind { kDimensionOrder, kShortestPath };

/// Traffic-pattern representation. kDense materialises the classic
/// modules x modules probability matrix (the path every committed
/// golden was produced through); kImplicit builds the O(1)-state
/// analytic pattern with closed-form destination sampling — required
/// for big meshes where the matrix/CDF alone would be gigabytes (a
/// 32x32x32-router mesh needs ~8.6 GB dense, ~0 implicit).
enum class TrafficMode { kDense, kImplicit };

/// NoC system description shared by the NoC-evaluating workloads
/// (noc_latency, flit_sim, noc_saturation): topology, traffic pattern,
/// routing and the analytic queueing-model parameters.
struct NocSpec {
  TopologySpec topology;
  TrafficKind traffic = TrafficKind::kUniform;
  TrafficMode traffic_mode = TrafficMode::kDense;
  std::size_t hotspot_module = 0;
  double hotspot_fraction = 0.2;
  RoutingKind routing = RoutingKind::kDimensionOrder;
  noc::QueueingModelParams model;
  std::vector<double> injection_rates;  ///< empty = default grid
  /// When > 0: flit-level DES cross-check at this injection rate.
  double des_check_rate = 0.0;
  std::uint64_t des_seed = 1;

  /// Shared sanity checks of the section (topology dimensions, rates,
  /// hotspot settings); messages are prefixed with `scenario_name`.
  [[nodiscard]] Status validate(const std::string& scenario_name) const;

  /// Checks for workloads that run the flit DES: `model`'s router delay
  /// must be a whole number of cycles the DES supports
  /// (noc::validate_router_delay).
  [[nodiscard]] Status validate_des_delay(
      const std::string& scenario_name) const;

  /// Materialise the traffic pattern for `modules` modules.
  [[nodiscard]] noc::TrafficPattern build_traffic(std::size_t modules) const;

  /// Materialise the routing algorithm.
  [[nodiscard]] std::unique_ptr<noc::Routing> build_routing() const;
};

/// The declarative scenario: shared system sections plus the selected
/// workload's payload.
struct ScenarioSpec {
  std::string name;
  std::string description;
  /// Workload key into WorkloadRegistry::global() ("link_rate",
  /// "info_rates", ...). Open set: plugins register new ones.
  std::string workload = "link_rate";

  GeometrySpec geometry;
  LinkSpec link;
  PhySpec phy;
  NocSpec noc;

  ScenarioSpec() = default;
  ScenarioSpec(const ScenarioSpec& other);
  ScenarioSpec& operator=(const ScenarioSpec& other);
  ScenarioSpec(ScenarioSpec&&) noexcept = default;
  ScenarioSpec& operator=(ScenarioSpec&&) noexcept = default;

  /// Mutable payload access; creates a default-constructed T when the
  /// spec has no payload yet, and *replaces* a payload of a different
  /// type (the caller is re-targeting the spec to another workload).
  template <typename T>
  [[nodiscard]] T& payload() {
    T* typed = payload_ ? dynamic_cast<T*>(payload_.get()) : nullptr;
    if (typed == nullptr) {
      auto fresh = std::make_unique<T>();
      typed = fresh.get();
      payload_ = std::move(fresh);
    }
    return *typed;
  }

  /// Read access; a spec without a payload sees T's defaults. A payload
  /// of a different type is an error (the workload string and the
  /// stored payload disagree) and throws StatusError(kInvalidSpec).
  template <typename T>
  [[nodiscard]] const T& payload() const {
    if (payload_ != nullptr) {
      if (const T* typed = dynamic_cast<const T*>(payload_.get())) {
        return *typed;
      }
      throw StatusError(Status(
          StatusCode::kInvalidSpec,
          name + ": stored payload does not match workload '" + workload +
              "'"));
    }
    static const T kDefaults{};
    return kDefaults;
  }

  [[nodiscard]] bool has_payload() const { return payload_ != nullptr; }
  void set_payload(std::unique_ptr<WorkloadPayload> payload) {
    payload_ = std::move(payload);
  }
  void reset_payload() { payload_.reset(); }

  /// Field-by-field sanity check; kInvalidSpec with a precise message
  /// on the first violated constraint. Shared sections are checked
  /// here, then the workload's registered runner validates its payload
  /// (an unregistered workload name is itself kInvalidSpec).
  [[nodiscard]] Status validate() const;

 private:
  std::unique_ptr<WorkloadPayload> payload_;
};

/// One sweep dimension: a named list of values and how to apply a value
/// to a spec (usually a lambda writing one field).
struct SweepAxis {
  std::string name;
  std::vector<double> values;
  std::function<void(ScenarioSpec&, double)> apply;
};

/// Cartesian grid expansion: every combination of axis values applied
/// to the base spec; names become "base/axis1=v1;axis2=v2". Axis order
/// is significant (first axis varies slowest) and the result order is
/// deterministic — the contract the parallel runner preserves.
[[nodiscard]] std::vector<ScenarioSpec> expand_grid(
    const ScenarioSpec& base, const std::vector<SweepAxis>& axes);

}  // namespace wi::sim
