/// \file flit_sim.cpp
/// \brief Event-wheel + SoA flit simulator, single-threaded, drawing the
///        injection process as the run advances. Bit-identical to the
///        cycle-stepped loop it replaced (kept as the differential
///        oracle in bench/perf/flit_sim_legacy.cpp).
///
/// Three ideas, layered:
///
/// 1. Bitmap event wheel. A router only does work on a cycle where (a)
///    a flit becomes ready in one of its input rings, (b) one of its
///    modules offers a packet, or (c) a head it could not move last
///    cycle retries. Each slot is a router *bitmap*, not a list:
///    scheduling is a single idempotent OR (no dedup state), and
///    draining a slot is a countr_zero walk that visits routers in
///    ascending index order (the legacy within-cycle order).
///    Wake-horizon invariant: a wake set while cycle c runs lands in
///    [c, c + delay] — (b) at c itself, before the slot is drained,
///    (a) at c + delay, (c) at c + 1 — so a power-of-two wheel of
///    W >= delay + 2 slots holds every pending wake, each live bit's
///    cycle is the first occurrence of its slot at or after the current
///    cycle, and every turn has work. Cycles with nothing due and
///    nothing to draw (the drain window after traffic stops) are skipped
///    wholesale.
///
/// 2. Streamed injection. Every cycle below the end of the measurement
///    window walks the legacy RNG sequence: one raw() per module, tested
///    in integer space against ceil(p * 2^53) (bit-equal to
///    bernoulli(p)), then on a hit one uniform() plus a guided CDF search
///    whose final comparisons are lower_bound's, or the implicit
///    pattern's closed-form sampler. Offers queue in per-router source
///    FIFOs and wake their router the same cycle; nothing is drawn ahead
///    of the clock, so a fault can act on a router's offers as they are
///    drawn, exactly like the legacy loop.
///
/// 3. Cache-conscious flit records. A flit is one 16-byte record (ready
///    cycle; meta = inject cycle | destination router << 37 | measured
///    << 63) that travels unchanged hop to hop, and source FIFOs hold
///    the same meta words. The round-robin arbitration pointer advances
///    exactly once per router per cycle, so it is derived as cycle mod
///    n_inputs (a table filled once per cycle for the distinct input
///    counts), and a turn is one pass over a rotated ready mask. On the
///    (ubiquitous) all-bandwidth-1 topologies the per-output budgets
///    collapse to one u32 mask held in a register for the whole turn. The packing caps the simulator at 2^26 routers,
///    2^37 total cycles, and 2^16-1 buffer depth.

#include "wi/noc/flit_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "wi/common/rng.hpp"
#include "wi/common/status.hpp"
#include "wi/noc/mesh_grid.hpp"
#include "wi/noc/routing.hpp"

namespace wi::noc {

namespace {

using std::size_t;
using u8 = std::uint8_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;

constexpr u64 kNever = ~u64{0};
constexpr u8 kNoPort = 0xFF;      ///< pair never routed (unused dst)
constexpr u8 kFailedPort = 0xFE;  ///< routing failed; Status recorded
constexpr u8 kEject = 0xFD;       ///< cached port: flit is at its dst
constexpr size_t kMaxRouteFailures = 8;
/// Flit meta word: inject cycle | dst router << 37 | measured << 63.
constexpr unsigned kCycBits = 37;
constexpr u64 kCycMask = (u64{1} << kCycBits) - 1;
constexpr unsigned kDstBits = 26;
constexpr u32 kDstMask = (u32{1} << kDstBits) - 1;

/// (router, dst_router) -> local output port, one byte per pair (the
/// port alone recovers link and downstream ring through the per-router
/// out-link arrays, so 16^3 meshes stay cache-resident).
struct PortTable {
  std::vector<u8> port;  ///< [at * routers + dst]
  std::unordered_map<size_t, Status> failures;
};

PortTable build_port_table(const Topology& topology, const Routing& routing,
                           const std::vector<bool>& dst_used) {
  const size_t routers = topology.router_count();
  PortTable table;
  table.port.assign(routers * routers, kNoPort);
  for (size_t at = 0; at < routers; ++at) {
    const auto& outs = topology.out_links(at);
    if (outs.size() >= kFailedPort) {
      throw StatusError(Status(
          StatusCode::kExecutionError,
          "simulate_network: router " + std::to_string(at) + " has " +
              std::to_string(outs.size()) +
              " output ports; the byte-wide port table supports at most "
              "253"));
    }
    for (size_t dst = 0; dst < routers; ++dst) {
      if (at == dst || !dst_used[dst]) continue;
      const size_t key = at * routers + dst;
      size_t l;
      try {
        l = routing.first_hop(topology, at, dst);
      } catch (const StatusError& e) {
        table.port[key] = kFailedPort;
        table.failures.emplace(key, e.status());
        continue;
      }
      size_t oi = 0;
      while (oi < outs.size() && outs[oi] != l) ++oi;
      if (oi == outs.size()) {
        table.port[key] = kFailedPort;
        table.failures.emplace(
            key, Status(StatusCode::kExecutionError,
                        "simulate_network: next-hop link " +
                            std::to_string(l) + " is not an out-link of "
                            "router " + std::to_string(at)));
        continue;
      }
      table.port[key] = static_cast<u8>(oi);
    }
  }
  return table;
}

/// Offers waiting at one router's injection port (flit meta words,
/// oldest first): a power-of-two ring that doubles on demand. It holds
/// only what the network has not accepted yet, so it stays a few
/// entries long below saturation.
class SourceQueue {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] u64 front() const { return buf_[head_]; }

  void pop() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

  void push(u64 meta) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = meta;
    ++size_;
  }

 private:
  void grow() {
    std::vector<u64> bigger(buf_.empty() ? 16 : buf_.size() * 2);
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    head_ = 0;
    buf_.swap(bigger);
  }

  std::vector<u64> buf_;
  size_t head_ = 0;
  size_t size_ = 0;
};

class EventCore {
 public:
  EventCore(const Topology& topology, const Routing& routing,
            const TrafficPattern& traffic, double injection_rate,
            const FlitSimConfig& config, const fault::FaultSchedule& faults);
  FlitSimResult run();

 private:
  void schedule(u32 r, u64 t) {
    wheel_[(t & wmask_) * words_ + (r >> 6)] |= u64{1} << (r & 63);
  }
  void draw_injections(u64 c);
  /// Flit at router r has no live next hop toward dstr: drop + record
  /// the Status once per pair in fault mode, throw otherwise.
  void drop_unroutable(u32 r, u32 dstr, bool measured, u8 p);
  template <bool BW1, bool GRID>
  void turn(u32 r, u64 c);
  template <bool BW1, bool GRID>
  void run_cycles();
  [[nodiscard]] u64 next_work(u64 c) const;
  void round_robin_at(u64 c);
  void apply_faults_at(u64 cycle);
  void rebuild_live_ports();

  const Topology& topology_;
  const TrafficPattern& traffic_;
  const FlitSimConfig& config_;
  const fault::FaultSchedule& faults_;
  size_t modules_ = 0;
  size_t routers_ = 0;
  size_t channels_ = 0;
  u64 delay_ = 0;
  u64 total_ = 0;
  u64 measure_begin_ = 0;
  u64 measure_end_ = 0;
  u32 depth_ = 0;

  std::vector<bool> dst_used_;
  PortTable ports_;
  // Computed next-hop for regular meshes under dimension-order routing:
  // replaces the O(routers^2) port table with O(routers) state. Faults
  // rebuild dense tables, so chaos mode always uses ports_.
  std::optional<MeshGrid> grid_;
  bool use_grid_ = false;
  std::vector<std::vector<size_t>> in_channels_;
  // Flat per-router output arrays: out_off_[r]..out_off_[r+1] indexes
  // (ring | downstream router << 32) words and the bandwidth template.
  std::vector<size_t> out_off_;
  std::vector<u64> out_rd_;
  std::vector<int> budget_template_;
  std::vector<int> budget_;  ///< per-turn scratch (bandwidth > 1 only)
  std::vector<u32> n_inputs_;
  // Round-robin start per input count: rr_start_[n] = rr_cycle_ mod n,
  // kept for the distinct counts in rr_counts_ (a handful on a mesh).
  std::vector<u32> rr_counts_;
  std::vector<u32> rr_start_;
  u64 rr_cycle_ = 0;
  // All-links-bandwidth-1 fast path: the per-turn budget array becomes
  // a per-router bitmask of outputs that may still send this cycle.
  bool bw1_ = false;
  std::vector<u32> out_mask_;
  // Ring storage: rings re-indexed so each router's input-channel rings
  // are contiguous (chin_off_[r]..chin_off_[r+1]), in ascending link
  // order (the legacy round-robin order). Slot j of ring rid is the
  // 16-byte record f_[((rid << cap_shift_) + j) * 2] = ready cycle,
  // [... + 1] = meta.
  std::vector<size_t> chin_off_;
  std::vector<u32> ring_of_link_;
  std::vector<u32> ring_owner_;  ///< ring -> router whose input it is
  size_t cap_shift_ = 0;
  u32 cap_mask_ = 0;
  std::vector<u64> f_;
  std::vector<u32> qhs_;  ///< head | size << 16
  std::vector<u64> hr_;   ///< head-ready mirror, kNever when empty
  /// Cached output port per occupied slot: the port the flit will want
  /// at the ring's owner (kEject when the owner is its destination).
  /// Computed once at push time — a blocked head retried every cycle
  /// costs a byte load instead of a meta decode + port-table walk —
  /// and refreshed wholesale when a fault rebuild changes the table.
  std::vector<u8> pp_;
  // Injection process: drawn for cycles [0, inj_end_) from one RNG,
  // module by module, into per-router source FIFOs.
  bool implicit_ = false;
  std::vector<double> cdf_;  ///< [src * modules + dst], dense patterns
  size_t guide_k_ = 0;
  /// guide_[m * K + k] = lower_bound(cdf row m, k / K): where the
  /// per-hit search starts (dense patterns only).
  std::vector<u32> guide_;
  u64 thresh_ = 0;  ///< a raw draw x hits when (x >> 11) < thresh_
  std::vector<u32> module_router_;
  Rng rng_;
  u64 inj_end_ = 0;
  std::vector<SourceQueue> src_;
  // Wheel: W_ slots x words_ router bitmaps.
  std::vector<u64> wheel_;  ///< [slot * words_ + word]
  size_t words_ = 0;
  size_t W_ = 0;
  u64 wmask_ = 0;
  // Counters.
  u64 injected_ = 0;
  u64 delivered_ = 0;
  u64 latency_ = 0;  ///< exact integer sum; converted to double once
  u64 unreachable_ = 0;
  u64 turns_ = 0;
  std::vector<Status> fails_;
  // Fault mode.
  bool chaos_ = false;
  std::vector<u8> link_alive_;
  std::vector<u8> router_alive_;
  std::vector<u8> seen_;
  size_t fault_pos_ = 0;
  u64 fault_dropped_ = 0;
  u64 dead_links_ = 0;
  u64 dead_routers_ = 0;
};

EventCore::EventCore(const Topology& topology, const Routing& routing,
                     const TrafficPattern& traffic, double injection_rate,
                     const FlitSimConfig& config,
                     const fault::FaultSchedule& faults)
    : topology_(topology),
      traffic_(traffic),
      config_(config),
      faults_(faults),
      rng_(config.seed) {
  modules_ = topology.module_count();
  routers_ = topology.router_count();
  channels_ = topology.link_count();
  if (traffic.modules() != modules_) {
    throw std::invalid_argument("simulate_network: traffic mismatch");
  }
  const Status delay_ok = validate_router_delay(config.router_delay_cycles);
  if (!delay_ok.is_ok()) {
    throw StatusError(Status(delay_ok.code(),
                             "simulate_network: " + delay_ok.message()));
  }
  delay_ = static_cast<u64>(config.router_delay_cycles);
  total_ = config.warmup_cycles + config.measure_cycles + config.drain_cycles;
  measure_begin_ = config.warmup_cycles;
  measure_end_ = config.warmup_cycles + config.measure_cycles;
  if (routers_ >= (size_t{1} << kDstBits) ||
      total_ + delay_ >= (u64{1} << kCycBits) ||
      config.buffer_depth >= (size_t{1} << 16)) {
    throw StatusError(Status(
        StatusCode::kInvalidSpec,
        "simulate_network: config exceeds the packed flit record (needs "
        "routers < 2^26, warmup+measure+drain+delay < 2^37, buffer depth "
        "< 2^16)"));
  }
  depth_ = static_cast<u32>(config.buffer_depth);

  chaos_ = !faults.events.empty();

  // --- traffic cdf + used destinations (the sampler clamps to the last
  // module, so its router is routable). Implicit patterns never build
  // the O(modules^2) CDF: destinations come from the closed-form
  // sampler, and any router may be a target.
  implicit_ = traffic.implicit_form();
  dst_used_.assign(routers_, implicit_);
  if (!implicit_) {
    cdf_.resize(modules_ * modules_);
    for (size_t s = 0; s < modules_; ++s) {
      double acc = 0.0;
      for (size_t d = 0; d < modules_; ++d) {
        const double p = traffic.probability(s, d);
        acc += p;
        cdf_[s * modules_ + d] = acc;
        if (p > 0.0) dst_used_[topology.module_router(d)] = true;
      }
    }
    if (modules_ > 0) dst_used_[topology.module_router(modules_ - 1)] = true;
  }
  module_router_.resize(modules_);
  for (size_t d = 0; d < modules_; ++d) {
    module_router_[d] = static_cast<u32>(topology.module_router(d));
  }

  // --- next-hop state. A regular mesh under dimension-order routing
  // gets the computed O(routers) grid (the port it yields is the dense
  // table's port bit for bit — see MeshGrid — so results are unchanged);
  // anything else, and fault mode (which rewrites tables per failure),
  // keeps the dense O(routers^2) port table.
  if (!chaos_ &&
      dynamic_cast<const DimensionOrderRouting*>(&routing) != nullptr) {
    grid_ = MeshGrid::analyze(topology);
  }
  use_grid_ = grid_.has_value();
  if (!use_grid_) {
    ports_ = build_port_table(topology, routing, dst_used_);
  }

  // --- flat output arrays + input-channel lists.
  in_channels_.assign(routers_, {});
  for (size_t l = 0; l < channels_; ++l) {
    in_channels_[topology.link(l).dst].push_back(l);
  }
  out_off_.assign(routers_ + 1, 0);
  for (size_t r = 0; r < routers_; ++r) {
    out_off_[r + 1] = out_off_[r] + topology.out_links(r).size();
  }
  std::vector<u32> out_link(out_off_[routers_]);
  out_rd_.resize(out_off_[routers_]);
  budget_template_.resize(out_off_[routers_]);
  size_t max_outs = 0;
  for (size_t r = 0; r < routers_; ++r) {
    const auto& outs = topology.out_links(r);
    max_outs = std::max(max_outs, outs.size());
    for (size_t i = 0; i < outs.size(); ++i) {
      const size_t l = outs[i];
      out_link[out_off_[r] + i] = static_cast<u32>(l);
      out_rd_[out_off_[r] + i] = static_cast<u64>(topology.link(l).dst) << 32;
      const int b = static_cast<int>(topology.link(l).bandwidth);
      budget_template_[out_off_[r] + i] = b < 1 ? 1 : b;
    }
  }
  budget_.resize(max_outs);
  bw1_ = max_outs <= 32;
  for (const int b : budget_template_) bw1_ = bw1_ && b == 1;
  if (bw1_) {
    out_mask_.assign(routers_, 0);
    for (size_t r = 0; r < routers_; ++r) {
      const size_t n_outs = out_off_[r + 1] - out_off_[r];
      out_mask_[r] = n_outs >= 32 ? ~u32{0} : (u32{1} << n_outs) - 1;
    }
  }

  // --- ring storage, re-indexed so a router's input rings are
  // contiguous.
  size_t cap = 1;
  while (cap < std::max<size_t>(depth_, 1)) cap <<= 1;
  cap_shift_ = static_cast<size_t>(std::countr_zero(cap));
  cap_mask_ = static_cast<u32>(cap - 1);
  chin_off_.assign(routers_ + 1, 0);
  ring_of_link_.assign(channels_, 0);
  ring_owner_.assign(channels_, 0);
  n_inputs_.assign(routers_, 1);
  {
    size_t rid = 0;
    for (size_t r = 0; r < routers_; ++r) {
      chin_off_[r] = rid;
      for (const size_t l : in_channels_[r]) {
        ring_owner_[rid] = static_cast<u32>(r);
        ring_of_link_[l] = static_cast<u32>(rid++);
      }
      n_inputs_[r] = static_cast<u32>(1 + in_channels_[r].size());
    }
    chin_off_[routers_] = rid;
  }
  rr_counts_ = n_inputs_;
  std::sort(rr_counts_.begin(), rr_counts_.end());
  rr_counts_.erase(std::unique(rr_counts_.begin(), rr_counts_.end()),
                   rr_counts_.end());
  rr_start_.assign(rr_counts_.empty() ? 1 : rr_counts_.back() + 1, 0);
  for (size_t i = 0; i < out_rd_.size(); ++i) {
    out_rd_[i] |= ring_of_link_[out_link[i]];
  }
  f_.assign((channels_ << cap_shift_) * 2, 0);
  qhs_.assign(channels_, 0);
  hr_.assign(channels_, kNever);
  pp_.assign(channels_ << cap_shift_, kNoPort);

  // --- wheel geometry: wakes span [c, c + delay], so delay + 2
  // power-of-two slots are unambiguous.
  W_ = 1;
  while (W_ < static_cast<size_t>(delay_) + 2) W_ <<= 1;
  wmask_ = W_ - 1;
  words_ = (routers_ + 63) / 64;
  wheel_.assign(W_ * words_, 0);

  // --- injection process. Guide table for dense patterns: the search
  // resumes near where lower_bound would land, and the guard loops in
  // draw_injections re-run the legacy comparisons (row[d] < u), so the
  // sampled destination is bit-identical even at bucket-boundary
  // roundoff.
  guide_k_ = implicit_ ? 0 : modules_;
  guide_.resize(modules_ * guide_k_);
  const double kd = static_cast<double>(guide_k_);
  for (size_t m = 0; m < modules_ && !implicit_; ++m) {
    const double* row = &cdf_[m * modules_];
    size_t i = 0;
    for (size_t k = 0; k < guide_k_; ++k) {
      const double lo = static_cast<double>(k) / kd;
      while (i < modules_ && row[i] < lo) ++i;
      guide_[m * guide_k_ + k] = static_cast<u32>(i);
    }
  }
  // bernoulli(p) draws one generator step x and tests
  // (x >> 11) * 2^-53 < p; the power-of-two product is exact, so the
  // test is equivalently (x >> 11) < ceil(p * 2^53) in pure integer
  // space — the branch no longer waits on an int->double conversion.
  thresh_ = !(injection_rate > 0.0)
                ? 0
                : injection_rate >= 1.0
                      ? (u64{1} << 53)
                      : static_cast<u64>(std::ceil(injection_rate * 0x1.0p53));
  // A zero rate never hits, so there is nothing to draw.
  inj_end_ = thresh_ == 0 ? 0 : std::min(measure_end_, total_);
  src_.resize(routers_);

  // --- fault mode: alive maps and per-pair failure dedup.
  if (chaos_) {
    link_alive_.assign(channels_, 1);
    router_alive_.assign(routers_, 1);
    seen_.assign(routers_ * routers_, 0);
  }
}

void EventCore::draw_injections(const u64 c) {
  // Every cycle drawn is below measure_end_, so only the lower bound
  // decides whether the offer is measured.
  const u64 mbit = c >= measure_begin_ ? u64{1} << 63 : 0;
  const size_t modules = modules_;
  const size_t K = guide_k_;
  const double kd = static_cast<double>(K);
  const u64 thresh = thresh_;
  Rng rng = rng_;
  for (size_t m = 0; m < modules; ++m) {
    // One generator step per module, exactly like the legacy loop's
    // rng.bernoulli; on a hit the dense path draws one uniform for its
    // CDF search and the implicit path hands the RNG to the pattern's
    // closed-form sampler.
    const u64 x = rng.raw();
    if ((x >> 11) >= thresh) continue;
    size_t d;
    if (implicit_) {
      d = traffic_.sample(rng, m);
    } else {
      const double u = rng.uniform();
      const double* row = &cdf_[m * modules];
      size_t k = static_cast<size_t>(u * kd);
      if (k >= K) k = K - 1;
      d = guide_[m * K + k];
      while (d > 0 && row[d - 1] >= u) --d;
      while (d < modules && row[d] < u) ++d;
      if (d >= modules) d = modules - 1;
    }
    const u32 r = module_router_[m];
    if (chaos_ && !router_alive_[r]) {
      // Dead source router: the module offered a packet the network
      // never accepted. Both draws above still happened, so the
      // traffic sequence matches the fault-free run.
      if (mbit) {
        ++injected_;
        ++fault_dropped_;
      }
      continue;
    }
    if (mbit) ++injected_;
    src_[r].push(c | (static_cast<u64>(module_router_[d]) << kCycBits) |
                 mbit);
    schedule(r, c);
  }
  rng_ = rng;
}

void EventCore::drop_unroutable(const u32 r, const u32 dstr,
                                const bool measured, const u8 p) {
  const size_t key = static_cast<size_t>(r) * routers_ + dstr;
  if (chaos_ && p == kFailedPort) {
    // Destination cut off by a fault: drop, surface the Status once
    // per (source, destination) pair, never throw. Turns run in
    // (cycle, router) order, the legacy encounter order.
    if (measured) ++unreachable_;
    if (!seen_[key]) {
      seen_[key] = 1;
      if (fails_.size() < kMaxRouteFailures) {
        fails_.push_back(ports_.failures.at(key));
      }
    }
    return;
  }
  if (p == kFailedPort) throw StatusError(ports_.failures.at(key));
  throw StatusError(Status(
      StatusCode::kExecutionError,
      "simulate_network: no precomputed next hop for router " +
          std::to_string(r) + " -> " + std::to_string(dstr)));
}

template <bool BW1, bool GRID>
void EventCore::turn(const u32 r, const u64 c) {
  ++turns_;
  // Hoist the hot arrays (and the scalars the loop re-derives indices
  // from) into locals: stores through raw element pointers cannot alias
  // the vector control blocks or `this`, so the compiler keeps every
  // base address in a register across the loop instead of reloading it
  // after each store.
  u64* const f = f_.data();
  u32* const qhs = qhs_.data();
  u64* const hr = hr_.data();
  u8* const pp = pp_.data();
  u64* const wheel = wheel_.data();
  const u64 wmask = wmask_;
  const size_t words = words_;
  const u64* const ord = out_rd_.data();
  // GRID mode computes the next-hop port from packed coordinates; the
  // dense table is never allocated then.
  const u8* const pt = ports_.port.data();
  const MeshGrid* const grid = GRID ? &*grid_ : nullptr;
  const size_t csh = cap_shift_;
  const u32 cmask = cap_mask_;
  const u32 dep = depth_;
  const u64 del = delay_;
  const size_t nrouters = routers_;
  const bool chaos = chaos_;
  const size_t ob = out_off_[r];
  u32 obud = 0;
  int* bud = nullptr;
  if constexpr (BW1) {
    obud = out_mask_[r];
  } else {
    bud = budget_.data();
    const size_t n_outs = out_off_[r + 1] - ob;
    if (n_outs > 0) {
      std::memcpy(bud, &budget_template_[ob], n_outs * sizeof(int));
    }
  }
  int eject_budget = 1;
  const u32 n_in = n_inputs_[r];
  const u32 start = rr_start_[n_in];
  const u8* prow = GRID ? nullptr : pt + static_cast<size_t>(r) * nrouters;
  const size_t cb = chin_off_[r];
  SourceQueue& source = src_[r];

  /// Append flit record m to the ring named by rd (= ring | owner
  /// router << 32) whose pre-checked cursor word is hs2. The caller has
  /// already consumed budget and verified the ring has room. Caches the
  /// output port the flit will want at the receiving router and wakes
  /// that router when the flit becomes ready.
  const auto push_flit = [&](u64 rd, u32 hs2, u64 m) {
    const u32 drid = static_cast<u32>(rd);
    qhs[drid] = hs2 + 0x10000;
    const size_t si = (static_cast<size_t>(drid) << csh) +
                      (((hs2 & 0xFFFFu) + (hs2 >> 16)) & cmask);
    const u64 ready = c + del;
    f[si * 2] = ready;
    f[si * 2 + 1] = m;
    const u32 owner = static_cast<u32>(rd >> 32);
    const u32 fdst = static_cast<u32>(m >> kCycBits) & kDstMask;
    if constexpr (GRID) {
      pp[si] = fdst == owner ? kEject : grid->next_port(owner, fdst);
    } else {
      pp[si] = fdst == owner
                   ? kEject
                   : pt[static_cast<size_t>(owner) * nrouters + fdst];
    }
    if (!(hs2 >> 16)) hr[drid] = ready;
    wheel[(ready & wmask) * words + (owner >> 6)] |= u64{1} << (owner & 63);
  };
  /// Move one flit (meta m) out through output port p. False when the
  /// port's budget is spent or its downstream ring is full.
  const auto forward = [&](u8 p, u64 m) -> bool {
    if constexpr (BW1) {
      if (!((obud >> p) & 1u)) return false;
    } else {
      if (bud[p] <= 0) return false;
    }
    const u64 rd = ord[ob + p];
    const u32 hs2 = qhs[static_cast<u32>(rd)];
    if ((hs2 >> 16) >= dep) return false;
    if constexpr (BW1) {
      obud &= ~(u32{1} << p);
    } else {
      --bud[p];
    }
    push_flit(rd, hs2, m);
    return true;
  };
  /// Eject a flit (meta m) at this router. False when the eject budget
  /// is spent.
  const auto eject = [&](u64 m) -> bool {
    if (eject_budget <= 0) return false;
    --eject_budget;
    if (m >> 63) {
      ++delivered_;
      latency_ += c + del - (m & kCycMask);
    }
    return true;
  };
  /// Drain ready input i — 0 is the injection queue, i >= 1 is input
  /// ring cb + i - 1 — until it empties, its head is not ready yet, or
  /// the head blocks. Returns true when the head blocked (on a spent
  /// output or eject budget, or a full downstream ring): it is still
  /// ready and retries next cycle.
  const auto drain_input = [&](u32 i) -> bool {
    if (i == 0) {
      do {
        const u64 e = source.front();
        const u32 dstr = static_cast<u32>(e >> kCycBits) & kDstMask;
        if (dstr == r) {
          if (!eject(e)) return true;
        } else {
          const u8 p = GRID ? grid->next_port(r, dstr) : prow[dstr];
          // A full regular mesh always routes, so only the dense table
          // can hold failed/unused markers.
          if (!GRID && p >= kFailedPort) {
            drop_unroutable(r, dstr, (e >> 63) != 0, p);
          } else if (!forward(p, e)) {
            return true;
          }
        }
        source.pop();
      } while (!source.empty());
      return false;
    }
    const size_t rid = cb + i - 1;
    for (;;) {
      const u32 hs = qhs[rid];
      const size_t si = (rid << csh) + (hs & 0xFFFFu);
      const u8 p = pp[si];
      const u64 m = f[si * 2 + 1];
      if (p < kEject) {
        if (!forward(p, m)) return true;
      } else if (p == kEject) {
        if (!eject(m)) return true;
      } else [[unlikely]] {
        drop_unroutable(r, static_cast<u32>(m >> kCycBits) & kDstMask,
                        (m >> 63) != 0, p);
      }
      const u32 nh = ((hs & 0xFFFFu) + 1) & cmask;
      const u32 size = (hs >> 16) - 1;
      qhs[rid] = nh | (size << 16);
      if (!size) {
        hr[rid] = kNever;
        return false;
      }
      const u64 nr = f[((rid << csh) + nh) * 2];
      hr[rid] = nr;
      if (nr > c) return false;
    }
  };

  // One round-robin pass visits the ready inputs in the rotation start,
  // start+1, ..., n_in-1, 0, ..., start-1, 64 at a time: bit k of
  // `ready` is input (start + base + k) mod n_in, and one chunk is the
  // whole pass on a router with at most 63 input links. An input's
  // readiness cannot change before its visit (a push lands at
  // c + delay > c), so a chunk's ready set is gathered up front. The
  // router retries at c + 1 exactly when an input blocked, or when a
  // ready input went unvisited because every budget ran out: every
  // other input ended empty or waiting on a flit whose push already
  // scheduled its wake.
  bool wake = false;
  for (u32 base = 0; base < n_in; base += 64) {
    u64 ready = 0;
    if (n_in <= 64) {
      ready = source.empty() ? 0 : 1;
      for (u32 j = 1; j < n_in; ++j) {
        ready |= static_cast<u64>(hr[cb + j - 1] <= c) << j;
      }
      if (start != 0) {
        ready = ((ready >> start) | (ready << (n_in - start))) &
                (~u64{0} >> (64 - n_in));
      }
    } else {
      // Wider routers exist only in topologies built through the API.
      for (u32 k = base; k < n_in && k < base + 64; ++k) {
        const u32 i = start + k < n_in ? start + k : start + k - n_in;
        const bool ok = i == 0 ? !source.empty() : hr[cb + i - 1] <= c;
        ready |= static_cast<u64>(ok) << (k - base);
      }
    }
    while (ready) {
      u32 i = start + base + static_cast<u32>(std::countr_zero(ready));
      if (i >= n_in) i -= n_in;
      ready &= ready - 1;
      wake |= drain_input(i);
      if constexpr (BW1) {
        // With every budget spent no later input can move anything (a
        // fault-era head with a dead route is consumed without budget,
        // so fault runs visit every input).
        if (n_in <= 64 && !chaos && obud == 0 && eject_budget <= 0) {
          wake |= ready != 0;
          break;
        }
      }
    }
  }
  if (wake) {
    const u64 t = c + 1;
    wheel[(t & wmask) * words + (r >> 6)] |= u64{1} << (r & 63);
  }
}

u64 EventCore::next_work(const u64 c) const {
  // Events due at or before a visited cycle were applied then, so the
  // next one is due at c or later.
  u64 t = total_;
  if (chaos_ && fault_pos_ < faults_.events.size()) {
    t = std::min<u64>(t, faults_.events[fault_pos_].at_cycle);
  }
  // Every live bit's cycle is the first occurrence of its slot at or
  // after c (the wake-horizon invariant), so the earliest non-empty
  // slot offset is the next cycle with a due router.
  for (size_t off = 0; off < W_ && c + off < t; ++off) {
    const u64* slot = &wheel_[((c + off) & wmask_) * words_];
    for (size_t w = 0; w < words_; ++w) {
      if (slot[w]) return c + off;
    }
  }
  return t;
}

void EventCore::round_robin_at(const u64 c) {
  // The arbitration pointer advances once per router per cycle, so a
  // router with n inputs starts its pass at c mod n. Consecutive cycles
  // step every start by one; a jump over idle cycles recomputes.
  const bool step = c == rr_cycle_ + 1;
  for (const u32 n : rr_counts_) {
    u32& s = rr_start_[n];
    s = step ? (s + 1 == n ? 0 : s + 1) : static_cast<u32>(c % n);
  }
  rr_cycle_ = c;
}

template <bool BW1, bool GRID>
void EventCore::run_cycles() {
  u64 c = 0;
  while (c < total_) {
    // Legacy cycle order: fault activations, then injection, then
    // switch allocation in ascending router order.
    if (chaos_ && fault_pos_ < faults_.events.size() &&
        faults_.events[fault_pos_].at_cycle <= c) {
      apply_faults_at(c);
    }
    if (c < inj_end_) draw_injections(c);
    round_robin_at(c);
    u64* slot = &wheel_[(c & wmask_) * words_];
    for (size_t w = 0; w < words_; ++w) {
      u64 bits = slot[w];
      if (!bits) continue;
      slot[w] = 0;
      const u32 rbase = static_cast<u32>(w << 6);
      do {
        const u32 r = rbase + static_cast<u32>(std::countr_zero(bits));
        bits &= bits - 1;
        turn<BW1, GRID>(r, c);
      } while (bits);
    }
    ++c;
    // Below inj_end_ every cycle draws; past it, jump to the next cycle
    // with a due router or a fault activation.
    if (c >= inj_end_) c = next_work(c);
  }
}

void EventCore::apply_faults_at(const u64 cycle) {
  bool changed = false;
  const auto kill_link = [&](size_t l) {
    if (!link_alive_[l]) return;
    link_alive_[l] = 0;
    ++dead_links_;
    const size_t rid = ring_of_link_[l];
    const size_t base = (rid << cap_shift_) << 1;
    const u32 hs = qhs_[rid];
    for (u32 i = 0; i < (hs >> 16); ++i) {
      const size_t j = ((hs & 0xFFFFu) + i) & cap_mask_;
      if (f_[base + j * 2 + 1] >> 63) ++fault_dropped_;
    }
    qhs_[rid] = 0;
    hr_[rid] = kNever;
    changed = true;
  };
  while (fault_pos_ < faults_.events.size() &&
         faults_.events[fault_pos_].at_cycle <= cycle) {
    const fault::FaultEvent& event = faults_.events[fault_pos_++];
    if (event.kind == fault::FaultEvent::Kind::kLink) {
      if (event.index < channels_) kill_link(event.index);
      continue;
    }
    const size_t r = event.index;
    if (r >= routers_ || !router_alive_[r]) continue;
    router_alive_[r] = 0;
    ++dead_routers_;
    // Out-link queues buffer at the downstream routers and drain
    // normally; the links themselves carry nothing further.
    for (const size_t l : topology_.out_links(r)) {
      if (link_alive_[l]) {
        link_alive_[l] = 0;
        ++dead_links_;
      }
    }
    for (const size_t l : in_channels_[r]) kill_link(l);
    // Queued offers die with the router; later ones are counted as
    // dropped when they are drawn.
    SourceQueue& source = src_[r];
    while (!source.empty()) {
      if (source.front() >> 63) ++fault_dropped_;
      source.pop();
    }
    changed = true;
  }
  if (changed) rebuild_live_ports();
}

/// Port-table flavour of the legacy rebuild_live_routes: one reverse
/// BFS per used destination over the surviving graph, minimal hops,
/// ties broken by out-link order. Identical Status rows.
void EventCore::rebuild_live_ports() {
  std::vector<u32> dist(routers_);
  std::vector<u32> bfs_queue(routers_);
  constexpr u32 kUnset = 0xFFFFFFFFu;
  for (size_t dst = 0; dst < routers_; ++dst) {
    if (!dst_used_[dst]) continue;
    std::fill(dist.begin(), dist.end(), kUnset);
    size_t qhead = 0;
    size_t qtail = 0;
    if (router_alive_[dst]) {
      dist[dst] = 0;
      bfs_queue[qtail++] = static_cast<u32>(dst);
    }
    while (qhead < qtail) {
      const size_t v = bfs_queue[qhead++];
      for (const size_t l : in_channels_[v]) {
        if (!link_alive_[l]) continue;
        const size_t u = topology_.link(l).src;
        if (!router_alive_[u] || dist[u] != kUnset) continue;
        dist[u] = dist[v] + 1;
        bfs_queue[qtail++] = static_cast<u32>(u);
      }
    }
    for (size_t at = 0; at < routers_; ++at) {
      if (at == dst) continue;
      const size_t key = at * routers_ + dst;
      if (!router_alive_[at]) {
        ports_.port[key] = kFailedPort;
        ports_.failures[key] =
            Status(StatusCode::kUnreachableRoute,
                   "simulate_network: router " + std::to_string(at) +
                       " failed");
        continue;
      }
      if (dist[at] == kUnset) {
        ports_.port[key] = kFailedPort;
        ports_.failures[key] =
            Status(StatusCode::kUnreachableRoute,
                   "simulate_network: no live route from router " +
                       std::to_string(at) + " to router " +
                       std::to_string(dst) +
                       (router_alive_[dst] ? " after link/router failures"
                                           : " (destination router failed)"));
        continue;
      }
      const auto& outs = topology_.out_links(at);
      for (size_t oi = 0; oi < outs.size(); ++oi) {
        const size_t l = outs[oi];
        if (!link_alive_[l]) continue;
        const size_t w = topology_.link(l).dst;
        if (!router_alive_[w] || dist[w] == kUnset) continue;
        if (dist[w] + 1 != dist[at]) continue;
        ports_.port[key] = static_cast<u8>(oi);
        break;
      }
    }
  }
  // The table changed under the in-flight flits: refresh every occupied
  // slot's cached port (rings emptied by the kill pass have size 0).
  for (size_t rid = 0; rid < channels_; ++rid) {
    const u32 hs = qhs_[rid];
    const u32 size = hs >> 16;
    if (!size) continue;
    const u32 owner = ring_owner_[rid];
    for (u32 i = 0; i < size; ++i) {
      const size_t si =
          (rid << cap_shift_) + (((hs & 0xFFFFu) + i) & cap_mask_);
      const u32 dstr = static_cast<u32>(f_[si * 2 + 1] >> kCycBits) & kDstMask;
      pp_[si] = dstr == owner
                    ? kEject
                    : ports_.port[static_cast<size_t>(owner) * routers_ + dstr];
    }
  }
}

FlitSimResult EventCore::run() {
  if (total_ > 0 && routers_ > 0) {
    if (bw1_) {
      if (use_grid_) {
        run_cycles<true, true>();
      } else {
        run_cycles<true, false>();
      }
    } else if (use_grid_) {
      run_cycles<false, true>();
    } else {
      run_cycles<false, false>();
    }
  }

  FlitSimResult result;
  result.route_failures = std::move(fails_);
  result.delivered = static_cast<size_t>(delivered_);
  result.injected = static_cast<size_t>(injected_);
  result.dropped = static_cast<size_t>(fault_dropped_);
  result.unreachable = static_cast<size_t>(unreachable_);
  result.dead_links = static_cast<size_t>(dead_links_);
  result.dead_routers = static_cast<size_t>(dead_routers_);
  result.turns_executed = turns_;
  result.mean_latency_cycles =
      delivered_ == 0
          ? 0.0
          : static_cast<double>(latency_) / static_cast<double>(delivered_);
  result.delivered_per_cycle =
      static_cast<double>(delivered_) /
      (static_cast<double>(config_.measure_cycles) *
       static_cast<double>(modules_));
  // Stability: everything measured was eventually resolved (delivered,
  // or — in fault mode — terminally dropped; losses are accounted, not
  // stuck in a queue).
  result.stable = result.delivered + result.dropped + result.unreachable >=
                  result.injected * 995 / 1000;
  return result;
}

}  // namespace

Status validate_router_delay(const double cycles) {
  if (cycles >= 1.0 && cycles <= kMaxRouterDelayCycles &&
      cycles == std::floor(cycles)) {
    return Status::ok();
  }
  char message[96];
  std::snprintf(message, sizeof(message),
                "router_delay_cycles must be a whole number of cycles in "
                "[1, %g], got %g",
                kMaxRouterDelayCycles, cycles);
  return Status(StatusCode::kInvalidSpec, message);
}

FlitSimResult simulate_network(const Topology& topology,
                               const Routing& routing,
                               const TrafficPattern& traffic,
                               double injection_rate,
                               const FlitSimConfig& config) {
  return simulate_network(topology, routing, traffic, injection_rate, config,
                          fault::FaultSchedule{});
}

FlitSimResult simulate_network(const Topology& topology,
                               const Routing& routing,
                               const TrafficPattern& traffic,
                               double injection_rate,
                               const FlitSimConfig& config,
                               const fault::FaultSchedule& faults) {
  EventCore core(topology, routing, traffic, injection_rate, config, faults);
  return core.run();
}

}  // namespace wi::noc
