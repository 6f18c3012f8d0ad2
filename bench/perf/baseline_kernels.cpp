/// \file baseline_kernels.cpp
/// \brief Frozen pre-optimization kernels; see baseline_kernels.hpp.
///
/// Bodies are verbatim copies of src/comm/src/info_rate.cpp and
/// src/noc/src/flit_sim.cpp as they stood before the vectorization PR,
/// and of src/fec/src/{bp,window}_decoder.cpp as they stood before the
/// decoder-workspace PR (modulo namespace and the explicit wi::
/// qualifications).

#include "baseline_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>
#include <vector>

#include "wi/common/math.hpp"
#include "wi/common/rng.hpp"

namespace wi::perf_baseline {

using comm::Constellation;
using comm::OneBitOsChannel;
using comm::SequenceRateOptions;

double mi_one_bit_symbolwise(const OneBitOsChannel& channel) {
  const std::size_t m = channel.samples_per_symbol();
  const std::size_t order = channel.constellation().order();
  const std::size_t patterns = std::size_t{1} << m;
  const auto windows = channel.all_windows();
  const double window_weight = 1.0 / static_cast<double>(windows.size());

  // P(y | x_t = a): marginalise the span-1 interfering symbols.
  std::vector<std::vector<double>> p_y_given_a(
      order, std::vector<double>(patterns, 0.0));
  for (const auto& window : windows) {
    const std::vector<double> z = channel.noiseless_block(window);
    std::vector<double> p1(m);
    for (std::size_t s = 0; s < m; ++s) p1[s] = channel.sample_one_prob(z[s]);
    for (std::size_t pat = 0; pat < patterns; ++pat) {
      double prob = 1.0;
      for (std::size_t s = 0; s < m; ++s) {
        prob *= ((pat >> s) & 1u) ? p1[s] : (1.0 - p1[s]);
      }
      p_y_given_a[window[0]][pat] +=
          prob * window_weight * static_cast<double>(order);
    }
  }
  std::vector<double> p_y(patterns, 0.0);
  for (std::size_t a = 0; a < order; ++a) {
    for (std::size_t pat = 0; pat < patterns; ++pat) {
      p_y[pat] += p_y_given_a[a][pat] / static_cast<double>(order);
    }
  }
  double mi = 0.0;
  for (std::size_t a = 0; a < order; ++a) {
    for (std::size_t pat = 0; pat < patterns; ++pat) {
      const double p = p_y_given_a[a][pat];
      if (p > 0.0 && p_y[pat] > 0.0) {
        mi += (p / static_cast<double>(order)) * std::log2(p / p_y[pat]);
      }
    }
  }
  return std::max(0.0, mi);
}

double conditional_entropy_rate(const OneBitOsChannel& channel) {
  const auto windows = channel.all_windows();
  const std::size_t m = channel.samples_per_symbol();
  double h = 0.0;
  for (const auto& window : windows) {
    const std::vector<double> z = channel.noiseless_block(window);
    for (std::size_t s = 0; s < m; ++s) {
      h += binary_entropy(channel.sample_one_prob(z[s]));
    }
  }
  return h / static_cast<double>(windows.size());
}

double info_rate_one_bit_sequence(const OneBitOsChannel& channel,
                                  const SequenceRateOptions& options) {
  const std::size_t order = channel.constellation().order();
  const std::size_t span = channel.filter().span_symbols();
  const std::size_t states = channel.state_count();
  const std::size_t m = channel.samples_per_symbol();

  // Pre-compute per-branch sample probabilities: branch = (state, input)
  // with state encoding the span-1 previous symbols (most recent in the
  // lowest digit). The emitted window is [input, state digits...].
  const std::size_t branches = states * order;
  std::vector<std::vector<double>> branch_p1(branches, std::vector<double>(m));
  std::vector<std::size_t> branch_next(branches);
  {
    std::vector<std::size_t> window(span);
    for (std::size_t state = 0; state < states; ++state) {
      for (std::size_t input = 0; input < order; ++input) {
        window[0] = input;
        std::size_t rem = state;
        for (std::size_t k = 1; k < span; ++k) {
          window[k] = rem % order;
          rem /= order;
        }
        const std::vector<double> z = channel.noiseless_block(window);
        const std::size_t b = state * order + input;
        for (std::size_t s = 0; s < m; ++s) {
          branch_p1[b][s] = channel.sample_one_prob(z[s]);
        }
        // Next state: shift input into the most-recent digit.
        std::size_t next = input;
        std::size_t mult = order;
        rem = state;
        for (std::size_t k = 1; k + 1 < span; ++k) {
          next += (rem % order) * mult;
          mult *= order;
          rem /= order;
        }
        branch_next[b] = (span > 1) ? next : 0;
      }
    }
  }

  Rng rng(options.seed);
  const auto sim = channel.simulate(options.symbols, rng);

  // Normalised forward recursion over the hidden state for H(Y).
  std::vector<double> alpha(states, 1.0 / static_cast<double>(states));
  std::vector<double> next_alpha(states);
  double log2_py = 0.0;
  const double input_prob = 1.0 / static_cast<double>(order);
  for (std::size_t t = 0; t < options.symbols; ++t) {
    const std::uint32_t pattern = sim.patterns[t];
    std::fill(next_alpha.begin(), next_alpha.end(), 0.0);
    for (std::size_t state = 0; state < states; ++state) {
      const double a = alpha[state];
      if (a <= 0.0) continue;
      for (std::size_t input = 0; input < order; ++input) {
        const std::size_t b = state * order + input;
        double prob = 1.0;
        const auto& p1 = branch_p1[b];
        for (std::size_t s = 0; s < m; ++s) {
          prob *= ((pattern >> s) & 1u) ? p1[s] : (1.0 - p1[s]);
        }
        next_alpha[branch_next[b]] += a * input_prob * prob;
      }
    }
    double norm = 0.0;
    for (const double v : next_alpha) norm += v;
    if (norm <= 0.0) {
      std::fill(next_alpha.begin(), next_alpha.end(),
                1.0 / static_cast<double>(states));
      norm = 1.0;
    }
    log2_py += std::log2(norm);
    for (std::size_t state = 0; state < states; ++state) {
      alpha[state] = next_alpha[state] / norm;
    }
  }
  const double h_y = -log2_py / static_cast<double>(options.symbols);
  // Qualified: ADL on OneBitOsChannel would also find wi::comm's.
  const double h_y_given_x = perf_baseline::conditional_entropy_rate(channel);
  const double rate = h_y - h_y_given_x;
  return std::clamp(rate, 0.0,
                    std::log2(static_cast<double>(order)));
}

namespace {

struct Flit {
  std::size_t dst_router = 0;
  std::size_t dst_module = 0;
  std::uint64_t inject_cycle = 0;
  bool measured = false;
  std::uint64_t ready_cycle = 0;  ///< earliest cycle it can move again
};

/// One FIFO per channel (plus per-router injection FIFOs).
struct Queue {
  std::deque<Flit> flits;
};

}  // namespace

noc::FlitSimResult simulate_network(const noc::Topology& topology,
                                    const noc::Routing& routing,
                                    const noc::TrafficPattern& traffic,
                                    double injection_rate,
                                    const noc::FlitSimConfig& config) {
  using noc::Route;
  using noc::Topology;
  const std::size_t modules = topology.module_count();
  const std::size_t routers = topology.router_count();
  const std::size_t channels = topology.link_count();
  if (traffic.modules() != modules) {
    throw std::invalid_argument("simulate_network: traffic mismatch");
  }

  // Per-destination cumulative distribution per source for fast sampling.
  std::vector<std::vector<double>> cdf(modules, std::vector<double>(modules));
  for (std::size_t s = 0; s < modules; ++s) {
    double acc = 0.0;
    for (std::size_t d = 0; d < modules; ++d) {
      acc += traffic.probability(s, d);
      cdf[s][d] = acc;
    }
  }

  // Next-hop lookup: for (router, dst_router) we ask the routing function
  // on demand and cache the first link of the path.
  std::vector<std::size_t> next_link_cache(routers * routers, Topology::npos);
  auto next_link = [&](std::size_t at, std::size_t dst) {
    std::size_t& cached = next_link_cache[at * routers + dst];
    if (cached == Topology::npos) {
      const Route r = routing.route(topology, at, dst);
      cached = r.empty() ? Topology::npos : r.front();
      if (r.empty()) {
        throw std::logic_error("simulate_network: empty route for transit");
      }
    }
    return cached;
  };

  std::vector<Queue> channel_queue(channels);
  std::vector<Queue> inject_queue(routers);
  std::vector<std::size_t> rr_state(routers, 0);  // round-robin pointer

  // Incoming channel list per router.
  std::vector<std::vector<std::size_t>> in_channels(routers);
  for (std::size_t l = 0; l < channels; ++l) {
    in_channels[topology.link(l).dst].push_back(l);
  }

  Rng rng(config.seed);
  noc::FlitSimResult result;
  double latency_sum = 0.0;

  const std::uint64_t total_cycles = config.warmup_cycles +
                                     config.measure_cycles +
                                     config.drain_cycles;
  const std::uint64_t measure_begin = config.warmup_cycles;
  const std::uint64_t measure_end =
      config.warmup_cycles + config.measure_cycles;

  for (std::uint64_t cycle = 0; cycle < total_cycles; ++cycle) {
    const bool in_window = cycle >= measure_begin && cycle < measure_end;
    // 1. Injection: Bernoulli approximation of Poisson arrivals
    //    (injection_rate < 1 per module per cycle).
    if (cycle < measure_end) {
      for (std::size_t m = 0; m < modules; ++m) {
        if (!rng.bernoulli(injection_rate)) continue;
        const double u = rng.uniform();
        std::size_t d = 0;
        while (d + 1 < modules && cdf[m][d] < u) ++d;
        Flit flit;
        flit.dst_module = d;
        flit.dst_router = topology.module_router(d);
        flit.inject_cycle = cycle;
        flit.measured = in_window;
        flit.ready_cycle = cycle;
        if (flit.measured) ++result.injected;
        inject_queue[topology.module_router(m)].flits.push_back(flit);
      }
    }

    // 2. Switch allocation per router: each output channel (and the
    //    ejection port) accepts up to `bandwidth` flits per cycle,
    //    round-robin over the input queues (injection + incoming
    //    channels).
    for (std::size_t r = 0; r < routers; ++r) {
      // Budget per output channel this cycle.
      const auto& outs = topology.out_links(r);
      std::vector<int> budget(outs.size());
      for (std::size_t i = 0; i < outs.size(); ++i) {
        budget[i] = static_cast<int>(topology.link(outs[i]).bandwidth);
        if (budget[i] < 1) budget[i] = 1;
      }
      int eject_budget = 1;

      // Input queue list: index 0 = injection, then incoming channels.
      const std::size_t n_inputs = 1 + in_channels[r].size();
      const std::size_t start = rr_state[r] % n_inputs;
      for (std::size_t k = 0; k < n_inputs; ++k) {
        const std::size_t qi = (start + k) % n_inputs;
        Queue& q = (qi == 0) ? inject_queue[r]
                             : channel_queue[in_channels[r][qi - 1]];
        // Move as many head flits as outputs allow (one per output).
        while (!q.flits.empty()) {
          Flit& flit = q.flits.front();
          if (flit.ready_cycle > cycle) break;
          if (flit.dst_router == r) {
            if (eject_budget <= 0) break;
            --eject_budget;
            // Delivered.
            if (flit.measured) {
              ++result.delivered;
              latency_sum += static_cast<double>(
                  cycle + static_cast<std::uint64_t>(
                              config.router_delay_cycles) -
                  flit.inject_cycle);
            }
            q.flits.pop_front();
            continue;
          }
          const std::size_t l = next_link(r, flit.dst_router);
          // Find the local output index.
          std::size_t oi = 0;
          while (outs[oi] != l) ++oi;
          if (budget[oi] <= 0) break;
          Queue& dst_queue = channel_queue[l];
          if (dst_queue.flits.size() >= config.buffer_depth) break;
          --budget[oi];
          Flit moved = flit;
          // A hop costs router_delay cycles total (pipeline + transfer),
          // matching the analytic model's per-hop latency.
          moved.ready_cycle =
              cycle + static_cast<std::uint64_t>(config.router_delay_cycles);
          dst_queue.flits.push_back(moved);
          q.flits.pop_front();
        }
      }
      rr_state[r] = (rr_state[r] + 1) % n_inputs;
    }
  }

  result.mean_latency_cycles =
      result.delivered == 0 ? 0.0
                            : latency_sum / static_cast<double>(result.delivered);
  result.delivered_per_cycle =
      static_cast<double>(result.delivered) /
      (static_cast<double>(config.measure_cycles) *
       static_cast<double>(modules));
  // Stability: everything measured was eventually delivered.
  result.stable = result.delivered >= result.injected * 995 / 1000;
  return result;
}

// --- LDPC decoders ----------------------------------------------------

BpDecoder::BpDecoder(const fec::SparseBinaryMatrix& h)
    : n_vars_(h.cols()), n_checks_(h.rows()) {
  check_edge_begin_.resize(n_checks_ + 1, 0);
  for (std::size_t c = 0; c < n_checks_; ++c) {
    check_edge_begin_[c + 1] =
        check_edge_begin_[c] + static_cast<std::uint32_t>(h.row(c).size());
  }
  edge_var_.resize(check_edge_begin_[n_checks_]);
  var_edges_.resize(n_vars_);
  for (std::size_t c = 0; c < n_checks_; ++c) {
    std::uint32_t e = check_edge_begin_[c];
    for (const std::uint32_t v : h.row(c)) {
      edge_var_[e] = v;
      var_edges_[v].push_back(e);
      ++e;
    }
  }
}

fec::BpResult BpDecoder::decode(
    const std::vector<double>& channel_llr, const fec::BpOptions& options,
    const std::vector<std::uint8_t>* check_parity) const {
  if (channel_llr.size() != n_vars_) {
    throw std::invalid_argument("BpDecoder::decode: LLR length mismatch");
  }
  if (check_parity != nullptr && check_parity->size() != n_checks_) {
    throw std::invalid_argument("BpDecoder::decode: parity length mismatch");
  }
  const std::size_t n_edges = edge_var_.size();
  std::vector<double> v2c(n_edges);
  std::vector<double> c2v(n_edges, 0.0);

  fec::BpResult result;
  result.hard.assign(n_vars_, 0);
  result.llr_out = channel_llr;

  // Initial variable-to-check messages are the channel LLRs.
  for (std::size_t e = 0; e < n_edges; ++e) {
    v2c[e] = channel_llr[edge_var_[e]];
  }

  const double clip = options.llr_clip;
  auto clipped = [clip](double x) { return std::clamp(x, -clip, clip); };

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    result.iterations = iter;

    // Check node update.
    for (std::size_t c = 0; c < n_checks_; ++c) {
      const std::uint32_t begin = check_edge_begin_[c];
      const std::uint32_t end = check_edge_begin_[c + 1];
      const double target_sign =
          (check_parity != nullptr && (*check_parity)[c]) ? -1.0 : 1.0;
      // Sum-product via the tanh rule, leave-one-out by division with
      // a guarded fallback when a message saturates.
      double prod = target_sign;
      bool saturated = false;
      for (std::uint32_t e = begin; e < end; ++e) {
        const double t = std::tanh(0.5 * clipped(v2c[e]));
        if (std::abs(t) < 1e-12) saturated = true;
        prod *= t;
      }
      for (std::uint32_t e = begin; e < end; ++e) {
        double t_out;
        const double t_e = std::tanh(0.5 * clipped(v2c[e]));
        if (!saturated && std::abs(t_e) > 1e-12) {
          t_out = prod / t_e;
        } else {
          // Recompute leave-one-out explicitly.
          t_out = target_sign;
          for (std::uint32_t e2 = begin; e2 < end; ++e2) {
            if (e2 == e) continue;
            t_out *= std::tanh(0.5 * clipped(v2c[e2]));
          }
        }
        t_out = std::clamp(t_out, -0.9999999999, 0.9999999999);
        c2v[e] = clipped(2.0 * std::atanh(t_out));
      }
    }

    // Variable node update and posterior.
    for (std::size_t v = 0; v < n_vars_; ++v) {
      double total = channel_llr[v];
      for (const std::uint32_t e : var_edges_[v]) total += c2v[e];
      result.llr_out[v] = total;
      result.hard[v] = total < 0.0 ? 1 : 0;
      for (const std::uint32_t e : var_edges_[v]) {
        v2c[e] = clipped(total - c2v[e]);
      }
    }

    bool satisfied = true;
    for (std::size_t c = 0; c < n_checks_ && satisfied; ++c) {
      std::uint8_t parity = 0;
      for (std::uint32_t e = check_edge_begin_[c];
           e < check_edge_begin_[c + 1]; ++e) {
        parity ^= result.hard[edge_var_[e]];
      }
      const std::uint8_t target =
          (check_parity != nullptr) ? (*check_parity)[c] : 0;
      if (parity != target) satisfied = false;
    }
    if (satisfied) {
      result.converged = true;
      return result;
    }
  }
  // Final syndrome check when no iteration converged.
  bool satisfied = true;
  for (std::size_t c = 0; c < n_checks_ && satisfied; ++c) {
    std::uint8_t parity = 0;
    for (std::uint32_t e = check_edge_begin_[c]; e < check_edge_begin_[c + 1];
         ++e) {
      parity ^= result.hard[edge_var_[e]];
    }
    const std::uint8_t target =
        (check_parity != nullptr) ? (*check_parity)[c] : 0;
    if (parity != target) satisfied = false;
  }
  result.converged = satisfied;
  return result;
}

WindowDecoder::WindowDecoder(const fec::LdpcConvolutionalCode& code,
                             std::size_t window, fec::BpOptions bp_options)
    : code_(code), window_(window), bp_options_(bp_options) {
  if (window_ < code_.mcc() + 1) {
    throw std::invalid_argument(
        "WindowDecoder: W must be at least mcc + 1");
  }
  window_ = std::min(window_, code_.termination());

  // Precompute the per-position subproblems: the window structure only
  // depends on the position, so the (expensive) Tanner graph and
  // decoder construction happens once, not once per codeword.
  const std::size_t block_bits = code_.block_bits();
  const std::size_t big_l = code_.termination();
  const std::size_t check_block = code_.nc() * code_.lifting();
  const fec::SparseBinaryMatrix& h = code_.parity_check();

  positions_.reserve(big_l);
  for (std::size_t t = 0; t < big_l; ++t) {
    Position pos;
    const std::size_t var_hi = std::min(t + window_, big_l);
    std::size_t chk_hi = t + window_;
    if (var_hi == big_l) chk_hi = big_l + code_.mcc();  // use termination
    chk_hi = std::min(chk_hi, big_l + code_.mcc());

    pos.var_begin = t * block_bits;
    pos.var_end = var_hi * block_bits;
    pos.chk_begin = t * check_block;
    pos.chk_end = chk_hi * check_block;
    pos.commit_end = (var_hi == big_l) ? pos.var_end
                                       : pos.var_begin + block_bits;
    pos.last = (var_hi == big_l);

    fec::SparseBinaryMatrix sub(pos.chk_end - pos.chk_begin,
                           pos.var_end - pos.var_begin);
    for (std::size_t c = pos.chk_begin; c < pos.chk_end; ++c) {
      for (const std::uint32_t v : h.row(c)) {
        if (v >= pos.var_end) {
          throw std::logic_error("WindowDecoder: future variable in window");
        }
        if (v >= pos.var_begin) {
          sub.insert(c - pos.chk_begin, v - pos.var_begin);
        } else {
          // Frozen (already decoded) variable: its value feeds the
          // check's parity target at decode time.
          pos.frozen.push_back({static_cast<std::uint32_t>(c - pos.chk_begin),
                                static_cast<std::uint32_t>(v)});
        }
      }
    }
    pos.decoder = std::make_unique<BpDecoder>(sub);
    positions_.push_back(std::move(pos));
    if (positions_.back().last) break;  // the tail window commits the rest
  }
}

fec::WindowDecodeResult WindowDecoder::decode(
    const std::vector<double>& channel_llr) const {
  if (channel_llr.size() != code_.codeword_length()) {
    throw std::invalid_argument("WindowDecoder: LLR length mismatch");
  }

  fec::WindowDecodeResult result;
  result.hard.assign(channel_llr.size(), 0);

  for (const Position& pos : positions_) {
    std::vector<std::uint8_t> parity(pos.chk_end - pos.chk_begin, 0);
    for (const auto& [check, var] : pos.frozen) {
      parity[check] ^= result.hard[var];
    }
    std::vector<double> sub_llr(
        channel_llr.begin() + static_cast<std::ptrdiff_t>(pos.var_begin),
        channel_llr.begin() + static_cast<std::ptrdiff_t>(pos.var_end));
    const fec::BpResult bp = pos.decoder->decode(sub_llr, bp_options_, &parity);
    ++result.windows_run;
    result.bp_iterations += static_cast<std::size_t>(bp.iterations);
    if (!bp.converged) ++result.unconverged;

    // Commit the target block (everything left, at the final position).
    for (std::size_t v = pos.var_begin; v < pos.commit_end; ++v) {
      result.hard[v] = bp.hard[v - pos.var_begin];
    }
  }
  return result;
}

}  // namespace wi::perf_baseline
