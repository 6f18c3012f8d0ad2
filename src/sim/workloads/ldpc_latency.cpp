/// \file ldpc_latency.cpp
/// \brief "ldpc_latency" workload plugin: Fig. 10 required Eb/N0 vs
///        decoding latency via Monte-Carlo BER simulation.

#include "wi/sim/workloads/ldpc_latency.hpp"

#include <algorithm>
#include <climits>
#include <numeric>
#include <optional>
#include <string>

#include "wi/fec/ber.hpp"
#include "wi/sim/spec_codec.hpp"
#include "wi/sim/workload.hpp"

namespace wi::sim {
namespace {

/// `values` without repeats, in first-seen order.
std::vector<std::size_t> distinct(const std::vector<std::size_t>& values) {
  std::vector<std::size_t> out;
  for (const std::size_t v : values) {
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

std::size_t index_of(const std::vector<std::size_t>& values, std::size_t v) {
  return static_cast<std::size_t>(
      std::find(values.begin(), values.end(), v) - values.begin());
}

/// "monotone in X" or "not monotone in X (rises at k of n steps)" for
/// required Eb/N0 values listed in increasing X.
std::string monotone_text(const std::vector<double>& ebn0,
                          const std::string& x) {
  std::size_t rises = 0;
  for (std::size_t i = 1; i < ebn0.size(); ++i) {
    if (ebn0[i] > ebn0[i - 1]) ++rises;
  }
  if (rises == 0) return "monotone in " + x;
  return "not monotone in " + x + " (rises at " +
         std::to_string(rises) + " of " + std::to_string(ebn0.size() - 1) +
         " steps)";
}

class LdpcLatencyRunner final : public WorkloadRunner {
 public:
  std::string name() const override { return "ldpc_latency"; }
  std::string payload_key() const override { return "ldpc"; }
  std::string description() const override {
    return "Fig. 10: required Eb/N0 vs decoding latency";
  }
  std::vector<std::string> headers() const override {
    return {"family", "N", "W", "latency_bits", "reqd_EbN0_dB"};
  }

  std::unique_ptr<WorkloadPayload> default_payload() const override {
    return std::make_unique<LdpcLatencySpec>();
  }

  Json payload_to_json(const ScenarioSpec& spec) const override {
    const auto& l = spec.payload<LdpcLatencySpec>();
    Json json = Json::object();
    json.set("target_ber", Json(l.target_ber));
    json.set("min_errors", Json(static_cast<double>(l.min_errors)));
    json.set("max_codewords", Json(static_cast<double>(l.max_codewords)));
    json.set("max_bp_iterations",
             Json(static_cast<double>(l.max_bp_iterations)));
    json.set("termination", Json(static_cast<double>(l.termination)));
    Json curves = Json::array();
    for (const auto& curve : l.cc_curves) {
      Json c = Json::object();
      c.set("lifting", Json(static_cast<double>(curve.lifting)));
      c.set("window_lo", Json(static_cast<double>(curve.window_lo)));
      c.set("window_hi", Json(static_cast<double>(curve.window_hi)));
      curves.push_back(std::move(c));
    }
    json.set("cc_curves", std::move(curves));
    json.set("bc_liftings", size_list_json(l.bc_liftings));
    json.set("search_lo_db", Json(l.search_lo_db));
    json.set("search_hi_db", Json(l.search_hi_db));
    json.set("search_step_db", Json(l.search_step_db));
    return json;
  }

  void payload_from_json(const Json& json,
                         ScenarioSpec& spec) const override {
    auto& l = spec.payload<LdpcLatencySpec>();
    ObjectReader reader(json, "ldpc");
    reader.number("target_ber", l.target_ber);
    reader.size("min_errors", l.min_errors);
    reader.size("max_codewords", l.max_codewords);
    reader.size("max_bp_iterations", l.max_bp_iterations);
    reader.size("termination", l.termination);
    reader.field("cc_curves", [&](const Json& curves) {
      l.cc_curves.clear();
      for (const auto& item : curves.as_array()) {
        LdpcCurveSpec curve;
        ObjectReader cr(item, "ldpc.cc_curves[]");
        cr.size("lifting", curve.lifting);
        cr.size("window_lo", curve.window_lo);
        cr.size("window_hi", curve.window_hi);
        cr.finish();
        l.cc_curves.push_back(curve);
      }
    });
    reader.size_list("bc_liftings", l.bc_liftings);
    reader.number("search_lo_db", l.search_lo_db);
    reader.number("search_hi_db", l.search_hi_db);
    reader.number("search_step_db", l.search_step_db);
    reader.finish();
  }

  Status validate(const ScenarioSpec& spec) const override {
    const auto& l = spec.payload<LdpcLatencySpec>();
    if (!(l.target_ber > 0.0 && l.target_ber < 1.0)) {
      return {StatusCode::kInvalidSpec,
              spec.name + ": target_ber must be in (0, 1)"};
    }
    if (l.min_errors < 1 || l.max_codewords < 1 ||
        l.max_bp_iterations < 1 || l.termination < 1) {
      return {StatusCode::kInvalidSpec,
              spec.name + ": ldpc Monte-Carlo settings must be >= 1"};
    }
    if (l.max_bp_iterations > static_cast<std::size_t>(INT_MAX)) {
      return {StatusCode::kInvalidSpec,
              spec.name + ": max_bp_iterations must be <= " +
                  std::to_string(INT_MAX)};
    }
    if (l.cc_curves.empty() && l.bc_liftings.empty()) {
      return {StatusCode::kInvalidSpec,
              spec.name + ": ldpc needs at least one CC curve or BC point"};
    }
    const std::size_t min_window =
        fec::EdgeSpreading::paper_example().mcc() + 1;
    for (const auto& curve : l.cc_curves) {
      if (curve.lifting < 1 || curve.window_lo < 1 ||
          curve.window_hi < curve.window_lo) {
        return {StatusCode::kInvalidSpec,
                spec.name + ": ldpc cc_curves need lifting/window_lo >= 1 "
                            "and window_hi >= window_lo"};
      }
      if (curve.window_lo < min_window) {
        return {StatusCode::kInvalidSpec,
                spec.name + ": ldpc cc_curves need window_lo >= mcc + 1 = " +
                    std::to_string(min_window)};
      }
    }
    for (const std::size_t lifting : l.bc_liftings) {
      if (lifting < 1) {
        return {StatusCode::kInvalidSpec,
                spec.name + ": bc_liftings must be >= 1"};
      }
    }
    if (l.search_step_db <= 0.0 || l.search_hi_db < l.search_lo_db) {
      return {StatusCode::kInvalidSpec,
              spec.name + ": ldpc Eb/N0 search bracket is inverted"};
    }
    return Status::ok();
  }

  Table run(const ScenarioSpec& spec, WorkloadEnv& env) const override {
    using namespace wi::fec;
    const LdpcLatencySpec& l = spec.payload<LdpcLatencySpec>();
    BpOptions bp;
    bp.max_iterations = static_cast<int>(l.max_bp_iterations);

    // Every distinct code is built once, then every required-Eb/N0
    // search runs as a task of its own. A search draws its noise from
    // its own seed (1000+N+W for LDPC-CC, 2000+N for LDPC-BC) and writes
    // only its own slot, so the table is the same at any thread count.
    std::vector<std::size_t> cc_liftings;
    for (const LdpcCurveSpec& curve : l.cc_curves) {
      cc_liftings.push_back(curve.lifting);
    }
    cc_liftings = distinct(cc_liftings);
    const std::vector<std::size_t> bc_liftings = distinct(l.bc_liftings);
    std::vector<std::optional<LdpcConvolutionalCode>> cc_codes(
        cc_liftings.size());
    std::vector<std::optional<QcLdpcBlockCode>> bc_codes(bc_liftings.size());
    env.parallel_for(cc_codes.size() + bc_codes.size(), [&](std::size_t i) {
      if (i < cc_codes.size()) {
        const std::size_t n = cc_liftings[i];
        cc_codes[i].emplace(EdgeSpreading::paper_example(), n, l.termination,
                            /*seed=*/n);
      } else {
        const std::size_t n = bc_liftings[i - cc_codes.size()];
        bc_codes[i - cc_codes.size()].emplace(BaseMatrix({{4, 4}}), n,
                                              /*seed=*/n);
      }
    });

    struct Search {
      std::size_t code = 0;    ///< index into cc_codes, or bc_codes if BC
      std::size_t window = 0;  ///< W; 0 marks an LDPC-BC search
      double ebn0_db = 0.0;
    };
    std::vector<Search> searches;
    for (const LdpcCurveSpec& curve : l.cc_curves) {
      for (std::size_t w = curve.window_lo; w <= curve.window_hi; ++w) {
        searches.push_back({index_of(cc_liftings, curve.lifting), w});
      }
    }
    for (const std::size_t n : l.bc_liftings) {
      searches.push_back({index_of(bc_liftings, n), 0});
    }
    // Start the costliest searches first, so the longest one does not
    // begin last and hold the fan-out open alone. A window search costs
    // about N * W * L bit-decodes per codeword, a block search N.
    const auto cost = [&](const Search& s) {
      return s.window > 0 ? cc_liftings[s.code] * s.window * l.termination
                          : bc_liftings[s.code];
    };
    std::vector<std::size_t> order(searches.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return cost(searches[a]) > cost(searches[b]);
                     });
    env.parallel_for(order.size(), [&](std::size_t k) {
      Search& search = searches[order[k]];
      BerConfig config;
      config.min_errors = l.min_errors;
      config.max_codewords = l.max_codewords;
      config.bp = bp;
      const auto find = [&](auto&& simulate) {
        return required_ebn0_db(
            [&](double ebn0) {
              config.ebn0_db = ebn0;
              return simulate();
            },
            l.target_ber, l.search_lo_db, l.search_hi_db, l.search_step_db);
      };
      if (search.window > 0) {
        const LdpcConvolutionalCode& code = *cc_codes[search.code];
        const WindowDecoder decoder(code, search.window, bp);
        config.seed = 1000 + code.lifting() + search.window;
        search.ebn0_db =
            find([&] { return simulate_ber_window(decoder, config); });
      } else {
        const QcLdpcBlockCode& code = *bc_codes[search.code];
        const BpDecoder decoder(code.parity_check());
        config.seed = 2000 + code.lifting();
        search.ebn0_db =
            find([&] { return simulate_ber_block(code, decoder, config); });
      }
    });

    Table table(headers());
    for (const Search& search : searches) {
      if (search.window > 0) {
        const LdpcConvolutionalCode& code = *cc_codes[search.code];
        table.add_row(
            {"LDPC-CC", Table::num(static_cast<long long>(code.lifting())),
             Table::num(static_cast<long long>(search.window)),
             Table::num(window_decoder_latency_bits(search.window,
                                                    code.lifting(), code.nv(),
                                                    code.rate_asymptotic()),
                        0),
             Table::num(search.ebn0_db, 2)});
      } else {
        const std::size_t n = bc_liftings[search.code];
        table.add_row({"LDPC-BC", Table::num(static_cast<long long>(n)), "-",
                       Table::num(block_code_latency_bits(n, 2, 0.5), 0),
                       Table::num(search.ebn0_db, 2)});
      }
    }
    env.note("target BER " + Table::num(l.target_ber, 6) + ", min_errors " +
             Table::num(static_cast<long long>(l.min_errors)) +
             ", max_codewords " +
             Table::num(static_cast<long long>(l.max_codewords)) + "; " +
             ldpc_trend_note(table));
    return table;
  }
};

}  // namespace

std::string ldpc_trend_note(const Table& table) {
  struct Point {
    std::size_t n = 0;
    std::size_t w = 0;
    double latency = 0.0;
    double ebn0 = 0.0;
  };
  std::vector<std::vector<Point>> cc_curves;
  std::vector<Point> bc;
  for (std::size_t r = 0; r < table.rows(); ++r) {
    Point p;
    p.n = std::stoul(table.cell(r, 1));
    p.latency = std::stod(table.cell(r, 3));
    p.ebn0 = std::stod(table.cell(r, 4));
    if (table.cell(r, 0) == "LDPC-BC") {
      bc.push_back(p);
      continue;
    }
    p.w = std::stoul(table.cell(r, 2));
    // A curve is a run of rows of one N in increasing W.
    if (cc_curves.empty() || cc_curves.back().back().n != p.n ||
        cc_curves.back().back().w >= p.w) {
      cc_curves.emplace_back();
    }
    cc_curves.back().push_back(p);
  }
  std::vector<std::string> parts;
  for (const std::vector<Point>& curve : cc_curves) {
    std::vector<double> ebn0;
    for (const Point& p : curve) ebn0.push_back(p.ebn0);
    parts.push_back("LDPC-CC N=" + std::to_string(curve.front().n) + " " +
                    monotone_text(ebn0, "W"));
  }
  if (!bc.empty()) {
    std::stable_sort(bc.begin(), bc.end(),
                     [](const Point& a, const Point& b) { return a.n < b.n; });
    std::vector<double> ebn0;
    for (const Point& p : bc) ebn0.push_back(p.ebn0);
    parts.push_back("LDPC-BC " + monotone_text(ebn0, "N"));
    if (!cc_curves.empty()) {
      // At equal or lower latency, does some LDPC-CC point need less?
      std::size_t beaten = 0;
      for (const Point& b : bc) {
        bool found = false;
        for (const auto& curve : cc_curves) {
          for (const Point& c : curve) {
            found = found || (c.latency <= b.latency && c.ebn0 < b.ebn0);
          }
        }
        if (found) ++beaten;
      }
      parts.push_back("an LDPC-CC point needs less Eb/N0 at equal or lower "
                      "latency at " + std::to_string(beaten) + " of " +
                      std::to_string(bc.size()) + " LDPC-BC points");
    }
  }
  std::string note = "required Eb/N0: ";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    note += (i == 0 ? "" : "; ") + parts[i];
  }
  return note;
}

WI_SIM_REGISTER_WORKLOAD(ldpc_latency, LdpcLatencyRunner)

}  // namespace wi::sim
