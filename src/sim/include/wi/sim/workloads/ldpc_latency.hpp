#pragma once
/// \file ldpc_latency.hpp
/// \brief Payload of the "ldpc_latency" workload (Fig. 10 BER scan).

#include <cstddef>
#include <string>
#include <vector>

#include "wi/common/table.hpp"
#include "wi/sim/scenario.hpp"

namespace wi::sim {

/// One LDPC-CC curve of Fig. 10: a lifting factor N scanned over
/// decoding-window sizes W.
struct LdpcCurveSpec {
  std::size_t lifting = 25;
  std::size_t window_lo = 3;
  std::size_t window_hi = 8;
};

/// Fig. 10 Monte-Carlo settings. The defaults target BER 1e-4 with
/// capped codeword counts (minutes, trends preserved); the paper's
/// 1e-5 operating point needs min_errors/max_codewords raised.
struct LdpcLatencySpec : PayloadBase<LdpcLatencySpec> {
  double target_ber = 1e-4;
  std::size_t min_errors = 80;
  std::size_t max_codewords = 800;
  std::size_t max_bp_iterations = 50;
  std::size_t termination = 24;  ///< L (latency is L-independent)
  std::vector<LdpcCurveSpec> cc_curves = {{25, 3, 8}, {40, 3, 8}, {60, 4, 6}};
  std::vector<std::size_t> bc_liftings = {100, 150, 200, 300, 400};
  double search_lo_db = 1.5;    ///< Eb/N0 bisection bracket
  double search_hi_db = 6.0;
  double search_step_db = 0.25;
};

/// The trend statement of an ldpc_latency result table, computed from
/// its printed cells: for each LDPC-CC curve (a run of rows of one N in
/// increasing W) whether required Eb/N0 is non-increasing in W, and if
/// not at how many W steps it rises; the same for the LDPC-BC points
/// in increasing N; and at how many LDPC-BC points some LDPC-CC point
/// of equal or lower latency needs less Eb/N0.
[[nodiscard]] std::string ldpc_trend_note(const Table& table);

}  // namespace wi::sim
