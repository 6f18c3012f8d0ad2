#pragma once
/// \file units.hpp
/// \brief Unit conversions used throughout the library.
///
/// All quantities carry their unit in the identifier (`*_db`, `*_dbm`,
/// `*_hz`, `*_mm`, ...). These helpers convert between logarithmic and
/// linear domains and between power conventions.

#include <cmath>

namespace wi {

/// Convert a linear power ratio to decibels.
[[nodiscard]] inline double lin_to_db(double linear) {
  return 10.0 * std::log10(linear);
}

/// Convert decibels to a linear power ratio.
[[nodiscard]] inline double db_to_lin(double db) {
  return std::pow(10.0, db / 10.0);
}

/// Convert decibels to an amplitude (voltage) ratio.
[[nodiscard]] inline double db_to_amp(double db) {
  return std::pow(10.0, db / 20.0);
}

/// Convert power in watt to dBm.
[[nodiscard]] inline double watt_to_dbm(double watt) {
  return 10.0 * std::log10(watt) + 30.0;
}

}  // namespace wi
