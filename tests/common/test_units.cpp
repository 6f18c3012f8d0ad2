#include "wi/common/units.hpp"

#include <gtest/gtest.h>

#include "wi/common/constants.hpp"

namespace wi {
namespace {

TEST(Units, DbRoundTrip) {
  for (const double db : {-30.0, -3.0, 0.0, 3.0, 10.0, 59.8}) {
    EXPECT_NEAR(lin_to_db(db_to_lin(db)), db, 1e-12);
  }
}

TEST(Units, KnownDbValues) {
  EXPECT_NEAR(db_to_lin(10.0), 10.0, 1e-12);
  EXPECT_NEAR(db_to_lin(3.0), 1.9952623149688795, 1e-12);
  EXPECT_NEAR(lin_to_db(2.0), 3.0102999566398120, 1e-12);
  EXPECT_NEAR(lin_to_db(1.0), 0.0, 1e-12);
}

TEST(Units, AmplitudeVsPower) {
  // 20 dB in amplitude is a factor 10; in power a factor 100.
  EXPECT_NEAR(db_to_amp(20.0), 10.0, 1e-12);
  EXPECT_NEAR(db_to_lin(20.0), 100.0, 1e-12);
}

TEST(Units, WattToDbm) {
  EXPECT_NEAR(watt_to_dbm(1e-3), 0.0, 1e-12);
  EXPECT_NEAR(watt_to_dbm(1.0), 30.0, 1e-12);
  EXPECT_NEAR(watt_to_dbm(2e-3), 3.0102999566398120, 1e-12);
}

TEST(Constants, ThermalNoiseDensity) {
  // kT at 290 K in dBm/Hz should match the canonical -174 dBm/Hz.
  const double ktb_dbm = watt_to_dbm(kBoltzmann_jpk * 290.0);
  EXPECT_NEAR(ktb_dbm, kThermalNoiseDensity290k_dbmhz, 0.01);
}

TEST(Constants, SpeedOfLightWavelength) {
  // 232.5 GHz carrier -> lambda ~ 1.29 mm (4x4 array in 2mm x 2mm).
  const double lambda_mm = kSpeedOfLight_mps / 232.5e9 * 1e3;
  EXPECT_NEAR(lambda_mm, 1.2894, 1e-3);
}

}  // namespace
}  // namespace wi
