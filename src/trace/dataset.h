// Synthetic signaling-trace dataset: the stand-in for the paper's 6.7 TB
// MobileInsight/MI-LAB corpus (§3.1: 4.7M messages, 30+ device models,
// 8 carriers, 24k management procedures, 2832 failures).
//
// The generator draws failures from the published Table 1 mix and emits
// *real encoded NAS messages* for the reject signaling; the analyzer
// parses them back (exercising the full codec path) and re-derives the
// Table 1 statistics and the legacy-disruption inputs of Fig. 2.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "nas/causes.h"
#include "simcore/rng.h"

namespace seed::trace {

struct ProcedureRecord {
  double timestamp_s = 0;        // within the collection window
  std::uint8_t carrier = 0;      // 8 carriers (paper §3.1)
  std::uint8_t device_model = 0; // 30+ device models
  nas::Plane plane = nas::Plane::kControl;
  bool failed = false;
  /// Encoded NAS message of the procedure outcome: a reject carrying the
  /// cause on failure, an accept otherwise.
  Bytes outcome_message;

  void encode(Writer& w) const;
  static std::optional<ProcedureRecord> decode(Reader& r);
};

struct Dataset {
  std::vector<ProcedureRecord> records;

  Bytes serialize() const;
  static std::optional<Dataset> deserialize(BytesView data);
};

/// Generates a dataset of `procedures` records (paper: 24k) with the
/// Table 1 cause mixture.
Dataset generate_dataset(sim::Rng& rng, std::size_t procedures = 24000);

struct CauseCount {
  nas::Plane plane;
  std::uint8_t cause;
  std::size_t count;
  double fraction_of_failures;
};

struct AnalysisResult {
  std::size_t procedures = 0;
  std::size_t failures = 0;
  std::size_t undecodable = 0;
  std::size_t control_plane_failures = 0;
  std::size_t data_plane_failures = 0;
  /// Sorted descending by count.
  std::vector<CauseCount> causes;

  double failure_ratio() const {
    return procedures == 0 ? 0.0
                           : static_cast<double>(failures) / procedures;
  }
  std::vector<CauseCount> top_causes(nas::Plane plane, std::size_t k) const;
};

/// Parses every outcome message and tallies causes (Table 1).
AnalysisResult analyze(const Dataset& dataset);

}  // namespace seed::trace
