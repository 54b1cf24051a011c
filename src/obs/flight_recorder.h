// Per-UE flight recorder (the SEED observability layer, half four).
//
// Keeps a bounded ring of each UE's most recent trace events and, when a
// failure's handling hits a terminal state (kTerminalFailure: the
// escalation ladder ended in user notification, or the recovery watchdog
// abandoned the SEED path), freezes that UE's ring into a blackbox
// snapshot — the post-mortem trail an operator replays to see what the
// device did in its final moments. Like the health engine it is a
// strictly passive Tracer observer: pure bookkeeping, no simulator
// interaction, deterministic for identical runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/event_ring.h"
#include "obs/trace.h"

namespace seed::obs {

/// One frozen blackbox: the triggering terminal event plus the UE's last
/// `capacity` events leading up to it (oldest first, trigger included).
struct BlackboxSnapshot {
  std::uint32_t ue = 0;
  std::int64_t at_us = 0;   // terminal event's simulated time
  std::string reason;       // terminal event's detail
  std::vector<Event> events;
};

class FlightRecorder : public EventObserver {
 public:
  /// `capacity` bounds each UE's ring (and therefore each blackbox).
  explicit FlightRecorder(std::size_t capacity = 64) : rings_(capacity) {}

  /// Passive tap: appends the event to its UE's ring (kLog and kSloAlert
  /// lines are skipped — they carry no per-UE lifecycle); a
  /// kTerminalFailure freezes the ring into a blackbox snapshot.
  void on_trace_event(const Event& e) override;

  /// Replay path: feeds a recorded stream through the same logic.
  void ingest(const std::vector<Event>& events);

  const std::vector<BlackboxSnapshot>& blackboxes() const {
    return blackboxes_;
  }
  std::size_t capacity() const { return rings_.depth(); }
  /// UEs currently holding ring state (bounded by the fleet size).
  std::size_t tracked_ues() const { return rings_.size(); }

  /// Folds another recorder's blackboxes into this one in order (fleet
  /// merges call this in shard order; ring state does not merge — each
  /// shard's rings are only meaningful inside its own timeline).
  void merge_from(const FlightRecorder& other);

  /// Writes every blackbox as JSONL: a `blackbox` header line (ue,
  /// at_us, reason, event count) followed by the captured events in
  /// Tracer::export_jsonl's record format.
  void dump_jsonl(std::ostream& os) const;

  void clear();

 private:
  /// Per-UE history on the shared primitive (the same UeHistory the
  /// Tracer's tail-retention state uses); a ring grows with the UE's
  /// events up to `capacity`.
  UeHistory<Event> rings_;
  std::vector<BlackboxSnapshot> blackboxes_;
};

}  // namespace seed::obs
