// gNB model: RRC connection state and radio-bearer lifecycle per UE.
//
// The load-bearing behaviour for SEED is the last-bearer rule (paper §4.4.1
// / Fig. 6): when the last PDU session's radio bearer is released, the gNB
// releases the RRC connection and the UE context, so the next data session
// needs a full control-plane reattach. SEED's fast data-plane reset keeps a
// "DIAG" session alive to dodge exactly this.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>

#include "simcore/rng.h"
#include "simcore/simulator.h"

namespace seed::ran {

class Gnb {
 public:
  Gnb(sim::Simulator& sim, sim::Rng& rng);

  /// UE requests an RRC connection (random access + setup). `done` fires
  /// after the setup latency; false when the radio link is down.
  void rrc_connect(std::function<void(bool)> done);

  /// Immediate release (UE detach or inactivity).
  void rrc_release();

  /// Radio-bearer bookkeeping, driven by the core on session accept/release.
  void add_bearer(std::uint8_t psi);
  /// Returns true when this release was the last bearer (RRC + UE context
  /// released as a side effect).
  bool release_bearer(std::uint8_t psi);

  std::size_t bearer_count() const { return bearers_.size(); }

  /// Simulates radio outage (SEED does not handle radio-link failures
  /// directly, §4.3.2/§9 — this exists so tests can show the collaboration
  /// channel pausing when radio is broken).
  void set_radio_up(bool up);
  bool radio_up() const { return radio_up_; }

  /// Uplink/downlink one-way latency UE<->gNB including processing.
  sim::Duration hop_latency() const;

 private:
  sim::Simulator& sim_;
  sim::Rng& rng_;
  bool rrc_connected_ = false;
  bool radio_up_ = true;
  std::set<std::uint8_t> bearers_;
};

}  // namespace seed::ran
