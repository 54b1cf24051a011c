#include "ran/gnb.h"

#include "common/params.h"
#include "simcore/log.h"

namespace seed::ran {

Gnb::Gnb(sim::Simulator& sim, sim::Rng& rng) : sim_(sim), rng_(rng) {}

void Gnb::rrc_connect(std::function<void(bool)> done) {
  if (!radio_up_) {
    sim_.schedule_after(params::kRrcSetup, [done] { done(false); });
    return;
  }
  if (rrc_connected_) {
    sim_.schedule_after(sim::ms(1), [done] { done(true); });
    return;
  }
  const auto setup = sim::secs_f(
      sim::to_seconds(params::kRrcSetup) * rng_.uniform(0.85, 1.3));
  sim_.schedule_after(setup, [this, done] {
    rrc_connected_ = radio_up_;
    SLOG(kDebug, "gnb") << "rrc setup "
                        << (rrc_connected_ ? "complete" : "failed");
    done(rrc_connected_);
  });
}

void Gnb::rrc_release() {
  SLOG(kDebug, "gnb") << "rrc release";
  rrc_connected_ = false;
  bearers_.clear();
}

void Gnb::add_bearer(std::uint8_t psi) {
  rrc_connected_ = true;
  bearers_.insert(psi);
}

bool Gnb::release_bearer(std::uint8_t psi) {
  bearers_.erase(psi);
  if (bearers_.empty()) {
    // Last-bearer rule: the gNB tears down RRC and the UE context.
    SLOG(kDebug, "gnb") << "last bearer released, tearing down RRC";
    rrc_connected_ = false;
    return true;
  }
  return false;
}

void Gnb::set_radio_up(bool up) {
  radio_up_ = up;
  if (!up) {
    rrc_connected_ = false;
    bearers_.clear();
  }
}

sim::Duration Gnb::hop_latency() const {
  return params::kUeGnbLatency;
}

}  // namespace seed::ran
