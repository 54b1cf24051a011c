// Minimal component-tagged logger stamped with simulated time.
//
// Logging is off by default (benches/tests stay quiet); examples turn it
// on to show the protocol timeline.
#pragma once

#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "simcore/time.h"

namespace seed::sim {

enum class LogLevel { kTrace, kDebug, kInfo, kWarn, kError, kOff };

class Logger {
 public:
  /// Receives every emitted line instead of the default stdout writer.
  /// The sink may call write_default() to keep the console output.
  using Sink = std::function<void(LogLevel, std::string_view component,
                                  std::string_view message,
                                  const TimePoint* now)>;

  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }
  void set_clock(const TimePoint* now) { now_ = now; }
  const TimePoint* clock() const { return now_; }

  void set_sink(Sink sink) { sink_ = std::move(sink); }

  bool enabled(LogLevel level) const { return level >= level_; }

  void write(LogLevel level, std::string_view component,
             std::string_view message);
  /// The stock stdout writer, bypassing any installed sink.
  void write_default(LogLevel level, std::string_view component,
                     std::string_view message);

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::kOff;
  const TimePoint* now_ = nullptr;
  Sink sink_;
};

/// Builds a log line with stream syntax:  SLOG(kInfo, "amf") << "attach";
class LogLine {
 public:
  LogLine(LogLevel level, std::string_view component)
      : level_(level), component_(component),
        live_(Logger::instance().enabled(level)) {}
  ~LogLine() {
    if (live_) Logger::instance().write(level_, component_, out_.str());
  }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    if (live_) out_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  bool live_;
  std::ostringstream out_;
};

}  // namespace seed::sim

#define SLOG(level, component) \
  ::seed::sim::LogLine(::seed::sim::LogLevel::level, component)
