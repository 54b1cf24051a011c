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
/// Only SLOG constructs one, and only when its level is enabled, so the
/// line always reaches the logger.
class LogLine {
 public:
  LogLine(LogLevel level, std::string_view component)
      : level_(level), component_(component) {}
  ~LogLine() { Logger::instance().write(level_, component_, out_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    out_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string_view component_;  // SLOG's argument outlives the statement
  std::ostringstream out_;
};

/// Gives SLOG's enabled arm type void, to match the disabled arm. `&`
/// binds looser than `<<`, so it takes the whole finished line.
struct LogVoidify {
  void operator&(const LogLine&) const {}
};

}  // namespace seed::sim

/// A disabled SLOG is a branch: it builds no stream and evaluates none of
/// its `<<` operands, so operands must be free of side effects. The
/// statement is one expression, so `if (c) SLOG(...) << x; else y();`
/// binds the `else` to the `if`.
#define SLOG(level, component)                                        \
  !::seed::sim::Logger::instance().enabled(::seed::sim::LogLevel::level) \
      ? static_cast<void>(0)                                          \
      : ::seed::sim::LogVoidify() &                                   \
            ::seed::sim::LogLine(::seed::sim::LogLevel::level, component)
