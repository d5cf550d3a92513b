// Minimal leveled logger.  // lint-invariants: allow(orphan-header)
//
// Benchmark binaries print their results through common/table.hpp; the logger
// is for progress/diagnostic chatter and is silenced below the global level.
// No program calls it yet: it stays for the serving path's request logging.
#pragma once

#include <iostream>
#include <sstream>
#include <string>

namespace gaurast {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Returns the mutable global minimum level (default: kWarn so tests and
/// benches stay quiet unless asked).
LogLevel& global_log_level();

/// Emits one log line to stderr if `level` passes the global threshold.
void log_message(LogLevel level, const std::string& message);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_message(level_, os_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    os_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace gaurast

#define GAURAST_LOG(level) ::gaurast::detail::LogLine(::gaurast::LogLevel::level)
#define GAURAST_DEBUG GAURAST_LOG(kDebug)
#define GAURAST_INFO GAURAST_LOG(kInfo)
#define GAURAST_WARN GAURAST_LOG(kWarn)
#define GAURAST_ERROR GAURAST_LOG(kError)
