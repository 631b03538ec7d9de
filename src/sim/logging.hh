/**
 * @file
 * Minimal gem5-style logging and error reporting.
 *
 * panic()  -- internal simulator bug; aborts.
 * fatal()  -- user/configuration error; exits cleanly with an error code.
 * warn()   -- status message that never stops the simulation.
 * debug()  -- detail shown only at LogLevel::Debug.
 */

#ifndef TF_SIM_LOGGING_HH
#define TF_SIM_LOGGING_HH

#include <cstdarg>
#include <string>

namespace tf::sim {

/** Verbosity levels for status messages. */
enum class LogLevel { Silent = 0, Warn = 1, Debug = 2 };

/** Set the global verbosity threshold (default: Warn). */
void setLogLevel(LogLevel level);

/** Current global verbosity threshold. */
LogLevel logLevel();

/**
 * Report an internal simulator bug and abort. Never returns.
 * @param fmt printf-style format string.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user error and exit(1). Never returns.
 * @param fmt printf-style format string.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious-but-survivable condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report debug-level detail. */
void debug(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf into a std::string. */
std::string vstrprintf(const char *fmt, std::va_list args);
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace tf::sim

/**
 * Assert a simulation invariant; on failure, panic with location info.
 * Active in all build types (simulation correctness beats speed here).
 */
#define TF_ASSERT(cond, ...)                                               \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::tf::sim::panic("assertion '%s' failed at %s:%d: %s", #cond,  \
                             __FILE__, __LINE__,                           \
                             ::tf::sim::strprintf(__VA_ARGS__).c_str());   \
        }                                                                  \
    } while (0)

/**
 * Debug logging that costs one branch when filtered: the level check
 * happens before the call, so the arguments (which may themselves be
 * function calls — strrchr(), name().c_str(), ...) are never
 * evaluated unless Debug verbosity is actually enabled. Prefer this
 * over calling debug() directly on any hot path.
 */
#define TF_DEBUG(...)                                                      \
    do {                                                                   \
        if (::tf::sim::logLevel() >= ::tf::sim::LogLevel::Debug)           \
            ::tf::sim::debug(__VA_ARGS__);                                 \
    } while (0)

#endif // TF_SIM_LOGGING_HH
