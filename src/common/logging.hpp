/**
 * @file
 * Error-reporting helpers in the gem5 tradition: panic() for simulator
 * bugs, fatal() for user/configuration errors, warn()/inform() for status.
 */

#ifndef PARALOG_COMMON_LOGGING_HPP
#define PARALOG_COMMON_LOGGING_HPP

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace paralog {

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** @p s escaped for a JSON string literal: quote, backslash, newline,
 *  carriage return and tab by their short escapes, any other control
 *  character as a `\u00XX` escape. */
std::string jsonEscape(const std::string &s);

/**
 * What panic() carries when panic-throw mode is enabled: the simulation
 * is wedged or an invariant broke, but the *process* can carry on (the
 * matrix runner marks the cell failed and keeps draining its queue).
 */
class SimPanicError : public std::runtime_error
{
  public:
    explicit SimPanicError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Abort the simulation because of an internal invariant violation (a
 * simulator bug, never a user error). Calls std::abort() — unless
 * panic-throw mode is enabled, in which case it throws SimPanicError so
 * a harness running many independent simulations can contain the
 * failure to one of them.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Switch panic() between aborting (default; death tests and single-run
 * tools rely on it) and throwing SimPanicError. Returns the previous
 * setting so scoped users can restore it. Thread-safe: the flag is
 * atomic, and panics on any worker thread throw on that thread.
 */
bool setPanicThrows(bool throws);

/**
 * Terminate because the simulation cannot continue due to a user-visible
 * condition (bad configuration, invalid arguments). Calls std::exit(1).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr; the simulation continues. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational message to stderr; the simulation continues. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Globally silence warn()/inform() (used by benches for clean output). */
void setQuiet(bool quiet);

} // namespace paralog

#define PARALOG_ASSERT(cond, ...)                                          \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::paralog::panic("assertion '%s' failed at %s:%d: %s", #cond,   \
                             __FILE__, __LINE__,                            \
                             ::paralog::strprintf(__VA_ARGS__).c_str());    \
        }                                                                   \
    } while (0)

#endif // PARALOG_COMMON_LOGGING_HPP
