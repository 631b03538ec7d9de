#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "sim/trace/buffer.hh"

namespace tf::sim {

namespace {
LogLevel g_level = LogLevel::Warn;

void
emit(const char *tag, const char *fmt, std::va_list args)
{
    std::string msg = vstrprintf(fmt, args);
    std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
}
} // namespace

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

LogLevel
logLevel()
{
    return g_level;
}

std::string
vstrprintf(const char *fmt, std::va_list args)
{
    std::va_list copy;
    va_copy(copy, args);
    int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (n < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(n));
}

std::string
strprintf(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    return s;
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    // A panic is an internal bug: ship the flight recorder's last
    // in-flight spans alongside the message before dying, so a CI
    // failure carries a picture of the final microseconds. fatal()
    // (user/configuration error) deliberately does not dump.
    trace::dumpFlightRecorder(msg.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    emit("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (g_level < LogLevel::Warn)
        return;
    std::va_list args;
    va_start(args, fmt);
    emit("warn", fmt, args);
    va_end(args);
}

void
debug(const char *fmt, ...)
{
    if (g_level < LogLevel::Debug)
        return;
    std::va_list args;
    va_start(args, fmt);
    emit("debug", fmt, args);
    va_end(args);
}

} // namespace tf::sim
