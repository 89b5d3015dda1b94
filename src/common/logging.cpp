#include "common/logging.hpp"

#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace rog {

namespace {
LogLevel g_level = LogLevel::Warn;
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

namespace detail {

namespace {

/**
 * The file name without its directories: __FILE__ is the build's
 * absolute source path, which would make the same message differ
 * between two checkouts of one commit (and leak the build host's
 * layout into logs).
 */
std::string_view
baseName(std::string_view file)
{
    const std::size_t slash = file.find_last_of("/\\");
    return slash == std::string_view::npos ? file
                                           : file.substr(slash + 1);
}

} // namespace

void
panicImpl(std::string_view file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << " @ " << baseName(file) << ":" << line
              << std::endl;
    std::abort();
}

void
fatalImpl(std::string_view file, int line, const std::string &msg)
{
    // Throw instead of exit(1) so that library users (and tests) can
    // catch configuration errors; uncaught it still terminates.
    throw std::runtime_error(detail::concat(
        "fatal: ", msg, " @ ", baseName(file), ":", line));
}

void
logImpl(LogLevel level, std::string_view tag, const std::string &msg)
{
    if (static_cast<int>(level) > static_cast<int>(g_level))
        return;
    std::cerr << tag << ": " << msg << std::endl;
}

} // namespace detail

} // namespace rog
