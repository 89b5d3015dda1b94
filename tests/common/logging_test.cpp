/**
 * @file
 * Error-reporting macros: a caught ROG_FATAL names its source file by
 * base name only, so the same failure reads the same in every
 * checkout (and in logs that quote it, such as a server's
 * recover_failed line).
 */
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/logging.hpp"

namespace rog {
namespace {

TEST(Logging, FatalMessageCarriesNoDirectory)
{
    try {
        ROG_FATAL("no such thing: ", 42);
        FAIL() << "ROG_FATAL returned";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_EQ(what.find('/'), std::string::npos) << what;
        EXPECT_NE(what.find("fatal: no such thing: 42 @ logging_test.cpp:"),
                  std::string::npos)
            << what;
    }
}

TEST(LoggingDeathTest, PanicNamesTheBaseName)
{
    EXPECT_DEATH(ROG_ASSERT(1 + 1 == 3, "arithmetic"),
                 "assertion failed: 1 \\+ 1 == 3 arithmetic @ "
                 "logging_test\\.cpp:[0-9]+");
}

} // namespace
} // namespace rog
