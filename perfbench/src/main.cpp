/**
 * @file
 * perfbench: one benchmark workload per invocation.
 *
 *   perfbench --workload cruda_rog|fleet_1024|socket_udp --seed N
 *             --seconds S --trace 0|1 --out RECORD.json
 *             [--trace-file TRACE.json]
 *
 * Prints a human-readable metric table and writes the full record
 * (every metric with its unit, the checks, the determinism
 * fingerprint) as one JSON object to --out. Exit status: 0 when every
 * correctness check passed, 2 when one failed, 1 on a usage error.
 */
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "perfbench.hpp"

namespace {

int
usage()
{
    std::cerr << "usage: perfbench --workload cruda_rog|fleet_1024|socket_udp "
                 "--seed N --seconds S --trace 0|1 --out FILE "
                 "[--trace-file FILE]\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Every workload runs its tensor and codec work on one thread;
    // fleet_1024 passes its own two-thread pool explicitly. Set before
    // the first use of the global pool.
    setenv("ROG_THREADS", "1", 1);

    perfbench::Options opt;
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string k = argv[i], v = argv[i + 1];
            if (k == "--workload")
                opt.workload = v;
            else if (k == "--seed")
                opt.seed = std::stoull(v);
            else if (k == "--seconds")
                opt.seconds = std::stod(v);
            else if (k == "--trace")
                opt.trace = v == "1";
            else if (k == "--out")
                opt.out_path = v;
            else if (k == "--trace-file")
                opt.trace_path = v;
            else
                return usage();
        }
    } catch (const std::exception &) {
        return usage();
    }
    if (argc % 2 == 0 || opt.out_path.empty() || !(opt.seconds > 0.0))
        return usage();

    perfbench::Report report;
    int rc = 0;
    try {
        if (opt.workload == "cruda_rog")
            rc = perfbench::runCrudaRog(opt, report);
        else if (opt.workload == "fleet_1024")
            rc = perfbench::runFleet1024(opt, report);
        else if (opt.workload == "socket_udp")
            rc = perfbench::runSocketUdp(opt, report);
        else
            return usage();
    } catch (const std::exception &e) {
        report.check(std::string("workload threw: ") + e.what(), false);
    }
    if (rc != 0)
        return rc;

    report.printTable(std::cout, opt);
    if (opt.trace && !opt.trace_path.empty() &&
        !perfbench::tracer().writeChrome(opt.trace_path,
                                         "perfbench " + opt.workload))
        report.check("trace file written", false);

    std::ofstream out(opt.out_path);
    report.writeJson(out, opt);
    if (!out) {
        std::cerr << "perfbench: cannot write " << opt.out_path << "\n";
        return 1;
    }
    return report.correct() ? 0 : 2;
}
