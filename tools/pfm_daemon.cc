/**
 * @file
 * Sim-as-a-service daemon binary: bind a Unix-domain socket, serve sweep
 * requests (pfm_client or the framing protocol directly), shut down
 * cleanly on SIGINT/SIGTERM — cancelling in-flight legs, joining every
 * worker, deleting cache images and unlinking the socket.
 *
 * Usage:
 *   pfm_daemon --socket=/tmp/pfm.sock [--jobs=N] [--cache-budget-mb=M]
 *              [--cache-dir=DIR] [--keep-cache]
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <string>

#include "common/log.h"
#include "sim/daemon.h"
#include "sim/options.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s --socket=PATH [--jobs=N] [--cache-budget-mb=M]"
                 " [--cache-dir=DIR] [--keep-cache]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    pfm::DaemonOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--socket=", 0) == 0) {
            opt.socket_path = arg.substr(9);
        } else if (arg.rfind("--jobs=", 0) == 0) {
            opt.jobs = static_cast<unsigned>(
                pfm::parseNumber(arg.substr(7), 0, "'" + arg + "'",
                                 std::numeric_limits<unsigned>::max()));
        } else if (arg.rfind("--cache-budget-mb=", 0) == 0) {
            opt.cache_budget_bytes =
                pfm::parseNumber(arg.substr(18), 0, "'" + arg + "'",
                                 std::numeric_limits<std::uint64_t>::max() >>
                                     20)
                << 20;
        } else if (arg.rfind("--cache-dir=", 0) == 0) {
            opt.cache_dir = arg.substr(12);
        } else if (arg == "--keep-cache") {
            opt.keep_cache_files = true;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
            usage(argv[0]);
        }
    }
    if (opt.socket_path.empty())
        usage(argv[0]);

    struct sigaction sa{};
    sa.sa_handler = onSignal;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);

    pfm::DaemonServer server(opt);
    server.start();
    while (!g_stop) {
        struct timespec ts{0, 100'000'000};
        nanosleep(&ts, nullptr);
    }
    pfm_inform("daemon: signal received, shutting down");
    server.stop();
    return 0;
}
