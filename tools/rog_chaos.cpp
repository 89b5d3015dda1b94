/**
 * @file
 * rog_chaos — process-level fault injection for the session layer.
 *
 * Forks a real fleet (one rog_noded-equivalent server role plus N
 * worker roles, each its own process over real sockets), then plays
 * chaos against it:
 *
 *   - SIGKILL chosen workers the moment their run log shows a
 *     gradient push in flight ("phase=push_begin"), and restart them
 *     after a delay; the restarted process resumes from its local
 *     checkpoint and re-enters through the session handshake.
 *   - SIGSTOP/SIGCONT chosen workers for a window (a transient
 *     partition: heartbeats stop, the server suspects, transport
 *     retries ride it out).
 *   - SIGKILL the *server* once its log shows an apply at the chosen
 *     iteration and at least one durable checkpoint
 *     (--kill-server-iter), then refork it after a delay against the
 *     same checkpoint and the same port; the new incarnation bumps
 *     its epoch and re-admits the fleet.
 *   - Network partitions (--partition W:START:DUR): a window during
 *     which worker W's outbound datagrams are all dropped, layered on
 *     the seeded wire-fault injector.
 *   - Seeded wire faults (--faults SPEC) on worker->server pushes.
 *
 * With --check it then runs the fault-free DES twin of the same seed
 * and plan and gates on the chaos invariants (core/chaos_check.hpp):
 * CRC-valid checkpoint, finite model within tolerance of the twin,
 * no exactly-once violation at either the application or transport
 * level, every killed worker evicted-or-readmitted, every worker
 * finished, and every push's payload bytes equal to the DES's
 * accounting for its unit. Exit 0 iff no invariant was violated.
 *
 * The children are forked, not exec'd: the supervisor creates no
 * threads before the last fork, so the children get clean copies and
 * the fleet needs no binary-path plumbing.
 */
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/chaos_check.hpp"
#include "node_cli.hpp"

namespace {

using namespace rog;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: rog_chaos --dir DIR [options]\n"
        "chaos:   --kill LIST      workers to SIGKILL (default 1,2)\n"
        "         --kill-iter N    kill at push_begin of iter >= N "
        "(default 3)\n"
        "         --restart-delay S  seconds dead before restart "
        "(default 0.3)\n"
        "         --stall W:SECS[,..]  SIGSTOP W for SECS at its "
        "first push\n"
        "         --kill-server-iter N  SIGKILL the server after an "
        "apply at iter >= N\n"
        "                          (and a checkpoint), restart it "
        "from the checkpoint\n"
        "         --server-restart-delay S  seconds the server stays "
        "dead (default 0.5)\n"
        "         --partition W:START:DUR[,..]  drop all of W's "
        "outbound datagrams\n"
        "                          during [START,START+DUR) of its "
        "process clock (udp)\n"
        "         --check          run DES twin + invariant gate\n"
        "         --tolerance X    twin metric tolerance "
        "(default 15)\n"
        "run:     --backend udp|tcp  --workers N  --iters N\n"
        "         --staleness N  --seed S  --faults SPEC  "
        "--timeout SECS\n");
    return 2;
}

double
wallNow()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/** Fleet-facing view of one worker process. */
struct WorkerProc
{
    pid_t pid = -1;
    bool exited = false;
    int exit_code = -1;

    bool kill_planned = false;
    bool killed = false;     //!< SIGKILL already delivered.
    bool restarted = false;  //!< replacement process forked.
    double killed_at = 0.0;  //!< wallNow() of the SIGKILL.

    double stall_secs = 0.0; //!< 0 = no stall planned.
    bool stalled = false;
    bool resumed = false;
    double stalled_at = 0.0;
};

class ChaosSupervisor
{
  public:
    ChaosSupervisor(const core::NodeRunConfig &cfg,
                    std::vector<std::size_t> kill_list,
                    std::int64_t kill_iter, double restart_delay,
                    std::map<std::size_t, double> stalls,
                    std::int64_t server_kill_iter,
                    double server_restart_delay,
                    std::map<std::size_t, std::pair<double, double>>
                        partitions)
        : cfg_(cfg), kill_iter_(kill_iter),
          restart_delay_(restart_delay),
          server_kill_iter_(server_kill_iter),
          server_restart_delay_(server_restart_delay),
          partitions_(std::move(partitions)),
          log_path_(cfg.artifact_dir + "/chaos.log")
    {
        procs_.resize(cfg_.workers);
        for (std::size_t w : kill_list)
            if (w < cfg_.workers)
                procs_[w].kill_planned = true;
        for (const auto &kv : stalls)
            if (kv.first < cfg_.workers)
                procs_[kv.first].stall_secs = kv.second;
    }

    /** Run the whole scenario; returns true when every process came
     *  home (invariants are checked separately). */
    bool
    run()
    {
        start_ = wallNow();
        if (!forkServer())
            return false;
        for (std::size_t w = 0; w < cfg_.workers; ++w)
            forkWorker(w);
        supervise();
        return finishServer();
    }

    std::vector<std::size_t>
    killedWorkers() const
    {
        std::vector<std::size_t> v;
        for (std::size_t w = 0; w < procs_.size(); ++w)
            if (procs_[w].killed)
                v.push_back(w);
        return v;
    }

    bool
    allWorkersClean() const
    {
        for (const WorkerProc &p : procs_)
            if (!p.exited || p.exit_code != 0)
                return false;
        return true;
    }

    bool serverClean() const { return server_clean_; }

    /** Times the server was SIGKILLed + reforked (0 or 1). */
    std::size_t
    serverRestarts() const
    {
        return server_restarted_ ? 1 : 0;
    }

  private:
    void
    note(const std::string &line)
    {
        std::ofstream os(log_path_, std::ios::app);
        char stamp[32];
        std::snprintf(stamp, sizeof stamp, "t=%.3f ",
                      wallNow() - start_);
        os << stamp << line << '\n';
        std::printf("%s%s\n", stamp, line.c_str());
        std::fflush(stdout);
    }

    bool
    forkServer()
    {
        int fds[2];
        if (pipe(fds) != 0)
            return false;
        std::fflush(nullptr);
        server_pid_ = fork();
        if (server_pid_ == 0) {
            close(fds[0]);
            const int wfd = fds[1];
            const core::ServerRunResult res = core::runServerNode(
                cfg_, [wfd](std::uint16_t port) {
                    char buf[16];
                    const int n = std::snprintf(buf, sizeof buf,
                                                "%u\n", port);
                    (void)!write(wfd, buf,
                                 static_cast<std::size_t>(n));
                });
            _exit(res.done ? 0 : 1);
        }
        close(fds[1]);
        char buf[16] = {0};
        ssize_t got = 0;
        ssize_t n;
        while ((n = read(fds[0], buf + got,
                         sizeof buf - 1 - got)) > 0) {
            got += n;
            if (std::memchr(buf, '\n', got) != nullptr)
                break;
        }
        close(fds[0]);
        server_port_ =
            static_cast<std::uint16_t>(std::atoi(buf));
        if (server_port_ == 0) {
            note("server failed to bind");
            return false;
        }
        std::ostringstream os;
        os << "server pid=" << server_pid_
           << " port=" << server_port_;
        note(os.str());
        return true;
    }

    void
    forkWorker(std::size_t w)
    {
        // A partitioned worker gets a private fault plan with the
        // drop-all window; times are on the child's process clock, so
        // a restarted worker's window restarts with it.
        core::NodeRunConfig cfg = cfg_;
        auto part = partitions_.find(w);
        if (part != partitions_.end()) {
            cfg.fault_plan.part_begin_s = part->second.first;
            cfg.fault_plan.part_end_s =
                part->second.first + part->second.second;
            cfg.inject_faults = true;
        }
        std::fflush(nullptr);
        const pid_t pid = fork();
        if (pid == 0) {
            const core::WorkerRunResult res = core::runWorkerNode(
                cfg, w, "127.0.0.1", server_port_);
            _exit(res.done ? 0 : 1);
        }
        procs_[w].pid = pid;
        procs_[w].exited = false;
        std::ostringstream os;
        os << (procs_[w].killed ? "restart" : "spawn") << " w=" << w
           << " pid=" << pid;
        note(os.str());
    }

    /** Worker W's log shows a push in flight at iteration >= bound. */
    bool
    pushInFlight(std::size_t w) const
    {
        const std::string text =
            slurp(cfg_.artifact_dir + "/worker" + std::to_string(w) +
                  ".log");
        std::istringstream is(text);
        std::string line;
        while (std::getline(is, line)) {
            long long iter = 0;
            if (std::sscanf(line.c_str(),
                            "t=%*f iter=%lld phase=push_begin",
                            &iter) == 1 &&
                iter >= kill_iter_)
                return true;
        }
        return false;
    }

    /** The server log shows an apply at or past the kill bound AND a
     *  durable checkpoint — killing before the first checkpoint would
     *  test cold-start, not recovery. */
    bool
    serverKillReady() const
    {
        const std::string text =
            slurp(cfg_.artifact_dir + "/server_run.log");
        std::istringstream is(text);
        std::string line;
        bool applied = false;
        bool checkpointed = false;
        while (std::getline(is, line)) {
            long long iter = 0;
            if (std::sscanf(line.c_str(),
                            "t=%*f apply w=%*u iter=%lld",
                            &iter) == 1) {
                if (iter >= server_kill_iter_)
                    applied = true;
            } else if (std::sscanf(line.c_str(),
                                   "t=%*f checkpoint iter=%lld",
                                   &iter) == 1) {
                checkpointed = true;
            }
        }
        return applied && checkpointed;
    }

    void
    injectServerFault()
    {
        if (server_kill_iter_ <= 0)
            return;
        const double now = wallNow();
        if (!server_killed_ && serverKillReady()) {
            kill(server_pid_, SIGKILL);
            waitpid(server_pid_, nullptr, 0);
            server_killed_ = true;
            server_killed_at_ = now;
            std::ostringstream os;
            os << "kill-server pid=" << server_pid_;
            note(os.str());
        }
        if (server_killed_ && !server_restarted_ &&
            now - server_killed_at_ >= server_restart_delay_) {
            server_restarted_ = true;
            // Refork against the same checkpoint and the same port;
            // the bind-retry window rides out any lingering socket.
            cfg_.listen_port = server_port_;
            if (!forkServer())
                note("server restart failed");
        }
    }

    void
    reapWorkers()
    {
        for (std::size_t w = 0; w < procs_.size(); ++w) {
            WorkerProc &p = procs_[w];
            if (p.pid < 0 || p.exited)
                continue;
            int status = 0;
            const pid_t r = waitpid(p.pid, &status, WNOHANG);
            if (r != p.pid)
                continue;
            // A SIGKILLed victim "exits" here too; that slot is
            // revived by the restart path, not marked done.
            if (p.killed && !p.restarted)
                continue;
            p.exited = true;
            p.exit_code = WIFEXITED(status) ? WEXITSTATUS(status)
                                            : 128 + WTERMSIG(status);
            std::ostringstream os;
            os << "exit w=" << w << " code=" << p.exit_code;
            note(os.str());
        }
    }

    void
    injectFaults()
    {
        const double now = wallNow();
        for (std::size_t w = 0; w < procs_.size(); ++w) {
            WorkerProc &p = procs_[w];
            // A worker that already came home is off-limits: its pid
            // is reaped and may have been recycled by the OS.
            if (p.pid < 0 || p.exited)
                continue;

            if (p.kill_planned && !p.killed && pushInFlight(w)) {
                kill(p.pid, SIGKILL);
                waitpid(p.pid, nullptr, 0);
                p.killed = true;
                p.killed_at = now;
                std::ostringstream os;
                os << "kill w=" << w << " pid=" << p.pid;
                note(os.str());
            }
            if (p.killed && !p.restarted &&
                now - p.killed_at >= restart_delay_) {
                p.restarted = true;
                forkWorker(w);
            }

            if (p.stall_secs > 0.0 && !p.stalled &&
                pushInFlight(w)) {
                kill(p.pid, SIGSTOP);
                p.stalled = true;
                p.stalled_at = now;
                std::ostringstream os;
                os << "stall w=" << w << " secs=" << p.stall_secs;
                note(os.str());
            }
            if (p.stalled && !p.resumed &&
                now - p.stalled_at >= p.stall_secs) {
                kill(p.pid, SIGCONT);
                p.resumed = true;
                std::ostringstream os;
                os << "resume w=" << w;
                note(os.str());
            }
        }
    }

    void
    supervise()
    {
        const double deadline =
            wallNow() + cfg_.run_timeout_s + 30.0;
        for (;;) {
            reapWorkers();
            injectFaults();
            injectServerFault();

            bool all_done = true;
            for (const WorkerProc &p : procs_)
                if (!p.exited)
                    all_done = false;
            if (all_done)
                return;

            if (wallNow() > deadline) {
                note("supervisor timeout: killing the fleet");
                for (WorkerProc &p : procs_)
                    if (!p.exited && p.pid > 0) {
                        kill(p.pid, SIGKILL);
                        waitpid(p.pid, nullptr, 0);
                        p.exited = true;
                        p.exit_code = 124;
                    }
                return;
            }
            usleep(20 * 1000);
        }
    }

    bool
    finishServer()
    {
        int status = 0;
        const double deadline = wallNow() + 30.0;
        for (;;) {
            const pid_t r = waitpid(server_pid_, &status, WNOHANG);
            if (r == server_pid_)
                break;
            if (wallNow() > deadline) {
                note("server hang: SIGKILL");
                kill(server_pid_, SIGKILL);
                waitpid(server_pid_, &status, 0);
                break;
            }
            usleep(20 * 1000);
        }
        server_clean_ =
            WIFEXITED(status) && WEXITSTATUS(status) == 0;
        std::ostringstream os;
        os << "server exit clean=" << (server_clean_ ? 1 : 0);
        note(os.str());
        return true;
    }

    core::NodeRunConfig cfg_;
    std::int64_t kill_iter_;
    double restart_delay_;
    std::int64_t server_kill_iter_ = 0;
    double server_restart_delay_ = 0.5;
    std::map<std::size_t, std::pair<double, double>> partitions_;
    std::string log_path_;
    double start_ = 0.0;

    pid_t server_pid_ = -1;
    std::uint16_t server_port_ = 0;
    bool server_clean_ = false;
    bool server_killed_ = false;
    bool server_restarted_ = false;
    double server_killed_at_ = 0.0;
    std::vector<WorkerProc> procs_;
};

std::vector<std::size_t>
parseIndexList(const std::string &s)
{
    std::vector<std::size_t> v;
    for (const std::string &part : splitCommaList(s))
        v.push_back(static_cast<std::size_t>(std::stoul(part)));
    return v;
}

/** Remove the previous invocation's artifacts from the run dir.
 *  Per-process logs are opened in append mode (a restarted worker
 *  must extend its own log), so a reused --dir would concatenate
 *  runs and the invariant checker would count every apply twice;
 *  stale workerN.meta resume state would likewise leak an old run's
 *  token into a fresh fleet. Only files this tool owns are touched.
 */
void
cleanRunDir(const core::NodeRunConfig &cfg)
{
    static const char *const kOwned[] = {
        "chaos.log",      "server_run.log",  "server_events.log",
        "des_twin.log",   "summary.txt",     "des_summary.txt",
        "kills.txt",      "checkpoint.rogs", "model.rogm",
        "des_checkpoint.rogs",
    };
    for (const char *name : kOwned)
        std::remove((cfg.artifact_dir + "/" + name).c_str());
    for (std::size_t w = 0; w < cfg.workers; ++w) {
        const std::string stem =
            cfg.artifact_dir + "/worker" + std::to_string(w);
        std::remove((stem + ".log").c_str());
        std::remove((stem + ".meta").c_str());
        std::remove((stem + ".rogm").c_str());
    }
}

/** "W:START:DUR[,...]" — worker W drops all outbound datagrams
 *  during [START, START+DUR) of its own process clock. */
std::map<std::size_t, std::pair<double, double>>
parsePartitions(const std::string &s)
{
    std::map<std::size_t, std::pair<double, double>> m;
    if (s.empty())
        return m;
    for (const std::string &part : splitCommaList(s)) {
        std::size_t w = 0;
        double begin = 0.0;
        double dur = 0.0;
        if (std::sscanf(part.c_str(), "%zu:%lf:%lf", &w, &begin,
                        &dur) != 3 ||
            begin < 0.0 || dur <= 0.0)
            ROG_FATAL("bad --partition entry '%s' (want W:START:DUR)",
                      part.c_str());
        m[w] = {begin, dur};
    }
    return m;
}

std::map<std::size_t, double>
parseStalls(const std::string &s)
{
    std::map<std::size_t, double> m;
    if (s.empty())
        return m;
    for (const std::string &part : splitCommaList(s)) {
        std::size_t w = 0;
        double secs = 0.0;
        if (std::sscanf(part.c_str(), "%zu:%lf", &w, &secs) != 2)
            ROG_FATAL("bad --stall entry '%s' (want W:SECS)",
                      part.c_str());
        m[w] = secs;
    }
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rog;

    std::set<std::string> known = tools::nodeConfigOptions();
    known.insert("kill");
    known.insert("kill-iter");
    known.insert("restart-delay");
    known.insert("stall");
    known.insert("kill-server-iter");
    known.insert("server-restart-delay");
    known.insert("partition");
    known.insert("check");
    known.insert("tolerance");

    try {
        const Args args(argc, argv, known);
        if (!args.positional().empty() || !args.has("dir"))
            return usage();

        core::NodeRunConfig cfg = tools::configFromArgs(args);
        if (cfg.backend != "udp" && cfg.backend != "tcp") {
            std::fprintf(stderr,
                         "rog_chaos: --backend must be udp|tcp\n");
            return 2;
        }
        mkdir(cfg.artifact_dir.c_str(), 0755);
        cleanRunDir(cfg);

        const std::vector<std::size_t> kill_list =
            parseIndexList(args.get("kill", "1,2"));
        const std::int64_t kill_server_iter =
            static_cast<std::int64_t>(
                args.getSize("kill-server-iter", 0));
        const double server_restart_delay =
            args.getDouble("server-restart-delay", 0.5);
        // The DES twin replays the server crash in simulation so the
        // metric gate compares like against like.
        cfg.server_crash_iter = kill_server_iter;
        cfg.server_crash_restart_s = server_restart_delay;
        ChaosSupervisor sup(
            cfg, kill_list,
            static_cast<std::int64_t>(args.getSize("kill-iter", 3)),
            args.getDouble("restart-delay", 0.3),
            parseStalls(args.get("stall", "")), kill_server_iter,
            server_restart_delay,
            parsePartitions(args.get("partition", "")));

        if (!sup.run()) {
            std::fprintf(stderr, "rog_chaos: fleet failed to start\n");
            return 1;
        }

        {
            // The checker reads this to know which invariants apply.
            std::ofstream os(cfg.artifact_dir + "/kills.txt",
                             std::ios::trunc);
            for (std::size_t w : sup.killedWorkers())
                os << w << '\n';
        }

        if (!args.has("check")) {
            const bool ok =
                sup.serverClean() && sup.allWorkersClean();
            std::printf("fleet %s\n", ok ? "clean" : "UNCLEAN");
            return ok ? 0 : 1;
        }

        // Fault-free twin of the same seed/plan, then the gate. Safe
        // to run in-process: every fork already happened.
        std::printf("running DES twin...\n");
        const core::DesTwinResult twin = core::runDesTwin(cfg);
        std::printf("twin done=%d metric=%.4f\n", twin.done ? 1 : 0,
                    twin.metric);

        core::ChaosCheckOptions opts;
        opts.killed_workers = sup.killedWorkers();
        opts.metric_tolerance = args.getDouble("tolerance", 15.0);
        opts.server_restarts = sup.serverRestarts();
        const core::ChaosCheckResult res =
            core::checkChaosRun(cfg, opts);

        std::printf("%s", res.report.c_str());
        for (const std::string &v : res.violations)
            std::printf("VIOLATION: %s\n", v.c_str());
        std::printf("chaos %s: %zu violation(s)\n",
                    res.ok ? "PASS" : "FAIL", res.violations.size());
        return res.ok ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rog_chaos: %s\n", e.what());
        return 2;
    }
}
