/**
 * @file
 * Link-time wrappers (-Wl,--wrap=...) around the socket calls of the
 * transport layer: every byte the UDP backend hands to or takes from
 * the kernel is counted here, outside the program's own code.
 */
#include <sys/socket.h>
#include <sys/types.h>

#include <atomic>

#include "perfbench.hpp"

namespace perfbench {
namespace {

struct Tally
{
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> busy_ns{0};
};

Tally g_send;
Tally g_recv;

template <class Fn>
ssize_t
counted(Tally &t, Fn &&call)
{
    const bool timed = tracer().enabled();
    const auto t0 = timed ? Clock::now() : Clock::time_point{};
    const ssize_t n = call();
    if (timed)
        t.busy_ns.fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - t0)
                    .count()),
            std::memory_order_relaxed);
    t.calls.fetch_add(1, std::memory_order_relaxed);
    if (n > 0)
        t.bytes.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
    return n;
}

} // namespace

SocketCounters
SocketCounters::operator-(const SocketCounters &o) const
{
    return SocketCounters{send_calls - o.send_calls, send_bytes - o.send_bytes,
                          recv_calls - o.recv_calls, recv_bytes - o.recv_bytes,
                          send_busy_s - o.send_busy_s,
                          recv_busy_s - o.recv_busy_s};
}

SocketCounters
socketCounters()
{
    SocketCounters c;
    c.send_calls = g_send.calls.load(std::memory_order_relaxed);
    c.send_bytes = g_send.bytes.load(std::memory_order_relaxed);
    c.recv_calls = g_recv.calls.load(std::memory_order_relaxed);
    c.recv_bytes = g_recv.bytes.load(std::memory_order_relaxed);
    c.send_busy_s = 1e-9 * static_cast<double>(
                               g_send.busy_ns.load(std::memory_order_relaxed));
    c.recv_busy_s = 1e-9 * static_cast<double>(
                               g_recv.busy_ns.load(std::memory_order_relaxed));
    return c;
}

} // namespace perfbench

extern "C" {

ssize_t __real_send(int fd, const void *buf, size_t len, int flags);
ssize_t __real_sendto(int fd, const void *buf, size_t len, int flags,
                      const struct sockaddr *addr, socklen_t addrlen);
ssize_t __real_recv(int fd, void *buf, size_t len, int flags);
ssize_t __real_recvfrom(int fd, void *buf, size_t len, int flags,
                        struct sockaddr *addr, socklen_t *addrlen);

ssize_t
__wrap_send(int fd, const void *buf, size_t len, int flags)
{
    return perfbench::counted(perfbench::g_send, [&] {
        return __real_send(fd, buf, len, flags);
    });
}

ssize_t
__wrap_sendto(int fd, const void *buf, size_t len, int flags,
              const struct sockaddr *addr, socklen_t addrlen)
{
    return perfbench::counted(perfbench::g_send, [&] {
        return __real_sendto(fd, buf, len, flags, addr, addrlen);
    });
}

ssize_t
__wrap_recv(int fd, void *buf, size_t len, int flags)
{
    return perfbench::counted(perfbench::g_recv, [&] {
        return __real_recv(fd, buf, len, flags);
    });
}

ssize_t
__wrap_recvfrom(int fd, void *buf, size_t len, int flags,
                struct sockaddr *addr, socklen_t *addrlen)
{
    return perfbench::counted(perfbench::g_recv, [&] {
        return __real_recvfrom(fd, buf, len, flags, addr, addrlen);
    });
}

} // extern "C"
