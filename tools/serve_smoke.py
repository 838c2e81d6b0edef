#!/usr/bin/env python3
"""End-to-end smoke for the ringsimd serving daemon.

Starts ringsimd on a private Unix socket, submits a batch of mixed
workloads (every ``.asm`` guest in ``--examples``, round-robin, over
several concurrent connections), and checks that each served fingerprint
is bit-identical to a standalone ``ringsim --fleet=1`` run of the same
guest — the serving path (golden-image clone, work stealing, slicing)
must be invisible to the simulated machine. Before the batch it sends
one over-long command line, and one ``source`` and one ``image`` header
over their payload caps, and checks that the daemon answers each with an
error, closes that connection and keeps serving another. It then
opens a few hundred short sequential connections and checks, through
the daemon's ``VmSize`` in ``/proc/<pid>/status``, that closed
connections do not each leave a thread stack behind. Finishes with a
clean ``shutdown`` and asserts the daemon exits 0 and removes its
socket.

Prints ``serve smoke: OK`` on success; any mismatch or protocol error is
fatal with a nonzero exit.
"""

import argparse
import os
import re
import resource
import select
import socket
import subprocess
import sys
import tempfile
import threading

# ringsimd's kMaxLineBytes: the longest command line it accepts.
MAX_LINE_BYTES = 64 * 1024

# src/serve/server.h's payload caps at the daemon's default store of
# 2^22 words: kMaxSourceBytes, and kMaxImageBytesPerWord per word.
MAX_SOURCE_BYTES = 1 << 20
MAX_IMAGE_BYTES = 16 << 22

# Short connections the reaping check opens one after another.
SEQUENTIAL_CONNECTIONS = 300

# Thread stacks' worth of VmSize growth the reaping check tolerates over
# those connections, for threads that have closed but are not yet
# joined. The daemon runs with one malloc arena, so new threads add no
# arena reservations (64 MiB each) to VmSize. Measured on a 4-vCPU host
# with 12 busy processes beside it: a reaping daemon grew by at most 2
# stacks, one that keeps every stack by 300.
UNREAPED_ALLOWANCE = 16


def read_line(sock_file):
    line = sock_file.readline()
    if not line:
        raise RuntimeError("daemon closed the connection")
    return line.decode().rstrip("\n")


def expect(sock_file, want):
    got = read_line(sock_file)
    if got != want:
        raise RuntimeError("expected %r, got %r" % (want, got))


def submit(sock, sock_file, source, stdin_text=None):
    """Submits one kasm source over an open connection; returns the done line."""
    if stdin_text is not None:
        sock.sendall(("stdin %s\n" % stdin_text).encode())
        expect(sock_file, "ok")
    payload = source.encode()
    sock.sendall(("source %d\n" % len(payload)).encode() + payload)
    expect(sock_file, "ok")
    sock.sendall(b"run\n")
    queued = read_line(sock_file)
    if not queued.startswith("queued "):
        raise RuntimeError("expected queued, got %r" % queued)
    done = read_line(sock_file)
    if not done.startswith("done "):
        raise RuntimeError("expected done, got %r" % done)
    tty = read_line(sock_file)
    match = re.match(r"tty (\d+)$", tty)
    if not match:
        raise RuntimeError("expected tty header, got %r" % tty)
    n = int(match.group(1))
    if n:
        sock_file.read(n)
    return done


def check_cap(sock_path, send, reply):
    """Sending `send` gets `reply` and closes that connection and no other."""
    socks = [socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) for _ in range(2)]
    for sock in socks:
        sock.settimeout(30)  # a daemon without the cap would wait forever
        sock.connect(sock_path)
    bystander, capped = socks
    capped.sendall(send)
    capped_file = capped.makefile("rb")
    expect(capped_file, reply)
    if capped_file.readline():
        raise RuntimeError("daemon kept a connection open after %r" % reply)
    bystander.sendall(b"ping\n")
    expect(bystander.makefile("rb"), "pong")
    for sock in socks:
        sock.close()


def check_caps(sock_path):
    # One byte over the line cap and no terminator: the daemon reads all
    # of it before deciding, so the close carries no unread data.
    check_cap(sock_path, b"x" * (MAX_LINE_BYTES + 1), "error line too long")
    # A payload header one byte over its cap, and no payload: the daemon
    # must refuse before it waits for (or buffers) any payload byte.
    for cmd, cap in (("source", MAX_SOURCE_BYTES), ("image", MAX_IMAGE_BYTES)):
        check_cap(sock_path, b"%s %d\n" % (cmd.encode(), cap + 1),
                  "error %s: payload over %d bytes" % (cmd, cap))


def vm_size_kib(pid):
    """The process's VmSize in KiB, or None where /proc is unavailable."""
    try:
        with open("/proc/%d/status" % pid) as status:
            for line in status:
                if line.startswith("VmSize:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def check_connection_reaping(sock_path, pid, count):
    """Closed connections must not each keep a thread stack mapped."""

    def ping_once():
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(30)
        sock.connect(sock_path)
        sock.sendall(b"ping\n")
        expect(sock.makefile("rb"), "pong")
        sock.close()

    for _ in range(16):  # warm up: the malloc heap, glibc's thread-stack cache
        ping_once()
    before = vm_size_kib(pid)
    for _ in range(count):
        ping_once()
    after = vm_size_kib(pid)
    if before is None or after is None:
        return
    # Default thread stacks are RLIMIT_STACK-sized; a daemon that never
    # joins its connection threads grows by one per connection.
    soft, _ = resource.getrlimit(resource.RLIMIT_STACK)
    stack_kib = soft // 1024 if soft != resource.RLIM_INFINITY else 2048
    if after - before > UNREAPED_ALLOWANCE * stack_kib:
        raise RuntimeError(
            "VmSize grew %d KiB over %d closed connections (thread stack %d KiB):"
            " connection threads are not reaped" % (after - before, count, stack_kib)
        )


def standalone_fingerprint(ringsim, program):
    """Fingerprint of a standalone run (fleet of one prints it)."""
    out = subprocess.run(
        [ringsim, "--fleet=1", program], capture_output=True, text=True
    ).stdout
    match = re.search(r"fingerprint=([0-9a-f]{16})", out)
    if not match:
        raise RuntimeError("no fingerprint in ringsim output for %s:\n%s" % (program, out))
    return match.group(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ringsimd", required=True)
    parser.add_argument("--ringsim", required=True)
    parser.add_argument("--examples", required=True, help="directory of .asm guests")
    parser.add_argument("--count", type=int, default=50, help="total submissions")
    parser.add_argument("--threads", type=int, default=4, help="daemon worker threads")
    parser.add_argument("--connections", type=int, default=4)
    args = parser.parse_args()

    programs = sorted(
        os.path.join(args.examples, f)
        for f in os.listdir(args.examples)
        if f.endswith(".asm")
    )
    if not programs:
        print("serve smoke: no .asm guests in", args.examples)
        return 1
    sources = {p: open(p).read() for p in programs}
    expected = {p: standalone_fingerprint(args.ringsim, p) for p in programs}

    tmpdir = tempfile.mkdtemp(prefix="ringsimd-smoke-")
    sock_path = os.path.join(tmpdir, "sock")
    daemon = subprocess.Popen(
        [args.ringsimd, "--socket=%s" % sock_path, "--threads=%d" % args.threads],
        stdout=subprocess.PIPE,
        text=True,
        env=dict(os.environ, MALLOC_ARENA_MAX="1"),  # see UNREAPED_ALLOWANCE
    )
    try:
        # Wait for the listening line: the socket path appears at bind(),
        # before listen(), and a connect in between is refused.
        ready, _, _ = select.select([daemon.stdout], [], [], 30)
        if not ready or not daemon.stdout.readline().startswith("ringsimd: listening on"):
            raise RuntimeError("daemon did not come up")

        check_caps(sock_path)
        check_connection_reaping(sock_path, daemon.pid, SEQUENTIAL_CONNECTIONS)

        # Round-robin the guests across concurrent client connections.
        jobs = [programs[i % len(programs)] for i in range(args.count)]
        failures = []
        lock = threading.Lock()

        def client(worker):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(sock_path)
            sock_file = sock.makefile("rb")
            for i, program in enumerate(jobs):
                if i % args.connections != worker:
                    continue
                done = submit(sock, sock_file, sources[program])
                match = re.search(r"fingerprint=([0-9a-f]{16})", done)
                if not match or match.group(1) != expected[program]:
                    with lock:
                        failures.append(
                            "%s: served %s, standalone fingerprint=%s"
                            % (program, done, expected[program])
                        )
            sock.close()

        clients = [
            threading.Thread(target=client, args=(w,)) for w in range(args.connections)
        ]
        for t in clients:
            t.start()
        for t in clients:
            t.join()

        # Clean shutdown over the protocol.
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(sock_path)
        sock_file = sock.makefile("rb")
        sock.sendall(b"shutdown\n")
        expect(sock_file, "bye")
        sock.close()
        if daemon.wait(timeout=30) != 0:
            raise RuntimeError("daemon exited %d" % daemon.returncode)
        if os.path.exists(sock_path):
            raise RuntimeError("daemon left its socket behind")

        if failures:
            for f in failures:
                print("serve smoke: MISMATCH:", f)
            return 1
        print(
            "serve smoke: OK (%d submissions, %d guests, %d connections, %d worker threads)"
            % (args.count, len(programs), args.connections, args.threads)
        )
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()


if __name__ == "__main__":
    sys.exit(main())
