#!/usr/bin/env python3
"""End-to-end smoke for the ringsimd serving daemon.

Starts ringsimd on a private Unix socket, submits a batch of mixed
workloads (every ``.asm`` guest in ``--examples``, round-robin, over
several concurrent connections), and checks that each served fingerprint
is bit-identical to a standalone ``ringsim --fleet=1`` run of the same
guest — the serving path (golden-image clone, work stealing, slicing)
must be invisible to the simulated machine. Before the batch it sends
one over-long command line and checks the daemon answers ``error line
too long``, closes that connection and keeps serving another. Finishes
with a clean ``shutdown`` and asserts the daemon exits 0 and removes its
socket.

Prints ``serve smoke: OK`` on success; any mismatch or protocol error is
fatal with a nonzero exit.
"""

import argparse
import os
import re
import socket
import subprocess
import sys
import tempfile
import threading
import time

# ringsimd's kMaxLineBytes: the longest command line it accepts.
MAX_LINE_BYTES = 64 * 1024


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


def check_line_cap(sock_path):
    """An over-long line closes its own connection and no other."""
    socks = [socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) for _ in range(2)]
    for sock in socks:
        sock.settimeout(30)  # a daemon without the cap would wait forever
        sock.connect(sock_path)
    bystander, capped = socks
    # One byte over the cap and no terminator: the daemon reads all of it
    # before deciding, so the close carries no unread data.
    capped.sendall(b"x" * (MAX_LINE_BYTES + 1))
    capped_file = capped.makefile("rb")
    expect(capped_file, "error line too long")
    if capped_file.readline():
        raise RuntimeError("daemon kept an over-long connection open")
    bystander.sendall(b"ping\n")
    expect(bystander.makefile("rb"), "pong")
    for sock in socks:
        sock.close()


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
    )
    try:
        deadline = time.time() + 30
        while not os.path.exists(sock_path):
            if daemon.poll() is not None or time.time() > deadline:
                raise RuntimeError("daemon did not come up")
            time.sleep(0.05)

        check_line_cap(sock_path)

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
