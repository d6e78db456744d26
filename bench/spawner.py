"""Starts the benchmark's children from a process that stays small.

    python3 -S -I bench/spawner.py FD

A child's ru_maxrss starts from the resident size of the process that forked
it, so children forked by the benchmark itself (tens of MB once it has built a
scenario) would report at least that. This process imports only os, socket
and sys, forks every child on request and reports its exit status and peak
resident size.

Protocol on the SOCK_SEQPACKET socket FD, one request at a time:
  request: "\\0"-joined [cpu or "", cwd, *argv] with three fds (stdin,
  stdout, stderr) attached; reply "<pid>"; once the child has exited,
  reply "<wait status> <ru_maxrss in KiB>". Closing the socket ends the loop.
"""

import os
import socket
import sys


def main() -> None:
    sock = socket.socket(fileno=int(sys.argv[1]))
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 1 << 16, 3)
        if not msg:
            return
        cpu, cwd, *argv = msg.decode().split("\0")
        pid = os.fork()
        if pid == 0:
            try:
                for target, fd in enumerate(fds):
                    os.dup2(fd, target)
                os.closerange(3, os.sysconf("SC_OPEN_MAX"))
                os.chdir(cwd)
                if cpu:
                    os.sched_setaffinity(0, {int(cpu)})
                os.execv(argv[0], argv)
            finally:
                os._exit(127)
        for fd in fds:
            os.close(fd)
        sock.sendall(str(pid).encode())
        _, status, usage = os.wait4(pid, 0)
        sock.sendall(f"{status} {usage.ru_maxrss}".encode())


if __name__ == "__main__":
    main()
