"""The live workload's socket client, in a process of its own.

``python3 -m ledger.sse_client PORT OUT`` subscribes to ``/stream/sse`` on
``127.0.0.1:PORT``, stamps each event with ``time.perf_counter()`` when the
bytes that complete it arrive (the same clock as the run's, on Linux), and
writes ``{"bytes": N, "events": [[time, text], ...]}`` to ``OUT`` after the
stream's end frame.  Running apart from the gateway's process keeps the
receipt times free of waits for that process's interpreter lock.
"""

import json
import socket
import sys
import time

#: Give up on a stream that stays silent this long.
TIMEOUT_S = 60.0


def main(argv) -> int:
    port, out = int(argv[0]), argv[1]
    events, total, buffer, head = [], 0, b"", True
    with socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S) as sock:
        sock.sendall(b"GET /stream/sse HTTP/1.1\r\nHost: ledger\r\n\r\n")
        while True:
            data = sock.recv(1 << 16)
            received = time.perf_counter()
            if not data:
                break
            total += len(data)
            buffer += data
            if head:
                if b"\r\n\r\n" not in buffer:
                    continue
                buffer = buffer.split(b"\r\n\r\n", 1)[1]
                head = False
            *complete, buffer = buffer.split(b"\n\n")
            events.extend((received, event.decode()) for event in complete)
            if complete and not complete[-1].startswith(b"event: window"):
                break
    with open(out, "w") as handle:
        json.dump({"bytes": total, "events": events}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
