"""The wire format shared by broker, workers and backend.

One frame is a 4-byte big-endian length prefix followed by that many
bytes of UTF-8 JSON encoding a single object (dict).  The framing is
deliberately minimal: every participant — broker, worker, submitting
client — speaks the same two functions, :func:`send_frame` and
:func:`recv_frame`, and everything above them is plain message dicts
with a ``"type"`` key.

Addresses come in two spellings:

- ``host:port`` — a TCP endpoint (``127.0.0.1:7480``, ``:0`` for an
  ephemeral port on all interfaces);
- ``unix:/path/to.sock`` — a Unix domain socket.

:func:`recv_frame` distinguishes a *clean* close (EOF exactly on a frame
boundary → ``None``) from a *truncated* one (EOF mid-header or mid-body →
:class:`FrameError`), which is what lets the broker tell "worker finished
and left" from "worker died mid-message".

Invariant: every TCP stream socket this package creates — the client end
in :func:`connect`, the accepted end in :func:`accept` — has
``TCP_NODELAY`` set.  The protocol is request/notify with frames far
below one MSS, so coalescing buys nothing and costs a delayed-ACK timer:
a worker's ``complete`` followed by its next ``lease`` are two small
writes before a read, and with Nagle on the second waits ~40 ms for an
ACK the broker has no reply to piggyback on.  Unix sockets have no such
timer and are left alone.
"""

from __future__ import annotations

import json
import os
import select
import socket
import struct
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.jsonfmt import compact

#: Upper bound on one frame's payload; a length prefix past this is a
#: protocol violation (corruption or a non-frame peer), not a big message.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: Parsed address: ("tcp", (host, port)) or ("unix", path).
Address = Tuple[str, Union[Tuple[str, int], str]]


class FrameError(RuntimeError):
    """A malformed, truncated, or oversized frame on the wire."""


def send_frame(sock: socket.socket, message: Dict[str, object]) -> None:
    """Serialise one message dict and write it as a single frame."""
    payload = compact(message).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})")
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, object]]:
    """Read one frame; ``None`` on a clean EOF at a frame boundary.

    Raises :class:`FrameError` on a truncated header or body, an
    oversized length prefix, invalid JSON, or a payload that is not a
    JSON object.
    """
    header = _recv_exact(sock, _HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit")
    payload = _recv_exact(sock, length) or b""  # EOF here raises, never None
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise FrameError(f"frame payload is not valid JSON: {error}") from None
    if not isinstance(message, dict):
        raise FrameError(
            f"frame payload must be a JSON object, got {type(message).__name__}")
    return message


def _recv_exact(sock: socket.socket, count: int,
                allow_eof: bool = False) -> Optional[bytes]:
    """Read exactly ``count`` bytes (or ``None`` on clean EOF at byte 0)."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise FrameError(
                f"connection closed mid-frame "
                f"({count - remaining}/{count} bytes read)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def wait_readable(socks: Sequence[socket.socket],
                  timeout: float) -> List[socket.socket]:
    """Those of ``socks`` with data (or EOF) to read within ``timeout`` s.

    This is how a peer waits for incoming frames without committing to a
    blocking :func:`recv_frame` — e.g. a worker watching for
    ``heartbeat-ack`` verdicts, and for its own wake-up descriptor, while
    its attempt thread runs.  Only *call* recv_frame on a returned
    socket: a read timeout mid-frame would lose the partial bytes, so
    the frame functions stay blocking.  A closed or invalid socket
    reports every socket readable and lets the read surface the error.
    """
    try:
        readable, _, _ = select.select(socks, [], [], max(0.0, timeout))
    except (OSError, ValueError):
        return list(socks)
    return readable


def parse_address(text: str) -> Address:
    """Parse ``host:port`` or ``unix:/path`` into a typed address."""
    text = text.strip()
    if text.startswith("unix:"):
        path = text[len("unix:"):]
        if not path:
            raise ValueError("unix: address needs a socket path")
        return ("unix", path)
    host, separator, port = text.rpartition(":")
    if not separator:
        raise ValueError(
            f"address {text!r} is neither HOST:PORT nor unix:/path")
    try:
        port_number = int(port)
    except ValueError:
        raise ValueError(f"address {text!r} has a non-numeric port") from None
    if not 0 <= port_number <= 65535:
        raise ValueError(f"address {text!r} has a port outside 0-65535")
    return ("tcp", (host or "127.0.0.1", port_number))


def _set_nodelay(sock: socket.socket) -> None:
    """Disable Nagle on a TCP stream socket (see the module invariant)."""
    if sock.family != socket.AF_UNIX:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def connect(address: str, timeout: Optional[float] = None) -> socket.socket:
    """Open a blocking client connection to a broker address."""
    kind, endpoint = parse_address(address)
    if kind == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.connect(endpoint)
        sock.settimeout(None)
        _set_nodelay(sock)
    except BaseException:
        sock.close()
        raise
    return sock


def _reclaim_stale_unix_socket(path: str) -> None:
    """Unlink a unix-socket file left behind by a dead listener.

    A crashed/killed broker leaves its socket file on disk and a plain
    bind() then fails with EADDRINUSE forever.  Probe-connect first so a
    *live* listener on the path is never stolen: only a refused
    connection (nobody accepting) marks the file stale.
    """
    if not os.path.exists(path):
        return
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.connect(path)
    except ConnectionRefusedError:
        os.unlink(path)
    except OSError:
        pass  # not a socket / no permission: let bind() report it
    else:
        raise OSError(f"unix socket {path} already has a live listener")
    finally:
        probe.close()


def create_listener(address: str, backlog: int = 64) -> socket.socket:
    """Bind and listen on an address (TCP port 0 picks an ephemeral port).

    A stale unix-socket file from a dead listener is reclaimed; a live
    one raises rather than being stolen.
    """
    kind, endpoint = parse_address(address)
    if kind == "unix":
        _reclaim_stale_unix_socket(str(endpoint))
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        sock.bind(endpoint)
        sock.listen(backlog)
    except BaseException:
        sock.close()
        raise
    return sock


def accept(listener: socket.socket) -> socket.socket:
    """Accept one connection from a :func:`create_listener` socket."""
    conn, _ = listener.accept()
    try:
        _set_nodelay(conn)
    except OSError:
        pass  # peer already reset the connection; the first read says so
    return conn


def listener_address(sock: socket.socket) -> str:
    """The actual bound address of a listener (resolves TCP port 0)."""
    if sock.family == socket.AF_UNIX:
        return f"unix:{sock.getsockname()}"
    host, port = sock.getsockname()[:2]
    return f"{host}:{port}"
