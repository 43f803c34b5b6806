"""Loopback chat-completion endpoint for the preprocess_report workload.

It answers every request after a fixed delay. The first attempt for a fixed
subset of prompts, chosen by a hash of the prompt rather than by arrival
order, is answered with 503, so the client's retry count repeats exactly
from run to run. Requests are counted on the server's side.
"""

from __future__ import annotations

import hashlib
import http.server
import json
import threading
import time

DELAY_S = 0.002
# A fixed port keeps the config, and so the config_sha256 in each manifest, the
# same from run to run; a busy port falls back to any free one.
PORT = 47613
# A prompt whose sha256 starts with a byte below this fails its first attempt (~25%).
FIRST_ATTEMPT_FAIL_BELOW = 64


class ChatStub:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seen: set[bytes] = set()
        self.requests = 0
        self.rejected = 0
        stub = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self) -> None:
                length = int(self.headers.get("Content-Length", 0))
                prompt = json.loads(self.rfile.read(length))["messages"][0]["content"]
                status, body = stub._answer(prompt)
                time.sleep(DELAY_S)
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:
                pass

        try:
            self._server = http.server.ThreadingHTTPServer(("127.0.0.1", PORT), Handler)
        except OSError:
            self._server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_port}"

    def _answer(self, prompt: str) -> tuple[int, bytes]:
        digest = hashlib.sha256(prompt.encode("utf-8")).digest()
        with self._lock:
            self.requests += 1
            first = digest not in self._seen
            self._seen.add(digest)
            if first and digest[0] < FIRST_ATTEMPT_FAIL_BELOW:
                self.rejected += 1
                return 503, b'{"error": "busy"}'
        clips = sum(1 for line in prompt.splitlines() if line[:1].isdigit())
        content = f"Surgical report drafted from {clips} clip captions."
        return 200, json.dumps({"choices": [{"message": {"content": content}}]}).encode("utf-8")

    def reset(self) -> dict:
        """Return the counts since the last reset and forget every prompt."""
        with self._lock:
            counts = {
                "requests": self.requests,
                "retries": self.requests - len(self._seen),
                "rejected": self.rejected,
            }
            self._seen.clear()
            self.requests = self.rejected = 0
        return counts

    def __enter__(self) -> "ChatStub":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
