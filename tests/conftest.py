from __future__ import annotations

import http.server
import json
import random
import socket
import threading
import tracemalloc
from array import array

import numpy as np
import pytest

from surgreport.dataset import FrameAnnotation, Triplet, VideoRecord, by_video_id
from surgreport.detection import AnnotationTable, LogitsRecord, truth_bits
from surgreport.vocab import NULL_TARGET_NAME, NULL_VERB_NAME, default_vocabulary


def traced_peak(action) -> int:
    """The most memory Python and numpy held at once while ``action()`` ran, in bytes."""
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def vocab():
    return default_vocabulary()


def triplet(vocab, instrument, verb=None, target=None) -> Triplet:
    return Triplet(
        vocab.index_of("instruments", instrument),
        None if verb is None else vocab.index_of("verbs", verb),
        None if target is None else vocab.index_of("targets", target),
    )


def frame(vocab, video_id, index, phase, triplets=()) -> FrameAnnotation:
    return FrameAnnotation(
        video_id,
        index,
        tuple(t if isinstance(t, Triplet) else triplet(vocab, *t) for t in triplets),
        vocab.index_of("phases", phase),
    )


def annotation_table(records: list[VideoRecord], vocab) -> AnnotationTable:
    """The oracle of ``AnnotationTable.read``: the table of parsed records, filled frame by frame."""
    videos = by_video_id(records)
    starts = np.zeros(len(videos) + 1, dtype=np.int64)
    np.cumsum([len(v) for v in videos], out=starts[1:])
    width, n_instruments = len(vocab.detection_classes), len(vocab.instruments)
    cells = array("q")  # flat index of every true cell
    for row, frame in enumerate(f for v in videos for f in v.frames):
        for triplet in frame.triplets:
            cells.append(row * width + triplet.instrument)
            if triplet.target is not None:
                cells.append(row * width + n_instruments + triplet.target)
    truth = np.zeros((int(starts[-1]), width), dtype=bool)
    truth.reshape(-1)[np.frombuffer(cells, dtype=np.int64)] = True
    return AnnotationTable(tuple(v.video_id for v in videos), starts, truth)


def make_corpus(vocab, n_videos=3, n_frames=100, seed=0) -> list[VideoRecord]:
    """Random but deterministic annotated videos with phase runs."""
    rng = random.Random(seed)
    action_verbs = [i for i, n in enumerate(vocab.verbs) if n != NULL_VERB_NAME]
    real_targets = [i for i, n in enumerate(vocab.targets) if n != NULL_TARGET_NAME]
    records = []
    for v in range(n_videos):
        video_id = f"VID{v + 1:02d}"
        frames = []
        phase = rng.randrange(len(vocab.phases))
        for i in range(n_frames):
            if rng.random() < 0.06:
                phase = rng.randrange(len(vocab.phases))
            triplets = []
            for instrument in rng.sample(range(len(vocab.instruments)), rng.randint(0, 2)):
                if rng.random() < 0.25:
                    triplets.append(Triplet(instrument))
                else:
                    triplets.append(
                        Triplet(instrument, rng.choice(action_verbs), rng.choice(real_targets))
                    )
            frames.append(FrameAnnotation(video_id, i, tuple(triplets), phase))
        records.append(VideoRecord(video_id, tuple(frames)))
    return records


def make_logits(records, vocab, seed=0, signal=4.0) -> list[LogitsRecord]:
    """Synthetic logits correlated with each frame's true classes."""
    rng = random.Random(seed)
    out = []
    for record in records:
        for f in record.frames:
            bits = truth_bits(f, vocab)
            logits = tuple(
                signal * (b - 0.5) + rng.gauss(0.0, 0.8) for b in bits
            )
            out.append(LogitsRecord(record.video_id, f.frame_index, logits))
    return out


def make_calibrated_logits(records, vocab, seed=0, scale=1.0) -> list[LogitsRecord]:
    """Logits whose sigmoid probabilities match the label statistics.

    Per class, values are drawn from N(+1, 2) for positive cells and
    N(-1, 2) for negative cells, then shifted by the class log-odds; the
    resulting posterior P(bit=1 | value) equals sigmoid(value), so the
    optimal temperature is 1. ``scale`` multiplies the final values to
    simulate a miscalibrated model with optimum T = scale.
    """
    import math

    rng = random.Random(seed)
    all_bits = [
        truth_bits(f, vocab) for record in records for f in record.frames
    ]
    n = len(all_bits)
    rate = [
        min(max(sum(b[c] for b in all_bits) / n, 0.5 / n), 1 - 0.5 / n)
        for c in range(len(vocab.detection_classes))
    ]
    offsets = [math.log(r / (1 - r)) for r in rate]
    out = []
    i = 0
    for record in records:
        for f in record.frames:
            bits = all_bits[i]
            i += 1
            values = tuple(
                scale * (rng.gauss(2 * b - 1, math.sqrt(2)) + offsets[c])
                for c, b in enumerate(bits)
            )
            out.append(LogitsRecord(record.video_id, f.frame_index, values))
    return out


class StubChatServer:
    """Local chat-completion endpoint that records requests.

    The first requests are answered with ``statuses`` in order, every later
    one with ``status``. ``body`` replaces the completion JSON of every
    answer, and ``headers`` are added to each. The request target of each
    request (a full URL when the stub serves as a proxy) goes to ``paths``
    and its body bytes to ``bodies``.
    """

    def __init__(
        self, completion="The procedure went well.", status=200, statuses=(), body=None, headers=()
    ):
        self.requests: list[dict] = []
        pending = list(statuses)
        self.auth_headers: list[str] = []
        self.paths: list[str] = []
        self.bodies: list[bytes] = []
        stub = self
        if body is None:
            body = json.dumps({"choices": [{"message": {"content": completion}}]}).encode("utf-8")
        headers = dict(headers)

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                stub.bodies.append(raw)
                stub.paths.append(self.path)
                stub.requests.append(json.loads(raw))
                stub.auth_headers.append(self.headers.get("Authorization", ""))
                self.send_response(pending.pop(0) if pending else status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self.server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.server_port}"

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()


class DroppingListener:
    """Accepts TCP connections and closes them at once, counting attempts."""

    def __init__(self):
        self.accepts = 0
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self._stop = threading.Event()
        self.thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        self.sock.settimeout(0.1)
        while not self._stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            self.accepts += 1
            conn.close()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.sock.getsockname()[1]}"

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self.thread.join(timeout=2)
        self.sock.close()
