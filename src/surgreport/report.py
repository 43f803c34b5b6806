"""Surgical report assembly: timeline merging, prompting, and rendering.

Clip captions overlap by half a clip, so naively summing their segment
durations would inflate every report by roughly 50%. ``merge_timeline``
re-expands segments to frame indices, deduplicates overlapping frames, and
merges maximal same-phase runs, so every reported duration counts unique
seconds of video.

Each video's clips are merged once; that one timeline feeds the offline
report, the endpoint report and both timeline sidecars. Its sidecar text is
rendered once and written into both sidecars; nothing is read back from
disk.
Reports can be produced offline by a deterministic renderer or remotely by
a chat-completion endpoint fed the standard prompt. The endpoint client is
the standard library's ``urllib.request``, loaded on the first endpoint
request. It follows no redirect, so a 3xx ends as an EndpointStatusError
and the bearer token never reaches another URL, and it honors the
``HTTP_PROXY``/``HTTPS_PROXY``/``NO_PROXY`` environment variables.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass
from itertools import chain, groupby
from pathlib import Path

from .captions import ClipCaption, _target_part, verb_forms
from .config import EndpointConfig
from .dataset import Triplet
from .errors import EndpointStatusError, MissingCredentialError, TransportError
from .jsonl import write_text
from .vocab import Vocabulary

log = logging.getLogger(__name__)

PROMPT_TEMPLATE_ID = "surgery-report-v1"

KEY_INSTRUCTION_DURATIONS = (
    "The clips form a continuous video. If multiple clips describe the same "
    "activity, combine their durations to reflect the total time spent on that activity."
)
KEY_INSTRUCTION_NARRATIVE = (
    "Write the report in a narrative format, explaining each phase step-by-step "
    "in a flowing text."
)

PROMPT_TEMPLATE = (
    "Generate a concise and textual surgery report from the following sequential "
    "clip captions of a video.\n"
    "Each clip describes a phase of the surgery, including the activity, tools "
    "used, and duration.\n"
    "\n"
    "Key Instructions:\n"
    "\n"
    f"1. {KEY_INSTRUCTION_DURATIONS}\n"
    "\n"
    f"2. {KEY_INSTRUCTION_NARRATIVE}\n"
    "\n"
    "Clip captions: {clip_captions}\n"
)

# HTTP statuses worth retrying; everything else non-2xx fails immediately.
_TRANSIENT_STATUSES = {429, 500, 502, 503, 504}


@dataclass(frozen=True)
class MergedEntry:
    """One merged phase with its unique-frame duration and action summary."""

    phase: int
    total_seconds: int
    actions: tuple[Triplet, ...]
    clip_range: tuple[int, int]  # start_frame of first/last contributing clip


@dataclass(frozen=True)
class MergedTimeline:
    video_id: str
    entries: tuple[MergedEntry, ...]

    @property
    def total_seconds(self) -> int:
        return sum(entry.total_seconds for entry in self.entries)


@dataclass(frozen=True)
class PromptRequest:
    template_id: str
    prompt: str
    video_id: str


@dataclass(frozen=True)
class SurgicalReport:
    video_id: str
    narrative: str
    provenance: str  # "offline" or "llm:<model id>"


def _one_video(clips: list[ClipCaption]) -> str:
    video_ids = {clip.video_id for clip in clips}
    if len(video_ids) > 1:
        raise ValueError(f"clips come from multiple videos: {sorted(video_ids)}")
    return next(iter(video_ids))


def merge_timeline(clips: list[ClipCaption]) -> MergedTimeline:
    """Merge overlapping clip timelines into unique-frame phase entries.

    Overlapping frames are deduplicated by index (first clip wins), then
    maximal same-phase runs are merged; each entry's duration is its count
    of unique frames (seconds at 1 fps). Per-entry actions are the union of
    the contributing segments' actions in order of first appearance.
    """
    if not clips:
        raise ValueError("cannot merge an empty clip list")
    video_id = _one_video(clips)
    # Each frame belongs to the first clip, by start, that covers it.
    owner: dict[int, tuple[int, tuple[Triplet, ...], int]] = {}
    for clip in sorted(clips, key=lambda c: c.start_frame):
        index = clip.start_frame
        for segment in clip.segments:
            claim = (segment.phase, segment.actions, clip.start_frame)
            for frame in range(index, index + segment.duration_seconds):
                owner.setdefault(frame, claim)
            index += segment.duration_seconds

    entries = []
    for phase, run in groupby(sorted(owner.items()), key=lambda item: item[1][0]):
        claims = [claim for _, claim in run]
        # The frames of one segment share its claim; take each segment once.
        segments = [claim for claim, _ in groupby(claims)]
        starts = [start for _, _, start in segments]
        entries.append(
            MergedEntry(
                phase=phase,
                total_seconds=len(claims),
                actions=tuple(dict.fromkeys(chain.from_iterable(a for _, a, _ in segments))),
                clip_range=(min(starts), max(starts)),
            )
        )
    return MergedTimeline(video_id=video_id, entries=tuple(entries))


def render_prompt(clips: list[ClipCaption]) -> PromptRequest:
    """Fill the report prompt with the numbered clip captions, in order."""
    if not clips:
        raise ValueError("cannot render a prompt for an empty clip list")
    numbered = "\n".join(f"{i}. {clip.text}" for i, clip in enumerate(clips, start=1))
    prompt = PROMPT_TEMPLATE.replace("{clip_captions}", numbered)
    return PromptRequest(template_id=PROMPT_TEMPLATE_ID, prompt=prompt, video_id=_one_video(clips))


def _past_clause(action: Triplet, vocab: Vocabulary) -> str:
    instrument = vocab.instruments[action.instrument]
    return f"the {instrument} {verb_forms(action.verb, vocab).past}" + _target_part(action, vocab)


def _join_clauses(clauses: list[str]) -> str:
    if len(clauses) <= 1:
        return clauses[0]
    return ", ".join(clauses[:-1]) + " and " + clauses[-1]


def offline_report(timeline: MergedTimeline, vocab: Vocabulary) -> SurgicalReport:
    """Deterministic narrative: one paragraph per timeline entry."""
    if not timeline.entries:
        raise ValueError("cannot render a report for an empty timeline")
    paragraphs = []
    for entry in timeline.entries:
        phase = vocab.phases[entry.phase]
        if entry.actions:
            summary = _join_clauses([_past_clause(a, vocab) for a in entry.actions])
        else:
            summary = "no instrument was active"
        paragraphs.append(
            f"The {phase} phase lasted {entry.total_seconds} seconds, during which {summary}."
        )
    return SurgicalReport(
        video_id=timeline.video_id,
        narrative="\n".join(paragraphs),
        provenance="offline",
    )


def _opener():
    """An HTTP(S) opener that follows no redirect and honors the proxy variables.

    With no redirect handler a 3xx raises HTTPError with its status.
    ``ProxyHandler`` reads the proxy variables when it is built, so each
    call sees the current environment. A URL of another scheme (``file:``,
    ``data:``, ``ftp:``) fails in ``UnknownHandler`` as a URLError.
    """
    import urllib.request

    opener = urllib.request.OpenerDirector()
    for handler in (
        urllib.request.ProxyHandler(),
        urllib.request.UnknownHandler(),
        urllib.request.HTTPHandler(),
        urllib.request.HTTPSHandler(),
        urllib.request.HTTPDefaultErrorHandler(),
        urllib.request.HTTPErrorProcessor(),
    ):
        opener.add_handler(handler)
    return opener


def llm_generate(request: PromptRequest, endpoint: EndpointConfig) -> SurgicalReport:
    """Generate the narrative with a remote chat-completion endpoint.

    Transient failures (network errors, 429, 5xx) are retried with
    exponential backoff for up to max_attempts total attempts; any other
    status, a 3xx included, fails at once. The credential is read from the
    configured environment variable and never logged.
    """
    # Imported here: only endpoint reports use them, and the command-line
    # entry point should not pay for loading the HTTP stack.
    import http.client
    import urllib.error
    import urllib.request

    credential = os.environ.get(endpoint.credential_env)
    if not credential:
        raise MissingCredentialError(
            f"environment variable {endpoint.credential_env} is not set"
        )
    payload = {
        "model": endpoint.model,
        "messages": [{"role": "user", "content": request.prompt}],
        "temperature": endpoint.temperature,
        "max_tokens": endpoint.max_tokens,
    }
    headers = {"Authorization": f"Bearer {credential}", "Content-Type": "application/json"}
    url = endpoint.base_url.rstrip("/") + "/chat/completions"
    body = json.dumps(payload).encode("utf-8")
    opener = _opener()
    # Each attempt that does not succeed binds ``error``; the last one is raised.
    for attempt in range(1, endpoint.max_attempts + 1):
        if attempt > 1:
            time.sleep(endpoint.backoff_seconds * 2 ** (attempt - 2))
        log.info(
            "report request %s attempt %d/%d for %s (auth: Bearer ***)",
            url, attempt, endpoint.max_attempts, request.video_id,
        )
        try:
            # A URL without a scheme raises ValueError.
            post = urllib.request.Request(url, data=body, headers=headers, method="POST")
            with opener.open(post, timeout=endpoint.timeout) as response:
                status, answer = response.status, response.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            status = exc.code
        except (OSError, http.client.HTTPException, ValueError) as exc:
            log.warning("transport failure on attempt %d: %s", attempt, type(exc).__name__)
            error = TransportError(f"request failed after {endpoint.max_attempts} attempts: {exc}")
            continue
        if status == 200:
            break
        log.warning("endpoint status %d on attempt %d", status, attempt)
        error = EndpointStatusError(f"endpoint answered status {status}", status)
        if status not in _TRANSIENT_STATUSES:
            raise error
    else:
        raise error

    try:
        narrative = json.loads(answer)["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise EndpointStatusError(f"malformed endpoint response: {exc}", status)
    if type(narrative) is not str:
        problem = f"content is {type(narrative).__name__}, not a string"
        raise EndpointStatusError(f"malformed endpoint response: {problem}", status)
    try:
        narrative.encode("utf-8")  # JSON can carry a lone surrogate (\ud800), which no file holds
    except UnicodeEncodeError as exc:
        raise EndpointStatusError(f"malformed endpoint response: {exc}", status)
    log.info("report response: %d characters", len(narrative))
    return SurgicalReport(request.video_id, narrative, f"llm:{endpoint.model}")


def timeline_record(timeline: MergedTimeline, vocab: Vocabulary) -> dict:
    return {
        "video_id": timeline.video_id,
        "total_seconds": timeline.total_seconds,
        "entries": [
            {
                "phase": vocab.phases[e.phase],
                "total_seconds": e.total_seconds,
                "actions": [
                    [
                        vocab.instruments[a.instrument],
                        None if a.verb is None else vocab.verbs[a.verb],
                        None if a.target is None else vocab.targets[a.target],
                    ]
                    for a in e.actions
                ],
                "clip_range": list(e.clip_range),
            }
            for e in timeline.entries
        ],
    }


def render_timeline(timeline: MergedTimeline, vocab: Vocabulary) -> str:
    """The sidecar's ``timeline`` value, indented as one level inside the sidecar."""
    return json.dumps(timeline_record(timeline, vocab), indent=2).replace("\n", "\n  ")


def write_report(directory: str | Path, report: SurgicalReport, timeline: str, suffix: str = "") -> Path:
    """Write the narrative text plus a structured timeline sidecar.

    ``timeline`` is ``render_timeline`` of the video's one merged timeline,
    so a video's two reports share one encoding of it. The sidecar is
    ``json.dumps({"provenance": ..., "timeline": ...}, indent=2)``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    text_path = directory / f"{report.video_id}{suffix}.txt"
    write_text(text_path, report.narrative + "\n")
    provenance = json.dumps(report.provenance)
    sidecar_path = directory / f"{report.video_id}{suffix}.timeline.json"
    write_text(sidecar_path, f'{{\n  "provenance": {provenance},\n  "timeline": {timeline}\n}}\n')
    return text_path
