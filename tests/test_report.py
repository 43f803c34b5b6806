from __future__ import annotations

import json
import logging
import math
import random
import socket
from dataclasses import replace

import pytest

from surgreport.captions import ClipCaption, PhaseSegment, render_clip_text
from surgreport.errors import ConfigError, MissingCredentialError, TransportError, EndpointStatusError
from surgreport.report import (
    EndpointConfig,
    KEY_INSTRUCTION_DURATIONS,
    KEY_INSTRUCTION_NARRATIVE,
    MergedEntry,
    MergedTimeline,
    SurgicalReport,
    llm_generate,
    merge_timeline,
    offline_report,
    render_prompt,
    render_timeline,
    timeline_record,
    write_report,
)

from conftest import DroppingListener, StubChatServer, triplet


def make_clip(vocab, start, segments, video_id="VID01"):
    return ClipCaption(video_id, start, tuple(segments), render_clip_text(segments, vocab))


def full_phase_clip(vocab, start, phase="preparation", video_id="VID01", actions=None):
    actions = actions if actions is not None else (triplet(vocab, "grasper", "grasp", "gallbladder"),)
    segment = PhaseSegment(vocab.index_of("phases", phase), 32, actions)
    return make_clip(vocab, start, [segment], video_id)


def test_merge_disjoint_clips_add(vocab):
    timeline = merge_timeline([full_phase_clip(vocab, 0), full_phase_clip(vocab, 32)])
    assert [(e.phase, e.total_seconds) for e in timeline.entries] == [(0, 64)]


def test_merge_overlapping_clips_counts_unique_frames(vocab):
    timeline = merge_timeline([full_phase_clip(vocab, 0), full_phase_clip(vocab, 16)])
    assert [(e.phase, e.total_seconds) for e in timeline.entries] == [(0, 48)]
    assert timeline.total_seconds == 48


def test_merge_two_phase_clip_alone(vocab):
    actions = (triplet(vocab, "grasper", "grasp", "gallbladder"), triplet(vocab, "hook"))
    segments = [
        PhaseSegment(vocab.index_of("phases", "preparation"), 22, actions),
        PhaseSegment(vocab.index_of("phases", "calot-triangle-dissection"), 10, actions),
    ]
    timeline = merge_timeline([make_clip(vocab, 0, segments)])
    assert [(vocab.phases[e.phase], e.total_seconds) for e in timeline.entries] == [
        ("preparation", 22),
        ("calot-triangle-dissection", 10),
    ]


def test_merge_rejects_mixed_videos(vocab):
    with pytest.raises(ValueError, match="multiple videos"):
        merge_timeline([full_phase_clip(vocab, 0), full_phase_clip(vocab, 0, video_id="VID02")])


def test_merge_unique_frame_total_over_random_clip_sets(vocab):
    rng = random.Random(99)
    for _ in range(200):
        clips = []
        covered = set()
        for _ in range(rng.randint(1, 6)):
            start = rng.randrange(0, 200, 16)
            segments = []
            remaining = 32
            while remaining > 0:
                duration = rng.randint(1, remaining)
                segments.append(PhaseSegment(rng.randrange(7), duration, ()))
                remaining -= duration
            clips.append(make_clip(vocab, start, segments))
            covered |= set(range(start, start + 32))
        timeline = merge_timeline(clips)
        assert timeline.total_seconds == len(covered)
        for a, b in zip(timeline.entries, timeline.entries[1:]):
            assert a.phase != b.phase


def _merge_timeline_oracle(clips):
    """The per-frame merge with parallel dicts and an explicit run, kept as an oracle."""
    video_ids = {clip.video_id for clip in clips}
    ordered = sorted(clips, key=lambda c: c.start_frame)

    frame_phase = {}
    frame_actions = {}
    frame_clip = {}
    for clip in ordered:
        index = clip.start_frame
        for segment in clip.segments:
            for offset in range(segment.duration_seconds):
                frame = index + offset
                if frame not in frame_phase:
                    frame_phase[frame] = segment.phase
                    frame_actions[frame] = segment.actions
                    frame_clip[frame] = clip.start_frame
            index += segment.duration_seconds

    entries = []
    run_frames = []
    run_phase = None
    run_actions = {}

    def close_run():
        if run_phase is None:
            return
        entries.append(
            MergedEntry(
                phase=run_phase,
                total_seconds=len(run_frames),
                actions=tuple(run_actions),
                clip_range=(
                    min(frame_clip[f] for f in run_frames),
                    max(frame_clip[f] for f in run_frames),
                ),
            )
        )

    for frame in sorted(frame_phase):
        phase = frame_phase[frame]
        if phase != run_phase:
            close_run()
            run_phase = phase
            run_frames = []
            run_actions = {}
        run_frames.append(frame)
        for action in frame_actions[frame]:
            run_actions.setdefault(action)
    close_run()
    return MergedTimeline(video_id=next(iter(video_ids)), entries=tuple(entries))


def _random_clip(vocab, rng, start):
    """A clip of 1-40 frames in at most three phases, each segment with 0-3 actions."""
    phases = rng.sample(range(3), 3)  # few phases, so runs meet across clips
    actions = [triplet(vocab, name) for name in vocab.instruments[:4]]
    segments = []
    remaining = rng.randint(1, 40)
    for phase in phases:
        if remaining == 0:
            break
        duration = remaining if phase == phases[-1] else rng.randint(1, remaining)
        segments.append(PhaseSegment(phase, duration, tuple(rng.sample(actions, rng.randint(0, 3)))))
        remaining -= duration
    return make_clip(vocab, start, segments)


def test_merge_matches_oracle_on_random_clip_sets(vocab):
    rng = random.Random(2024)
    seen = {"gap": 0, "overlap": 0, "unsorted": 0}
    for _ in range(300):
        clips = [_random_clip(vocab, rng, rng.randrange(0, 120)) for _ in range(rng.randint(1, 7))]
        starts = [clip.start_frame for clip in clips]
        spans = sorted((c.start_frame, c.start_frame + c.size) for c in clips)
        seen["unsorted"] += starts != sorted(starts)
        seen["gap"] += any(lo > max(hi for _, hi in spans[:i]) for i, (lo, _) in enumerate(spans) if i)
        seen["overlap"] += any(a[1] > b[0] for a, b in zip(spans, spans[1:]))
        assert merge_timeline(clips) == _merge_timeline_oracle(clips)
    assert min(seen.values()) >= 50, seen


def test_merge_actions_union_in_first_appearance_order(vocab):
    a1 = triplet(vocab, "grasper", "retract", "gallbladder")
    a2 = triplet(vocab, "hook", "dissect", "gallbladder")
    clip1 = full_phase_clip(vocab, 0, actions=(a1,))
    clip2 = full_phase_clip(vocab, 16, actions=(a2, a1))
    timeline = merge_timeline([clip1, clip2])
    assert timeline.entries[0].actions == (a1, a2)
    assert timeline.entries[0].clip_range == (0, 16)


def test_render_prompt_contains_captions_and_instructions(vocab):
    clips = [full_phase_clip(vocab, 0), full_phase_clip(vocab, 16, phase="gallbladder-dissection")]
    request = render_prompt(clips)
    assert KEY_INSTRUCTION_DURATIONS in request.prompt
    assert KEY_INSTRUCTION_NARRATIVE in request.prompt
    positions = []
    for i, clip in enumerate(clips, start=1):
        assert f"{i}. {clip.text}" in request.prompt
        assert request.prompt.count(clip.text) == 1
        positions.append(request.prompt.index(clip.text))
    assert positions == sorted(positions)
    assert request.template_id == "surgery-report-v1"
    assert request.video_id == "VID01"


def test_render_prompt_mentions_durations(vocab):
    actions = (triplet(vocab, "grasper", "grasp", "gallbladder"), triplet(vocab, "hook"))
    segments = [
        PhaseSegment(vocab.index_of("phases", "preparation"), 22, actions),
        PhaseSegment(vocab.index_of("phases", "calot-triangle-dissection"), 10, actions),
    ]
    request = render_prompt([make_clip(vocab, 0, segments)])
    assert "22-second preparation phase" in request.prompt


def test_render_prompt_deterministic(vocab):
    clips = [full_phase_clip(vocab, 0)]
    assert render_prompt(clips).prompt == render_prompt(clips).prompt


def test_render_prompt_rejects_mixed_videos_before_any_request(vocab, monkeypatch):
    monkeypatch.setenv("SURGREPORT_API_KEY", "secret-token")
    clips = [full_phase_clip(vocab, 0), full_phase_clip(vocab, 16, video_id="VID02")]
    with StubChatServer() as stub:
        endpoint = EndpointConfig(base_url=stub.url, model="m", backoff_seconds=0.01)
        with pytest.raises(ValueError, match=r"multiple videos: \['VID01', 'VID02'\]"):
            llm_generate(render_prompt(clips), endpoint)
    assert stub.requests == []


def test_offline_report_single_entry(vocab):
    timeline = merge_timeline(
        [
            make_clip(
                vocab,
                0,
                [
                    PhaseSegment(
                        vocab.index_of("phases", "preparation"),
                        32,
                        (triplet(vocab, "grasper", "retract", "gallbladder"),),
                    )
                ],
            ),
            full_phase_clip(vocab, 16, actions=(triplet(vocab, "grasper", "retract", "gallbladder"),)),
        ]
    )
    report = offline_report(timeline, vocab)
    assert report.narrative == (
        "The preparation phase lasted 48 seconds, during which the grasper "
        "retracted the gallbladder."
    )
    assert report.provenance == "offline"


def test_offline_report_two_phases_and_determinism(vocab):
    actions = (triplet(vocab, "grasper", "grasp", "gallbladder"), triplet(vocab, "hook"))
    segments = [
        PhaseSegment(vocab.index_of("phases", "preparation"), 22, actions),
        PhaseSegment(vocab.index_of("phases", "calot-triangle-dissection"), 10, actions),
    ]
    timeline = merge_timeline([make_clip(vocab, 0, segments)])
    report = offline_report(timeline, vocab)
    lines = report.narrative.splitlines()
    assert len(lines) == 2
    assert "lasted 22 seconds" in lines[0]
    assert "lasted 10 seconds" in lines[1]
    assert "the grasper held the gallbladder and the hook was present" in lines[0]
    again = offline_report(merge_timeline([make_clip(vocab, 0, segments)]), vocab)
    assert again.narrative == report.narrative


def test_llm_generate_against_stub(vocab, monkeypatch):
    monkeypatch.setenv("SURGREPORT_API_KEY", "secret-token")
    clips = [full_phase_clip(vocab, 0)]
    request = render_prompt(clips)
    with StubChatServer(completion="A fine procedure.") as stub:
        endpoint = EndpointConfig(base_url=stub.url, model="test-model", backoff_seconds=0.01)
        report = llm_generate(request, endpoint)
    assert report.narrative == "A fine procedure."
    assert report.provenance == "llm:test-model"
    assert report.video_id == "VID01"
    body = stub.requests[0]
    assert body["model"] == "test-model"
    content = body["messages"][0]["content"]
    assert KEY_INSTRUCTION_DURATIONS in content
    assert KEY_INSTRUCTION_NARRATIVE in content
    assert stub.auth_headers[0] == "Bearer secret-token"


def test_llm_generate_retries_then_raises_transport_error(vocab, monkeypatch):
    monkeypatch.setenv("SURGREPORT_API_KEY", "secret-token")
    request = render_prompt([full_phase_clip(vocab, 0)])
    with DroppingListener() as listener:
        endpoint = EndpointConfig(base_url=listener.url, model="m", backoff_seconds=0.01, timeout=2)
        with pytest.raises(TransportError, match="after 3 attempts"):
            llm_generate(request, endpoint)
    assert listener.accepts == 3


def test_llm_generate_transient_status_on_every_attempt(vocab, monkeypatch):
    monkeypatch.setenv("SURGREPORT_API_KEY", "secret-token")
    request = render_prompt([full_phase_clip(vocab, 0)])
    with StubChatServer(status=503) as stub:
        endpoint = EndpointConfig(base_url=stub.url, model="m", backoff_seconds=0.01, max_attempts=4)
        with pytest.raises(EndpointStatusError, match="^endpoint answered status 503$") as caught:
            llm_generate(request, endpoint)
    assert caught.value.status == 503
    assert len(stub.requests) == 4


def test_llm_generate_succeeds_after_a_transient_status(vocab, monkeypatch):
    monkeypatch.setenv("SURGREPORT_API_KEY", "secret-token")
    request = render_prompt([full_phase_clip(vocab, 0)])
    with StubChatServer(completion="Second time lucky.", statuses=[503]) as stub:
        endpoint = EndpointConfig(base_url=stub.url, model="m", backoff_seconds=0.01)
        report = llm_generate(request, endpoint)
    assert report.narrative == "Second time lucky."
    assert len(stub.requests) == 2


def test_llm_generate_non_transient_status_after_a_transient_one(vocab, monkeypatch):
    monkeypatch.setenv("SURGREPORT_API_KEY", "secret-token")
    request = render_prompt([full_phase_clip(vocab, 0)])
    with StubChatServer(statuses=[502, 404]) as stub:
        endpoint = EndpointConfig(base_url=stub.url, model="m", backoff_seconds=0.01, max_attempts=5)
        with pytest.raises(EndpointStatusError, match="status 404"):
            llm_generate(request, endpoint)
    assert len(stub.requests) == 2


def test_llm_generate_sends_the_json_body_and_headers(vocab, monkeypatch):
    monkeypatch.setenv("SURGREPORT_API_KEY", "secret-token")
    request = render_prompt([full_phase_clip(vocab, 0)])
    with StubChatServer() as stub:
        endpoint = EndpointConfig(base_url=stub.url + "/v1/", model="m", backoff_seconds=0.01)
        llm_generate(request, endpoint)
    payload = {
        "model": "m",
        "messages": [{"role": "user", "content": request.prompt}],
        "temperature": 0.2,
        "max_tokens": 1024,
    }
    assert stub.bodies == [json.dumps(payload).encode("utf-8")]
    assert stub.paths == ["/v1/chat/completions"]


def test_llm_generate_follows_no_redirect(vocab, monkeypatch):
    monkeypatch.setenv("SURGREPORT_API_KEY", "secret-token")
    request = render_prompt([full_phase_clip(vocab, 0)])
    with StubChatServer() as elsewhere:
        location = {"Location": elsewhere.url + "/chat/completions"}
        with StubChatServer(status=302, headers=location) as stub:
            endpoint = EndpointConfig(base_url=stub.url, model="m", backoff_seconds=0.01)
            with pytest.raises(EndpointStatusError, match="status 302$") as caught:
                llm_generate(request, endpoint)
    assert caught.value.status == 302
    assert len(stub.requests) == 1  # 3xx is not transient; no retry
    assert elsewhere.requests == []


@pytest.mark.parametrize(
    "body",
    [
        b"<html>busy</html>",
        b"\xff\xfe",
        b"[]",
        b'{"choices": []}',
        b'{"choices": [{"message": {"content": 5}}]}',
        b'{"choices": [{"message": {"content": null}}]}',
    ],
)
def test_llm_generate_malformed_response(vocab, monkeypatch, body):
    monkeypatch.setenv("SURGREPORT_API_KEY", "secret-token")
    request = render_prompt([full_phase_clip(vocab, 0)])
    with StubChatServer(body=body) as stub:
        endpoint = EndpointConfig(base_url=stub.url, model="m", backoff_seconds=0.01)
        with pytest.raises(EndpointStatusError, match="^malformed endpoint response: ") as caught:
            llm_generate(request, endpoint)
    assert caught.value.status == 200
    assert len(stub.requests) == 1


def test_llm_generate_nothing_listening_is_a_transport_error(vocab, monkeypatch, caplog):
    monkeypatch.setenv("SURGREPORT_API_KEY", "secret-token")
    request = render_prompt([full_phase_clip(vocab, 0)])
    with socket.socket() as sock:  # a port that was free a moment ago
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    endpoint = EndpointConfig(
        base_url=f"http://127.0.0.1:{port}", model="m", backoff_seconds=0.01, max_attempts=2
    )
    with caplog.at_level(logging.WARNING):
        with pytest.raises(TransportError, match="^request failed after 2 attempts: "):
            llm_generate(request, endpoint)
    assert caplog.text.count("transport failure on attempt") == 2


@pytest.mark.parametrize("base_url", ["127.0.0.1:9/v1", "file:///v1", "ftp://127.0.0.1:9/v1"])
def test_llm_generate_url_without_an_http_scheme_is_a_transport_error(vocab, monkeypatch, base_url):
    monkeypatch.setenv("SURGREPORT_API_KEY", "secret-token")
    request = render_prompt([full_phase_clip(vocab, 0)])
    endpoint = EndpointConfig(base_url=base_url, model="m", backoff_seconds=0.01, max_attempts=2)
    with pytest.raises(TransportError, match="^request failed after 2 attempts: "):
        llm_generate(request, endpoint)


def test_llm_generate_honors_http_proxy(vocab, monkeypatch):
    monkeypatch.setenv("SURGREPORT_API_KEY", "secret-token")
    for name in ("NO_PROXY", "no_proxy", "http_proxy", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
    request = render_prompt([full_phase_clip(vocab, 0)])
    # Nothing listens on the endpoint's own address: only the proxy can answer.
    with StubChatServer(completion="Proxied.") as proxy:
        monkeypatch.setenv("HTTP_PROXY", proxy.url)
        endpoint = EndpointConfig(base_url="http://127.0.0.2:9/v1", model="m", max_attempts=1)
        report = llm_generate(request, endpoint)
    assert report.narrative == "Proxied."
    assert proxy.paths == ["http://127.0.0.2:9/v1/chat/completions"]
    assert proxy.auth_headers == ["Bearer secret-token"]


@pytest.mark.parametrize("attempts", [0, -1, "3"])
def test_endpoint_config_needs_at_least_one_attempt(attempts):
    with pytest.raises(ConfigError, match="max_attempts"):
        EndpointConfig(base_url="http://127.0.0.1:1", model="m", max_attempts=attempts)


@pytest.mark.parametrize("backoff", [-1, -0.5, math.nan, math.inf, "0.5", None, True])
def test_endpoint_config_needs_a_finite_nonnegative_backoff(backoff):
    with pytest.raises(ConfigError, match="backoff_seconds"):
        EndpointConfig(base_url="http://127.0.0.1:1", model="m", backoff_seconds=backoff)


@pytest.mark.parametrize("backoff", [0, 0.25, 3])
def test_endpoint_config_accepts_a_finite_nonnegative_backoff(backoff):
    endpoint = EndpointConfig(base_url="http://127.0.0.1:1", model="m", backoff_seconds=backoff)
    assert endpoint.backoff_seconds == backoff


def test_llm_generate_missing_credential(vocab, monkeypatch):
    monkeypatch.delenv("SURGREPORT_API_KEY", raising=False)
    request = render_prompt([full_phase_clip(vocab, 0)])
    endpoint = EndpointConfig(base_url="http://127.0.0.1:1", model="m")
    with pytest.raises(MissingCredentialError, match="SURGREPORT_API_KEY"):
        llm_generate(request, endpoint)


def test_llm_generate_non_success_status(vocab, monkeypatch):
    monkeypatch.setenv("SURGREPORT_API_KEY", "secret-token")
    request = render_prompt([full_phase_clip(vocab, 0)])
    with StubChatServer(status=403) as stub:
        endpoint = EndpointConfig(base_url=stub.url, model="m", backoff_seconds=0.01)
        with pytest.raises(EndpointStatusError, match="403"):
            llm_generate(request, endpoint)
    assert len(stub.requests) == 1  # 4xx is not transient; no retry


def test_llm_generate_never_logs_credential(vocab, monkeypatch, caplog):
    monkeypatch.setenv("SURGREPORT_API_KEY", "super-secret-credential")
    request = render_prompt([full_phase_clip(vocab, 0)])
    with caplog.at_level(logging.DEBUG):
        with StubChatServer() as stub:
            endpoint = EndpointConfig(base_url=stub.url, model="m", backoff_seconds=0.01)
            llm_generate(request, endpoint)
        with DroppingListener() as listener:
            failing = EndpointConfig(base_url=listener.url, model="m", backoff_seconds=0.01, timeout=2)
            with pytest.raises(TransportError):
                llm_generate(request, failing)
    assert "super-secret-credential" not in caplog.text


def test_write_report_text_and_sidecar(tmp_path, vocab):
    timeline = merge_timeline([full_phase_clip(vocab, 0)])
    report = offline_report(timeline, vocab)
    path = write_report(tmp_path, report, render_timeline(timeline, vocab))
    assert path.read_text(encoding="utf-8").startswith("The preparation phase lasted 32 seconds")
    sidecar = json.loads((tmp_path / "VID01.timeline.json").read_text(encoding="utf-8"))
    assert sidecar["provenance"] == "offline"
    assert sidecar["timeline"]["total_seconds"] == 32
    assert sidecar["timeline"]["entries"][0]["phase"] == "preparation"


@pytest.mark.parametrize("provenance", ["offline", "llm:m", 'llm:"quoted" \\ model', "llm:modèle"])
def test_sidecar_is_the_indented_dump_of_provenance_and_timeline(tmp_path, vocab, provenance):
    clips = [
        full_phase_clip(vocab, 0),
        full_phase_clip(vocab, 16, "calot-triangle-dissection", actions=()),
        full_phase_clip(
            vocab, 48, actions=(triplet(vocab, "hook"), triplet(vocab, "grasper", "grasp", "gallbladder"))
        ),
    ]
    timeline = merge_timeline(clips)
    report = replace(offline_report(timeline, vocab), provenance=provenance)
    sidecar = {"provenance": provenance, "timeline": timeline_record(timeline, vocab)}
    write_report(tmp_path, report, render_timeline(timeline, vocab))
    written = (tmp_path / "VID01.timeline.json").read_text(encoding="utf-8")
    assert written == json.dumps(sidecar, indent=2) + "\n"


@pytest.mark.parametrize("video_id", ["VID01", "case.7", "vidéo \"x\""])
def test_both_reports_of_a_video_share_one_timeline_text(tmp_path, vocab, video_id):
    clips = [full_phase_clip(vocab, start, video_id=video_id) for start in (0, 16)]
    timeline = merge_timeline(clips)
    text = render_timeline(timeline, vocab)
    write_report(tmp_path, offline_report(timeline, vocab), text)
    write_report(tmp_path, SurgicalReport(video_id, "narrative", 'llm:"m"'), text, ".llm")
    for suffix, provenance in (("", "offline"), (".llm", 'llm:"m"')):
        expected = {"provenance": provenance, "timeline": timeline_record(timeline, vocab)}
        written = (tmp_path / f"{video_id}{suffix}.timeline.json").read_text(encoding="utf-8")
        assert written == json.dumps(expected, indent=2) + "\n"
