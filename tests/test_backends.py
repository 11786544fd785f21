import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import aidiscover
from aidiscover.backends import API_KEY_ENV, LiveBackend, MockBackend, match_marker
from aidiscover.gateway import (
    BackendUnavailable,
    RateLimited,
    RenderedRequest,
    SamplingConfig,
    TaskId,
)


class _FakeChatHandler(BaseHTTPRequestHandler):
    seen: list[dict] = []
    status = 200

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).seen.append(
            {"auth": self.headers.get("Authorization"), "body": body, "path": self.path}
        )
        if type(self).status != 200:
            self.send_response(type(self).status)
            self.end_headers()
            return
        reply = {"choices": [{"message": {"content": '[{"index": 0, "is_ai": true, "rationale": "r"}]'}}]}
        payload = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def fake_server():
    _FakeChatHandler.seen = []
    _FakeChatHandler.status = 200
    server = HTTPServer(("127.0.0.1", 0), _FakeChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


def _request(prompt="judge this") -> RenderedRequest:
    return RenderedRequest(
        task_id=TaskId.DETECT,
        items=("com.example",),
        prompt=prompt,
        sampling=SamplingConfig(),
    )


def test_live_backend_requires_key(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    with pytest.raises(ValueError):
        LiveBackend(model="test-model")


def test_live_backend_round_trip(fake_server):
    backend = LiveBackend(model="test-model", endpoint=fake_server, api_key="sk-test")
    raw = backend.complete(_request())
    assert json.loads(raw)[0]["is_ai"] is True
    sent = _FakeChatHandler.seen[0]
    assert sent["auth"] == "Bearer sk-test"
    assert sent["body"]["model"] == "test-model"
    assert sent["body"]["temperature"] == 0.2
    assert sent["body"]["top_p"] == 0.95
    assert sent["body"]["messages"] == [{"role": "user", "content": "judge this"}]


def test_live_backend_rate_limited(fake_server):
    backend = LiveBackend(model="m", endpoint=fake_server, api_key="sk-test")
    _FakeChatHandler.status = 429
    with pytest.raises(RateLimited):
        backend.complete(_request())


def test_live_backend_server_error(fake_server):
    backend = LiveBackend(model="m", endpoint=fake_server, api_key="sk-test")
    _FakeChatHandler.status = 500
    with pytest.raises(BackendUnavailable):
        backend.complete(_request())


def test_live_backend_unreachable():
    backend = LiveBackend(
        model="m", endpoint="http://127.0.0.1:1/nothing", api_key="sk-test", timeout=0.5
    )
    with pytest.raises(BackendUnavailable):
        backend.complete(_request())


def test_env_var_key(monkeypatch, fake_server):
    monkeypatch.setenv(API_KEY_ENV, "sk-from-env")
    backend = LiveBackend(model="m", endpoint=fake_server)
    backend.complete(_request())
    assert _FakeChatHandler.seen[0]["auth"] == "Bearer sk-from-env"


class TestMarkerTable:
    @pytest.mark.parametrize(
        "text,token",
        [
            ("com.google.mlkit.vision.objects", "mlkit"),
            ("https://api.openai.com/v1/", "openai"),
            ("org.tensorflow.lite", "tensorflow"),
            ("assets/detect.tflite", "tflite"),
            ("nlp.WordPieceModelPB", "nlp"),
            ("com.acme.speech.Recognizer", "speech"),
        ],
    )
    def test_marker_hits(self, text, token):
        marker = match_marker(text)
        assert marker is not None and marker.token == token

    @pytest.mark.parametrize(
        "text",
        ["java.util.concurrent.Locks", "com.foo.analytics.logger", "assets/pose.model"],
    )
    def test_marker_misses(self, text):
        assert match_marker(text) is None

    def test_mock_is_pure(self):
        request = RenderedRequest(
            task_id=TaskId.ANALYZE,
            items=("com.google.mlkit", "x.y.z"),
            prompt="p",
            sampling=SamplingConfig(),
        )
        assert MockBackend().complete(request) == MockBackend().complete(request)


def test_importing_the_cli_does_not_import_requests():
    src = os.path.dirname(os.path.dirname(aidiscover.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, aidiscover.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'requests'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
