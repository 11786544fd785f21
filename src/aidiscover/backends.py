"""Completion backends: a deterministic offline mock and a live HTTP client.

The mock is a pure function of (task id, item text) driven by a keyword
marker table, so the whole pipeline is testable offline with stable outputs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .gateway import BackendUnavailable, RateLimited, RenderedRequest, TaskId

if TYPE_CHECKING:
    import requests

API_KEY_ENV = "AIDISCOVER_API_KEY"


@dataclass(frozen=True)
class Marker:
    """One AI indicator substring with its canned classification."""

    token: str
    domain: str
    task: str
    analysis: str
    capability: str


# First match wins; ordering puts the more specific tokens ahead.
MARKERS: tuple[Marker, ...] = (
    Marker(
        "mlkit",
        "Computer Vision",
        "Object Detection",
        "Google's ML Kit API for object detection and tracking in images and videos",
        "object detection and tracking",
    ),
    Marker(
        "openai",
        "Natural Language Processing",
        "Text Generation",
        "Client endpoint for OpenAI hosted language model completion services",
        "cloud language model access",
    ),
    Marker(
        "tensorflow",
        "Data Analysis",
        "Data Processing",
        "TensorFlow machine learning framework support for tensor operations and model execution",
        "machine learning model execution",
    ),
    Marker(
        "tflite",
        "Data Analysis",
        "Data Processing",
        "Bundled TensorFlow Lite model asset for on-device inference",
        "on-device model inference",
    ),
    Marker(
        "caffemodel",
        "Computer Vision",
        "Image Classification",
        "Bundled Caffe model weights for neural network inference",
        "neural network inference",
    ),
    Marker(
        "vision",
        "Computer Vision",
        "Image Analysis",
        "Computer vision component for image analysis and visual feature extraction",
        "image analysis",
    ),
    Marker(
        "ocr",
        "Computer Vision",
        "Text Recognition",
        "Optical character recognition component for extracting text from images",
        "text recognition",
    ),
    Marker(
        "nlp",
        "Natural Language Processing",
        "Text Tokenization",
        "A library for tokenizing text using the WordPiece algorithm, implemented in Protocol Buffers format",
        "text tokenization",
    ),
    Marker(
        "speech",
        "Audio and Speech Processing",
        "Speech Recognition",
        "Speech recognition component for transcribing spoken audio",
        "speech recognition",
    ),
    Marker(
        "arcore",
        "Augmented Reality",
        "Augmented Reality Rendering",
        "Augmented reality session tracking and rendering support",
        "augmented reality",
    ),
    Marker(
        "onnx",
        "Data Analysis",
        "Data Processing",
        "ONNX runtime support for executing serialized neural network models",
        "neural network model execution",
    ),
)

NON_AI_ANALYSIS = "General-purpose utility component for application infrastructure"

# Description screening keys on phrases richer than the bare token "ai", so a
# company name alone does not pass.
DESCRIPTION_MARKERS: tuple[str, ...] = (
    "chatbot",
    "chatgpt",
    "machine learning",
    "deep learning",
    "neural network",
    "image recognition",
    "facial recognition",
    "face recognition",
    "text classification",
    "speech recognition",
    "object detection",
    "computer vision",
    "ai-powered",
    "powered by ai",
    "artificial intelligence",
)


def match_marker(text: str) -> Optional[Marker]:
    lowered = text.lower()
    for marker in MARKERS:
        if marker.token in lowered:
            return marker
    return None


class MockBackend:
    """Offline backend with canned, deterministic JSON responses."""

    model_id = "mock"

    def complete(self, request: RenderedRequest) -> str:
        task = request.task_id
        if task == TaskId.SUMMARIZE:
            return self._summarize(request.items)
        rows = [self._row(task, index, item) for index, item in enumerate(request.items)]
        return json.dumps(rows)

    def _row(self, task: str, index: int, item: str) -> dict:
        marker = match_marker(item)
        if task == TaskId.ANALYZE:
            return {"index": index, "analysis": marker.analysis if marker else NON_AI_ANALYSIS}
        if task == TaskId.DETECT:
            if marker:
                return {
                    "index": index,
                    "is_ai": True,
                    "rationale": f"Matches known AI indicator '{marker.token}'",
                }
            return {"index": index, "is_ai": False, "rationale": "No AI indicators recognized"}
        if task == TaskId.CLASSIFY_TAXONOMY:
            if marker:
                return {"index": index, "domain": marker.domain, "task": marker.task}
            return {"index": index, "domain": "Others", "task": "Unclassified"}
        if task == TaskId.DESCRIPTION_SCREEN:
            lowered = item.lower()
            likely = any(phrase in lowered for phrase in DESCRIPTION_MARKERS)
            return {"index": index, "likely_ai": likely}
        raise ValueError(f"unknown task {task!r}")

    def _summarize(self, items: tuple[str, ...]) -> str:
        capabilities: list[str] = []
        for item in items:
            marker = match_marker(item)
            phrase = marker.capability if marker else "unspecified capability"
            if phrase not in capabilities:
                capabilities.append(phrase)
        summary = "This app integrates AI services for " + "; ".join(capabilities) + "."
        return json.dumps({"summary": summary, "capabilities": capabilities})


class LiveBackend:
    """Chat-completion HTTP backend.

    The API key comes from the AIDISCOVER_API_KEY environment variable; the
    endpoint URL and model name are configuration. ``requests`` is imported
    here only, so a mock run never pays for it.
    """

    def __init__(
        self,
        model: str,
        endpoint: str = "https://api.openai.com/v1/chat/completions",
        api_key: Optional[str] = None,
        timeout: float = 60.0,
        session: Optional[requests.Session] = None,
    ):
        import requests

        key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        if not key:
            raise ValueError(f"live backend requires an API key via ${API_KEY_ENV}")
        self.model_id = model
        self.endpoint = endpoint
        self.timeout = timeout
        self._session = session or requests.Session()
        self._headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}

    def complete(self, request: RenderedRequest) -> str:
        import requests

        body = {
            "model": self.model_id,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.sampling.temperature,
            "top_p": request.sampling.top_p,
        }
        try:
            response = self._session.post(
                self.endpoint, json=body, headers=self._headers, timeout=self.timeout
            )
        except requests.RequestException as exc:
            raise BackendUnavailable(f"request failed: {exc}") from exc
        if response.status_code == 429:
            raise RateLimited("backend returned 429")
        if response.status_code >= 400:
            raise BackendUnavailable(f"backend returned HTTP {response.status_code}")
        try:
            return response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendUnavailable(f"unexpected response shape: {exc}") from exc
