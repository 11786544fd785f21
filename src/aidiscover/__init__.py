"""Static AI-capability discovery for Android APKs.

Pipeline: open an APK, extract candidate components (packages, API
signatures, endpoint URLs, model assets), prefilter with a non-AI whitelist,
classify through a pluggable LLM backend with knowledge-base reuse, and roll
results up into per-app AI service reports and corpus statistics.

The names below are the ones the README's library example uses; everything
else is imported from its module.
"""

from .apk import open_apk
from .backends import MockBackend
from .candidates import extract_candidates
from .gateway import LlmGateway
from .kb import kb_sync
from .pipeline import PipelineConfig, is_ai_app, run_pipeline, write_back
from .report import analyze_app
from .taxonomy import classify_components
from .whitelist import apply_whitelist, load_whitelist

__version__ = "0.1.0"
