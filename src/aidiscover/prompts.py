"""Version-pinned prompt templates loaded from the packaged data file."""

from __future__ import annotations

import json
from importlib import resources

from .gateway import PromptTemplate, TaskId
from .pipeline import PipelineConfig

AUDIENCES = ("user", "developer", "regulator")


def _raw() -> dict:
    text = resources.files("aidiscover.data").joinpath("prompts.json").read_text("utf-8")
    return json.loads(text)


def prompts_version() -> str:
    return _raw().get("version", "0")


def load_templates(
    few_shot_k: int = PipelineConfig.few_shot_k, audience: str = PipelineConfig.audience
) -> dict[str, PromptTemplate]:
    """Templates for every task, few-shot lists truncated to ``few_shot_k``.

    The Summarize instruction is selected by audience.
    """
    if audience not in AUDIENCES:
        raise ValueError(f"audience must be one of {AUDIENCES}, got {audience!r}")
    raw = _raw()["tasks"]
    templates: dict[str, PromptTemplate] = {}
    for task_id in (TaskId.ANALYZE, TaskId.DETECT, TaskId.CLASSIFY_TAXONOMY, TaskId.DESCRIPTION_SCREEN):
        spec = raw[task_id]
        pairs = tuple((p["input"], p["output"]) for p in spec["few_shot"][: max(few_shot_k, 1)])
        templates[task_id] = PromptTemplate(task_id=task_id, instruction=spec["instruction"], few_shot=pairs)
    summarize = raw[TaskId.SUMMARIZE]
    templates[TaskId.SUMMARIZE] = PromptTemplate(
        task_id=TaskId.SUMMARIZE,
        instruction=summarize["instructions"][audience],
        few_shot=tuple((p["input"], p["output"]) for p in summarize.get("few_shot", [])),
    )
    return templates
