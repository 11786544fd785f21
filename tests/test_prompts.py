import pytest

from aidiscover.gateway import TaskId
from aidiscover.prompts import AUDIENCES, load_templates


def test_all_tasks_have_templates():
    templates = load_templates()
    assert set(templates) == {
        TaskId.ANALYZE,
        TaskId.DETECT,
        TaskId.SUMMARIZE,
        TaskId.CLASSIFY_TAXONOMY,
        TaskId.DESCRIPTION_SCREEN,
    }


def test_default_five_examples():
    templates = load_templates()
    for task in (TaskId.ANALYZE, TaskId.DETECT, TaskId.CLASSIFY_TAXONOMY, TaskId.DESCRIPTION_SCREEN):
        assert len(templates[task].few_shot) == 5


def test_few_shot_truncation():
    templates = load_templates(few_shot_k=2)
    assert len(templates[TaskId.DETECT].few_shot) == 2


def test_audience_swaps_summarize_instruction():
    instructions = {a: load_templates(audience=a)[TaskId.SUMMARIZE].instruction for a in AUDIENCES}
    assert len(set(instructions.values())) == 3
    # other tasks are audience-independent
    assert (
        load_templates(audience="user")[TaskId.DETECT].instruction
        == load_templates(audience="regulator")[TaskId.DETECT].instruction
    )


def test_unknown_audience_rejected():
    with pytest.raises(ValueError):
        load_templates(audience="investor")
