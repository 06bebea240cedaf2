"""The CI workflow parses, and each of its steps does something."""

from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_workflow_steps_each_run_or_use_an_action():
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = doc["jobs"]["tests"]["steps"]
    assert len(steps) >= 2
    for step in steps:
        assert isinstance(step, dict), step
        assert isinstance(step.get("run") or step.get("uses"), str), step
