"""The CI workflow parses, each of its steps does something, its inline
Python compiles, and its oldest leg runs the oldest Python and numpy that
pyproject.toml allows."""

import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_workflow_steps_each_run_or_use_an_action():
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = doc["jobs"]["tests"]["steps"]
    assert len(steps) >= 2
    for step in steps:
        assert isinstance(step, dict), step
        assert isinstance(step.get("run") or step.get("uses"), str), step


def test_inline_python_heredocs_compile():
    # Each step that pipes a heredoc into python; a syntax slip in one would
    # otherwise show only when the workflow runs.
    text = WORKFLOW.read_text(encoding="utf-8")
    steps = yaml.safe_load(text)["jobs"]["tests"]["steps"]
    compiled = []
    for step in steps:
        for body in re.findall(r"<<'EOF'\n(.*?)\nEOF$", step.get("run", ""), re.S | re.M):
            compile(body, f"<{step.get('name')}>", "exec")
            compiled.append(step.get("name"))
    assert len(compiled) == text.count("<<'EOF'")
    assert {"Slow acceptance test", "20-bit chain peak memory",
            "Traced benchmark smoke counts"} <= set(compiled)


def test_oldest_leg_is_the_declared_floor():
    # Read by pattern: tomllib is not in Python 3.10, the oldest leg.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    python = re.search(r'^requires-python = ">=([\d.]+)"$', text, re.M).group(1)
    numpy = re.search(r'^dependencies = \["numpy>=([\d.]+)"\]$', text, re.M).group(1)
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    legs = doc["jobs"]["tests"]["strategy"]["matrix"]["include"]
    oldest = min(legs, key=lambda leg: tuple(map(int, leg["python-version"].split("."))))
    assert oldest == {"python-version": python, "numpy": f"numpy=={numpy}.*"}
