"""The package as a user meets it: its imports and the README examples."""

import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import corrq

SRC = Path(corrq.__file__).resolve().parents[1]
README = SRC.parent / "README.md"


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(corrq.__path__))
)
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # the ops import the engine inside their bodies, so no import order
    # can meet a half-initialized module
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", f"import corrq.{module}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_readme_python_examples_run_in_order():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 4
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
