"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)\n```", section, re.S).group(1)


def test_the_library_example_runs():
    # a removed or renamed public name fails here
    namespace: dict = {}
    exec(compile(library_block(), str(README), "exec"), namespace)
    assert namespace["stats"].reps == 1000
    assert namespace["traj"].final.shape == (2,)
