"""The README's library example prints the values its comments state, and
its API list names exactly the package's exports."""

import re
from pathlib import Path

import nlprob

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comments(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    # each comment opens with the printed value, before any ": " remark
    expected = [c.split(": ", 1)[0] for c in re.findall(r"# (.+)", code)]
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_library_api_lists_exactly_the_exports():
    section = README.read_text().split("## Library API", 1)[1].split("\n## ", 1)[0]
    bullets = "".join(p for p in section.split("\n\n") if p.startswith("- "))
    assert sorted(set(re.findall(r"`([A-Za-z_]\w*)`", bullets))) == nlprob.__all__
