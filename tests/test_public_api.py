"""Every name ``quadma`` exports has a line, with its caller, in the README's API list."""

import re
from pathlib import Path

import quadma

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_api_names():
    text = README.read_text()
    section = text[text.index("Public API:"):]
    section = section[:section.index("\n\n", section.index("\n- "))]
    return re.findall(r"^- `([^`]+)` — \S", section, flags=re.M)


def test_readme_api_list_matches_all():
    names = _readme_api_names()
    assert len(names) == len(set(names))
    assert set(names) == set(quadma.__all__)
