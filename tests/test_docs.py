"""The README's library example and CLI lines run as printed."""

import json
import re
import shlex
from pathlib import Path

from greenray.cli import main
from greenray.structures import VirtualStructure, serialize_structure

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example(capsys):
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out == "thin_certified\n"


def test_readme_cli_lines(tmp_path, monkeypatch):
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert len(lines) == 8
    monkeypatch.chdir(tmp_path)
    (tmp_path / "st.json").write_text(
        serialize_structure(VirtualStructure.identity()))
    manifest = tmp_path / "out" / "manifest.json"
    for argv in lines:
        assert argv[0] == "greenray"
        manifest.unlink(missing_ok=True)
        assert main(argv[1:]) == 0, argv
        assert json.loads(manifest.read_text())["command"] in argv
