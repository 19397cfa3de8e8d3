"""The README's examples run as written, so a renamed argument or config
key fails here instead of leaving the README stale."""

import os

from cminverse.config import load_config

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _block(section, language):
    """The first ``language`` code block under the README heading ``## section``."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return body.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_library_use_example_runs(capsys):
    exec(compile(_block("Library use", "python"), README, "exec"), {})
    assert capsys.readouterr().out.strip()


def test_cli_walkthrough_config_loads(tmp_path):
    lines = _block("CLI walkthrough", "ini").splitlines()
    assert sum(line.startswith("output_dir =") for line in lines) == 1
    lines = [f"output_dir = {tmp_path / 'out'}" if line.startswith("output_dir =") else line
             for line in lines]
    path = tmp_path / "exp.ini"
    path.write_text("\n".join(lines) + "\n")
    config = load_config(str(path))
    assert config.output_dir == str(tmp_path / "out")
