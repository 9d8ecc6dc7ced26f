"""README is the user's contract: each part it states is read back from the
code, so a changed default, subcommand, exit code, format, demo, module or
benchmark case fails here until README says it too."""

import importlib.util
import re
from pathlib import Path

from viscoshear import cli, config
from viscoshear.config import Config, parse_config

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    """The text of README's ``## title`` section, up to the next ``## ``."""
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert match, f"README has no '## {title}' section"
    return match.group(1)


def _blocks(text: str) -> list:
    return re.findall(r"^```\n(.*?)^```", text, re.M | re.S)


def _config_block() -> str:
    (block,) = [b for b in _blocks(_section("CLI")) if b.startswith("gamma0 =")]
    return block


def test_readme_stays_a_users_document():
    lines = README.splitlines()
    assert len(lines) <= 200
    assert lines.index("## CLI") < 60
    assert not re.search(r"dstebz|dstein|dpttrf|index call|window call|[0-9] steps|[0-9] ms|"
                         r"vCPU|modules loaded|[0-9] tests", README)


def test_config_block_names_every_key():
    shown = {re.match(r"#? *(\w+) =", line).group(1) for line in _config_block().splitlines()}
    assert shown == config._FLOAT_KEYS | config._INT_KEYS | config._STR_KEYS


def test_config_block_shows_the_defaults():
    # a key shown commented out is omitted, so its default is None
    block = _config_block()
    omitted = {m.group(1) for m in re.finditer(r"^# *(\w+) =", block, re.M)}
    assert omitted == {"M"}
    assert all(getattr(Config(), key) is None for key in omitted)
    assert parse_config(block) == Config()


def test_cli_table_lists_the_subcommands():
    rows = re.findall(r"^\| `([\w-]+)` +\|", _section("CLI"), re.M)
    assert sorted(rows) == sorted(cli._COMMANDS)
    assert len(rows) == len(set(rows))


def _codes(text: str) -> set:
    return {int(code) for code in re.findall(r"(?:: |, |^- `)(\d)`? ", text, re.M)}


def test_exit_codes_match_the_cli_docstring():
    readme = _section("CLI").split("Exit codes:", 1)[1].split("\n\n")[1]
    docstring = " ".join(cli.__doc__.split("Exit codes:", 1)[1].split("\n\n")[0].split())
    assert _codes(readme) == _codes("Exit codes: " + docstring) == {0, 1, 2, 3}
    # exit code 1 has two meanings, and both documents give both
    for text in (" ".join(readme.split()), docstring):
        one = text.split("1", 1)[1].split("2", 1)[0]
        assert "failed check" in one and "no bound state" in one and "eigencurve" in one


def test_exit_code_1_when_eigencurve_has_nothing_to_trace(tmp_path, capsys):
    cfg = tmp_path / "couette.cfg"
    cfg.write_text("M = 0\n")  # Couette flow: no bound state at any time
    assert cli.main(["eigencurve", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "nothing to trace" in capsys.readouterr().err


def test_format_values_match_config():
    usage = _blocks(_section("CLI"))[0]
    (formats,) = re.findall(r"--format ([\w,]+)\]", usage)
    assert tuple(formats.split(",")) == config._FORMATS


def test_demos_are_the_scripts_in_demos():
    listed = re.findall(r"^python3 demos/(\S+\.py)", _section("Demos"), re.M)
    assert sorted(listed) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def test_layout_lists_every_module():
    (block,) = [b for b in _blocks(_section("Layout")) if b.startswith("src/viscoshear/")]
    listed = re.findall(r"^  (\w+\.py) ", block, re.M)
    assert sorted(listed) == sorted(p.name for p in (ROOT / "src" / "viscoshear").glob("*.py"))


def test_bench_cases_match_the_tool():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    (cases,) = re.findall(r"tools/bench\.py \{([\w,]+)\}", _section("Test and benchmark"))
    assert cases.split(",") == list(bench.CASES)
