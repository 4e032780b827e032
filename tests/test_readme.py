"""The README's examples must run against the current public API."""
import re
from pathlib import Path

from stablegap import cli, load_config

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", TEXT, flags=re.DOTALL)
    assert blocks, "README has no python example"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_readme_config_file_loads_as_its_experiment(tmp_path):
    found = re.search(r"```\n(# run\.cfg for ([\w-]+).*?)```", TEXT, flags=re.DOTALL)
    assert found, "README has no run.cfg example"
    path = tmp_path / "run.cfg"
    path.write_text(found.group(1), encoding="utf-8")
    subcommand = found.group(2)
    cfg = load_config(str(path), {"experiment": subcommand.replace("-", "_")})
    flags = cli._build_config(cli.build_parser().parse_args([subcommand, "--config", str(path)]))
    assert cfg.config_hash() == flags.config_hash()


def test_readme_same_config_sentence_holds_in_a_config_file(tmp_path):
    found = re.search(r"`(\w+) = ([^`]+)` is the same config as\s+`\1 = ([^`]+)`", TEXT)
    assert found, "README lost its same-config sentence"
    field, a, b = found.groups()
    hashes = set()
    for i, value in enumerate((a, b)):
        path = tmp_path / f"{i}.cfg"
        path.write_text(f"experiment = alpha_sweep\nseed = 1\n{field} = {value}\n")
        hashes.add(load_config(str(path)).config_hash())
    assert len(hashes) == 1
