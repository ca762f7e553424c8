import re
import shutil
from pathlib import Path

from conftest import FIXTURES

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs_against_the_fixtures(tmp_path: Path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    shutil.copytree(FIXTURES / "unguarded_app", tmp_path / "app")
    shutil.copy(FIXTURES / "chat_script.json", tmp_path / "script.json")
    shutil.copy(FIXTURES / "vuln_encoder_null.json", tmp_path / "vuln.json")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out == "Vulnerable\n"
    assert (tmp_path / "app.vrix").exists()


def test_star_import_binds_every_exported_name():
    import vulnreach

    namespace: dict = {}
    exec("from vulnreach import *", namespace)
    assert [name for name in vulnreach.__all__ if name not in namespace] == []
