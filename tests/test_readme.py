import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_tour_rows():
    """(module name, contents cell) for each row of the README's library tour."""
    section = README.read_text().split("## Library tour", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(outerpath\.\w+)` \| (.*) \|$", section, re.MULTILINE)


def test_library_tour_names_resolve():
    rows = library_tour_rows()
    assert len(rows) >= 9
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        names = [t for t in re.findall(r"`([^`]+)`", contents) if t.isidentifier()]
        assert names, module_name
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module_name} has no {missing}"
