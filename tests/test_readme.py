"""README examples run against the current API, README names only what exists,
and README names everything lpgrad exports and each attribute of its classes."""
import importlib
import inspect
import pkgutil
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import lpgrad
from conftest import THREAD_VARIABLES
from lpgrad.cli import CSV_HEADER, RunConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _known_names() -> set:
    """Attributes of lpgrad, of its modules and of its public classes, the
    RunConfig fields, the CSV columns and the thread-count variables that
    the tests pin."""
    modules = [lpgrad] + [importlib.import_module(f"lpgrad.{info.name}")
                          for info in pkgutil.iter_modules(lpgrad.__path__)]
    names = {name for module in modules for name in dir(module)}
    for cls in (getattr(lpgrad, name) for name in dir(lpgrad) if not name.startswith("_")):
        if inspect.isclass(cls):
            names.update(dir(cls))
        if inspect.isclass(cls) and is_dataclass(cls):  # fields without a default are no class attribute
            names.update(f.name for f in fields(cls))
    return names | {f.name for f in fields(RunConfig)} | set(CSV_HEADER) | set(THREAD_VARIABLES) | {"_", "xK"}


def test_backticked_identifiers_exist():
    # a backticked name with an underscore or an inner capital is a code
    # name, so it must still exist; dotted names are checked part by part
    spans = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)*)`", README.read_text())
    parts = {part for span in spans for part in span.split(".")}
    code_names = {part for part in parts if "_" in part or re.search(r"[A-Z]", part[1:])}
    assert code_names - _known_names() == set()


def _documented() -> set:
    """The words inside README's code blocks and backtick spans."""
    text = README.read_text()
    spans = re.findall(r"```\w*\n(.*?)```", text, re.S)
    spans += re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return {name for span in spans for name in re.findall(r"\w+", span)}


def test_every_export_documented():
    # the reverse check: each public name of lpgrad appears in a backtick span
    public = {name for name in dir(lpgrad) if not name.startswith("_")
              and not inspect.ismodule(getattr(lpgrad, name))}
    assert sorted(public - _documented()) == []


def test_every_public_attribute_documented():
    # each field, method and property that an exported class defines itself
    # appears in a backtick span; inherited attributes do not count
    documented = _documented()
    missing = []
    for name in dir(lpgrad):
        cls = getattr(lpgrad, name)
        if name.startswith("_") or not inspect.isclass(cls):
            continue
        # a dataclass field without a default is an annotation, not a class attribute
        own = set(vars(cls)) | set(vars(cls).get("__annotations__", {}))
        missing += [f"{name}.{attr}" for attr in sorted(own - documented) if not attr.startswith("_")]
    assert missing == []
