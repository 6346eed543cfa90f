"""The repository's pytest settings keep a failing property test an ordinary
failure. When a ``@given`` test fails, hypothesis's pytest plugin imports its
patch writer, whose import chain warns; under ``filterwarnings = ["error"]``
that warning would end the session with an INTERNALERROR (exit 3) and run no
later test. The command line only parses and prints: ``cli.py`` imports
no numpy, and of the sampler only the words its flags offer. And the library
has one channel for advisories, the ``lpgrad`` logger: no module imports
``warnings``, and none configures the logger, which is the application's to
configure. No line of the library is excluded from coverage: a path that
no test reaches is deleted, not hidden."""
import ast
import subprocess
import sys
from pathlib import Path

from lpgrad import sampler

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
CLI = Path(sampler.__file__).with_name("cli.py")
SRC = CLI.parent

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout


def test_cli_imports_no_numpy_and_only_sampler_vocabulary():
    vocabulary = {name for name, value in vars(sampler).items() if not name.startswith("_") and (
        isinstance(value, str) or isinstance(value, tuple) and all(isinstance(word, str) for word in value))}
    numpy, from_sampler = [], []
    for node in ast.walk(ast.parse(CLI.read_text())):
        if isinstance(node, ast.Import):
            numpy += [alias.name for alias in node.names if alias.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "numpy":
                numpy.append(node.module)
            if node.module in ("sampler", "lpgrad.sampler"):
                from_sampler += [alias.name for alias in node.names]
    assert numpy == []
    assert from_sampler and sorted(set(from_sampler) - vocabulary) == []


def test_no_module_imports_warnings():
    imported = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "warnings" in (name.split(".")[0] for name in names):
                imported.setdefault(path.name, []).append(node.lineno)
    assert imported == {}


# the logging.Logger methods that configure a logger rather than log to it
LOGGER_CONFIGURATION = {"setLevel", "addHandler", "removeHandler", "addFilter", "removeFilter"}


def _logger_names(tree) -> set:
    """The names a module binds to the lpgrad logger: ``log`` imported from
    ``errors``, or the result of a ``getLogger`` call."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "errors":
            names |= {alias.asname or alias.name for alias in node.names if alias.name == "log"}
        elif isinstance(node, ast.Assign) and getattr(getattr(node.value, "func", None), "attr", "") == "getLogger":
            names |= {target.id for target in node.targets if isinstance(target, ast.Name)}
    return names


def test_library_only_logs():
    configured, binding = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = _logger_names(tree)
        binding += [path.name] if names else []
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in names
                    and (isinstance(node.ctx, (ast.Store, ast.Del)) or node.attr in LOGGER_CONFIGURATION)):
                configured.append(f"{path.name}:{node.lineno}")
    assert "errors.py" in binding and "estimator.py" in binding
    assert configured == []


def test_only_errors_defines_exception_classes():
    # so a new error kind is decided in one file
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(base).endswith(("Error", "Exception", "Warning")) for base in node.bases):
                defined.setdefault(path.name, []).append(node.name)
    assert set(defined) == {"errors.py"}


def test_no_line_is_excluded_from_coverage():
    excluded = [f"{path.name}:{number}" for path in sorted(SRC.glob("*.py"))
                for number, line in enumerate(path.read_text().splitlines(), 1) if "pragma: no cover" in line]
    assert excluded == []
