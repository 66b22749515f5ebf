"""The package's exception classes live in one module, and ``cli.main`` maps
exit codes by their kind alone."""
import ast
import builtins
from pathlib import Path

from xlproject import errors

PACKAGE = Path(errors.__file__).resolve().parent


def is_exception(base: ast.expr) -> bool:
    name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
    builtin = getattr(builtins, name, None)
    return name.endswith(("Error", "Exception")) or (
        isinstance(builtin, type) and issubclass(builtin, BaseException))


def test_every_exception_class_is_defined_in_the_errors_module():
    defined = [(node.name, path.name) for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef) and any(map(is_exception, node.bases))]
    assert [(name, module) for name, module in defined if module != "errors.py"] == []
    assert sorted(name for name, _ in defined) == [
        "ConfigError", "DataError", "LlmResponseError", "MissingLabelsError", "TranslationError"]


def test_main_catches_no_bare_value_error():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = [ast.unparse(handler.type) for node in ast.walk(main)
              if isinstance(node, ast.Try) for handler in node.handlers if handler.type]
    assert caught == ["ConfigError", "(DataError, OSError)", "TranslationError", "Exception"]


def test_the_kinds_are_value_errors_and_the_old_names_are_aliases():
    from xlproject.corpus import CorpusFormatError
    from xlproject.training import TrainConfigError

    assert issubclass(errors.ConfigError, ValueError) and issubclass(errors.DataError, ValueError)
    assert not issubclass(errors.TranslationError, ValueError)
    assert CorpusFormatError is errors.DataError and TrainConfigError is errors.ConfigError
