"""Every exception class of the package. ``cli.main`` maps the three kinds below
to exit codes 2, 3 and 4; any other exception, a ``ValueError`` included, is a
defect, reported with its traceback and exit code 5."""


class ConfigError(ValueError):
    """A setting or flag that cannot work (exit 2)."""


class DataError(ValueError):
    """An input file or record that cannot be used (exit 3, as for ``OSError``)."""


class TranslationError(Exception):
    """Remote translation failed after retries (exit 4); ``index`` names the failing text."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class MissingLabelsError(DataError):
    """A corpus given to ``train`` has sentences without the task's labels."""

    def __init__(self, role: str, label: str, ids: list[str]):
        super().__init__(f"{role} corpus: {len(ids)} sentences missing {label}: {ids[:5]}")
        self.role = role


class LlmResponseError(DataError):
    """No parseable emotion label in an LLM response."""


# The names these kinds had before they were merged, kept for importers.
CorpusFormatError = DataError
TrainConfigError = ConfigError
