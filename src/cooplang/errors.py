"""Exception hierarchy shared across the library."""


class CoopLangError(Exception):
    """Base class for all library errors."""


class InvalidActionError(CoopLangError):
    """An action id is not part of the game's environment action set."""


class TerminalStateError(CoopLangError):
    """A terminal state was stepped."""


class EnumerationCapError(CoopLangError):
    """An exhaustive enumeration would exceed the configured cap."""

    def __init__(self, needed: int, cap: int, what: str = "trajectories"):
        self.needed = needed
        self.cap = cap
        super().__init__(
            f"enumerating {what} needs at least {needed} items, cap is {cap}"
        )


class VocabularyTooSmallError(CoopLangError):
    """Not enough distinct messages to cover the codebook trajectories."""


class DomainMismatchError(CoopLangError):
    """Objects from different games were combined."""


class SupportMismatchError(CoopLangError):
    """A distribution's support exceeds the Wasserstein support cap."""


class DistributionError(CoopLangError):
    """A distribution is not normalized or has negative mass, or its
    transport LP failed."""


class TooFewEpisodesError(CoopLangError):
    """Not enough episodes for a statistical test."""


class EmptyDatasetError(CoopLangError):
    """A fit was attempted on an empty dataset."""


class ForeignGameRecordError(CoopLangError):
    """A dataset record belongs to a different game."""


class DatasetParseError(CoopLangError):
    """A persisted dataset file is malformed."""

    def __init__(self, line_number: int, reason: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {reason}")


class FingerprintMismatchError(CoopLangError):
    """A stored game fingerprint does not match the provided game."""


class ConfigError(CoopLangError):
    """An experiment configuration is missing or invalid."""
