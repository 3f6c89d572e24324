"""The one exception type for invalid user input."""


class ConfigError(ValueError):
    """A configuration the user can fix (non-positive sizes, GPUs that do
    not fill whole nodes, a job no layout fits).  ``repro`` reports it as
    one ``repro: error:`` line with exit code 2; as a ``ValueError`` it
    keeps callers that catch those (the elastic replan) unchanged."""
