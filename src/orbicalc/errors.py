"""Exception types shared across the package, and the JSON file reader
that turns a malformed input file into one of them."""

import json


class OrbicalcError(Exception):
    """Base class for domain errors (bad inputs, violated preconditions)."""


class ValidationError(OrbicalcError):
    """Input data fails a structural invariant."""


class InternalCheckError(OrbicalcError):
    """A computation produced data violating an identity it must satisfy.

    Raised by the built-in cross checks (orthogonality, indicator range,
    partition identities, ...).  Seeing one of these means a bug, not bad
    user input.
    """


def read_json(path) -> object:
    """Parse a JSON file; a file that is not JSON is a ValidationError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise ValidationError(f"{path} is not a JSON file: {exc}") from None
        except RecursionError:
            raise ValidationError(f"{path} is nested too deeply") from None
