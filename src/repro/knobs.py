"""Config-field declarations that carry their own command-line flag.

A knob is declared once, as a dataclass field; :func:`knob` attaches what
the ``repro`` CLI needs to turn that field into a flag
(:func:`repro.cli.add_dataclass_flags`), so neither the default nor the
help text is ever written a second time.
"""

from __future__ import annotations

from dataclasses import field

__all__ = ["knob", "NONE_IF"]

# The ``none_if`` rules: which parsed values a flag turns into ``None``.
NONE_IF = {"<=0": lambda value: value <= 0, "<0": lambda value: value < 0}


def knob(default, help, *aliases, flag=None, none_if=None, choices=None, metavar=None):
    """A dataclass field with default ``default`` and a generated CLI flag.

    The flag is ``--field-name`` (or ``flag``), plus the legacy spellings
    in ``aliases``; ``help`` is its help text.  ``none_if`` (``"<=0"`` or
    ``"<0"``) names the values the CLI parses as ``None``; ``choices`` and
    ``metavar`` are passed to argparse.  Everything lands in the field's
    ``metadata`` — a plain ``field(metadata={"help": ...})`` is read the
    same way.
    """
    if none_if is not None and none_if not in NONE_IF:
        raise ValueError(f"none_if must be one of {sorted(NONE_IF)}, got {none_if!r}")
    hints = {"flag": flag, "none_if": none_if, "choices": choices, "metavar": metavar}
    metadata = {"help": help, "aliases": aliases}
    metadata.update({key: value for key, value in hints.items() if value is not None})
    return field(default=default, metadata=metadata)
