"""Scancode to key-name table.

The table covers the PC/XT make codes for letters, digits, common
punctuation, Space, both Shift keys (kept distinct), Caps Lock,
Backspace and the keypad block. Codes outside the table are named
``key_<hex>`` so unknown hardware never aborts parsing.
"""

from __future__ import annotations

from typing import Final

SCANCODE_NAMES: Final[dict[int, str]] = {
    0x01: "esc",
    0x02: "1",
    0x03: "2",
    0x04: "3",
    0x05: "4",
    0x06: "5",
    0x07: "6",
    0x08: "7",
    0x09: "8",
    0x0A: "9",
    0x0B: "0",
    0x0C: "minus",
    0x0D: "equals",
    0x0E: "backspace",
    0x0F: "tab",
    0x10: "q",
    0x11: "w",
    0x12: "e",
    0x13: "r",
    0x14: "t",
    0x15: "y",
    0x16: "u",
    0x17: "i",
    0x18: "o",
    0x19: "p",
    0x1A: "lbracket",
    0x1B: "rbracket",
    0x1C: "enter",
    0x1D: "lctrl",
    0x1E: "a",
    0x1F: "s",
    0x20: "d",
    0x21: "f",
    0x22: "g",
    0x23: "h",
    0x24: "j",
    0x25: "k",
    0x26: "l",
    0x27: "semicolon",
    0x28: "quote",
    0x29: "backtick",
    0x2A: "lshift",
    0x2B: "backslash",
    0x2C: "z",
    0x2D: "x",
    0x2E: "c",
    0x2F: "v",
    0x30: "b",
    0x31: "n",
    0x32: "m",
    0x33: "comma",
    0x34: "period",
    0x35: "slash",
    0x36: "rshift",
    0x37: "kp_star",
    0x38: "lalt",
    0x39: "space",
    0x3A: "capslock",
    0x3B: "f1",
    0x3C: "f2",
    0x3D: "f3",
    0x3E: "f4",
    0x3F: "f5",
    0x40: "f6",
    0x41: "f7",
    0x42: "f8",
    0x43: "f9",
    0x44: "f10",
    0x45: "numlock",
    0x46: "scrolllock",
    0x47: "kp_7",
    0x48: "kp_8",
    0x49: "kp_9",
    0x4A: "kp_minus",
    0x4B: "kp_4",
    0x4C: "kp_5",
    0x4D: "kp_6",
    0x4E: "kp_plus",
    0x4F: "kp_1",
    0x50: "kp_2",
    0x51: "kp_3",
    0x52: "kp_0",
    0x53: "kp_dot",
}

NAME_SCANCODES: Final[dict[str, int]] = {v: k for k, v in SCANCODE_NAMES.items()}

# Keys removed by the discard-modifiers baseline. Space is not a modifier.
MODIFIER_KEYS: Final[frozenset[str]] = frozenset({"lshift", "rshift", "capslock"})

SHIFT_KEYS: Final[frozenset[str]] = frozenset({"lshift", "rshift"})


def key_name(scancode: int) -> str:
    """Map a scancode to its canonical key name.

    Unknown codes map to ``key_<hex>`` (two lowercase hex digits minimum)
    rather than raising.
    """
    if scancode < 0:
        raise ValueError(f"scancode must be non-negative, got {scancode}")
    try:
        return SCANCODE_NAMES[scancode]
    except KeyError:
        return f"key_{scancode:02x}"


def scancode_for(name: str) -> int:
    """Inverse of :func:`key_name`. A ``key_<hex>`` name must be the one
    `key_name` gives its code, so that it reads back as itself: ``key_1e``
    (the code of ``a``), ``key_1E``, ``key_0x1e`` and ``key_-1`` raise."""
    code = NAME_SCANCODES.get(name)
    if code is not None:
        return code
    if name.startswith("key_"):
        try:
            code = int(name[4:], 16)
            if key_name(code) == name:
                return code
        except ValueError:  # not hex, or a negative code
            pass
    raise ValueError(f"unknown key name: {name!r}")
