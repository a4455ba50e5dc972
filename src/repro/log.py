"""Structured logging for the experiment layer (``repro.log``).

The experiment harness used to emit bare ``print(msg, file=sys.stderr)``
progress lines; this module replaces them with a small leveled logger
that

* prefixes every line with a wall-clock timestamp, the level, and the
  logger name (the message text itself is untouched, so existing
  progress-line greps keep working);
* filters by level per logger, with a process-wide default.

It is deliberately tiny — no handler trees, no propagation — because the
simulator itself never logs: only host-side harness code (the parallel
runner, the report driver, the CLI) does, and those paths are not
performance-critical.

Usage::

    from repro.log import get_logger

    log = get_logger("repro.experiments.parallel")
    log.info("[3/8] 1b-4VL/saxpy@small simulated in 1.24s", wall_s=1.24)
"""

from __future__ import annotations

import sys
import time

#: level name -> numeric severity (matches stdlib logging's ordering)
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def _check_level(level):
    if level not in LEVELS:
        raise ValueError(f"unknown log level {level!r} "
                         f"(expected one of {sorted(LEVELS)})")
    return level


class StructuredLogger:
    """One named logger: leveled text lines."""

    __slots__ = ("name", "level", "stream")

    def __init__(self, name, level="info", stream=None):
        self.name = name
        self.level = _check_level(level)
        self.stream = stream  # None = sys.stderr at emit time (capturable)

    # ------------------------------------------------------------ records

    def enabled_for(self, level):
        return LEVELS[_check_level(level)] >= LEVELS[self.level]

    def log(self, level, msg, **fields):
        """Emit one record at ``level``; extra fields become ``k=v`` text
        suffixes."""
        if not self.enabled_for(level):
            return None
        ts = time.time()
        stamp = time.strftime("%H:%M:%S", time.localtime(ts))
        stamp += f".{int((ts % 1) * 1000):03d}"
        suffix = "".join(f" {k}={v}" for k, v in sorted(fields.items()))
        line = f"{stamp} {level.upper():<7} {self.name}: {msg}{suffix}"
        stream = self.stream if self.stream is not None else sys.stderr
        print(line, file=stream, flush=True)
        return line

    def debug(self, msg, **fields):
        return self.log("debug", msg, **fields)

    def info(self, msg, **fields):
        return self.log("info", msg, **fields)

    def warning(self, msg, **fields):
        return self.log("warning", msg, **fields)

    def error(self, msg, **fields):
        return self.log("error", msg, **fields)

    def __repr__(self):
        return f"<StructuredLogger {self.name} level={self.level}>"


# ------------------------------------------------------------------ registry

_loggers: dict = {}
_default_level = "info"


def get_logger(name="repro"):
    """The process-wide logger registered under ``name`` (created on
    first use at the current default level)."""
    logger = _loggers.get(name)
    if logger is None:
        logger = _loggers[name] = StructuredLogger(name, level=_default_level)
    return logger


def configure(level=None, stream=None):
    """Reconfigure every registered logger (and the default for new ones).

    ``stream`` applies to all currently registered loggers.
    """
    global _default_level
    if level is not None:
        _default_level = _check_level(level)
        for logger in _loggers.values():
            logger.level = _default_level
    if stream is not None:
        for logger in _loggers.values():
            logger.stream = stream
    return sorted(_loggers)
