"""Structured-logger tests: levels, text shape, registry."""

import io

import pytest

from repro.log import LEVELS, StructuredLogger, configure, get_logger


def test_text_line_keeps_message_intact():
    buf = io.StringIO()
    log = StructuredLogger("t", stream=buf)
    line = log.info("[3/8] 1b/saxpy@tiny simulated", wall_s=1.25)
    assert "[3/8] 1b/saxpy@tiny simulated" in line
    assert "INFO" in line and " t: " in line and "wall_s=1.25" in line
    assert buf.getvalue().strip() == line


def test_level_filtering():
    buf = io.StringIO()
    log = StructuredLogger("t", level="warning", stream=buf)
    assert log.info("quiet") is None
    assert log.debug("quieter") is None
    assert log.warning("loud") is not None
    assert log.error("louder") is not None
    assert buf.getvalue().count("\n") == 2
    assert not log.enabled_for("info") and log.enabled_for("error")


def test_unknown_level_rejected():
    with pytest.raises(ValueError, match="unknown log level"):
        StructuredLogger("t", level="verbose")
    with pytest.raises(ValueError):
        StructuredLogger("t").log("loud", "msg")


def test_registry_and_configure():
    a = get_logger("repro.test.a")
    assert get_logger("repro.test.a") is a
    buf = io.StringIO()
    names = configure(level="error", stream=buf)
    assert "repro.test.a" in names
    assert a.level == "error"
    assert a.info("dropped") is None
    assert get_logger("repro.test.b").level == "error"  # default for new ones
    configure(level="info")  # restore for other tests


def test_levels_are_ordered():
    assert (LEVELS["debug"] < LEVELS["info"] < LEVELS["warning"]
            < LEVELS["error"])
