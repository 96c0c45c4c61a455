"""In-source suppression comments.

The annotation grammar is a single comment directive::

    x = a_kw + b_kwh          # lint: disable=REP102 -- intentional, documented
    if self.fraction == 0.0:  # lint: exact-float -- 0.0 is the config sentinel

Directives:

``disable=CODE[,CODE...]``
    Suppress the listed codes on this line.
``disable``
    Suppress every code on this line (use sparingly).
named aliases
    ``exact-float`` (REP301), ``allow-wallclock`` (REP201),
    ``allow-unseeded`` (REP202), ``allow-units`` (REP101+REP102),
    ``allow-blocking`` (REP601) — the readable spellings for the common,
    reviewed suppressions.

Anything after `` -- `` is a free-text justification and is ignored by the
parser (but reviewers should insist on it).  A directive on a line whose code
portion is empty (a standalone ``# lint:`` comment) applies to the next
non-blank source line, which keeps annotations usable on wrapped expressions.
"""

from __future__ import annotations

import io
import re
import tokenize

from ..errors import LintError

__all__ = [
    "ALL_CODES",
    "ALIASES",
    "is_suppressed",
    "parse_suppressions",
]

#: Sentinel meaning "every code suppressed on this line".
ALL_CODES = "*"

#: Readable aliases for the common, reviewed suppressions.
ALIASES: dict[str, frozenset[str]] = {
    "exact-float": frozenset({"REP301"}),
    "allow-wallclock": frozenset({"REP201"}),
    "allow-unseeded": frozenset({"REP202"}),
    "allow-units": frozenset({"REP101", "REP102"}),
    "allow-blocking": frozenset({"REP601"}),
}

_DIRECTIVE_RE = re.compile(r"#\s*lint:\s*(?P<body>[^#]*)")
_CODE_RE = re.compile(r"^REP\d{3}$")


def _parse_body(body: str) -> set[str] | None:
    """Codes named by one directive body, ``{ALL_CODES}`` for bare disable."""
    body = body.split("--", 1)[0].strip()
    if not body:
        return None
    codes: set[str] = set()
    for word in re.split(r"[\s,]+", body):
        if not word:
            continue
        if word == "disable":
            return {ALL_CODES}
        if word.startswith("disable="):
            word = word[len("disable=") :]
        if _CODE_RE.match(word):
            codes.add(word)
        elif word in ALIASES:
            codes |= ALIASES[word]
        else:
            raise LintError(
                f"unknown lint annotation {word!r} (aliases: "
                f"{', '.join(sorted(ALIASES))}; or disable=REPxxx)"
            )
    return codes or None


def _comment_directives(source: str) -> list[tuple[int, bool, set[str]]]:
    """``(lineno, standalone, codes)`` per ``# lint:`` comment token.

    Tokenizing (rather than regex-scanning raw lines) keeps directives
    *mentioned* inside strings and docstrings from being parsed as live
    annotations.
    """
    out: list[tuple[int, bool, set[str]]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            match = _DIRECTIVE_RE.search(tok.string)
            if not match:
                continue
            codes = _parse_body(match.group("body"))
            if codes is None:
                continue
            standalone = not tok.line[: tok.start[1]].strip()
            out.append((tok.start[0], standalone, codes))
    except (tokenize.TokenError, IndentationError):
        pass  # unparseable tails surface as REP000 through the engine
    return out


def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Map 1-based line number -> set of suppressed codes (or ``ALL_CODES``).

    Standalone annotation lines (nothing but the comment) forward their
    suppression to the next non-blank, non-comment line so wrapped
    statements can be annotated without fighting the formatter.
    """
    lines = source.splitlines()
    suppressed: dict[int, set[str]] = {}
    for lineno, standalone, codes in _comment_directives(source):
        if not standalone:
            suppressed.setdefault(lineno, set()).update(codes)
            continue
        for later in range(lineno + 1, len(lines) + 1):
            stripped = lines[later - 1].strip()
            if stripped and not stripped.startswith("#"):
                suppressed.setdefault(later, set()).update(codes)
                break
    return suppressed


def is_suppressed(suppressions: dict[int, set[str]], line: int, code: str) -> bool:
    """Whether ``code`` is suppressed at ``line`` by an annotation."""
    codes = suppressions.get(line)
    if not codes:
        return False
    return ALL_CODES in codes or code in codes
