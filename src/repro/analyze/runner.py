"""Entry points: run the code-analysis deck over source trees.

Mirrors :mod:`repro.lint.runner` one layer up: contexts are parsed
modules instead of design artifacts, the deck is the code registry,
and the waiver file is a committed text file whose every line carries
a justification.  ``self_report()`` is the CI gate -- the repo must
analyze itself clean.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from ..lint.framework import LintConfig, LintReport, Waiver
from ..lint.runner import assert_clean, run_rules
from ..obs.metrics import metrics
from .context import CodeContext, SourceError, context_for_file
from .determinism import CODE_REGISTRY

#: the committed self-analysis waiver file (shipped with the package)
DEFAULT_WAIVERS = Path(__file__).resolve().parent / "waivers.txt"


class WaiverSyntaxError(ValueError):
    """A waiver file line that does not parse."""


def load_waivers(path: Union[str, Path]) -> List[Waiver]:
    """Parse a waiver file into :class:`~repro.lint.framework.Waiver`\\ s.

    One waiver per line::

        DET005 repro/place/scalar.py::legalize_cells -- two-element
            int set; int hash order is process-stable

    ``#`` starts a comment; rule id and obj pattern are fnmatch
    patterns; everything after ``--`` is the mandatory justification.
    """
    waivers: List[Waiver] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, reason = line.partition("--")
        parts = head.split()
        if len(parts) != 2 or not sep or not reason.strip():
            raise WaiverSyntaxError(
                f"{path}:{lineno}: expected "
                f"'RULE_ID obj-pattern -- reason', got {raw.strip()!r}")
        waivers.append(Waiver(rule_id=parts[0], obj=parts[1],
                              reason=reason.strip()))
    return waivers


def default_config(waiver_paths: Optional[Sequence[Union[str, Path]]]
                   = None,
                   use_default_waivers: bool = True,
                   disabled: Sequence[str] = ()) -> LintConfig:
    """The analyzer config: committed waivers plus any extra files."""
    waivers: List[Waiver] = []
    if use_default_waivers and DEFAULT_WAIVERS.exists():
        waivers.extend(load_waivers(DEFAULT_WAIVERS))
    for p in waiver_paths or ():
        waivers.extend(load_waivers(p))
    return LintConfig(disabled=tuple(disabled), waivers=waivers)


def source_root() -> Path:
    """The installed ``repro`` package directory (self-analysis root)."""
    return Path(__file__).resolve().parent.parent


def iter_source_files(paths: Iterable[Union[str, Path]]
                      ) -> Iterator[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    for p in paths:
        p = Path(p)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        else:
            yield p


def analyze_file(path: Union[str, Path],
                 config: Optional[LintConfig] = None,
                 rules: Optional[Sequence[str]] = None,
                 root: Optional[Union[str, Path]] = None) -> LintReport:
    """Run the code deck over one source file."""
    ctx = context_for_file(path, root=root)
    return run_rules(ctx, config=config, rules=rules,
                     registry=CODE_REGISTRY)


def analyze_source(source: str, name: str = "<memory>",
                   config: Optional[LintConfig] = None,
                   rules: Optional[Sequence[str]] = None) -> LintReport:
    """Run the code deck over in-memory source (tests, tooling)."""
    from .context import context_for_source
    ctx = context_for_source(source, name=name)
    return run_rules(ctx, config=config, rules=rules,
                     registry=CODE_REGISTRY)


def analyze_paths(paths: Optional[Iterable[Union[str, Path]]] = None,
                  config: Optional[LintConfig] = None,
                  rules: Optional[Sequence[str]] = None,
                  root: Optional[Union[str, Path]] = None) -> LintReport:
    """Run the code deck over a source tree and merge the reports.

    With no ``paths`` this analyzes the installed ``repro`` package
    itself -- the self-gate.  Unparseable files surface as an ``ERROR``
    violation (rule id ``PARSE``) rather than aborting the sweep.
    """
    if paths is None:
        base = source_root()
        paths = [base]
        root = root if root is not None else base.parent
    total = LintReport()
    for path in iter_source_files(paths):
        try:
            report = analyze_file(path, config=config, rules=rules,
                                  root=root)
        except SourceError as exc:
            report = LintReport(contexts=[str(path)])
            from ..lint.framework import ERROR, Violation
            report.violations.append(Violation(
                rule_id="PARSE", severity=ERROR, message=str(exc),
                obj=f"{path}::<module>", context=str(path)))
        total.merge(report)
    m = metrics()
    m.counter("analyze.runs").inc()
    for kind, n in total.counts().items():
        if n:
            m.counter(f"analyze.findings.{kind}").inc(n)
    return total.sort()


def self_report(waiver_paths: Optional[Sequence[Union[str, Path]]]
                = None,
                use_default_waivers: bool = True,
                rules: Optional[Sequence[str]] = None) -> LintReport:
    """Analyze the ``repro`` package against the committed waivers."""
    config = default_config(waiver_paths,
                            use_default_waivers=use_default_waivers)
    return analyze_paths(config=config, rules=rules)


def assert_self_clean() -> LintReport:
    """The CI gate: raise unless the repo analyzes itself clean."""
    return assert_clean(self_report(), stage="analyze")
