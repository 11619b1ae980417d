"""Cold start: each import path and command loads only what it runs.

`import convstruct` and `import convstruct.cli` load the standard library and
the numpy-free `corpus` and `threads` modules; numpy loads when a command or
library name that needs it is used, and scipy only for `analyze correlate`.
Of the analyses in `convstruct.stats`, `evaluate` and `agree` load
`bootstrap` alone, and `analyze correlate` loads `correlation` alone. Each
check runs in a fresh interpreter, since this process has loaded everything
already.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import convstruct
import convstruct.stats
from test_cli import GOLD_CLIP, TRANSCRIPT, write_corpus

SRC = Path(__file__).resolve().parents[1] / "src"
GENDERS = "canonical_name\tgender\tshow_id\nada\tfemale\tshowx\nmax\tmale\tshowx\n"


def loaded_after(code: str, packages: tuple[str, ...] = ("numpy", "scipy")) -> set[str]:
    """The modules of `packages` (and their submodules) that a fresh
    interpreter holds after `code`."""
    probe = (
        "import io, json, sys, contextlib\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + f"print(json.dumps(sorted(m for m in sys.modules if m in {packages!r}"
        f" or m.startswith({tuple(p + '.' for p in packages)!r}))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def cli_run(argv: list[str]) -> str:
    return ("from convstruct.cli import main\n"
            f"assert main({argv!r}) == 0\n")


@pytest.fixture
def corpus(tmp_path):
    write_corpus(tmp_path / "corpus", {"c1": GOLD_CLIP, "c2": GOLD_CLIP},
                 {"c1": TRANSCRIPT, "c2": TRANSCRIPT},
                 casts={c: {"clip_id": c, "show_id": "showx", "cast": ["ada", "max"]}
                        for c in ("c1", "c2")})
    (tmp_path / "genders.tsv").write_text(GENDERS)
    for clip_id in ("c1", "c2"):
        (tmp_path / "corpus" / f"{clip_id}.faces.json").write_text(json.dumps(
            {"clip_id": clip_id, "faces": [{"name": "ada", "spans": [[0.0, 4.3]]}]}))
    (tmp_path / "annotators.json").write_text(json.dumps(
        {"a": "corpus/c1.annotation.json", "b": "corpus/c1.annotation.json"}))
    return tmp_path


class TestNoNumericStackAtStartup:
    @pytest.mark.parametrize("code", ["import convstruct", "import convstruct.cli"])
    def test_import_loads_neither_numpy_nor_scipy(self, code):
        assert loaded_after(code) == set()

    def test_help_loads_neither(self):
        code = ("from convstruct.cli import main\n"
                "try:\n    main(['--help'])\nexcept SystemExit:\n    pass")
        assert loaded_after(code) == set()

    def test_validate_loads_neither(self, corpus):
        assert loaded_after(cli_run(["validate", str(corpus / "corpus")])) == set()


class TestCommandsLoadNoScipy:
    @pytest.mark.parametrize("name", ["evaluate", "agree", "baseline", "baseline full",
                                      "threads", "roles", "logodds"])
    def test_numpy_only(self, corpus, name):
        root, genders = str(corpus / "corpus"), str(corpus / "genders.tsv")
        argv = {
            "evaluate": ["evaluate", root, root, "--bootstrap", "50"],
            "agree": ["agree", str(corpus / "annotators.json")],
            "baseline": ["baseline", root, "--mode", "reply-only",
                         "--out", str(corpus / "pred")],
            "baseline full": ["baseline", root, "--mode", "full", "--faces", root,
                              "--out", str(corpus / "pred")],
            "threads": ["analyze", "threads", root, "--gender-map", genders,
                        "--bootstrap", "50", "--permutations", "20"],
            "roles": ["analyze", "roles", root, "--gender-map", genders],
            "logodds": ["analyze", "logodds", root, "--min-count", "1",
                        "--permutations", "4"],
        }[name]
        loaded = loaded_after(cli_run(argv))
        assert "numpy" in loaded
        assert not {m for m in loaded if m.split(".")[0] == "scipy"}


class TestScoringLoadsNoOtherAnalysis:
    @pytest.mark.parametrize("name", ["evaluate", "agree"])
    def test_only_the_bootstrap_stats_module(self, corpus, name):
        root = str(corpus / "corpus")
        argv = {"evaluate": ["evaluate", root, root, "--bootstrap", "50"],
                "agree": ["agree", str(corpus / "annotators.json")]}[name]
        loaded = loaded_after(cli_run(argv), ("convstruct.stats",))
        assert loaded == {"convstruct.stats", "convstruct.stats.bootstrap"}


class TestCorrelateLoadsNoOtherAnalysis:
    def test_only_the_correlation_stats_module(self, tmp_path):
        (tmp_path / "features.csv").write_text(
            "clip_id,n,f1_speaker\n" + "".join(f"c{k},{k},{k * k}\n" for k in range(5)))
        argv = ["analyze", "correlate", "--features", str(tmp_path / "features.csv")]
        loaded = loaded_after(cli_run(argv), ("convstruct.stats",))
        assert loaded == {"convstruct.stats", "convstruct.stats.correlation"}


class TestPublicNames:
    @pytest.mark.parametrize("package", [convstruct, convstruct.stats],
                             ids=["convstruct", "convstruct.stats"])
    def test_every_exported_name_resolves(self, package):
        for name in package.__all__:
            assert getattr(package, name) is not None, name

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from convstruct import *", namespace)
        assert set(convstruct.__all__) <= set(namespace)
        from convstruct.metrics import evaluate_corpus

        assert namespace["evaluate_corpus"] is evaluate_corpus

    def test_lazy_names_are_listed_and_unknown_names_raise(self):
        assert set(convstruct.__all__) <= set(dir(convstruct))
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            convstruct.no_such_name  # noqa: B018

    def test_moved_errors_keep_their_old_import_paths(self):
        from convstruct import agreement, corpus, metrics
        from convstruct.stats import bootstrap

        assert metrics.MetricInputError is corpus.MetricInputError
        assert bootstrap.StatsError is corpus.StatsError
        assert agreement.AgreementError is corpus.AgreementError
        assert convstruct.MetricInputError is corpus.MetricInputError
        assert convstruct.AgreementError is corpus.AgreementError

    @staticmethod
    def _readme_names(opening: str, end: str) -> list[str]:
        """The backticked names of the README sentence that starts `opening`,
        up to the first `end` after it."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        start = readme.index(opening) + len(opening)
        return re.findall(r"`([^`]+)`", readme[start:readme.index(end, start)])

    def test_readme_lists_every_package_export(self):
        names = self._readme_names("`convstruct` exports", ").")
        assert len(names) == len(set(names))
        assert set(names) == set(convstruct.__all__) - {"__version__"}

    def test_readme_lists_only_stats_exports(self):
        names = self._readme_names("`convstruct.stats` exposes", " above.")
        assert names and set(names) <= set(convstruct.stats.__all__)
